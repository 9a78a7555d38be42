//! Load generators: the in-process open loop and the closed loops.
//!
//! Every answer is compared bit for bit with the answer precomputed during
//! set-up. A typed error or a wrong answer is counted as failed and enters
//! the latency sample as `+inf`, so it misses every latency limit.

use std::sync::{mpsc, Barrier};
use std::time::{Duration, Instant};

use sbrl_core::serve::{InferenceService, PendingPrediction};
use sbrl_core::SbrlError;
use sbrl_metrics::EffectEstimate;
use sbrl_tensor::Matrix;

use crate::stats::Tally;
use crate::trace::Tracer;

/// One request of the fixed pool, with the answer it must get.
pub struct PooledRequest {
    /// Registry name of the model the request is sent to.
    pub model: String,
    /// Covariate rows.
    pub x: Matrix,
    /// `FittedModel::predict` on the same rows, computed during set-up.
    pub expected: EffectEstimate,
}

/// What one load phase observed.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    /// Per-request latency in microseconds (`+inf` for a failed request).
    pub lat_us: Vec<f64>,
    /// When each request was sent (due, for the open loop), in seconds from
    /// the start of the phase; parallel to `lat_us`.
    pub at_s: Vec<f64>,
    /// Open loop only: how late the generator sent each request, in µs.
    pub late_us: Vec<f64>,
    /// Requests attempted and failed.
    pub tally: Tally,
    /// Wall time of the phase in seconds.
    pub wall_s: f64,
    /// Open loop, traced only: the largest queue depth seen at a submit.
    pub depth_max: usize,
}

impl Phase {
    /// Timed requests answered correctly per second of the phase.
    pub fn throughput(&self) -> f64 {
        self.lat_us.iter().filter(|v| v.is_finite()).count() as f64 / self.wall_s.max(1e-9)
    }

    /// Latencies split into consecutive windows of `window_s` seconds by
    /// send time; a trailing partial window is dropped. A phase shorter than
    /// one window is a single window of its own length.
    fn windows(&self, window_s: f64) -> (Vec<Vec<f64>>, f64) {
        let full = (self.wall_s / window_s).floor() as usize;
        if full == 0 {
            return (vec![self.lat_us.clone()], self.wall_s);
        }
        let mut out = vec![Vec::new(); full];
        for (&at, &lat) in self.at_s.iter().zip(&self.lat_us) {
            if let Some(w) = out.get_mut((at / window_s) as usize) {
                w.push(lat);
            }
        }
        (out, window_s)
    }

    /// Median over the non-empty windows of `stat(latencies, window length)`.
    pub fn windowed_median(&self, window_s: f64, stat: impl Fn(Vec<f64>, f64) -> f64) -> f64 {
        let (windows, len) = self.windows(window_s);
        let per_window: Vec<f64> =
            windows.into_iter().filter(|w| !w.is_empty()).map(|w| stat(w, len)).collect();
        crate::stats::median(&per_window)
    }
}

/// True when both estimates carry exactly the same bits.
fn same_bits(a: &EffectEstimate, b: &EffectEstimate) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    bits(&a.y0_hat) == bits(&b.y0_hat) && bits(&a.y1_hat) == bits(&b.y1_hat)
}

/// Counts one outcome; returns whether it was a correct answer.
pub fn check(
    tally: &mut Tally,
    outcome: Result<EffectEstimate, SbrlError>,
    expected: &EffectEstimate,
) -> bool {
    match outcome {
        Ok(est) if same_bits(&est, expected) => {
            tally.ok();
            true
        }
        Ok(_) => {
            tally.wrong();
            false
        }
        Err(_) => {
            tally.error();
            false
        }
    }
}

fn micros(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// Sleeps until `due`; never spins.
fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

struct Sent {
    index: usize,
    due: Instant,
    root: u64,
    outcome: Result<PendingPrediction, SbrlError>,
}

/// In-process open loop at a fixed `rate` for `duration`: one thread
/// submits each request at its due time, one thread waits for the answers.
/// Latency runs from each request's due time, so a stalled generator or
/// service charges the wait to every request it delays.
pub fn open_loop(
    service: &InferenceService,
    pool: &[PooledRequest],
    rate: f64,
    duration: Duration,
    tracer: &Tracer,
) -> Phase {
    let n = ((rate * duration.as_secs_f64()).round() as usize).max(1);
    let interval = Duration::from_secs_f64(1.0 / rate);
    let (tx, rx) = mpsc::channel::<Sent>();
    let start = Instant::now() + Duration::from_millis(1);
    std::thread::scope(|scope| {
        let submitter = scope.spawn(move || {
            let mut late_us = Vec::with_capacity(n);
            let mut depth_max = 0;
            // The next request's matrix is copied while the generator waits
            // for its due time, outside the timed region.
            let mut next = pool[0].x.clone();
            for index in 0..n {
                let req = &pool[index % pool.len()];
                let due = start + interval.mul_f64(index as f64);
                sleep_until(due);
                late_us.push(micros(Instant::now().saturating_duration_since(due)));
                if tracer.is_on() {
                    depth_max = depth_max.max(service.queue_depth());
                }
                let x = std::mem::replace(&mut next, Matrix::zeros(0, 0));
                let root = tracer.reserve();
                let outcome = tracer
                    .span("serve.submit", root, index as u64, |_| service.submit(&req.model, x));
                if tx.send(Sent { index, due, root, outcome }).is_err() {
                    break;
                }
                next = pool[(index + 1) % pool.len()].x.clone();
            }
            (late_us, depth_max)
        });
        let waiter = scope.spawn(move || {
            let mut lat_us = Vec::with_capacity(n);
            let mut at_s = Vec::with_capacity(n);
            let mut tally = Tally::default();
            for sent in rx {
                let req = &pool[sent.index % pool.len()];
                let request = sent.index as u64;
                let outcome = sent
                    .outcome
                    .and_then(|p| tracer.span("serve.wait", sent.root, request, |_| p.wait()));
                let done = Instant::now();
                tracer.record(sent.root, "harness.request", 0, request, sent.due, done);
                let ok = check(&mut tally, outcome, &req.expected);
                lat_us.push(if ok { micros(done - sent.due) } else { f64::INFINITY });
                at_s.push((sent.due - start).as_secs_f64());
            }
            (lat_us, at_s, tally)
        });
        let (late_us, depth_max) = submitter.join().expect("the open-loop submitter panicked");
        let (lat_us, at_s, tally) = waiter.join().expect("the open-loop waiter panicked");
        let wall_s = duration.as_secs_f64();
        Phase { lat_us, at_s, late_us, tally, wall_s, depth_max }
    })
}

/// Closed loop: `clients` threads each send their next request when the
/// previous answer arrives, for `duration`. `connect` opens one client's
/// connection; `call` sends one request over it. Each client sends one
/// untimed warm-up request, then all start timing together.
pub fn closed_loop<C>(
    clients: usize,
    pool: &[PooledRequest],
    duration: Duration,
    tracer: &Tracer,
    span_name: &'static str,
    connect: impl Fn() -> C + Sync,
    call: impl Fn(&mut C, &str, Matrix) -> Result<EffectEstimate, SbrlError> + Sync,
) -> Phase {
    let (connect, call) = (&connect, &call);
    let ready = &Barrier::new(clients);
    let mut phase = Phase::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    let mut conn = connect();
                    let mut tally = Tally::default();
                    let warm = &pool[client % pool.len()];
                    check(&mut tally, call(&mut conn, &warm.model, warm.x.clone()), &warm.expected);
                    ready.wait();
                    let start = Instant::now();
                    let end = start + duration;
                    let mut lat_us = Vec::new();
                    let mut at_s = Vec::new();
                    // Each client walks the whole pool (so its requests
                    // alternate between the models) from its own offset.
                    let mut k = client * pool.len() / clients;
                    while Instant::now() < end {
                        let req = &pool[k % pool.len()];
                        let x = req.x.clone();
                        let t0 = Instant::now();
                        at_s.push((t0 - start).as_secs_f64());
                        let request = ((client as u64) << 32) | lat_us.len() as u64;
                        let outcome =
                            tracer.span(span_name, 0, request, |_| call(&mut conn, &req.model, x));
                        let elapsed = t0.elapsed();
                        let ok = check(&mut tally, outcome, &req.expected);
                        lat_us.push(if ok { micros(elapsed) } else { f64::INFINITY });
                        k += 1;
                    }
                    (lat_us, at_s, tally, start.elapsed().as_secs_f64())
                })
            })
            .collect();
        for handle in handles {
            let (lat_us, at_s, tally, wall_s) =
                handle.join().expect("a closed-loop client panicked");
            phase.lat_us.extend(lat_us);
            phase.at_s.extend(at_s);
            phase.tally.add(tally);
            phase.wall_s = phase.wall_s.max(wall_s);
        }
    });
    phase
}
