//! The workloads: what each one sets up, runs and reports.
//!
//! Every workload shares one set-up, repeated once per replication (each
//! with its own data and fit seed); `setup_s` is the median repeat:
//!
//! 1. generate `Syn_16_16_16_2`: train and validation sets at ρ = 2.5, and
//!    every other `PAPER_BIAS_RATES` environment as an OOD test set;
//! 2. fit CFR+SBRL-HAP and vanilla CFR and evaluate both on every OOD
//!    environment;
//! 3. save both with `FittedModel::save`, load them back with
//!    `ModelRegistry::load_dir` and start a `SocketServer` on loopback;
//! 4. precompute, with `FittedModel::predict` on the fitted models, the
//!    answer to every request of a fixed pool of OOD rows.
//!
//! The last repeat's server is the one measured. `fit_syn16` then spends
//! most of its time refitting CFR+SBRL-HAP and serves 16-row requests for
//! the rest; `serve_small` and `serve_large` serve 16-row and 1024-row
//! requests, first in an in-process open loop, then in a socket closed loop.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use sbrl_core::serve::{InferenceService, ServeConfig, SocketServer};
use sbrl_core::wire::{ClientConfig, ServeClient};
use sbrl_core::{FittedModel, Framework, MethodSpec, ModelRegistry, TrainConfig};
use sbrl_data::{
    CausalDataset, SyntheticConfig, SyntheticProcess, PAPER_BIAS_RATES, TRAIN_BIAS_RATE,
};
use sbrl_experiments::presets::{bench_variant, paper_syn_16_16_16_2};
use sbrl_experiments::{fit_method, BackboneKind, ExperimentPreset, Scale};
use sbrl_metrics::{env_aggregate, EnvAggregate};
use sbrl_models::Backbone;
use sbrl_tensor::Matrix;

use crate::load::{check, closed_loop, open_loop, Phase, PooledRequest};
use crate::probes::{self, ProbeInputs};
use crate::report::Metric;
use crate::stats::{median, Summary, Tally};
use crate::trace::{Span, Tracer};

type Model = FittedModel<Box<dyn Backbone>>;

/// Length of the windows the serving medians are taken over, in seconds.
const WINDOW_S: f64 = 1.0;

/// The end-to-end metrics the result line carries. The timed ones other
/// than `setup_s` are printed, and recorded per layer by the traced run,
/// but not gated: on a shared 2-core host their run-to-run spread is wider
/// than the largest bound a gate may have (see `README.md`).
pub const GATED: [&str; 3] = ["setup_s", "pehe_ood", "pehe_ood_std"];

/// The method every workload fits, serves and scores.
const HAP: MethodSpec = MethodSpec { backbone: BackboneKind::Cfr, framework: Framework::SbrlHap };
/// The second served model.
const VANILLA: MethodSpec =
    MethodSpec { backbone: BackboneKind::Cfr, framework: Framework::Vanilla };

/// The architecture and regulariser preset of every fit: `bench_variant`
/// of the paper's `Syn_16_16_16_2` preset (rep 24 / head 12,
/// Sinkhorn-Wasserstein IPM).
fn preset() -> ExperimentPreset {
    bench_variant(paper_syn_16_16_16_2())
}

/// Sizes and budgets of a workload.
#[derive(Clone, Copy, Debug)]
struct Sizes {
    /// Training rows per replication.
    n_train: usize,
    /// Validation rows per replication.
    n_val: usize,
    /// Rows per OOD environment.
    n_env: usize,
    /// Optimisation budget of the CFR+SBRL-HAP fits (the seed is set per
    /// replication).
    budget: TrainConfig,
    /// Budget of the vanilla CFR fit, which is only served, never scored.
    vanilla_budget: TrainConfig,
    /// Set-up repeats, each its own replication.
    replications: usize,
    /// Pooled requests per served model.
    pool_per_model: usize,
    /// Time given to each per-layer probe of the traced run.
    probe_budget: Duration,
}

impl Sizes {
    /// `Scale::Quick` sample sizes (1200 train / 400 validation / 600 per
    /// OOD environment) and budget (400 iterations, batch 128); the vanilla
    /// model gets the `Scale::Bench` budget.
    fn quick(pool_per_model: usize) -> Self {
        let (n_train, n_val, n_env) = Scale::Quick.synthetic_samples();
        Self {
            n_train,
            n_val,
            n_env,
            budget: Scale::Quick.train_config(0.0, 0.0, 0),
            vanilla_budget: Scale::Bench.train_config(0.0, 0.0, 0),
            replications: 5,
            pool_per_model,
            probe_budget: Duration::from_millis(150),
        }
    }
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload exists.
    pub why: &'static str,
    /// Rows per served request.
    rows: usize,
    /// Open-loop arrival rate in requests per second.
    rate: f64,
    /// Share of the measured time spent refitting (0 for no fit loop).
    fit_share: f64,
    /// Sizes and budgets.
    sizes: Sizes,
}

/// The three workloads.
pub fn workloads() -> [Workload; 3] {
    [
        Workload {
            name: "fit_syn16",
            why: "CFR+SBRL-HAP refits on Syn_16_16_16_2: kernels, the graph tape and the \
                  IPM/HSIC regularisers take nearly all the time",
            rows: 16,
            rate: 1000.0,
            fit_share: 0.5,
            sizes: Sizes::quick(64),
        },
        Workload {
            name: "serve_small",
            why: "16-row requests: the admission queue and batch window dominate served latency",
            rows: 16,
            rate: 1000.0,
            fit_share: 0.0,
            sizes: Sizes::quick(64),
        },
        Workload {
            name: "serve_large",
            why: "1024-row requests: the forward pass and the frame codec dominate served latency",
            rows: 1024,
            rate: 150.0,
            fit_share: 0.0,
            sizes: Sizes::quick(8),
        },
    ]
}

/// The workload named `name`.
pub fn find(name: &str) -> Option<Workload> {
    workloads().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The same workload shrunk to run in seconds in a debug build (for the
    /// benchmark's own tests).
    pub fn smoke(self) -> Self {
        let budget = TrainConfig {
            iterations: 6,
            batch_size: 32,
            eval_every: 3,
            patience: 4,
            ..self.sizes.budget
        };
        Self {
            sizes: Sizes {
                n_train: 120,
                n_val: 60,
                n_env: 150,
                budget,
                vanilla_budget: budget,
                replications: 2,
                pool_per_model: 2,
                probe_budget: Duration::from_millis(5),
            },
            ..self
        }
    }
}

/// How a run is made.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Workload seed: all inputs derive from it.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
    /// Closed-loop clients (the socket phase's connection count).
    pub clients: usize,
    /// Directory for the saved models.
    pub workdir: PathBuf,
}

/// Everything a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed, over the whole run.
    pub tally: Tally,
    /// Every end-to-end metric (from an untraced pass); [`GATED`] names the
    /// ones the result line carries.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Readable detail: phases with sample counts, percentiles and failures.
    pub lines: Vec<String>,
    /// Recorded spans (traced runs only).
    pub spans: Vec<Span>,
}

/// One fit plus evaluation on every OOD environment.
#[derive(Clone, Debug)]
struct FitSample {
    /// `Estimator::fit` wall time in seconds.
    fit_s: f64,
    /// Evaluation wall time (all environments) in seconds.
    evaluate_s: f64,
    /// Training iterations run.
    iterations: usize,
    /// PEHE on each OOD environment.
    pehe: Vec<f64>,
}

impl FitSample {
    fn total_s(&self) -> f64 {
        self.fit_s + self.evaluate_s
    }

    /// Same PEHE bits on every environment.
    fn reproduces(&self, other: &FitSample) -> bool {
        self.pehe.iter().map(|p| p.to_bits()).eq(other.pehe.iter().map(|p| p.to_bits()))
    }
}

struct Replication {
    seed: u64,
    train: CausalDataset,
    val: CausalDataset,
    envs: Vec<CausalDataset>,
    /// Every OOD environment's rows, stacked.
    ood: Matrix,
}

struct Deployment {
    server: SocketServer,
    models: Vec<Model>,
    pool: Vec<PooledRequest>,
    artifact_bytes: u64,
}

struct Setup {
    reps: Vec<Replication>,
    deployment: Deployment,
    setup_s: Vec<f64>,
    /// The CFR+SBRL-HAP fit of each replication.
    hap_fits: Vec<FitSample>,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The data and fit seed of replication `j` of a run seeded `seed`.
fn replication_seed(seed: u64, j: usize) -> u64 {
    let mut state = seed.wrapping_mul(1_000_003).wrapping_add(j as u64);
    splitmix(&mut state)
}

fn generate(sizes: &Sizes, seed: u64) -> Replication {
    let process = SyntheticProcess::new(SyntheticConfig::syn_16_16_16_2(), seed);
    let envs: Vec<CausalDataset> = PAPER_BIAS_RATES
        .iter()
        .filter(|&&rho| rho != TRAIN_BIAS_RATE)
        .enumerate()
        .map(|(k, &rho)| process.generate(rho, sizes.n_env, 2 + k as u64))
        .collect();
    let ood = envs[1..].iter().fold(envs[0].x.clone(), |acc, env| acc.vstack(&env.x));
    Replication {
        seed,
        train: process.generate(TRAIN_BIAS_RATE, sizes.n_train, 0),
        val: process.generate(TRAIN_BIAS_RATE, sizes.n_val, 1),
        envs,
        ood,
    }
}

/// Fits `spec` on a replication and evaluates it on every OOD environment.
fn fit_eval(
    spec: MethodSpec,
    rep: &Replication,
    budget: &TrainConfig,
    tracer: &Tracer,
    parent: u64,
    request: u64,
) -> Result<(Model, FitSample), String> {
    tracer.span("harness.fit_eval", parent, request, |id| {
        let p = preset();
        let cfg = TrainConfig { lr: p.lr, l2: p.l2, seed: rep.seed, ..*budget };
        let started = Instant::now();
        let model = tracer
            .span("trainer.fit", id, request, |_| fit_method(spec, &p, &rep.train, &rep.val, &cfg))
            .map_err(|e| format!("{} fit failed: {e}", spec.name()))?;
        let fitted = Instant::now();
        let pehe: Option<Vec<f64>> = tracer.span("trainer.evaluate", id, request, |_| {
            rep.envs.iter().map(|env| model.evaluate(env).map(|e| e.pehe)).collect()
        });
        let evaluate_s = fitted.elapsed().as_secs_f64();
        let pehe = pehe.ok_or("an OOD environment has no oracle outcomes")?;
        let iterations = model.report().iterations_run;
        let fit_s = (fitted - started).as_secs_f64();
        Ok((model, FitSample { fit_s, evaluate_s, iterations, pehe }))
    })
}

/// A fixed pool of requests over the OOD rows, alternating between the
/// models, each with its expected answer.
fn request_pool(
    models: &[Model],
    rep: &Replication,
    rows: usize,
    per_model: usize,
) -> Vec<PooledRequest> {
    let n = rep.ood.rows();
    assert!(n >= rows, "{n} OOD rows cannot fill a {rows}-row request");
    let mut state = rep.seed ^ 0x0bad_5eed;
    (0..per_model * models.len())
        .map(|k| {
            let model = &models[k % models.len()];
            let offset = (splitmix(&mut state) % (n - rows + 1) as u64) as usize;
            let idx: Vec<usize> = (offset..offset + rows).collect();
            let x = rep.ood.select_rows(&idx);
            let expected = model.predict(&x);
            PooledRequest { model: model.method_spec().name(), x, expected }
        })
        .collect()
}

/// Counts a fit: correct when its PEHE is finite on every environment.
fn count_pehe(tally: &mut Tally, fit: &FitSample) {
    if fit.pehe.iter().all(|p| p.is_finite()) {
        tally.ok();
    } else {
        tally.wrong();
    }
}

fn setup_once(
    w: &Workload,
    cfg: &RunConfig,
    j: usize,
    tracer: &Tracer,
    parent: u64,
    tally: &mut Tally,
) -> Result<(Replication, Deployment, FitSample), String> {
    let request = j as u64;
    let rep = tracer.span("data.generate", parent, request, |_| {
        generate(&w.sizes, replication_seed(cfg.seed, j))
    });
    let dir = cfg.workdir.join(format!("models-{j}"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut models = Vec::new();
    let mut fits = Vec::new();
    let mut artifact_bytes = 0;
    for (spec, budget) in [(HAP, &w.sizes.budget), (VANILLA, &w.sizes.vanilla_budget)] {
        let (model, fit) = fit_eval(spec, &rep, budget, tracer, parent, request)?;
        count_pehe(tally, &fit);
        let path = dir.join(format!("{}.sbrl", spec.name().to_lowercase().replace('+', "-")));
        tracer
            .span("persist.save", parent, request, |_| model.save(&path))
            .map_err(|e| format!("save failed: {e}"))?;
        if spec == HAP {
            artifact_bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        }
        models.push(model);
        fits.push(fit);
    }
    let registry = tracer
        .span("persist.load", parent, request, |_| ModelRegistry::load_dir(&dir))
        .map_err(|e| format!("load failed: {e}"))?;
    let server = tracer
        .span("serve.start", parent, request, |_| {
            SocketServer::bind(registry, ServeConfig::default(), "127.0.0.1:0")
        })
        .map_err(|e| format!("server start failed: {e}"))?;
    let pool = tracer.span("trainer.predict_pool", parent, request, |_| {
        request_pool(&models, &rep, w.rows, w.sizes.pool_per_model)
    });
    let hap_fit = fits.swap_remove(0);
    Ok((rep, Deployment { server, models, pool, artifact_bytes }, hap_fit))
}

fn set_up(
    w: &Workload,
    cfg: &RunConfig,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Result<Setup, String> {
    let mut reps = Vec::new();
    let mut setup_s = Vec::new();
    let mut hap_fits = Vec::new();
    let mut deployment = None;
    for j in 0..w.sizes.replications {
        let started = Instant::now();
        let (rep, dep, fit) = tracer
            .span("harness.setup", 0, j as u64, |id| setup_once(w, cfg, j, tracer, id, tally))?;
        setup_s.push(started.elapsed().as_secs_f64());
        reps.push(rep);
        hap_fits.push(fit);
        // The previous repeat's server drains here, outside the timed region.
        deployment = Some(dep);
    }
    let deployment = deployment.ok_or("a run needs at least one replication")?;
    Ok(Setup { reps, deployment, setup_s, hap_fits })
}

/// Refits CFR+SBRL-HAP, cycling over the replications, for `budget` and at
/// least once per replication. Every refit must reproduce the set-up fit of
/// its replication bit for bit.
fn fit_loop(
    w: &Workload,
    setup: &Setup,
    budget: Duration,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Vec<FitSample> {
    let started = Instant::now();
    let mut samples = Vec::new();
    let mut i = 0;
    while i < setup.reps.len() || started.elapsed() < budget {
        let r = i % setup.reps.len();
        match fit_eval(HAP, &setup.reps[r], &w.sizes.budget, tracer, 0, i as u64) {
            Ok((_, fit)) if fit.reproduces(&setup.hap_fits[r]) => {
                tally.ok();
                samples.push(fit);
            }
            Ok((_, fit)) => {
                tally.wrong();
                samples.push(fit);
            }
            Err(_) => tally.error(),
        }
        i += 1;
    }
    samples
}

/// One measured pass: the fit loop (if any), then the two serving phases.
struct Pass {
    fits: Vec<FitSample>,
    open: Phase,
    socket: Phase,
}

/// Length of each serving phase of a pass of `seconds`.
fn serve_phase(w: &Workload, seconds: f64) -> Duration {
    Duration::from_secs_f64(seconds * (1.0 - w.fit_share) / 2.0)
}

fn measure(
    w: &Workload,
    cfg: &RunConfig,
    setup: &Setup,
    seconds: f64,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Pass {
    let fits = if w.fit_share > 0.0 {
        fit_loop(w, setup, Duration::from_secs_f64(seconds * w.fit_share), tracer, tally)
    } else {
        Vec::new()
    };
    let dep = &setup.deployment;
    let phase = serve_phase(w, seconds);
    let open = open_loop(dep.server.service(), &dep.pool, w.rate, phase, tracer);
    let socket = socket_loop(cfg, dep, phase, tracer);
    tally.add(open.tally);
    tally.add(socket.tally);
    Pass { fits, open, socket }
}

fn socket_loop(cfg: &RunConfig, dep: &Deployment, duration: Duration, tracer: &Tracer) -> Phase {
    let addr = dep.server.local_addr();
    // No retries: every transport failure is counted, none is hidden.
    let client_cfg = ClientConfig { retries: 0, ..ClientConfig::default() };
    closed_loop(
        cfg.clients,
        &dep.pool,
        duration,
        tracer,
        "wire.client_predict",
        || ServeClient::connect(addr, client_cfg),
        |client, model, x| client.predict(model, &x),
    )
}

fn inproc_closed_loop(
    cfg: &RunConfig,
    service: &InferenceService,
    pool: &[PooledRequest],
    duration: Duration,
    tracer: &Tracer,
) -> Phase {
    closed_loop(
        cfg.clients,
        pool,
        duration,
        tracer,
        "serve.predict",
        || (),
        |_, model, x| service.predict(model, x),
    )
}

/// Runs the workload.
pub fn run(w: &Workload, cfg: &RunConfig) -> Result<Outcome, String> {
    let tracer = Tracer::new(cfg.trace);
    let untraced = Tracer::new(false);
    let mut tally = Tally::default();
    let setup = set_up(w, cfg, &tracer, &mut tally)?;
    let dep = &setup.deployment;
    // Warm-up: every pooled request once, in process (checked and counted).
    for req in &dep.pool {
        check(&mut tally, dep.server.service().predict(&req.model, req.x.clone()), &req.expected);
    }

    let mut out = Outcome::default();
    if !cfg.trace {
        let pass = measure(w, cfg, &setup, cfg.seconds, &untraced, &mut tally);
        out.end_to_end = end_to_end(&setup, &pass);
        describe(&mut out.lines, "", &setup, &pass);
    } else {
        // The traced run: per-layer probes, then the measured pass twice,
        // untraced and traced, each at half length, then an in-process
        // closed loop with the socket phase's client count.
        let spawned_before = sbrl_tensor::workers::threads_spawned();
        let computed = probes::run(&probe_inputs(w, cfg, &setup), &tracer, w.sizes.probe_budget);
        let half = cfg.seconds / 2.0;
        let plain = measure(w, cfg, &setup, half, &untraced, &mut tally);
        let traced = measure(w, cfg, &setup, half, &tracer, &mut tally);
        let closed =
            inproc_closed_loop(cfg, dep.server.service(), &dep.pool, serve_phase(w, half), &tracer);
        tally.add(closed.tally);
        let spawned = sbrl_tensor::workers::threads_spawned() - spawned_before;
        out.end_to_end = end_to_end(&setup, &plain);
        describe(&mut out.lines, "untraced ", &setup, &plain);
        describe(&mut out.lines, "traced ", &setup, &traced);
        out.lines.push(phase_line("traced inproc closed", &closed));
        let runs = TracedRun { plain: &plain, traced: &traced, closed: &closed };
        out.per_layer = per_layer(w, &setup, &tracer, &runs, computed, spawned);
        out.spans = tracer.spans();
    }
    out.tally = tally;
    Ok(out)
}

fn probe_inputs<'a>(w: &Workload, cfg: &RunConfig, setup: &'a Setup) -> ProbeInputs<'a> {
    let dep = &setup.deployment;
    let rep = &setup.reps[0];
    let batch: Vec<usize> = (0..w.sizes.budget.batch_size.min(rep.train.n())).collect();
    let rows_1024: Vec<usize> = (0..1024.min(rep.ood.rows())).collect();
    ProbeInputs {
        model: &dep.models[0],
        batch_x: rep.train.x.select_rows(&batch),
        batch_t: batch.iter().map(|&i| rep.train.t[i]).collect(),
        rep_width: preset().rep_width,
        x_1024: rep.ood.select_rows(&rows_1024),
        request: &dep.pool[0],
        sbrl: preset().sbrl_config(HAP),
        seed: cfg.seed,
    }
}

/// The fits `fit_s` is the median of: every CFR+SBRL-HAP fit of the run,
/// the set-up fits and the refits of `fit_syn16` alike.
fn timed_fits<'a>(setup: &'a Setup, pass: &'a Pass) -> Vec<&'a FitSample> {
    setup.hap_fits.iter().chain(&pass.fits).collect()
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    sum / n.max(1) as f64
}

/// PEHE of each OOD environment averaged over the replications, then
/// aggregated across environments: the paper's mean and stability.
fn pehe_across_environments(fits: &[FitSample]) -> EnvAggregate {
    let envs = fits.first().map_or(0, |f| f.pehe.len());
    let per_env: Vec<f64> = (0..envs).map(|e| mean(fits.iter().map(|f| f.pehe[e]))).collect();
    env_aggregate(&per_env)
}

/// Requests answered per second of one window.
fn window_throughput(lat_us: Vec<f64>, window_s: f64) -> f64 {
    lat_us.iter().filter(|v| v.is_finite()).count() as f64 / window_s
}

fn window_p50(lat_us: Vec<f64>, _window_s: f64) -> f64 {
    Summary::of(lat_us).p50
}

fn end_to_end(setup: &Setup, pass: &Pass) -> Vec<Metric> {
    let pehe = pehe_across_environments(&setup.hap_fits);
    let fit_s: Vec<f64> = timed_fits(setup, pass).iter().map(|f| f.total_s()).collect();
    vec![
        Metric::new("setup_s", median(&setup.setup_s), "s"),
        Metric::new("fit_s", median(&fit_s), "s"),
        Metric::new("pehe_ood", pehe.mean, "pehe"),
        Metric::new("pehe_ood_std", pehe.std, "pehe"),
        Metric::new("inproc_p50_us", pass.open.windowed_median(WINDOW_S, window_p50), "us"),
        Metric::new("inproc_p99_us", Summary::of(pass.open.lat_us.clone()).tail, "us"),
        Metric::new("socket_p50_us", pass.socket.windowed_median(WINDOW_S, window_p50), "us"),
        Metric::new("socket_p99_us", Summary::of(pass.socket.lat_us.clone()).tail, "us"),
        Metric::new(
            "throughput_rps",
            pass.socket.windowed_median(WINDOW_S, window_throughput),
            "req/s",
        ),
    ]
}

fn phase_line(label: &str, phase: &Phase) -> String {
    let s = Summary::of(phase.lat_us.clone());
    format!(
        "{label}: n={} p50={:.1}us {}={:.1}us failed={}/{} ({:.4}) throughput={:.1}req/s",
        s.samples,
        s.p50,
        s.tail_label(),
        s.tail,
        phase.tally.failed(),
        phase.tally.attempted,
        phase.tally.failed_share(),
        phase.throughput()
    )
}

fn describe(lines: &mut Vec<String>, prefix: &str, setup: &Setup, pass: &Pass) {
    let list = |v: &mut dyn Iterator<Item = f64>| v.map(|s| format!("{s:.3}")).collect::<Vec<_>>();
    let setups = list(&mut setup.setup_s.iter().copied());
    lines.push(format!("{prefix}setup: n={} seconds=[{}]", setups.len(), setups.join(", ")));
    let fits = list(&mut pass.fits.iter().map(FitSample::total_s));
    if !fits.is_empty() {
        lines.push(format!("{prefix}fits: n={} seconds=[{}]", fits.len(), fits.join(", ")));
    }
    lines.push(phase_line(&format!("{prefix}inproc open"), &pass.open));
    let late = Summary::of(pass.open.late_us.clone());
    lines.push(format!(
        "{prefix}generator lateness: p50={:.1}us {}={:.1}us",
        late.p50,
        late.tail_label(),
        late.tail
    ));
    lines.push(phase_line(&format!("{prefix}socket closed"), &pass.socket));
}

/// The passes of a traced run.
struct TracedRun<'a> {
    plain: &'a Pass,
    traced: &'a Pass,
    closed: &'a Phase,
}

fn per_layer(
    w: &Workload,
    setup: &Setup,
    tracer: &Tracer,
    runs: &TracedRun<'_>,
    computed: Vec<Metric>,
    threads_spawned: u64,
) -> Vec<Metric> {
    let us = |name: &str| median(&tracer.durations_us(name));
    let timed = timed_fits(setup, runs.traced);
    let ms_per_iter: Vec<f64> =
        timed.iter().map(|f| f.fit_s * 1e3 / f.iterations.max(1) as f64).collect();
    let evaluate_ms: Vec<f64> = timed.iter().map(|f| f.evaluate_s * 1e3).collect();
    let plain_open = Summary::of(runs.plain.open.lat_us.clone());
    let plain_socket = Summary::of(runs.plain.socket.lat_us.clone());
    let plain_fit_s: Vec<f64> = timed_fits(setup, runs.plain).iter().map(|f| f.total_s()).collect();
    let traced_socket_p50 = Summary::of(runs.traced.socket.lat_us.clone()).p50;
    let closed_p50 = Summary::of(runs.closed.lat_us.clone()).p50;
    let wait = Summary::of(tracer.durations_us("serve.wait"));
    let late = Summary::of(runs.plain.open.late_us.clone());
    // Tracing overhead on the workload's main figure: the median fit for
    // fit_syn16, the in-process median latency otherwise.
    let overhead = if w.fit_share > 0.0 {
        let f = |p: &Pass| median(&p.fits.iter().map(FitSample::total_s).collect::<Vec<_>>());
        f(runs.traced) / f(runs.plain) - 1.0
    } else {
        Summary::of(runs.traced.open.lat_us.clone()).p50 / plain_open.p50 - 1.0
    };
    let mut served = Tally::default();
    for phase in [&runs.traced.open, &runs.traced.socket, runs.closed] {
        served.add(phase.tally);
    }
    let iterations: usize = setup.hap_fits.iter().map(|f| f.iterations).sum();
    let mut m = vec![
        Metric::new("data.generate_ms", us("data.generate") / 1e3, "ms"),
        Metric::new("trainer.fit_iterations", iterations as f64, "count"),
        Metric::new("trainer.ms_per_iter", median(&ms_per_iter), "ms"),
        Metric::new("trainer.evaluate_ms", median(&evaluate_ms), "ms"),
        Metric::new("trainer.fit_s", median(&plain_fit_s), "s"),
        Metric::new("kernels.gemm_us", us("kernels.gemm"), "us"),
        Metric::new("kernels.gemm_nt_us", us("kernels.gemm_nt"), "us"),
        Metric::new("kernels.gemm_tn_us", us("kernels.gemm_tn"), "us"),
        Metric::new("kernels.gemm_1024_us", us("kernels.gemm_1024"), "us"),
        Metric::new("kernels.threads_spawned", threads_spawned as f64, "count"),
        Metric::new("stats.ipm_fwd_bwd_us", us("stats.ipm_fwd_bwd"), "us"),
        Metric::new("stats.hsic_fwd_bwd_us", us("stats.hsic_fwd_bwd"), "us"),
        Metric::new("persist.save_ms", us("persist.save") / 1e3, "ms"),
        Metric::new("persist.load_ms", us("persist.load") / 1e3, "ms"),
        Metric::new("persist.artifact_bytes", setup.deployment.artifact_bytes as f64, "byte"),
        Metric::new("trainer.predict_us", us("trainer.predict"), "us"),
        Metric::new("trainer.predict_batched_us", us("trainer.predict_batched"), "us"),
        Metric::new("serve.compute_share", us("trainer.predict_batched") / plain_open.p50, "ratio"),
        Metric::new("serve.submit_us", us("serve.submit"), "us"),
        Metric::new("serve.wait_p50_us", wait.p50, "us"),
        Metric::new("serve.wait_p99_us", wait.tail, "us"),
        Metric::new("serve.queue_depth_max", runs.traced.open.depth_max as f64, "count"),
        Metric::new("serve.closed_p50_us", closed_p50, "us"),
        Metric::new(
            "serve.inproc_p50_us",
            runs.plain.open.windowed_median(WINDOW_S, window_p50),
            "us",
        ),
        Metric::new("serve.inproc_p99_us", plain_open.tail, "us"),
        Metric::new("serve.requests", served.attempted as f64, "count"),
        Metric::new("serve.failed", served.failed() as f64, "count"),
        Metric::new("wire.encode_request_us", us("wire.encode_request"), "us"),
        Metric::new("wire.decode_request_us", us("wire.decode_request"), "us"),
        Metric::new("wire.encode_reply_us", us("wire.encode_reply"), "us"),
        Metric::new("wire.decode_reply_us", us("wire.decode_reply"), "us"),
        Metric::new("wire.hop_us", traced_socket_p50 - closed_p50, "us"),
        Metric::new(
            "wire.socket_p50_us",
            runs.plain.socket.windowed_median(WINDOW_S, window_p50),
            "us",
        ),
        Metric::new("wire.socket_p99_us", plain_socket.tail, "us"),
        Metric::new(
            "wire.throughput_rps",
            runs.plain.socket.windowed_median(WINDOW_S, window_throughput),
            "req/s",
        ),
        Metric::new("harness.gen_late_p99_us", late.tail, "us"),
        Metric::new("harness.trace_overhead_pct", overhead * 100.0, "%"),
    ];
    m.extend(computed);
    m
}
