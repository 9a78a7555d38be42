//! Per-layer probes of the traced run: repeated calls into one layer's
//! public functions, each call inside a span, on the shapes the workloads
//! use.

use std::hint::black_box;
use std::time::{Duration, Instant};

use sbrl_core::wire::{decode_message, encode_message, Message};
use sbrl_core::FittedModel;
use sbrl_models::{Backbone, BatchContext};
use sbrl_stats::{decorrelation_loss_graph_scratch, ipm_weighted_graph, HsicScratch, Rff};
use sbrl_tensor::kernels::{gemm, gemm_nt, gemm_tn, Parallelism};
use sbrl_tensor::rng::{randn, rng_from_seed};
use sbrl_tensor::{Graph, Matrix};

use crate::load::PooledRequest;
use crate::report::Metric;
use crate::trace::Tracer;

/// Calls made before a probe is timed.
const WARM_UP_CALLS: usize = 3;
/// Upper bound on the timed calls of one probe.
const MAX_CALLS: usize = 5000;

/// Calls `f` repeatedly for about `budget` (at least once), each call in a
/// span `name`.
fn probe<R>(tracer: &Tracer, name: &'static str, budget: Duration, mut f: impl FnMut() -> R) {
    for _ in 0..WARM_UP_CALLS {
        black_box(f());
    }
    let started = Instant::now();
    let mut call = 0;
    while call < MAX_CALLS && (call == 0 || started.elapsed() < budget) {
        tracer.span(name, 0, call as u64, |_| black_box(f()));
        call += 1;
    }
}

/// Inputs the probes run on.
pub struct ProbeInputs<'a> {
    /// The served CFR+SBRL-HAP model.
    pub model: &'a FittedModel<Box<dyn Backbone>>,
    /// One training batch (batch-size rows) and its treatments.
    pub batch_x: Matrix,
    /// Treatments of `batch_x`.
    pub batch_t: Vec<f64>,
    /// Width of the representation layers.
    pub rep_width: usize,
    /// A 1024-row request matrix (serve_large's forward shape).
    pub x_1024: Matrix,
    /// One request of the workload, for the predict and codec probes.
    pub request: &'a PooledRequest,
    /// The CFR+SBRL-HAP framework settings (IPM kind, HSIC settings).
    pub sbrl: sbrl_core::SbrlConfig,
    /// Seed of the probe's random inputs.
    pub seed: u64,
}

/// Computed work of one GEMM `m x k` by `k x n`: flops and bytes moved
/// (both operands read once, the output written once).
fn gemm_work(m: usize, k: usize, n: usize) -> (f64, f64) {
    ((2 * m * k * n) as f64, (8 * (m * k + k * n + m * n)) as f64)
}

/// Runs every probe; returns the computed-work metrics (timings are read
/// from the spans afterwards).
pub fn run(inputs: &ProbeInputs<'_>, tracer: &Tracer, budget: Duration) -> Vec<Metric> {
    let par = Parallelism::global();
    let mut rng = rng_from_seed(inputs.seed);
    let (rows, dim) = (inputs.batch_x.rows(), inputs.batch_x.cols());
    let width = inputs.rep_width;
    let w = randn(&mut rng, dim, width);
    let dy = randn(&mut rng, rows, width);
    let x = &inputs.batch_x;
    probe(tracer, "kernels.gemm", budget, || gemm(x, &w, par));
    probe(tracer, "kernels.gemm_nt", budget, || gemm_nt(&dy, &w, par));
    probe(tracer, "kernels.gemm_tn", budget, || gemm_tn(x, &dy, par));
    probe(tracer, "kernels.gemm_1024", budget, || gemm(&inputs.x_1024, &w, par));
    let mut metrics = Vec::new();
    for (flop_name, byte_name, (m, k, n)) in [
        ("kernels.gemm_flop_computed", "kernels.gemm_bytes_computed", (rows, dim, width)),
        ("kernels.gemm_nt_flop_computed", "kernels.gemm_nt_bytes_computed", (rows, width, dim)),
        ("kernels.gemm_tn_flop_computed", "kernels.gemm_tn_bytes_computed", (dim, rows, width)),
        (
            "kernels.gemm_1024_flop_computed",
            "kernels.gemm_1024_bytes_computed",
            (inputs.x_1024.rows(), dim, width),
        ),
    ] {
        let (flops, bytes) = gemm_work(m, k, n);
        metrics.push(Metric::new(flop_name, flops, "flop"));
        metrics.push(Metric::new(byte_name, bytes, "byte"));
    }

    // The regularisers' graph forms with backward, on the model's own
    // representation of one training batch, split into treated and control
    // rows exactly as the trainer's batch context does.
    let z = inputs.model.representation(x);
    let ctx = BatchContext::new(&inputs.batch_t);
    let ones = Matrix::ones(rows, 1);
    let mut g = Graph::new();
    probe(tracer, "stats.ipm_fwd_bwd", budget, || {
        g.reset();
        let zc = g.constant_copied(&z);
        let wt = g.param_copied(&ones);
        let loss =
            ipm_weighted_graph(&mut g, inputs.sbrl.ipm, zc, wt, &ctx.treated_idx, &ctx.control_idx);
        g.backward(loss);
        g.grad(wt).map(Matrix::norm_fro)
    });
    let rff = Rff::sample(&mut rng, inputs.sbrl.rff_functions);
    let mut scratch = HsicScratch::new();
    probe(tracer, "stats.hsic_fwd_bwd", budget, || {
        g.reset();
        let zc = g.constant_copied(&z);
        let wt = g.param_copied(&ones);
        let loss = decorrelation_loss_graph_scratch(
            &mut g,
            zc,
            wt,
            &rff,
            &inputs.sbrl.decor,
            &mut rng,
            &mut scratch,
        );
        g.backward(loss);
        g.grad(wt).map(Matrix::norm_fro)
    });

    // In-process prediction at the request size, plain and as the batcher
    // calls it.
    let req = inputs.request;
    probe(tracer, "trainer.predict", budget, || inputs.model.predict(&req.x));
    probe(tracer, "trainer.predict_batched", budget, || {
        inputs.model.try_predict_batched(&req.x, 0)
    });

    // The frame codec on the workload's request and reply frames.
    let request = Message::Predict { model: req.model.clone(), x: req.x.clone() };
    let reply = Message::Prediction {
        y0_hat: req.expected.y0_hat.clone(),
        y1_hat: req.expected.y1_hat.clone(),
    };
    let request_frame = encode_message(&request).expect("a pooled request encodes");
    let reply_frame = encode_message(&reply).expect("a pooled reply encodes");
    probe(tracer, "wire.encode_request", budget, || encode_message(&request));
    probe(tracer, "wire.decode_request", budget, || decode_message(&request_frame));
    probe(tracer, "wire.encode_reply", budget, || encode_message(&reply));
    probe(tracer, "wire.decode_reply", budget, || decode_message(&reply_frame));
    metrics.push(Metric::new("wire.request_bytes", request_frame.len() as f64, "byte"));
    metrics.push(Metric::new("wire.reply_bytes", reply_frame.len() as f64, "byte"));
    metrics
}
