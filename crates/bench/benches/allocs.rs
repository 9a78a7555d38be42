//! Allocation-count and thread-spawn probes: a warmed-up two-phase SBRL-HAP
//! optimisation step — the exact per-iteration structure of
//! `sbrl-core`'s trainer (network phase + weight phase, reusable tape,
//! recycled bindings/context and the per-fit weight-phase scratch with its
//! per-term tapes) — must perform **zero** heap allocations (under
//! `Parallelism::Serial`), and once the persistent worker pool is warm the
//! parallel path — including the weight phase's fork-join over its terms —
//! must spawn **zero** new threads per step.
//!
//! Requires the `alloc-probe` feature, which installs the counting global
//! allocator from `sbrl_bench::alloc_probe`:
//!
//! ```sh
//! cargo bench -p sbrl-bench --features alloc-probe --bench allocs
//! ```
//!
//! The step uses a fixed batch (the trainer's shapes recur per step; a fixed
//! batch makes the shape set deterministic, so the warm-up provably
//! populates every buffer-pool class). The allocation section runs under
//! `Parallelism::Serial` (worker threads would allocate their stacks); the
//! thread-spawn section then warms the pool under `Parallelism::Threads(4)`
//! and asserts `sbrl_tensor::workers::threads_spawned()` stays flat.

use sbrl_bench::alloc_probe;
use sbrl_core::{weight_objective, SampleWeights, SbrlConfig, WeightPhaseScratch};
use sbrl_data::{SyntheticConfig, SyntheticProcess};
use sbrl_models::{select_by_treatment, Backbone, BatchContext, Cfr, CfrConfig};
use sbrl_nn::{loss::l2_penalty, Adam, Binding, Optimizer, OutcomeLoss};
use sbrl_stats::Rff;
use sbrl_tensor::rng::{randn, rng_from_seed};
use sbrl_tensor::{Graph, Parallelism};

const BATCH: usize = 64;
const WARMUP_STEPS: usize = 10;
const MEASURED_STEPS: usize = 25;

fn main() {
    // `--test` smoke mode (CI bench smoke) runs the probe once like any
    // other bench; the assertion is identical either way. The zero-alloc
    // contract is a BitExact-tier contract (docs/PERFORMANCE.md): Fast's
    // sharded statistics gather per-worker partials into fresh vectors, so
    // the probe pins the tier rather than inheriting `SBRL_NUMERICS`.
    Parallelism::Serial.set_global();
    sbrl_tensor::kernels::NumericsMode::BitExact.set_global();

    let process = SyntheticProcess::new(SyntheticConfig::syn_8_8_8_2(), 7);
    let data = process.generate(2.5, 256, 0);
    let mut rng = rng_from_seed(0);
    let mut model = Cfr::new(CfrConfig::small(data.dim()), &mut rng);
    let sbrl = SbrlConfig::sbrl_hap(1.0, 1.0, 0.1, 0.01);
    let rff = Rff::sample(&mut rng, sbrl.rff_functions.max(1));
    let l2_handles = model.l2_handles();
    let loss_kind = OutcomeLoss::BceWithLogits;

    let mut weights = SampleWeights::new(data.n(), 1e-2);
    let mut opt = Adam::new(model.store(), 1e-3);
    let mut tape = Graph::new();
    let mut net_binding = Binding::new(model.store());
    let mut frozen_binding = Binding::new_frozen(model.store());
    let mut w_binding = weights.new_binding();
    let mut scratch = WeightPhaseScratch::new();

    let batch: Vec<usize> = (0..BATCH).collect();
    let tb: Vec<f64> = batch.iter().map(|&i| data.t[i]).collect();
    let yb: Vec<f64> = batch.iter().map(|&i| data.yf[i]).collect();
    let mut ctx = BatchContext::default();
    ctx.rebuild(&tb);

    let mut step = |tape: &mut Graph,
                    model: &mut Cfr,
                    weights: &mut SampleWeights,
                    net_binding: &mut Binding,
                    frozen_binding: &mut Binding,
                    w_binding: &mut Binding,
                    scratch: &mut WeightPhaseScratch,
                    rng: &mut rand::rngs::StdRng| {
        // ---- Phase 1: network update, weights fixed (trainer shape) ----
        {
            tape.reset();
            net_binding.reset(model.store());
            let g = &mut *tape;
            let x = g.constant_selected_rows(&data.x, &batch);
            let pass = model.train_step().forward(g, net_binding, x, &ctx);
            let fac = select_by_treatment(g, &ctx, pass.y1_raw, pass.y0_raw);
            let target = g.constant_col(&yb);
            let w_node = weights.bind_const(g, &batch);
            let pred = loss_kind.weighted_loss(g, fac, target, w_node);
            let with_reg = g.add(pred, pass.reg_loss);
            let l2 = l2_penalty(g, model.store(), net_binding, &l2_handles, 1e-4);
            let total = g.add(with_reg, l2);
            g.give_id_buf(pass.taps.z_o);
            g.backward(total);
            opt.step(model.store_mut(), g, net_binding);
        }
        // ---- Phase 2: weight update, network frozen ----
        {
            tape.reset();
            frozen_binding.reset(model.store());
            weights.reset_binding(w_binding);
            let g = &mut *tape;
            let x = g.constant_selected_rows(&data.x, &batch);
            let pass = model.train_step().forward(g, frozen_binding, x, &ctx);
            let w = weights.bind_trainable(g, w_binding, &batch);
            let r_w = weights.r_w(g, w);
            let terms = weight_objective(g, &sbrl, &pass.taps, &ctx, w, r_w, &rff, rng, scratch);
            g.give_id_buf(pass.taps.z_o);
            g.backward(terms.total);
            weights.step(g, w_binding);
        }
    };

    for _ in 0..WARMUP_STEPS {
        step(
            &mut tape,
            &mut model,
            &mut weights,
            &mut net_binding,
            &mut frozen_binding,
            &mut w_binding,
            &mut scratch,
            &mut rng,
        );
    }

    let before = alloc_probe::allocation_count();
    for _ in 0..MEASURED_STEPS {
        step(
            &mut tape,
            &mut model,
            &mut weights,
            &mut net_binding,
            &mut frozen_binding,
            &mut w_binding,
            &mut scratch,
            &mut rng,
        );
    }
    let delta = alloc_probe::allocation_count() - before;

    println!(
        "allocs: {delta} heap allocations across {MEASURED_STEPS} steady-state steps \
         ({WARMUP_STEPS} warm-up steps, batch {BATCH}, CFR + SBRL-HAP, serial)"
    );
    assert_eq!(delta, 0, "steady-state training steps must not allocate");
    println!("test allocs/steady_state_steps_allocate_zero ... ok");

    // ---- Thread-spawn probe --------------------------------------------
    // The persistent worker pool replaces PR 3's per-call `thread::scope`
    // spawns. Warm it under the parallel knob, then assert that further
    // training steps — whose weight phase forks its terms across the pool —
    // plus a large sharded GEMM per step, well above the kernel layer's
    // parallel gating, spawn zero new threads.
    assert!(
        scratch.active_terms() >= 2,
        "the weight phase must fork at least two terms for the probe to cover it"
    );
    Parallelism::Threads(4).set_global();
    let big_a = randn(&mut rng, 256, 256);
    let big_b = randn(&mut rng, 256, 256);
    std::hint::black_box(big_a.matmul(&big_b)); // warms the pool
    let warmed = sbrl_tensor::workers::threads_spawned();
    assert!(warmed > 0, "the warm-up GEMM must have taken the pooled parallel path");

    for _ in 0..MEASURED_STEPS {
        step(
            &mut tape,
            &mut model,
            &mut weights,
            &mut net_binding,
            &mut frozen_binding,
            &mut w_binding,
            &mut scratch,
            &mut rng,
        );
        std::hint::black_box(big_a.matmul(&big_b));
    }
    let spawned = sbrl_tensor::workers::threads_spawned() - warmed;

    Parallelism::Serial.set_global();
    println!(
        "threads: {spawned} spawned across {MEASURED_STEPS} warmed-up parallel steps \
         (pool size {}, {} weight-phase terms forked per step)",
        sbrl_tensor::workers::pool_size(),
        scratch.active_terms()
    );
    assert_eq!(spawned, 0, "warmed-up parallel steps must not spawn threads");
    println!("test allocs/steady_state_steps_spawn_zero_threads ... ok");
}
