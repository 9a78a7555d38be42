//! Allocation-count and thread-spawn probes over the trainer's own step:
//! `sbrl_core::Trainer::step`, the iteration every fit runs — network step,
//! weight step, and the next step's network forward built inside the
//! weight step's fork — must perform **zero** heap allocations once warm
//! (under `Parallelism::Serial`, where the fork's tasks run inline), and
//! once the persistent worker pool is warm the parallel path must spawn
//! **zero** new threads per step.
//!
//! Requires the `alloc-probe` feature, which installs the counting global
//! allocator from `sbrl_bench::alloc_probe`:
//!
//! ```sh
//! cargo bench -p sbrl-bench --features alloc-probe --bench allocs
//! ```
//!
//! The training set is exactly one batch (64 rows), so every step sees the
//! same treated/control split and therefore the same shape set, and the
//! warm-up provably populates every buffer-pool class. The model is a BN-on
//! CFR with a Sinkhorn IPM, so the step also covers the batch-norm commits
//! and the IPM the frozen forward leaves out. The allocation section runs
//! under `Parallelism::Serial` (worker threads would allocate their
//! stacks); the thread-spawn section then warms the pool under
//! `Parallelism::Threads(4)` and asserts
//! `sbrl_tensor::workers::threads_spawned()` stays flat.

use sbrl_bench::alloc_probe;
use sbrl_core::{SbrlConfig, TrainConfig, Trainer};
use sbrl_data::{SyntheticConfig, SyntheticProcess};
use sbrl_models::{Cfr, CfrConfig, TarnetConfig};
use sbrl_stats::IpmKind;
use sbrl_tensor::rng::{randn, rng_from_seed};
use sbrl_tensor::Parallelism;

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
    let data = process.generate(2.5, BATCH, 0);
    let mut rng = rng_from_seed(0);
    let backbone = CfrConfig {
        arch: TarnetConfig { batch_norm: true, ..TarnetConfig::small(data.dim()) },
        ipm: IpmKind::Wasserstein { lambda: 10.0, iterations: 5 },
        ..CfrConfig::small(data.dim())
    };
    let model = Cfr::new(backbone, &mut rng);
    let sbrl = SbrlConfig::sbrl_hap(1.0, 1.0, 0.1, 0.01);
    // A budget the probe never reaches, so every step pipelines the next.
    let cfg = TrainConfig { iterations: usize::MAX, batch_size: BATCH, ..TrainConfig::default() };
    let mut trainer = Trainer::new(model, &data, &sbrl, &cfg).expect("valid probe fit");

    let mut iter = 0;
    let mut steps = |trainer: &mut Trainer<'_, Cfr>, count: usize| {
        for _ in 0..count {
            assert_eq!(trainer.step(iter), None, "probe steps must stay finite");
            assert!(trainer.has_pipelined_forward(), "every step must pipeline the next forward");
            iter += 1;
        }
    };

    steps(&mut trainer, WARMUP_STEPS);
    let before = alloc_probe::allocation_count();
    steps(&mut trainer, MEASURED_STEPS);
    let delta = alloc_probe::allocation_count() - before;

    println!(
        "allocs: {delta} heap allocations across {MEASURED_STEPS} steady-state steps \
         ({WARMUP_STEPS} warm-up steps, batch {BATCH}, BN CFR + SBRL-HAP, serial)"
    );
    assert_eq!(delta, 0, "steady-state training steps must not allocate");
    println!("test allocs/steady_state_steps_allocate_zero ... ok");

    // ---- Thread-spawn probe --------------------------------------------
    // Warm the pool under the parallel knob, then assert that further
    // training steps — whose weight step forks its terms and the next
    // network forward across the pool — plus a large sharded GEMM per step,
    // well above the kernel layer's parallel gating, spawn zero new threads.
    let terms = trainer.weight_phase().active_terms();
    assert!(terms >= 2, "the weight phase must fork at least two terms for the probe to cover it");
    Parallelism::Threads(4).set_global();
    let big_a = randn(&mut rng, 256, 256);
    let big_b = randn(&mut rng, 256, 256);
    std::hint::black_box(big_a.matmul(&big_b)); // warms the pool
    let warmed = sbrl_tensor::workers::threads_spawned();
    assert!(warmed > 0, "the warm-up GEMM must have taken the pooled parallel path");

    for _ in 0..MEASURED_STEPS {
        steps(&mut trainer, 1);
        std::hint::black_box(big_a.matmul(&big_b));
    }
    let spawned = sbrl_tensor::workers::threads_spawned() - warmed;

    Parallelism::Serial.set_global();
    println!(
        "threads: {spawned} spawned across {MEASURED_STEPS} warmed-up parallel steps \
         (pool size {}, {terms} weight-phase terms plus the next forward forked per step)",
        sbrl_tensor::workers::pool_size(),
    );
    assert_eq!(spawned, 0, "warmed-up parallel steps must not spawn threads");
    println!("test allocs/steady_state_steps_spawn_zero_threads ... ok");
}
