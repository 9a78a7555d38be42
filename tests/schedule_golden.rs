//! Golden bits of the training schedule: for fits that exercise every way
//! an iteration can end — early stopping mid-budget with batch norm on, a
//! DeR-CFR fit, a rollback after a diverged weight objective, a watchdog
//! timeout and a vanilla fit — the prediction bits, the iteration counts
//! and the validation curve must reproduce exactly, under `Serial`,
//! `Threads(2)` and `Threads(4)`. The values were recorded before the
//! trainer overlapped the next iteration's network forward with the weight
//! phase, so they pin the schedule as well as the arithmetic.

use std::sync::{Mutex, MutexGuard, PoisonError};

use sbrl_hap::core::{Estimator, FittedModel, SbrlConfig, SbrlError, TrainConfig};
use sbrl_hap::data::{CausalDataset, SyntheticConfig, SyntheticProcess};
use sbrl_hap::models::{Backbone, BackboneConfig, CfrConfig, DerCfrConfig, TarnetConfig};
use sbrl_hap::stats::IpmKind;
use sbrl_hap::tensor::kernels::{NumericsMode, Parallelism};

/// Every case sets the process-wide numerics and parallelism knobs (and
/// some arm process-wide faults), so the cases run one at a time.
fn serialized() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

const SETTINGS: [Parallelism; 3] =
    [Parallelism::Serial, Parallelism::Threads(2), Parallelism::Threads(4)];

fn fixtures() -> (CausalDataset, CausalDataset, CausalDataset) {
    let process = SyntheticProcess::new(SyntheticConfig::syn_8_8_8_2(), 21);
    (process.generate(2.5, 300, 0), process.generate(2.5, 120, 1), process.generate(-2.5, 250, 2))
}

fn with_bn(dim: usize) -> TarnetConfig {
    TarnetConfig { batch_norm: true, ..TarnetConfig::small(dim) }
}

fn train_cfg(iterations: usize) -> TrainConfig {
    TrainConfig { iterations, batch_size: 64, eval_every: 10, patience: 40, ..Default::default() }
}

/// FNV-1a over a stream of 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| (h ^ w).wrapping_mul(0x0100_0000_01b3))
}

/// What a golden pins about one fit.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    iterations_run: usize,
    best_iteration: usize,
    /// Number of validation points.
    evals: usize,
    /// Hash of every `(iteration, loss bits)` validation point.
    val_curve: u64,
    /// Hash of every predicted potential outcome on the test fold.
    predictions: u64,
    /// Bits of the first `y0` prediction, readable on its own.
    y0_first: u64,
}

fn golden_of(model: &FittedModel<Box<dyn Backbone>>, test: &CausalDataset) -> Golden {
    let report = model.report();
    let est = model.predict(&test.x);
    Golden {
        iterations_run: report.iterations_run,
        best_iteration: report.best_iteration,
        evals: report.val_curve.len(),
        val_curve: fnv(report.val_curve.iter().flat_map(|&(i, v)| [i as u64, v.to_bits()])),
        predictions: fnv(est.y0_hat.iter().chain(&est.y1_hat).map(|v| v.to_bits())),
        y0_first: est.y0_hat[0].to_bits(),
    }
}

/// Runs `fit` once per [`SETTINGS`] entry under BitExact and returns the
/// results, restoring the environment's knobs afterwards.
fn under_each_setting<T>(fit: impl Fn() -> T) -> Vec<T> {
    let out = SETTINGS
        .iter()
        .map(|par| {
            NumericsMode::BitExact.set_global();
            par.set_global();
            fit()
        })
        .collect();
    Parallelism::from_env().set_global();
    NumericsMode::from_env().set_global();
    out
}

fn fit(
    backbone: impl Into<BackboneConfig>,
    sbrl: SbrlConfig,
    cfg: TrainConfig,
    train: &CausalDataset,
    val: &CausalDataset,
) -> Result<FittedModel<Box<dyn Backbone>>, SbrlError> {
    Estimator::builder().backbone(backbone).sbrl(sbrl).train(cfg).seed(11).fit(train, val)
}

fn assert_golden(name: &str, expected: &Golden, fit_once: impl Fn() -> Golden) {
    for (par, got) in SETTINGS.iter().zip(under_each_setting(fit_once)) {
        assert_eq!(&got, expected, "{name} drifted under {par:?}");
    }
}

#[test]
fn bn_cfr_hap_fit_that_stops_early() {
    const GOLDEN: Golden = Golden {
        iterations_run: 66,
        best_iteration: 50,
        evals: 14,
        val_curve: 0x0e95f9630491877e,
        predictions: 0x0ed876e0857c260f,
        y0_first: 0x3fe475c65b79573f,
    };
    let _serial = serialized();
    let (train, val, test) = fixtures();
    let backbone = CfrConfig {
        arch: with_bn(train.dim()),
        ipm: IpmKind::Wasserstein { lambda: 10.0, iterations: 10 },
        ..CfrConfig::small(train.dim())
    };
    let cfg = TrainConfig { lr: 1e-2, eval_every: 5, patience: 2, ..train_cfg(300) };
    assert_golden("BN CFR+SBRL-HAP early stop", &GOLDEN, || {
        let sbrl = SbrlConfig::sbrl_hap(1.0, 1.0, 0.1, 0.01);
        let model = fit(backbone, sbrl, cfg, &train, &val).expect("training succeeds");
        assert!(model.report().iterations_run < cfg.iterations, "early stopping must fire");
        golden_of(&model, &test)
    });
}

#[test]
fn bn_dercfr_hap_fit() {
    const GOLDEN: Golden = Golden {
        iterations_run: 50,
        best_iteration: 49,
        evals: 6,
        val_curve: 0xd04c98cda7e766e0,
        predictions: 0x3b6ac622d6da2bdb,
        y0_first: 0x3fbd8a75969616f6,
    };
    let _serial = serialized();
    let (train, val, test) = fixtures();
    let backbone = DerCfrConfig { arch: with_bn(train.dim()), ..DerCfrConfig::small(train.dim()) };
    assert_golden("BN DeR-CFR+SBRL-HAP", &GOLDEN, || {
        let sbrl = SbrlConfig::sbrl_hap(1.0, 1.0, 0.1, 0.01);
        let model = fit(backbone, sbrl, train_cfg(50), &train, &val).expect("training succeeds");
        golden_of(&model, &test)
    });
}

#[test]
fn bn_vanilla_tarnet_fit() {
    const GOLDEN: Golden = Golden {
        iterations_run: 50,
        best_iteration: 49,
        evals: 6,
        val_curve: 0xe663aefce36057d6,
        predictions: 0x9dd7dcc29928c373,
        y0_first: 0x3fc39ec485d3dab7,
    };
    let _serial = serialized();
    let (train, val, test) = fixtures();
    let backbone = with_bn(train.dim());
    assert_golden("BN vanilla TARNet", &GOLDEN, || {
        let model = fit(backbone, SbrlConfig::vanilla(), train_cfg(50), &train, &val)
            .expect("training succeeds");
        golden_of(&model, &test)
    });
}

#[cfg(feature = "fault-inject")]
mod injected {
    use std::time::Duration;

    use super::*;
    use sbrl_hap::core::{inject, FaultPlan, NonFiniteTerm, RecoveryPolicy};

    fn plan(spec: &str) -> FaultPlan {
        FaultPlan::parse(spec).expect("valid plan")
    }

    /// The weight objective diverges at iteration 24; iteration 25's network
    /// forward was already built alongside it and must leave no trace.
    #[test]
    fn rollback_after_a_diverged_weight_objective() {
        const GOLDEN: Golden = Golden {
            iterations_run: 50,
            best_iteration: 49,
            evals: 6,
            val_curve: 0xc362bb6cfea2a08d,
            predictions: 0xdb539fe99df2d84f,
            y0_first: 0x3fc2c0b78ec0e008,
        };
        let _serial = serialized();
        let (train, val, test) = fixtures();
        let backbone = CfrConfig { arch: with_bn(train.dim()), ..CfrConfig::small(train.dim()) };
        let cfg = TrainConfig { recovery: RecoveryPolicy::retries(2), ..train_cfg(50) };
        assert_golden("rollback after nan-weight-loss@24", &GOLDEN, || {
            let _faults = inject(&plan("nan-weight-loss@24"));
            let sbrl = SbrlConfig::sbrl_hap(1.0, 1.0, 0.1, 0.01);
            let model = fit(backbone, sbrl, cfg, &train, &val).expect("recovery absorbs it");
            let events = &model.fit_report().recoveries;
            assert_eq!(events.len(), 1);
            assert_eq!((events[0].iteration, events[0].term), (24, NonFiniteTerm::WeightObjective));
            golden_of(&model, &test)
        });
    }

    /// A stall before iteration 7 overruns the budget: the watchdog fails the
    /// fit there, after iteration 6 already built iteration 7's forward.
    #[test]
    fn watchdog_timeout_iteration() {
        let _serial = serialized();
        let (train, val, _) = fixtures();
        let backbone = CfrConfig { arch: with_bn(train.dim()), ..CfrConfig::small(train.dim()) };
        let cfg = TrainConfig { time_budget: Some(Duration::from_secs(1)), ..train_cfg(50) };
        let iterations = under_each_setting(|| {
            let _faults = inject(&plan("stall-iter@7:1200"));
            let sbrl = SbrlConfig::sbrl_hap(1.0, 1.0, 0.1, 0.01);
            match fit(backbone, sbrl, cfg, &train, &val) {
                Err(SbrlError::TimedOut { iteration, .. }) => iteration,
                other => panic!("expected TimedOut, got {other:?}"),
            }
        });
        assert_eq!(iterations, [7, 7, 7]);
    }
}
