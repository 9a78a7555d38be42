//! Differential test of the fork-join weight phase: `weight_objective`,
//! which builds each term of `L_w` on its own tape and splices it into the
//! main tape, must give the bits of a reference that builds every term on
//! one tape — the value of `L_w` and `dL_w/dw` alike, and the same RNG
//! stream afterwards — for random batch sizes, layer widths on both sides
//! of `max_features`, `include_diagonal`, every `IpmKind`, every ablation
//! flag set, every parallelism setting and both numerics tiers.

use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::RngExt;
use sbrl_hap::core::{weight_objective, SbrlConfig, WeightPhaseScratch};
use sbrl_hap::models::{BatchContext, LayerTaps};
use sbrl_hap::stats::{
    decorrelation_loss_graph_scratch, ipm_weighted_graph, DecorrelationConfig, HsicScratch,
    IpmKind, Rff,
};
use sbrl_hap::tensor::kernels::NumericsMode;
use sbrl_hap::tensor::rng::{randn, rng_from_seed};
use sbrl_hap::tensor::{Graph, Matrix, Parallelism, TensorId};

/// The parallelism and numerics knobs are process globals; the tests in
/// this file take turns setting them.
static KNOBS: Mutex<()> = Mutex::new(());

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// `L_w` built on a single tape, term after term in the loss's order — the
/// weight objective as it was before the fork-join.
#[allow(clippy::too_many_arguments)]
fn single_tape_objective(
    g: &mut Graph,
    cfg: &SbrlConfig,
    taps: &LayerTaps,
    ctx: &BatchContext,
    w: TensorId,
    r_w: TensorId,
    rff: &Rff,
    rng: &mut StdRng,
    scratch: &mut HsicScratch,
) -> TensorId {
    let mut total = r_w;
    let balance = if cfg.use_br && cfg.alpha > 0.0 {
        let b = ipm_weighted_graph(g, cfg.ipm, taps.z_r, w, &ctx.treated_idx, &ctx.control_idx);
        g.scale(b, cfg.alpha)
    } else {
        g.scalar_const(0.0)
    };
    total = g.add(total, balance);
    let independence = if cfg.use_ir && cfg.gamma1 > 0.0 {
        let d = decorrelation_loss_graph_scratch(g, taps.z_p, w, rff, &cfg.decor, rng, scratch);
        g.scale(d, cfg.gamma1)
    } else {
        g.scalar_const(0.0)
    };
    total = g.add(total, independence);
    let hierarchy = if cfg.use_hap {
        let mut h = g.scalar_const(0.0);
        if cfg.gamma2 > 0.0 {
            let d = decorrelation_loss_graph_scratch(g, taps.z_r, w, rff, &cfg.decor, rng, scratch);
            let s = g.scale(d, cfg.gamma2);
            h = g.add(h, s);
        }
        if cfg.gamma3 > 0.0 {
            for &z in &taps.z_o {
                let d = decorrelation_loss_graph_scratch(g, z, w, rff, &cfg.decor, rng, scratch);
                let s = g.scale(d, cfg.gamma3);
                h = g.add(h, s);
            }
        }
        h
    } else {
        g.scalar_const(0.0)
    };
    g.add(total, hierarchy)
}

/// One random weight-phase input: a batch, its layer taps and weights.
struct Case {
    t: Vec<f64>,
    layers: Vec<Matrix>,
    raw_w: Matrix,
}

impl Case {
    /// A batch of random size with `z_o` layers first, then `z_r`, then
    /// `z_p`; widths straddle `max_features` so the subsample draws of some
    /// terms are taken and of others skipped.
    fn sample(rng: &mut StdRng, max_features: usize) -> Self {
        let n = rng.random_range(2..40usize);
        let t = (0..n).map(|_| if rng.random::<f64>() < 0.5 { 1.0 } else { 0.0 }).collect();
        let n_layers = rng.random_range(3..6usize);
        let layers = (0..n_layers)
            .map(|_| {
                let width = rng.random_range(1..2 * max_features + 2);
                randn(rng, n, width)
            })
            .collect();
        let raw_w = randn(rng, n, 1).map(|v| 0.5 * v);
        Self { t, layers, raw_w }
    }

    /// Builds the shared prefix — taps, trainable weights, `R_w` — on `g`.
    fn bind(&self, g: &mut Graph) -> (LayerTaps, TensorId, TensorId, TensorId) {
        let ids: Vec<TensorId> = self.layers.iter().map(|z| g.constant_copied(z)).collect();
        let (z_p, rest) = ids.split_last().expect("at least three layers");
        let (z_r, z_o) = rest.split_last().expect("at least three layers");
        let taps = LayerTaps { z_o: z_o.to_vec(), z_r: *z_r, z_p: *z_p };
        let raw = g.param_copied(&self.raw_w);
        let w = g.softplus(raw);
        let shifted = g.add_scalar(w, -1.0);
        let sq = g.square(shifted);
        let r_w = g.mean(sq);
        (taps, raw, w, r_w)
    }
}

/// `(L_w bits, dL_w/dw bits, dL_w/draw bits, next RNG draw)` of one step.
type StepBits = (u64, Vec<u64>, Vec<u64>, u64);

fn step_bits(g: &Graph, total: TensorId, w: TensorId, raw: TensorId, rng: &mut StdRng) -> StepBits {
    let grad = |id| g.grad(id).map(bits).unwrap_or_default();
    (g.scalar(total).to_bits(), grad(w), grad(raw), rng.random::<u64>())
}

/// Runs `steps` weight steps of `cfg` on fresh random cases through both
/// implementations — each on one reused tape and scratch, as in a fit — and
/// asserts every step agrees bit for bit.
fn assert_fork_join_matches(cfg: &SbrlConfig, seed: u64, steps: usize) {
    let max_features = cfg.decor.max_features.unwrap_or(usize::MAX);
    let mut data_rng = rng_from_seed(seed);
    let functions = data_rng.random_range(1..5usize);
    let rff = Rff::sample(&mut data_rng, functions);
    let mut reference = (Graph::new(), HsicScratch::new(), rng_from_seed(seed ^ 0x5eed));
    let mut fork_join = (Graph::new(), WeightPhaseScratch::new(), rng_from_seed(seed ^ 0x5eed));
    for step in 0..steps {
        let case = Case::sample(&mut data_rng, max_features.min(6));
        let ctx = BatchContext::new(&case.t);

        let (g, scratch, rng) = &mut reference;
        g.reset();
        let (taps, raw, w, r_w) = case.bind(g);
        let total = single_tape_objective(g, cfg, &taps, &ctx, w, r_w, &rff, rng, scratch);
        g.backward(total);
        let expected = step_bits(g, total, w, raw, rng);

        let (g, scratch, rng) = &mut fork_join;
        g.reset();
        let (taps, raw, w, r_w) = case.bind(g);
        let terms = weight_objective(g, cfg, &taps, &ctx, w, r_w, &rff, rng, scratch);
        g.backward(terms.total);
        let got = step_bits(g, terms.total, w, raw, rng);

        assert_eq!(
            got,
            expected,
            "seed {seed} step {step}: {cfg:?} under {:?} / {:?}",
            Parallelism::global(),
            NumericsMode::global()
        );
    }
}

/// Every `(use_br, use_ir, use_hap)` combination: the paper's Table II rows
/// plus the degenerate ones.
fn ablations(base: SbrlConfig) -> impl Iterator<Item = SbrlConfig> {
    (0..8).map(move |m| SbrlConfig {
        use_br: m & 1 != 0,
        use_ir: m & 2 != 0,
        use_hap: m & 4 != 0,
        ..base
    })
}

fn check_kind(ipm: IpmKind, seed: u64) {
    let _knobs = KNOBS.lock().unwrap_or_else(|e| e.into_inner());
    let mut case_seed = seed;
    for mode in [NumericsMode::BitExact, NumericsMode::Fast] {
        mode.set_global();
        for par in [Parallelism::Serial, Parallelism::Threads(2), Parallelism::Threads(4)] {
            par.set_global();
            for include_diagonal in [false, true] {
                let decor = DecorrelationConfig {
                    include_diagonal,
                    max_features: Some(3 + (case_seed % 3) as usize),
                    ..DecorrelationConfig::default()
                };
                let base = SbrlConfig { decor, ..SbrlConfig::sbrl_hap(0.7, 1.3, 0.4, 0.15) };
                for cfg in ablations(base.with_ipm(ipm)) {
                    case_seed += 1;
                    assert_fork_join_matches(&cfg, case_seed, 2);
                }
            }
        }
    }
    Parallelism::from_env().set_global();
    NumericsMode::from_env().set_global();
}

#[test]
fn fork_join_matches_single_tape_with_linear_mmd() {
    check_kind(IpmKind::MmdLin, 1_000);
}

#[test]
fn fork_join_matches_single_tape_with_rbf_mmd() {
    check_kind(IpmKind::MmdRbf { sigma: -1.0 }, 2_000);
    check_kind(IpmKind::MmdRbf { sigma: 0.8 }, 3_000);
}

#[test]
fn fork_join_matches_single_tape_with_wasserstein() {
    check_kind(IpmKind::Wasserstein { lambda: 10.0, iterations: 10 }, 4_000);
}

#[test]
fn fork_join_reports_the_terms_it_forked() {
    let _knobs = KNOBS.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = rng_from_seed(5);
    let case = Case::sample(&mut rng, 4);
    let ctx = BatchContext::new(&case.t);
    let rff = Rff::sample(&mut rng, 3);
    let mut g = Graph::new();
    let (taps, _, w, r_w) = case.bind(&mut g);
    let mut scratch = WeightPhaseScratch::new();
    let hap = SbrlConfig::sbrl_hap(1.0, 1.0, 1.0, 1.0);
    weight_objective(&mut g, &hap, &taps, &ctx, w, r_w, &rff, &mut rng, &mut scratch);
    assert_eq!(scratch.active_terms(), 3 + taps.z_o.len());
    let vanilla = SbrlConfig::vanilla();
    weight_objective(&mut g, &vanilla, &taps, &ctx, w, r_w, &rff, &mut rng, &mut scratch);
    assert_eq!(scratch.active_terms(), 0);
}
