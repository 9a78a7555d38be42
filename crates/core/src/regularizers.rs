//! The three regularizers of SBRL-HAP assembled into the weight objective
//! `L_w` (Eq. 11).
//!
//! * **Balancing Regularizer** `L_B` (Eq. 4): weighted IPM between treated
//!   and control rows of the balanced representation `Z_r`.
//! * **Independence Regularizer** `L_I = L_D(Z_p, w)` (Eq. 10): weighted
//!   HSIC-RFF decorrelation of the last layer.
//! * **Hierarchical-Attention Paradigm**: additional decorrelation at
//!   `Z_r` (weight `γ2`) and every other hidden layer (weight `γ3`).
//!
//! The terms `α·L_B`, `γ1·L_D(Z_p)`, `γ2·L_D(Z_r)` and each `γ3·L_D(Z_o^i)`
//! depend on one another only through the batch weights `w`, so the weight
//! phase is a **fork-join**: each active term is built and differentiated
//! on a pooled tape of its own, all inside one [`run_tasks`] call, and then
//! spliced into the main tape ([`Graph::splice`]) at the position the term
//! would have occupied had it been built there. The splices replay each term's
//! gradient deltas into `w` in their original order, so `L_w` and `dL_w/dw`
//! are bit-identical to building every term on the main tape, for every
//! [`Parallelism`] setting. The subsample draws of the decorrelation terms
//! are made serially beforehand, in the same order
//! ([`WeightPhaseScratch::plan`]), so the RNG stream is unchanged too. The
//! fork takes one side task besides the terms; the trainer uses it to build
//! the next iteration's network forward ([`crate::trainer`], "The
//! schedule").

use std::sync::{LockResult, Mutex};

use rand::rngs::StdRng;
use sbrl_models::{BatchContext, LayerTaps};
use sbrl_stats::{decorrelation_loss_graph_planned, ipm_weighted_graph, HsicScratch, IpmKind, Rff};
use sbrl_tensor::workers::run_tasks;
use sbrl_tensor::{Graph, Parallelism, TensorId};

use crate::config::SbrlConfig;

/// Individual loss terms of `L_w`, kept separate for logging/ablation.
pub struct WeightLossTerms {
    /// `α · L_B` (zero node when BR is disabled).
    pub balance: TensorId,
    /// `γ1 · L_I` (zero node when IR is disabled).
    pub independence: TensorId,
    /// `γ2 · L_D(Z_r, w) + γ3 · Σ L_D(Z_o^i, w)` (zero when HAP disabled).
    pub hierarchy: TensorId,
    /// `R_w` anti-collapse term.
    pub anchor: TensorId,
    /// The full `L_w` (Eq. 11).
    pub total: TensorId,
}

/// Which entry of [`WeightLossTerms`] a term adds to.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Group {
    /// `α·L_B`, the only term that is not a `γ·L_D` decorrelation term.
    Balance,
    Independence,
    Hierarchy,
}

/// One active term of `L_w` for the current step.
#[derive(Clone, Copy)]
struct TermSpec {
    group: Group,
    /// Main-tape representation the term reads.
    z: TensorId,
    /// The term's coefficient (`α` or a `γ`).
    coef: f64,
    /// Rough work estimate; the heaviest terms are claimed first.
    cost: usize,
}

/// A term's own tape, recycled across steps.
#[derive(Default)]
struct TermTape {
    tape: Graph,
    /// Subsample plan of a decorrelation term.
    hsic: HsicScratch,
    /// The recorded batch-weight leaf and the scaled term of the last build.
    built: Option<(TensorId, TensorId)>,
}

/// Per-fit scratch of the weight phase: one pooled tape (and
/// [`HsicScratch`]) per term of `L_w`, plus the step's term list and claim
/// order. Held across steps, it keeps the weight phase allocation-free once
/// warm.
#[derive(Default)]
pub struct WeightPhaseScratch {
    specs: Vec<TermSpec>,
    tapes: Vec<Mutex<TermTape>>,
    order: Vec<usize>,
}

impl WeightPhaseScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of terms the last [`WeightPhaseScratch::plan`] scheduled,
    /// each built on its own tape (the width of the fork-join, not counting
    /// the side task).
    pub fn active_terms(&self) -> usize {
        self.specs.len()
    }

    /// Plans the step's terms of `L_w` over a forward pass's layer taps (on
    /// tape `g`): which terms are active, the column subsamples of the
    /// decorrelation terms — the only RNG draws of the weight phase, made
    /// here serially in the loss's order — and the order the fork claims
    /// them in. [`weight_objective_planned`] then builds the planned terms.
    pub fn plan(
        &mut self,
        g: &Graph,
        cfg: &SbrlConfig,
        taps: &LayerTaps,
        rff: &Rff,
        rng: &mut StdRng,
    ) {
        let WeightPhaseScratch { specs, tapes, order } = self;
        specs.clear();
        let term = |group, z, coef| TermSpec { group, z, coef, cost: 0 };
        if cfg.use_br && cfg.alpha > 0.0 {
            specs.push(term(Group::Balance, taps.z_r, cfg.alpha));
        }
        if cfg.use_ir && cfg.gamma1 > 0.0 {
            specs.push(term(Group::Independence, taps.z_p, cfg.gamma1));
        }
        if cfg.use_hap && cfg.gamma2 > 0.0 {
            specs.push(term(Group::Hierarchy, taps.z_r, cfg.gamma2));
        }
        if cfg.use_hap && cfg.gamma3 > 0.0 {
            specs.extend(taps.z_o.iter().map(|&z| term(Group::Hierarchy, z, cfg.gamma3)));
        }
        while tapes.len() < specs.len() {
            tapes.push(Mutex::default());
        }

        let rff_width = rff.num_functions();
        for (spec, tape) in specs.iter_mut().zip(tapes.iter_mut()) {
            let (rows, cols) = g.value(spec.z).shape();
            spec.cost = if spec.group == Group::Balance {
                balance_cost(cfg.ipm, rows, cols)
            } else {
                unpoisoned(tape.get_mut()).hsic.plan(rows, cols, &cfg.decor, rng);
                let width = rff_width * cfg.decor.max_features.map_or(cols, |s| s.min(cols));
                rows * width * width
            };
        }
        order.clear();
        order.extend(0..specs.len());
        order.sort_unstable_by_key(|&t| (std::cmp::Reverse(specs[t].cost), t));
    }
}

/// Recovers a term tape from a poisoned lock (a term that panicked): the
/// tape is reset before every build, so nothing stale survives.
fn unpoisoned<T>(lock: LockResult<T>) -> T {
    lock.unwrap_or_else(|e| e.into_inner())
}

/// Builds `L_w` over a forward pass's layer taps: [`WeightPhaseScratch::plan`]
/// followed by [`weight_objective_planned`] with nothing beside the terms.
///
/// `w` must be the *trainable* batch-weight node
/// ([`crate::weights::SampleWeights::bind_trainable`]). The representations
/// are read as constants — each term's tape copies them — so no gradient
/// reaches the taps; they should come from a frozen binding. `scratch` is
/// the per-fit [`WeightPhaseScratch`]; reusing it across steps keeps the
/// weight phase allocation-free.
#[allow(clippy::too_many_arguments)]
pub fn weight_objective(
    g: &mut Graph,
    cfg: &SbrlConfig,
    taps: &LayerTaps,
    ctx: &BatchContext,
    w: TensorId,
    r_w: TensorId,
    rff: &Rff,
    rng: &mut StdRng,
    scratch: &mut WeightPhaseScratch,
) -> WeightLossTerms {
    scratch.plan(g, cfg, taps, rff, rng);
    weight_objective_planned(g, cfg, ctx, w, r_w, rff, scratch, &mut || {})
}

/// Builds the terms `scratch` planned (see [`weight_objective`] for `w`,
/// `r_w` and the taps they read) and sums them into `L_w` on `g`.
///
/// The terms are built concurrently under the global [`Parallelism`] (and
/// inline, in the same order, under `Serial`); see the module docs for why
/// the result does not depend on it. `side` is one more task of the same
/// fork, claimed first: the trainer builds the next iteration's network
/// forward there. It must not touch `g` or anything the terms read.
#[allow(clippy::too_many_arguments)]
pub fn weight_objective_planned(
    g: &mut Graph,
    cfg: &SbrlConfig,
    ctx: &BatchContext,
    w: TensorId,
    r_w: TensorId,
    rff: &Rff,
    scratch: &mut WeightPhaseScratch,
    side: &mut (dyn FnMut() + Send),
) -> WeightLossTerms {
    let WeightPhaseScratch { specs, tapes, order } = scratch;

    // Fork: the side task, then every term on its own tape, forward and
    // backward.
    let main: &Graph = g;
    let (specs, order) = (&*specs, &*order);
    let tapes_ref = &*tapes;
    let side = Mutex::new(side);
    run_tasks(specs.len() + 1, Parallelism::global().workers(), &|i| match i {
        0 => (unpoisoned(side.lock()))(),
        _ => {
            let t = order[i - 1];
            let mut term = unpoisoned(tapes_ref[t].lock());
            build_term(main, &specs[t], w, &mut term, cfg, ctx, rff);
        }
    });

    // Join: splice the terms in the loss's order; an inactive entry is a
    // zero node.
    let mut built = specs.iter().zip(tapes.iter_mut()).peekable();
    let mut splice_next = |g: &mut Graph, group: Group| {
        let (_, term) = built.next_if(|(spec, _)| spec.group == group)?;
        match unpoisoned(term.get_mut()) {
            TermTape { tape, built: Some((w_leaf, loss)), .. } => {
                Some(g.splice(tape.scalar(*loss), w, tape.recorded_deltas(*w_leaf)))
            }
            _ => None,
        }
    };
    let balance = splice_next(g, Group::Balance).unwrap_or_else(|| g.scalar_const(0.0));
    let mut total = g.add(r_w, balance);
    let independence = splice_next(g, Group::Independence).unwrap_or_else(|| g.scalar_const(0.0));
    total = g.add(total, independence);
    let mut hierarchy = g.scalar_const(0.0);
    while let Some(s) = splice_next(g, Group::Hierarchy) {
        hierarchy = g.add(hierarchy, s);
    }
    total = g.add(total, hierarchy);

    WeightLossTerms { balance, independence, hierarchy, anchor: r_w, total }
}

/// Rough work of the balance term on a `rows x cols` representation (only
/// the claim order depends on it).
fn balance_cost(ipm: IpmKind, rows: usize, cols: usize) -> usize {
    match ipm {
        IpmKind::MmdLin => rows * cols,
        IpmKind::MmdRbf { .. } => rows * rows * cols,
        IpmKind::Wasserstein { iterations, .. } => rows * rows * (cols + 2 * iterations) / 4,
    }
}

/// Builds one scaled term on its own tape from copies of its representation
/// and of the batch weights, and runs its backward sweep, so the tape's
/// recorded weight leaf holds the term's gradient deltas in arrival order.
fn build_term(
    main: &Graph,
    spec: &TermSpec,
    w: TensorId,
    term: &mut TermTape,
    cfg: &SbrlConfig,
    ctx: &BatchContext,
    rff: &Rff,
) {
    let t = &mut term.tape;
    t.reset();
    let z = t.constant_copied(main.value(spec.z));
    let w_leaf = t.recorded_param_copied(main.value(w));
    let raw = if spec.group == Group::Balance {
        ipm_weighted_graph(t, cfg.ipm, z, w_leaf, &ctx.treated_idx, &ctx.control_idx)
    } else {
        decorrelation_loss_graph_planned(t, z, w_leaf, rff, &cfg.decor, &mut term.hsic)
    };
    let loss = t.scale(raw, spec.coef);
    t.backward(loss);
    term.built = Some((w_leaf, loss));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SbrlConfig;
    use sbrl_tensor::rng::{randn, rng_from_seed};
    use sbrl_tensor::Matrix;

    fn toy_taps(g: &mut Graph, rng: &mut StdRng, n: usize) -> LayerTaps {
        let z_o = vec![g.constant(randn(rng, n, 4)), g.constant(randn(rng, n, 4))];
        let z_r = g.constant(randn(rng, n, 6));
        let z_p = g.constant(randn(rng, n, 3));
        LayerTaps { z_o, z_r, z_p }
    }

    fn toy_ctx(n: usize) -> BatchContext {
        let t: Vec<f64> = (0..n).map(|i| (i % 2) as f64).collect();
        BatchContext::new(&t)
    }

    fn build(cfg: &SbrlConfig) -> (f64, f64, f64, f64) {
        let mut rng = rng_from_seed(0);
        let mut g = Graph::new();
        let taps = toy_taps(&mut g, &mut rng, 16);
        let ctx = toy_ctx(16);
        let w = g.param(Matrix::ones(16, 1));
        let shifted = g.add_scalar(w, -1.0);
        let sq = g.square(shifted);
        let r_w = g.mean(sq);
        let rff = Rff::sample(&mut rng, 4);
        let mut scratch = WeightPhaseScratch::new();
        let terms =
            weight_objective(&mut g, cfg, &taps, &ctx, w, r_w, &rff, &mut rng, &mut scratch);
        (
            g.scalar(terms.balance),
            g.scalar(terms.independence),
            g.scalar(terms.hierarchy),
            g.scalar(terms.total),
        )
    }

    #[test]
    fn vanilla_reduces_to_anchor_only() {
        let (b, i, h, total) = build(&SbrlConfig::vanilla());
        assert_eq!((b, i, h), (0.0, 0.0, 0.0));
        assert_eq!(total, 0.0); // w = 1 -> R_w = 0
    }

    #[test]
    fn sbrl_activates_balance_and_independence() {
        let (b, i, h, total) = build(&SbrlConfig::sbrl(1.0, 1.0));
        assert!(b > 0.0, "balance term should fire, got {b}");
        assert!(i > 0.0, "independence term should fire, got {i}");
        assert_eq!(h, 0.0);
        assert!((total - (b + i)).abs() < 1e-12);
    }

    #[test]
    fn hap_adds_hierarchy_terms() {
        let cfg = SbrlConfig::sbrl_hap(1.0, 1.0, 0.5, 0.25);
        let (b, i, h, total) = build(&cfg);
        assert!(h > 0.0, "hierarchy terms should fire, got {h}");
        assert!((total - (b + i + h)).abs() < 1e-12);
    }

    #[test]
    fn coefficients_scale_terms_linearly() {
        let lo = SbrlConfig::sbrl(0.5, 0.5);
        let hi = SbrlConfig::sbrl(1.0, 1.0);
        let (b_lo, i_lo, _, _) = build(&lo);
        let (b_hi, i_hi, _, _) = build(&hi);
        assert!((b_hi - 2.0 * b_lo).abs() < 1e-9);
        assert!((i_hi - 2.0 * i_lo).abs() < 1e-9);
    }

    #[test]
    fn gradient_reaches_weights_through_every_term() {
        let mut rng = rng_from_seed(1);
        let mut g = Graph::new();
        let taps = toy_taps(&mut g, &mut rng, 12);
        let ctx = toy_ctx(12);
        let w = g.param(Matrix::ones(12, 1));
        let shifted = g.add_scalar(w, -1.0);
        let sq = g.square(shifted);
        let r_w = g.mean(sq);
        let rff = Rff::sample(&mut rng, 4);
        let cfg = SbrlConfig::sbrl_hap(1.0, 1.0, 1.0, 1.0);
        let mut scratch = WeightPhaseScratch::new();
        let terms =
            weight_objective(&mut g, &cfg, &taps, &ctx, w, r_w, &rff, &mut rng, &mut scratch);
        g.backward(terms.total);
        let grad = g.grad(w).expect("weights must receive gradient");
        assert!(grad.norm_fro() > 0.0, "non-trivial gradient expected");
    }
}
