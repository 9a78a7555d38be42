//! # sbrl-models
//!
//! Balanced-representation backbones reproduced from the literature and used
//! as the paper's baselines (Sec. V-A):
//!
//! * [`Tarnet`] — treatment-agnostic representation network with two outcome
//!   heads (Shalit et al., 2017);
//! * [`Cfr`] — TARNet plus an `α·IPM(Φ_t, Φ_c)` balancing penalty;
//! * [`DerCfr`] — decomposed representations separating instruments,
//!   confounders and adjustments (Wu et al., TKDE 2022).
//!
//! All three implement [`Backbone`], exposing the per-priority layer taps the
//! SBRL-HAP framework regularises, so `+SBRL` / `+SBRL-HAP` wrap any of them
//! without model-specific code.

pub mod backbone;
pub mod cfr;
pub mod dercfr;
pub mod kind;
pub mod tarnet;

pub use backbone::{
    predict_potential_outcomes, select_by_treatment, Backbone, BatchContext, ForwardMode,
    ForwardPass, LayerTaps,
};
pub use cfr::{Cfr, CfrConfig};
pub use dercfr::{DerCfr, DerCfrConfig};
pub use kind::{BackboneConfig, BackboneKind, ParseBackboneError};
pub use tarnet::{Tarnet, TarnetConfig};
