//! The repository benchmark: one fit workload and two serving workloads,
//! driven through the public API of the SBRL-HAP crates, with a traced run
//! that attributes time to each layer. See `README.md` in this directory.

pub mod load;
pub mod probes;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workload;
