//! End-to-end and per-layer benchmark of `hetsched`: the paper's Fig. 3/4
//! runs and a small-cell campaign, measured through the library's public
//! calls. See `README.md` in this directory for the workloads, metrics
//! and how to run it.

pub mod probe;
pub mod procfs;
pub mod stats;
pub mod workload;
