//! Replay-pipeline benchmark for the UPS reproduction.
//!
//! Three workloads run through the public API of the `ups-*` crates; see
//! `README.md` in this directory for what each measures and why.

pub mod mem;
pub mod pipeline;
pub mod run;
pub mod span;
pub mod workload;
