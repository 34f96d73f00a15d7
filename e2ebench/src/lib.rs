//! End-to-end and per-layer benchmark of the GenPairX workspace.
//!
//! Every workload feeds in-memory FASTQ bytes to the workspace's public
//! entry points and digests the SAM text that comes out. See `README.md`
//! for the workloads, the metrics and why they were chosen.

pub mod inputs;
pub mod replay;
pub mod run;
pub mod sinks;
pub mod stats;
pub mod trace;
