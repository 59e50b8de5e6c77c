//! End-to-end and per-layer benchmark of M*(k) queries served by an
//! in-process `mrx serve` daemon over a demand-paged v6 snapshot.
//!
//! `NOTES.md` next to this crate describes the workloads, the metrics and
//! the noise sources the benchmark is built to avoid.

pub mod harness;
pub mod inputs;
pub mod json;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
