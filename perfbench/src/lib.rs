//! Wall-time benchmark of the `defender` program.
//!
//! The end-to-end workloads ([`e2e`]) drive the real `defender serve` and
//! `defender value` binaries with tracing off. The traced pass
//! ([`replay`]) replays the same seeded inputs in-process through each
//! layer's public functions and records one span per call ([`trace`]),
//! which gives the per-layer numbers.

pub mod client;
pub mod e2e;
pub mod plan;
pub mod replay;
pub mod report;
pub mod server;
pub mod stats;
pub mod trace;

/// The workloads, in the order `--workload all` runs them. `value_ladder`
/// is run by hand only: its compute-bound times drift too much between
/// runs on a shared machine to be judged, and the traced pass measures
/// its layers on every run.
pub const WORKLOADS: [&str; 3] = ["serve_hot", "serve_mixed", "value_ladder"];
