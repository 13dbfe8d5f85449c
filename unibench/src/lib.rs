//! The unicert survey benchmark.
//!
//! Three seeded workloads (`ct_survey`, `hostile_der`, `store_ingest`)
//! drive the workspace's public survey and store entry points. The
//! end-to-end run reports throughput, CPU per input, set-up time and peak
//! memory, and checks every pass's `SurveyReport` fingerprint against a
//! serial reference. The separate traced run times calls into each
//! layer's public functions and reports per-layer costs. See `README.md`.

mod args;
mod calib;
pub mod cli;
mod json;
mod layers;
pub mod run;
pub mod stats;
mod store_rig;
mod sysinfo;
pub mod tracer;
pub mod workload;
