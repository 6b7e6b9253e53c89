//! Benchmark of the CDP simulator.
//!
//! Three workloads stress different layers: `chase_cdp` (the paper's
//! pointer-chasing target on the content prefetcher, streamed),
//! `compute_base` (a compute-bound code on the stride-only baseline,
//! materialized) and `zoo_sweep` (a pooled grid of prefetcher-zoo cells
//! with snapshot/resume and result-store traffic; not in `BENCHMARK.json`
//! while its store read-backs fail). An untraced run reports
//! the end-to-end metrics; a traced run times calls into each crate's
//! public functions from here and reports the per-layer metrics. Both
//! check the simulated outputs. See `README.md`.

pub mod check;
mod layers;
pub mod metrics;
pub mod plan;
pub mod run;
mod zoo;
