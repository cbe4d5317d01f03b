//! # c3-bench — the reproduction harness
//!
//! One experiment function per figure/table of the paper (README's
//! "Reproducing the paper's figures" section indexes them), each exposed
//! as a binary under `src/bin/`, plus Criterion micro-benchmarks under
//! `benches/`.
//!
//! All experiments honour `C3_SCALE` (`quick`/`full`) and `C3_RUNS`
//! (repetitions per configuration); `run_all` executes the full suite. The `slo_sweep` bin runs
//! the throughput-at-SLO tier (`slo_experiments`) and writes
//! `BENCH_slo.json`; `bench_engine` runs the perf suite and writes
//! `BENCH_engine.json`.

pub mod analytic;
pub mod cluster_experiments;
pub mod scenario_experiments;
pub mod sim_experiments;
pub mod slo_experiments;
pub mod support;
