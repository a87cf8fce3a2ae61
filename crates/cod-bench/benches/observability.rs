//! Experiment E14 (`observability`) — the deterministic trace sink's
//! overhead on the serving path; see `crates/cod-bench/EXPERIMENTS.md`.
//! Thin wrapper over `cod_bench::experiments::observability` so `cargo
//! bench` and `bench_report` report identical statistics. Set
//! `COD_BENCH_QUICK=1` for a smoke run.

use cod_bench::experiments::{observability, ExperimentCtx};

fn main() {
    let result = observability::run(&ExperimentCtx::from_env());
    println!("{}", result.summary());
}
