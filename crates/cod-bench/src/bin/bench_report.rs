//! Runs every experiment of `EXPERIMENTS.md` in one pass, prints the
//! paper-style comparison table and writes the machine-readable
//! `BENCH_cod.json` report.
//!
//! ```text
//! cargo run --release -p cod-bench --bin bench_report [-- --quick] [--out PATH] [--no-tables]
//! ```
//!
//! `--quick` selects the reduced measurement budget used by the CI smoke run;
//! `--out` overrides the report path (default `BENCH_cod.json` in the current
//! directory). Exits non-zero if the COD-vs-single-PC speedup regresses below
//! 3× — the repo's standing perf anchor — if the E12 Coarse-vs-Full score
//! drift escapes the pinned tolerance, or if the E14 tracing overhead escapes
//! its 5% ceiling.

use std::path::PathBuf;
use std::process::ExitCode;

use cod_bench::experiments::{self, observability, ExperimentCtx};
use cod_bench::measure::MeasureConfig;
use cod_bench::report::BenchReport;

/// Minimum acceptable COD-vs-single-PC speedup on the default scene.
const SPEEDUP_FLOOR: f64 = 3.0;

const USAGE: &str = "usage: bench_report [--quick] [--out PATH] [--no-tables]";

struct Args {
    quick: bool,
    tables: bool,
    help: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { quick: false, tables: true, help: false, out: PathBuf::from("BENCH_cod.json") };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--no-tables" => args.tables = false,
            "--out" => {
                args.out =
                    PathBuf::from(argv.next().ok_or_else(|| "--out needs a path".to_owned())?);
            }
            "--help" | "-h" => args.help = true,
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    if args.help {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }

    let measure = if args.quick { MeasureConfig::quick() } else { MeasureConfig::from_env() };
    let ctx = ExperimentCtx { measure, tables: args.tables };
    println!(
        "running experiments E1-E10 and E12-E14 ({} budget: {} samples/experiment)...",
        if args.quick { "quick" } else { "full" },
        measure.samples
    );

    let results = experiments::all(&ctx);
    for result in &results {
        println!("{}", result.summary());
    }

    let report = BenchReport::new(args.quick, cod_bench::measure::wall_unix_ms(), results);
    println!("\n=== measured vs paper ===\n{}", report.comparison_table());

    if let Err(error) = report.write_file(&args.out) {
        eprintln!("failed to write {}: {error}", args.out.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {} ({} experiments)", args.out.display(), report.experiments.len());

    // Regression gate: the 8-PC COD must keep beating one desktop PC clearly.
    let speedup = report
        .experiment("E8")
        .and_then(|e| e.comparison.as_ref())
        .map(|c| c.measured)
        .unwrap_or(0.0);
    if speedup < SPEEDUP_FLOOR {
        eprintln!("REGRESSION: COD speedup {speedup:.2}x fell below the {SPEEDUP_FLOOR:.1}x floor");
        return ExitCode::FAILURE;
    }
    println!("COD speedup {speedup:.2}x (floor {SPEEDUP_FLOOR:.1}x) — ok");

    // Regression gate: the Coarse tier must stay score-compatible with the
    // full rack on the E12 spec sample.
    let drift = report
        .experiment("E12")
        .and_then(|e| e.derived.iter().find(|d| d.name == "max_score_drift"))
        .map(|d| d.value)
        .unwrap_or(f64::INFINITY);
    if drift > crane_sim::SCORE_DRIFT_TOLERANCE {
        eprintln!(
            "REGRESSION: E12 Coarse-vs-Full score drift {drift:.1} points escaped the \
             {:.1}-point tolerance",
            crane_sim::SCORE_DRIFT_TOLERANCE
        );
        return ExitCode::FAILURE;
    }
    println!(
        "E12 score drift {drift:.1} points (tolerance {:.1}) — ok",
        crane_sim::SCORE_DRIFT_TOLERANCE
    );

    // Regression gate: arming the deterministic trace sink must stay cheap
    // enough to leave on — E14 pins the ceiling.
    let overhead = report
        .experiment("E14")
        .and_then(|e| e.derived.iter().find(|d| d.name == "tracing_overhead_pct"))
        .map(|d| d.value)
        .unwrap_or(f64::INFINITY);
    let ceiling = observability::TRACING_OVERHEAD_CEILING_PCT;
    if let Err(reason) = observability::check_overhead_pct(overhead) {
        eprintln!("REGRESSION: {reason}");
        return ExitCode::FAILURE;
    }
    println!("E14 tracing overhead {overhead:+.2}% (ceiling {ceiling:.1}%) — ok");
    ExitCode::SUCCESS
}
