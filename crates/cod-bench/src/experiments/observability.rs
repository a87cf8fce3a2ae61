//! Experiment E14 — observability overhead: what arming the deterministic
//! trace sink costs on the serving path.
//!
//! The `cod-trace` hooks ride the fleet's hottest loop — every shard step
//! bumps the frame counter, every tick records a makespan histogram sample,
//! every admission decision appends an event. The sinks are only acceptable
//! if a traced drain stays within a few percent of an untraced one;
//! otherwise nobody arms them in production and the observability layer
//! observes nothing. E14 times the same burst drain with
//! `ObsConfig::Disabled` (the default null-pointer path) and with
//! `ObsConfig::Deterministic` (every hook live) in alternating pairs, and
//! `bench_report` gates the median of the per-pair overheads at ≤ 5%.

use cod_fleet::{
    run_fleet, run_fleet_traced, ExecutionMode, FleetConfig, FleetReport, ObsConfig,
    PlacementPolicy, ShardConfig, WorkloadConfig,
};

use super::ExperimentCtx;
use crate::measure::{measure_pairs, median, Stats};
use crate::report::{DerivedMetric, ExperimentResult};

/// The ceiling `bench_report` enforces on the traced-over-untraced slowdown.
pub const TRACING_OVERHEAD_CEILING_PCT: f64 = 5.0;

/// The median over pairs of the armed drain's overhead on its disabled twin,
/// in percent. A pair is `(disabled ns, armed ns)` timed back to back (see
/// [`measure_pairs`]), so a slow stretch of the host moves both halves of a
/// pair and leaves its ratio alone; the median then ignores the odd pair a
/// stretch split. NaN for no pairs.
pub fn pair_overhead_pct(pairs: &[(f64, f64)]) -> f64 {
    if pairs.is_empty() {
        return f64::NAN;
    }
    let overheads: Vec<f64> =
        pairs.iter().map(|&(disabled, armed)| (armed / disabled - 1.0) * 100.0).collect();
    median(&overheads)
}

/// The E14 gate: `Err` with the reason when `overhead_pct` is above
/// [`TRACING_OVERHEAD_CEILING_PCT`] or is not a number.
pub fn check_overhead_pct(overhead_pct: f64) -> Result<(), String> {
    if overhead_pct <= TRACING_OVERHEAD_CEILING_PCT {
        Ok(())
    } else {
        Err(format!(
            "E14 tracing overhead {overhead_pct:+.2}% escaped the \
             {TRACING_OVERHEAD_CEILING_PCT:.1}% ceiling"
        ))
    }
}

/// The serving path under test: a burst of same-epoch arrivals on a small
/// homogeneous rack, so every tick steps full shards — the loop the hooks
/// ride.
fn serving_config(obs: ObsConfig) -> FleetConfig {
    FleetConfig {
        shards: 2,
        shard: ShardConfig {
            slots: 4,
            batch_frames: 8,
            pool_per_shape: 1,
            ..ShardConfig::default()
        },
        shard_speeds: Vec::new(),
        placement: PlacementPolicy::SpeedWeighted,
        preemption: false,
        migration: false,
        tiering: false,
        max_pending: 8,
        workload: WorkloadConfig {
            sessions: 16,
            seed: 0xC0D,
            base_frames: 32,
            mean_interarrival_ticks: 0,
        },
        execution: ExecutionMode::Modeled,
        obs,
    }
}

/// Runs E14 and returns its result.
pub fn run(ctx: &ExperimentCtx) -> ExperimentResult {
    // Sanity first: the hooks observe the drain, they must never steer it —
    // the fingerprinted report has to come out byte-identical either way.
    let untraced_outcome = run_fleet(&serving_config(ObsConfig::Disabled)).expect("fleet drains");
    let (traced_outcome, _, artifacts) =
        run_fleet_traced(&serving_config(ObsConfig::Deterministic)).expect("fleet drains");
    assert_eq!(
        FleetReport::from_outcome(&untraced_outcome).to_json().to_pretty(),
        FleetReport::from_outcome(&traced_outcome).to_json().to_pretty(),
        "tracing must not change a byte of FLEET_cod.json"
    );
    let det = artifacts.det.expect("Deterministic arms the det sink");

    // An odd number of pairs, so the median is one pair's overhead.
    let untraced_config = serving_config(ObsConfig::Disabled);
    let traced_config = serving_config(ObsConfig::Deterministic);
    let pairs = measure_pairs(
        &ctx.measure,
        2 * ctx.measure.samples + 1,
        || {
            run_fleet(&untraced_config).expect("fleet drains");
        },
        || {
            run_fleet_traced(&traced_config).expect("fleet drains");
        },
    );
    let overhead_pct = pair_overhead_pct(&pairs);
    let (untraced, traced): (Vec<f64>, Vec<f64>) = pairs.iter().copied().unzip();
    let untraced = Stats::from_samples(&untraced, &ctx.measure);
    let traced = Stats::from_samples(&traced, &ctx.measure);

    if ctx.tables {
        println!("\n=== E14: observability overhead (16-session burst, modeled) ===");
        println!("sink          | median/drain | events recorded");
        println!("disabled      | {:>12} | {:>15}", crate::report::format_ns(untraced.median), 0);
        println!(
            "deterministic | {:>12} | {:>15}",
            crate::report::format_ns(traced.median),
            det.events().len()
        );
        println!(
            "overhead {overhead_pct:+.2}% (median of {} pairs; ceiling \
             {TRACING_OVERHEAD_CEILING_PCT:.1}%); {} frames counted, fingerprint {:#018x}\n",
            pairs.len(),
            det.counter("frames_stepped"),
            det.fingerprint(),
        );
    }

    ExperimentResult {
        id: "E14".into(),
        name: "observability".into(),
        bench_target: "observability".into(),
        metric: "drain a 16-session burst fleet with the deterministic sink armed".into(),
        timing: traced,
        iters_per_sample: 1,
        comparison: None,
        derived: vec![
            DerivedMetric::new("tracing_overhead_pct", "%", overhead_pct),
            DerivedMetric::new("tracing_overhead_ceiling_pct", "%", TRACING_OVERHEAD_CEILING_PCT),
            DerivedMetric::new("untraced_median_ns", "ns", untraced.median),
            DerivedMetric::new("traced_median_ns", "ns", traced.median),
            DerivedMetric::new("overhead_pairs", "pairs", pairs.len() as f64),
            DerivedMetric::new("events_recorded", "events", det.events().len() as f64),
            DerivedMetric::new("frames_counted", "frames", det.counter("frames_stepped") as f64),
        ],
        notes: "Overhead is the median over alternating disabled/armed drain pairs of the armed \
                drain's slowdown on its pair; bench_report gates it at the pinned ceiling. The \
                outcome equality asserted inside the experiment plus trace_report's \
                byte-identity gates pin the correctness side."
            .into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_uniformly_slower_armed_drain_fails_the_gate() {
        // Negative control: every armed drain 8% slower than its pair.
        let pairs: Vec<(f64, f64)> = (0..9).map(|i| (1e6 + i as f64, 1.08e6 + i as f64)).collect();
        assert!(check_overhead_pct(pair_overhead_pct(&pairs)).is_err());
    }

    #[test]
    fn one_split_pair_does_not_fail_the_gate() {
        // A host stretch that lands on one armed drain (+33.6%) moves the
        // median of the pairs by at most one rank.
        let mut pairs: Vec<(f64, f64)> = (0..8).map(|i| (1e6, 1e6 + 1e3 * i as f64)).collect();
        pairs.push((1e6, 1.336e6));
        let overhead = pair_overhead_pct(&pairs);
        assert!(overhead < 1.0, "{overhead}");
        assert_eq!(check_overhead_pct(overhead), Ok(()));
    }

    #[test]
    fn no_pairs_or_a_nan_overhead_fails_the_gate() {
        assert!(check_overhead_pct(pair_overhead_pct(&[])).is_err());
        assert!(check_overhead_pct(f64::NAN).is_err());
    }
}
