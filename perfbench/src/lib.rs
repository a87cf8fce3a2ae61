//! `perfbench` — the crane-sim benchmark.
//!
//! Three workloads, each measured from outside the program by timing calls
//! into the workspace crates' public functions:
//!
//! * `serve-mixed` — the fleet's main served path: 256 sessions over four
//!   homogeneous shards, batched cohorts, a wall-clock executor.
//! * `serve-churn` — the same sessions on a heterogeneous 1×2.0 + 3×0.5 rack
//!   with preemption, migration and tiering on.
//! * `rack-interactive` — one trainee's Full-tier exam session stepped frame
//!   by frame, with no serving layer at all.
//!
//! The timed binary (`perfbench`) prints the end-to-end metrics; the traced
//! binary (`perfbench_traced`, the only one with the counting allocator)
//! prints the per-layer breakdown. Both check the program's outputs and end
//! with one JSON line. See `perfbench/README.md` for the metric definitions
//! and the layer → end-to-end prediction map.

pub mod alloc;
pub mod ceiling;
pub mod clock;
pub mod layers;
pub mod metrics;
pub mod rack;
pub mod serve;
pub mod stats;
pub mod wrapped;

use std::process::ExitCode;

use cod_cb::CbError;
use cod_fleet::generate;

use crate::layers::{ProbeSession, Values};
use crate::metrics::Report;
use crate::serve::Serve;
use crate::stats::{median, percentile, ratio};

/// The workload seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 0xC0D;

/// The end-to-end metrics every timed run prints, with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("sessions_per_s", "sessions/s"),
    ("frames_per_s", "frames/s"),
    ("frame_us_p50", "us"),
    ("frame_us_p99", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run prints, with their units. `lp.*`
/// rows are generated from [`wrapped::MODULES`].
pub const PER_LAYER: [(&str, &str); 56] = [
    ("model.sessions_per_s", "sessions/s"),
    ("model.fps", "frames/s"),
    ("fleet.wall_s", "s"),
    ("fleet.stepping_s", "s"),
    ("fleet.driver_s", "s"),
    ("fleet.tick_ms_p50", "ms"),
    ("fleet.tick_ms_p99", "ms"),
    ("fleet.ticks", "count"),
    ("admission.offered", "count"),
    ("admission.rejected", "count"),
    ("admission.peak_pending", "count"),
    ("admission.preempted", "count"),
    ("admission.migrated", "count"),
    ("admission.promoted", "count"),
    ("admission.demoted", "count"),
    ("admission.latency_p95_ticks", "ticks"),
    ("shard.sims_built", "count"),
    ("shard.sims_recycled", "count"),
    ("shard.recycle_ratio", "ratio"),
    ("shard.replayed_frames", "frames"),
    ("shard.replay_share", "ratio"),
    ("shard.util_min", "ratio"),
    ("shard.util_max", "ratio"),
    ("shard.task_ms_p50", "ms"),
    ("shard.task_ms_p99", "ms"),
    ("cohort.count", "count"),
    ("cohort.mean_members", "count"),
    ("cohort.memo_hits", "count"),
    ("cohort.memo_misses", "count"),
    ("cohort.memo_hit_ratio", "ratio"),
    ("executor.tasks", "count"),
    ("executor.steals", "count"),
    ("executor.idle_spins", "count"),
    ("executor.speedup", "x"),
    ("executor.ceiling", "x"),
    ("executor.efficiency", "ratio"),
    ("session.build_ms", "ms"),
    ("session.build_allocs", "count"),
    ("session.reset_us", "us"),
    ("session.full_frame_us", "us"),
    ("session.coarse_frame_us", "us"),
    ("session.allocs_per_frame", "count"),
    ("session.alloc_bytes_per_frame", "bytes"),
    ("cluster.frame_us", "us"),
    ("cluster.tail_us", "us"),
    ("cluster.glue_us", "us"),
    ("cluster.unattributed_share", "ratio"),
    ("cb.tick_us", "us"),
    ("cb.updates_remote_per_frame", "count"),
    ("cb.updates_local_per_frame", "count"),
    ("cb.reflections_per_frame", "count"),
    ("cb.wire_msgs_per_frame", "count"),
    ("cb.decode_errors", "count"),
    ("lan.datagrams_per_frame", "count"),
    ("lan.bytes_per_frame", "bytes"),
    ("lan.dropped", "count"),
];

/// Every per-layer metric in report order: [`PER_LAYER`], the `lp.*` table,
/// then `trace.overhead`.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|(n, u)| ((*n).to_owned(), *u)).collect();
    for module in wrapped::MODULES {
        out.push((format!("lp.{module}.wall_us"), "us"));
        out.push((format!("lp.{module}.modeled_us"), "us"));
        out.push((format!("lp.{module}.allocs"), "count"));
    }
    out.push(("trace.overhead".to_owned(), "ratio"));
    out
}

/// SplitMix64 finalizer over `seed ^ index`: independent per-index seeds
/// from one workload seed.
pub fn mix_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// See [`Serve::Mixed`].
    ServeMixed,
    /// See [`Serve::Churn`].
    ServeChurn,
    /// See [`rack`].
    RackInteractive,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] =
        [Workload::ServeMixed, Workload::ServeChurn, Workload::RackInteractive];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeMixed => "serve-mixed",
            Workload::ServeChurn => "serve-churn",
            Workload::RackInteractive => "rack-interactive",
        }
    }

    fn serve(self) -> Option<Serve> {
        match self {
            Workload::ServeMixed => Some(Serve::Mixed),
            Workload::ServeChurn => Some(Serve::Churn),
            Workload::RackInteractive => None,
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// How long the timed pass measures, in seconds.
    pub seconds: f64,
}

const USAGE: &str = "usage: perfbench --workload <serve-mixed|serve-churn|rack-interactive> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

/// Parses `argv` (without the program name). `trace` is the only `--trace`
/// value this binary accepts.
///
/// # Errors
///
/// Returns the usage message on any malformed or missing argument.
pub fn parse_args(argv: &[String], trace: u8) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value\n{USAGE}"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == name)
                        .ok_or_else(|| format!("unknown workload '{name}'\n{USAGE}"))?,
                );
            }
            "--seed" => {
                let text = value()?;
                seed = parse_u64(text).ok_or_else(|| format!("bad seed '{text}'\n{USAGE}"))?;
            }
            "--seconds" => {
                let text = value()?;
                seconds = text
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad --seconds '{text}'\n{USAGE}"))?;
            }
            "--trace" => {
                let text = value()?;
                if text.parse::<u8>().ok() != Some(trace) {
                    return Err(format!("this binary runs --trace {trace} only\n{USAGE}"));
                }
            }
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    let workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    Ok(Args { workload, seed, seconds })
}

/// The executor threads: one per available CPU.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The process's peak resident set (VmHWM) in MB.
///
/// # Errors
///
/// Returns an error where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|err| format!("cannot read /proc/self/status: {err}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

fn cb(err: CbError) -> String {
    format!("the program failed: {err}")
}

/// The timed pass of `args.workload`: end-to-end metrics, tracing off.
///
/// # Errors
///
/// Returns an error if the program fails outright.
pub fn timed_report(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let threads = threads();
    report.note(format!(
        "perfbench {} seed={:#x} seconds={} threads={threads} (available_parallelism)",
        args.workload.name(),
        args.seed,
        args.seconds
    ));
    if let Some(serve) = args.workload.serve() {
        let config = serve::fleet_config(serve, args.seed, threads);
        let run = serve::run_timed(&config, args.seconds).map_err(cb)?;
        let o = &run.outcome;
        let reps = run.walls.len();
        let frames = serve::delivered_frames(o) as f64;
        let walls: Vec<f64> = run.walls.iter().map(|w| w.wall.as_secs_f64()).collect();
        let per_frame_us: Vec<f64> = walls.iter().map(|w| w * 1e6 / frames).collect();
        let sessions_per_s: Vec<f64> = walls.iter().map(|w| o.completed as f64 / w).collect();
        let frames_per_s: Vec<f64> = walls.iter().map(|w| frames / w).collect();
        report.push("sessions_per_s", median(&sessions_per_s), "sessions/s", reps);
        report.push("frames_per_s", median(&frames_per_s), "frames/s", reps);
        report.push("frame_us_p50", percentile(&per_frame_us, 50.0), "us", reps);
        report.push("frame_us_p99", percentile(&per_frame_us, 99.0), "us", reps);
        report.push("setup_s", run.setup_s, "s", run.setup_samples);
        report.push("peak_rss_mb", peak_rss_mb()?, "MB", 1);
        report.push_info("modeled_sessions_per_s", o.sessions_per_sec(), "sessions/s", 1);
        let modeled_fps = ratio(frames, o.elapsed_modeled.as_secs_f64());
        report.push_info("modeled_fps", modeled_fps, "frames/s", 1);
        let completed = o.sessions.len();
        report.push_info("latency_p95_ticks", o.latency_percentile_ticks(95.0), "ticks", completed);
        let failed_share = ratio(o.rejected as f64, o.offered as f64);
        report.push_info("failed_share", failed_share, "ratio", o.offered as usize);
        report.note(format!(
            "  {reps} fleet runs of {} sessions ({} frames each), {} shapes per cold start",
            o.offered, frames, run.shapes
        ));
        report.note(format!(
            "  check: FLEET document == modeled reference: {} of {reps} runs mismatched",
            run.mismatched
        ));
        report.note(format!(
            "  check: completed + rejected == offered and rejected_with_free_slot == 0: {}",
            run.conserved
        ));
        report.correct = run.mismatched == 0 && run.conserved;
        report.attempted = o.offered * reps as u64;
        report.failed = o.rejected * reps as u64;
    } else {
        let run = rack::run_timed(args.seed, args.seconds, rack::EXAM_FRAMES).map_err(cb)?;
        let n = run.frame_ns.count() as usize;
        let sessions = run.sessions as usize;
        report.push("sessions_per_s", run.sessions as f64 / run.wall_s, "sessions/s", sessions);
        report.push("frames_per_s", n as f64 / run.wall_s, "frames/s", n);
        report.push("frame_us_p50", run.frame_ns.percentile_ns(50.0) / 1e3, "us", n);
        report.push("frame_us_p99", run.frame_ns.percentile_ns(99.0) / 1e3, "us", n);
        report.push("setup_s", run.setup_s, "s", run.setup_samples);
        report.push("peak_rss_mb", peak_rss_mb()?, "MB", 1);
        let modeled_fps = median(&run.modeled_fps);
        let modeled_sessions = modeled_fps / rack::EXAM_FRAMES as f64;
        report.push_info("modeled_sessions_per_s", modeled_sessions, "sessions/s", sessions);
        report.push_info("modeled_fps", modeled_fps, "frames/s", sessions);
        // An errored frame aborts the run, so a finished run failed none.
        report.push_info("failed_share", 0.0, "ratio", n);
        report.note(format!(
            "  {} exam sessions of {} frames, one recycled simulator",
            run.sessions,
            rack::EXAM_FRAMES
        ));
        report.note(format!(
            "  check: final digest == replay on a recycled simulator: {}",
            run.replay_matches
        ));
        report.correct = run.replay_matches;
        report.attempted = n as u64;
        report.failed = 0;
    }
    let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
    let expected: Vec<&str> = END_TO_END.iter().map(|(name, _)| *name).collect();
    if names != expected {
        return Err(format!("timed pass reported {names:?}, expected {expected:?}"));
    }
    Ok(report)
}

/// Frames the traced pass's session/LP probe replays from a serving
/// workload's first arrivals.
pub const PROBE_FRAMES: usize = 1_536;

/// The sessions the traced pass replays through the session/LP probe: the
/// first arrivals of a serving workload up to about `frames` frames, or one
/// whole exam session for `rack-interactive`.
pub fn probe_sessions(workload: Workload, seed: u64, frames: usize) -> Vec<ProbeSession> {
    let Some(serve) = workload.serve() else {
        let config = rack::exam_config(seed, 0);
        return vec![ProbeSession { config, plan: None, frames: rack::EXAM_FRAMES }];
    };
    let config = serve::fleet_config(serve, seed, 1);
    let mut out = Vec::new();
    let mut total = 0;
    for arrival in generate(&config.workload) {
        if total >= frames {
            break;
        }
        total += arrival.spec.frames;
        out.push(ProbeSession {
            config: arrival.spec.config,
            plan: Some(arrival.spec.fault_plan),
            frames: arrival.spec.frames,
        });
    }
    out
}

/// The traced pass of `args.workload`: every per-layer metric. Layers a
/// workload bypasses report 0.
///
/// # Errors
///
/// Returns an error if the program fails outright.
pub fn traced_report(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let threads = threads();
    report.note(format!(
        "perfbench (traced) {} seed={:#x} threads={threads} (available_parallelism)",
        args.workload.name(),
        args.seed
    ));
    let mut values = Values::new();
    let mut correct = true;
    let mut overhead = 0.0;
    if let Some(serve) = args.workload.serve() {
        let config = serve::fleet_config(serve, args.seed, threads);
        let fleet = layers::trace_fleet(&config, &mut values).map_err(cb)?;
        overhead = ratio(fleet.traced_wall_s, fleet.untraced_wall_s);
        report.note(format!(
            "  check: traced FLEET document == modeled reference: {}",
            fleet.document_matches
        ));
        report.note(format!(
            "  check: completed + rejected == offered and rejected_with_free_slot == 0: {}",
            fleet.conserved
        ));
        correct &= fleet.document_matches && fleet.conserved;
        report.attempted = values.get("admission.offered").map_or(0.0, |v| v.0) as u64;
        report.failed = values.get("admission.rejected").map_or(0.0, |v| v.0) as u64;
    }
    let sessions = probe_sessions(args.workload, args.seed, PROBE_FRAMES);
    let probe = layers::probe_sessions(&sessions, &mut values).map_err(cb)?;
    layers::put_ceiling(threads, &mut values);
    if args.workload.serve().is_none() {
        let fps = stats::median(&probe.modeled_fps);
        let samples = probe.modeled_fps.len();
        values.insert("model.fps".to_owned(), (fps, samples));
        let sessions_per_s = fps / rack::EXAM_FRAMES as f64;
        values.insert("model.sessions_per_s".to_owned(), (sessions_per_s, samples));
        let plain = stats::mean(&probe.plain_frame_ns) / 1e3;
        overhead = ratio(values.get("cluster.frame_us").map_or(0.0, |v| v.0), plain);
        report.attempted = probe.compared_frames;
    }
    values.insert("trace.overhead".to_owned(), (overhead, 1));
    report.note(format!(
        "  check: wrapped rack == unwrapped CraneSimulator: {} of {} frames mismatched",
        probe.mismatched_frames, probe.compared_frames
    ));
    correct &= probe.mismatched_frames == 0;
    report.note(lp_table(&values));
    report.correct = correct;
    for (name, unit) in per_layer_metrics() {
        let (value, samples) = values.get(&name).copied().unwrap_or((0.0, 0));
        report.push(name, value, unit, samples);
    }
    Ok(report)
}

/// The modeled-vs-wall LP table and the cluster-frame closure.
fn lp_table(values: &Values) -> String {
    let get = |name: &str| values.get(name).map_or(0.0, |v| v.0);
    let mut out = String::from("  module              wall_us  modeled_us  allocs/frame\n");
    let mut lp_sum = 0.0;
    for module in wrapped::MODULES {
        let wall = get(&format!("lp.{module}.wall_us"));
        lp_sum += wall;
        out.push_str(&format!(
            "  {module:<18} {wall:>8.2}  {:>10.0}  {:>12.1}\n",
            get(&format!("lp.{module}.modeled_us")),
            get(&format!("lp.{module}.allocs")),
        ));
    }
    let frame = get("cluster.frame_us");
    let (tick, tail) = (get("cb.tick_us"), get("cluster.tail_us"));
    out.push_str(&format!(
        "  closure: sum lp {lp_sum:.2} + cb.tick {tick:.2} + tail {tail:.2} = {:.2} us \
         of cluster.frame_us {frame:.2} ({:.2}%)",
        lp_sum + tick + tail,
        100.0 * ratio(lp_sum + tick + tail, frame)
    ));
    out
}

/// The shared `main` of both binaries: parse, run, print the table and the
/// JSON line. Exits non-zero when an argument is bad, the program fails, or
/// a correctness check fails.
pub fn main_with(traced: bool) -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv, u8::from(traced)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let report = if traced { traced_report(&args) } else { timed_report(&args) };
    let report = match report {
        Ok(report) => report,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.table());
    match report.json_line() {
        Ok(line) => println!("{line}"),
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::FAILURE;
        }
    }
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: a correctness check failed");
        ExitCode::FAILURE
    }
}
