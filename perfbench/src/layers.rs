//! The traced pass: the per-layer numbers of one workload.
//!
//! Everything here is measured from outside the program: calls into each
//! layer's public functions are timed by the benchmark, allocations are
//! counted by [`crate::alloc::CountingAlloc`] (installed only in the traced
//! binary), and the fleet's own sinks — `WallClockStats`, `ShardStats`, the
//! `cod-trace` deterministic and wall-clock traces — are read after the run.

use std::collections::BTreeMap;

use cod_cb::CbError;
use cod_fleet::{run_fleet_timed, run_fleet_traced, FleetConfig, ObsConfig};
use cod_json::Json;
use cod_net::FaultPlan;
use crane_sim::{CraneSimulator, FidelityTier, SimulatorConfig};

use crate::clock::Stopwatch;
use crate::serve::{document_of, modeled};
use crate::stats::{mean, median, percentile, ratio};
use crate::wrapped::{self, RackProfile, Variant, WrappedRack, MODULES};
use crate::{alloc, ceiling};

/// Per-layer metric values by name: (value, samples).
pub type Values = BTreeMap<String, (f64, usize)>;

fn put(values: &mut Values, name: &str, value: f64, samples: usize) {
    values.insert(name.to_owned(), (value, samples));
}

/// Timed cold builds per probed session.
const BUILDS_PER_SESSION: usize = 3;

/// Frames per alternation between the plain and the wrapped rack.
const OVERHEAD_CHUNK: usize = 240;

/// One session the session/LP probe replays: its configuration, LAN fault
/// plan and frame budget.
#[derive(Debug, Clone)]
pub struct ProbeSession {
    /// The session's configuration (built on the Full tier).
    pub config: SimulatorConfig,
    /// The fault plan a shard would install, if any.
    pub plan: Option<FaultPlan>,
    /// Frames to step.
    pub frames: usize,
}

/// What the session/LP probe found.
#[derive(Debug, Clone, Default)]
pub struct Probe {
    /// The wrapped-rack breakdown.
    pub profile: RackProfile,
    /// Frames where the wrapped rack and its unwrapped reference disagreed.
    pub mismatched_frames: u64,
    /// Frames compared.
    pub compared_frames: u64,
    /// Untraced wall ns per unwrapped `step_frame` (counting disarmed).
    pub plain_frame_ns: Vec<f64>,
    /// Each probed session's modeled cluster frame rate.
    pub modeled_fps: Vec<f64>,
}

/// The session-, cluster-, LP-, CB- and LAN-layer numbers over `sessions`,
/// plus the wrapped-vs-unwrapped equivalence check.
///
/// # Errors
///
/// Returns the first error raised by a rack.
pub fn probe_sessions(sessions: &[ProbeSession], values: &mut Values) -> Result<Probe, CbError> {
    let mut probe = Probe::default();
    let mut build_ms = Vec::new();
    let mut build_allocs = Vec::new();
    let mut reset_us = Vec::new();
    let mut coarse_ns = 0u64;
    let mut frames_total = 0u64;
    let mut frame_allocs = 0u64;
    let mut frame_bytes = 0u64;
    for session in sessions {
        let frames = session.frames;
        // Session layer, unwrapped: cold builds (timed, then counted)...
        for _ in 0..BUILDS_PER_SESSION {
            let watch = Stopwatch::start();
            drop(CraneSimulator::new(session.config)?);
            build_ms.push(watch.secs() * 1e3);
        }
        alloc::arm(true);
        let (a0, _) = alloc::counts();
        let mut sim = CraneSimulator::new(session.config)?;
        build_allocs.push((alloc::counts().0 - a0) as f64);
        alloc::arm(false);
        if let Some(plan) = &session.plan {
            sim.set_fault_plan(plan.clone());
        }
        // ...its frames untraced (the tracing-overhead base), alternating in
        // short chunks with the same frames on the wrapped rack (cluster, LP,
        // CB and LAN layers, allocations counted), so a slow stretch of the
        // host lands on both sides of the overhead ratio alike...
        let mut rack = WrappedRack::build(&session.config, Variant::Faithful)?;
        if let Some(plan) = &session.plan {
            rack.cluster.set_fault_plan(plan.clone());
        }
        let mut done = 0;
        while done < frames {
            let chunk = OVERHEAD_CHUNK.min(frames - done);
            for _ in 0..chunk {
                let watch = Stopwatch::start();
                sim.step_frame()?;
                probe.plain_frame_ns.push(watch.ns() as f64);
            }
            alloc::arm(true);
            wrapped::profile_frames(&mut rack, chunk, &mut probe.profile)?;
            alloc::arm(false);
            done += chunk;
        }
        drop(rack);
        // ...a recycle, then the same frames with allocations counted.
        let watch = Stopwatch::start();
        sim.reset_for_session(session.config.seed)?;
        reset_us.push(watch.secs() * 1e6);
        if let Some(plan) = &session.plan {
            sim.set_fault_plan(plan.clone());
        }
        alloc::arm(true);
        let (a0, b0) = alloc::counts();
        sim.run_frames(frames)?;
        let (a1, b1) = alloc::counts();
        alloc::arm(false);
        probe.modeled_fps.push(sim.report().cluster_fps);
        frame_allocs += a1 - a0;
        frame_bytes += b1 - b0;
        frames_total += frames as u64;

        // The Coarse tier of the same session.
        let coarse = SimulatorConfig { tier: FidelityTier::Coarse, ..session.config };
        let mut sim = CraneSimulator::new(coarse)?;
        if let Some(plan) = &session.plan {
            sim.set_fault_plan(plan.clone());
        }
        let watch = Stopwatch::start();
        sim.run_frames(frames)?;
        coarse_ns += watch.ns();

        // The wrapped rack beside an unwrapped reference, frame for frame.
        probe.mismatched_frames += wrapped::check_against_reference(
            &session.config,
            session.plan.as_ref(),
            Variant::Faithful,
            frames,
        )?;
        probe.compared_frames += frames as u64;
    }

    let n = sessions.len();
    let builds = build_ms.len();
    let frames = frames_total.max(1) as f64;
    put(values, "session.build_ms", median(&build_ms), builds);
    put(values, "session.build_allocs", median(&build_allocs), n);
    put(values, "session.reset_us", median(&reset_us), n);
    let full_us = mean(&probe.plain_frame_ns) / 1e3;
    put(values, "session.full_frame_us", full_us, probe.plain_frame_ns.len());
    put(values, "session.coarse_frame_us", coarse_ns as f64 / 1e3 / frames, frames_total as usize);
    put(values, "session.allocs_per_frame", frame_allocs as f64 / frames, frames_total as usize);
    put(
        values,
        "session.alloc_bytes_per_frame",
        frame_bytes as f64 / frames,
        frames_total as usize,
    );

    let p = &probe.profile;
    let pf = p.frames as usize;
    put(values, "cluster.frame_us", p.per_frame_us(p.frame_ns), pf);
    put(values, "cluster.tail_us", p.per_frame_us(p.tail_ns), pf);
    put(values, "cluster.glue_us", p.per_frame_us(p.glue_ns), pf);
    let mut lp_ns = 0;
    for module in MODULES {
        let (wall, modeled, allocs) = p.modules.get(module).copied().unwrap_or_default();
        lp_ns += wall;
        put(values, &format!("lp.{module}.wall_us"), p.per_frame_us(wall), pf);
        put(values, &format!("lp.{module}.modeled_us"), p.per_frame(modeled), pf);
        put(values, &format!("lp.{module}.allocs"), p.per_frame(allocs), pf);
    }
    put(values, "cb.tick_us", p.per_frame_us(p.tick_ns), pf);
    put(values, "cb.updates_remote_per_frame", p.per_frame(p.cb.updates_sent_remote), pf);
    put(values, "cb.updates_local_per_frame", p.per_frame(p.cb.updates_routed_locally), pf);
    put(values, "cb.reflections_per_frame", p.per_frame(p.cb.reflections_delivered), pf);
    put(values, "cb.wire_msgs_per_frame", p.per_frame(p.cb.wire_messages_received), pf);
    put(values, "cb.decode_errors", p.cb.decode_errors as f64, pf);
    put(values, "lan.datagrams_per_frame", p.per_frame(p.lan.0), pf);
    put(values, "lan.bytes_per_frame", p.per_frame(p.lan.1), pf);
    put(values, "lan.dropped", p.lan.2 as f64, pf);
    let attributed = lp_ns + p.tick_ns + p.tail_ns;
    put(
        values,
        "cluster.unattributed_share",
        1.0 - ratio(attributed as f64, p.frame_ns as f64),
        pf,
    );
    Ok(probe)
}

/// Durations (ms) of the wall-trace spans of category `cat`, on the driver
/// lane (`driver`) or on the worker lanes, plus the member counts of the
/// `cohort xN` spans.
fn spans_ms(trace: &Json, cat: &str, driver: bool) -> Vec<f64> {
    let Some(Json::Arr(events)) = trace.get("traceEvents") else { return Vec::new() };
    events
        .iter()
        .filter(|e| e.get("cat").and_then(Json::as_str) == Some(cat))
        .filter(|e| (e.get("tid").and_then(Json::as_f64) == Some(0.0)) == driver)
        .filter_map(|e| e.get("dur").and_then(Json::as_f64))
        .map(|us| us / 1e3)
        .collect()
}

fn cohort_members(trace: &Json) -> Vec<f64> {
    let Some(Json::Arr(events)) = trace.get("traceEvents") else { return Vec::new() };
    events
        .iter()
        .filter(|e| e.get("cat").and_then(Json::as_str) == Some("cohort"))
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .filter_map(|name| name.strip_prefix("cohort x").and_then(|n| n.parse::<f64>().ok()))
        .collect()
}

/// What the fleet part of the traced pass found.
#[derive(Debug, Clone, Copy)]
pub struct FleetTrace {
    /// Wall seconds of the untraced runs.
    pub untraced_wall_s: f64,
    /// Wall seconds of the traced runs.
    pub traced_wall_s: f64,
    /// Whether the traced run's `FLEET_cod.json` equals the modeled run's.
    pub document_matches: bool,
    /// Whether the traced run conserved sessions.
    pub conserved: bool,
}

/// The fleet-, admission-, shard-, cohort- and executor-layer numbers of
/// one serving workload: untraced wall-clock runs (the overhead base), runs
/// with both `cod-trace` sinks armed, and a modeled run for the executor
/// speedup and the byte-identity check.
///
/// # Errors
///
/// Returns the first hard error raised by the fleet.
pub fn trace_fleet(config: &FleetConfig, values: &mut Values) -> Result<FleetTrace, CbError> {
    // The modeled run goes first and doubles as the warm-up; untraced and
    // traced runs then alternate, so a slow stretch of the host lands on both
    // sides of the overhead ratio alike. The layer numbers come from the
    // first traced run.
    let (reference, modeled_wall) = run_fleet_timed(&modeled(config))?;
    let traced_config = FleetConfig { obs: ObsConfig::Full, ..config.clone() };
    let (_, untraced) = run_fleet_timed(config)?;
    let (outcome, wall, artifacts) = run_fleet_traced(&traced_config)?;
    let (_, untraced_again) = run_fleet_timed(config)?;
    let (_, traced_again, _) = run_fleet_traced(&traced_config)?;
    let document_matches = document_of(&outcome) == document_of(&reference);

    let wall_s = wall.wall.as_secs_f64();
    let stepping_s = wall.stepping_wall.as_secs_f64();
    put(values, "fleet.wall_s", wall_s, 1);
    put(values, "fleet.stepping_s", stepping_s, 1);
    put(values, "fleet.driver_s", wall_s - stepping_s, 1);
    let trace = artifacts.wall.as_ref().map(|w| w.to_chrome_json()).unwrap_or(Json::Null);
    let ticks = spans_ms(&trace, "tick", true);
    put(values, "fleet.tick_ms_p50", percentile(&ticks, 50.0), ticks.len());
    put(values, "fleet.tick_ms_p99", percentile(&ticks, 99.0), ticks.len());
    put(values, "fleet.ticks", wall.ticks as f64, 1);

    let delivered = crate::serve::delivered_frames(&outcome) as f64;
    let modeled_s = outcome.elapsed_modeled.as_secs_f64();
    put(values, "model.sessions_per_s", outcome.sessions_per_sec(), 1);
    put(values, "model.fps", ratio(delivered, modeled_s), 1);
    put(values, "admission.offered", outcome.offered as f64, 1);
    put(values, "admission.rejected", outcome.rejected as f64, 1);
    put(values, "admission.peak_pending", outcome.peak_pending as f64, 1);
    put(values, "admission.preempted", outcome.preempted as f64, 1);
    put(values, "admission.migrated", outcome.migrated as f64, 1);
    put(values, "admission.promoted", outcome.promoted as f64, 1);
    put(values, "admission.demoted", outcome.demoted as f64, 1);
    let completed = outcome.sessions.len();
    put(values, "admission.latency_p95_ticks", outcome.latency_percentile_ticks(95.0), completed);

    let det = artifacts.det.as_ref();
    let counter = |key: &str| det.map_or(0, |d| d.counter(key)) as f64;
    let stats = &outcome.shard_stats;
    let built: u64 = stats.iter().map(|s| s.sims_built).sum();
    let recycled: u64 = stats.iter().map(|s| s.sims_recycled).sum();
    let replayed: u64 = stats.iter().map(|s| s.replayed_frames).sum();
    let stepped = counter("frames_stepped");
    put(values, "shard.sims_built", built as f64, stats.len());
    put(values, "shard.sims_recycled", recycled as f64, stats.len());
    put(values, "shard.recycle_ratio", ratio(recycled as f64, (built + recycled) as f64), 1);
    put(values, "shard.replayed_frames", replayed as f64, stats.len());
    put(values, "shard.replay_share", ratio(replayed as f64, replayed as f64 + stepped), 1);
    let util: Vec<f64> = (0..stats.len()).map(|i| outcome.shard_utilization(i)).collect();
    put(values, "shard.util_min", util.iter().copied().fold(f64::INFINITY, f64::min), util.len());
    put(values, "shard.util_max", util.iter().copied().fold(0.0, f64::max), util.len());
    let tasks = spans_ms(&trace, "step", false);
    put(values, "shard.task_ms_p50", percentile(&tasks, 50.0), tasks.len());
    put(values, "shard.task_ms_p99", percentile(&tasks, 99.0), tasks.len());

    let members = cohort_members(&trace);
    let (hits, misses) = (counter("memo_hits"), counter("memo_misses"));
    put(values, "cohort.count", counter("cohorts_stepped"), 1);
    put(values, "cohort.mean_members", mean(&members), members.len());
    put(values, "cohort.memo_hits", hits, 1);
    put(values, "cohort.memo_misses", misses, 1);
    put(values, "cohort.memo_hit_ratio", ratio(hits, hits + misses), 1);

    let sum = |v: &[u64]| v.iter().sum::<u64>() as f64;
    put(values, "executor.tasks", sum(&wall.worker_tasks), wall.worker_tasks.len());
    put(values, "executor.steals", sum(&wall.worker_steals), wall.worker_steals.len());
    put(values, "executor.idle_spins", sum(&wall.worker_idle_spins), wall.worker_idle_spins.len());
    let speedup = ratio(modeled_wall.stepping_wall.as_secs_f64(), stepping_s);
    put(values, "executor.speedup", speedup, 1);

    Ok(FleetTrace {
        untraced_wall_s: (untraced.wall + untraced_again.wall).as_secs_f64(),
        traced_wall_s: (wall.wall + traced_again.wall).as_secs_f64(),
        document_matches,
        conserved: crate::serve::conserved(&outcome),
    })
}

/// The parallel ceiling and the executor efficiency against it.
pub fn put_ceiling(threads: usize, values: &mut Values) {
    let rounds = 5;
    let ceiling = ceiling::measure(threads, 60.0, rounds);
    put(values, "executor.ceiling", ceiling, rounds);
    let speedup = values.get("executor.speedup").map_or(0.0, |v| v.0);
    put(values, "executor.efficiency", ratio(speedup, ceiling), 1);
}
