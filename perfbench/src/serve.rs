//! The `serve-mixed` and `serve-churn` workloads: the fleet serving 256
//! sessions from `cod_fleet::workload::generate`, driven by
//! [`run_fleet_timed`] from one process with a `threads`-worker executor.

use std::collections::BTreeSet;

use cod_cb::CbError;
use cod_fleet::{
    document, initial_tier, run_fleet_timed, ExecutionMode, FleetConfig, FleetOutcome, FleetReport,
    SessionShape, ShardConfig, SteppingMode, WallClockStats,
};
use crane_sim::{CraneSimulator, FidelityTier, SimulatorConfig};

use crate::clock::Stopwatch;
use crate::stats::median;

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Serve {
    /// 4 homogeneous shards, no preemption, migration or tiering.
    Mixed,
    /// 1×2.0 + 3×0.5 shards with preemption, migration and tiering on.
    Churn,
}

/// The fleet configuration of `workload` at `seed`, stepped by a
/// `threads`-worker wall-clock executor with batched cohorts.
pub fn fleet_config(workload: Serve, seed: u64, threads: usize) -> FleetConfig {
    let base = FleetConfig {
        shard: ShardConfig { stepping: SteppingMode::Batched, ..ShardConfig::default() },
        execution: ExecutionMode::WallClock { threads },
        ..FleetConfig::full(4, seed)
    };
    match workload {
        Serve::Mixed => base,
        Serve::Churn => FleetConfig {
            shard_speeds: vec![2.0, 0.5, 0.5, 0.5],
            preemption: true,
            migration: true,
            tiering: true,
            ..base
        },
    }
}

/// `config` under the sequential modeled executor: the reference every
/// wall-clock run must reproduce byte for byte.
pub fn modeled(config: &FleetConfig) -> FleetConfig {
    FleetConfig { execution: ExecutionMode::Modeled, ..config.clone() }
}

/// The `FLEET_cod.json` document of one run.
pub fn document_of(outcome: &FleetOutcome) -> String {
    let report = FleetReport::from_outcome(outcome);
    document(&report, &report, None, None, false).to_pretty()
}

/// Session conservation: every offered session completed or was rejected,
/// and none was rejected while a slot was free.
pub fn conserved(outcome: &FleetOutcome) -> bool {
    outcome.completed + outcome.rejected == outcome.offered && outcome.rejected_with_free_slot == 0
}

/// Session frames delivered: the frame budgets of completed sessions
/// (replayed frames are not deliveries).
pub fn delivered_frames(outcome: &FleetOutcome) -> u64 {
    outcome.sessions.iter().map(|s| s.frames as u64).sum()
}

/// The session shapes `config`'s workload serves at admission: each
/// arrival's configuration on its initial tier (Coarse for batch sessions
/// when tiering is on).
pub fn shapes(config: &FleetConfig) -> Vec<SimulatorConfig> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for arrival in cod_fleet::generate(&config.workload) {
        let mut sim = arrival.spec.config;
        sim.tier =
            if config.tiering { initial_tier(arrival.spec.priority) } else { FidelityTier::Full };
        if seen.insert(SessionShape::of(&sim)) {
            out.push(sim);
        }
    }
    out
}

/// One cold start of `config`: arrival generation plus one cold
/// `CraneSimulator::new` per distinct session shape. Returns (seconds,
/// shapes built).
///
/// # Errors
///
/// Returns the first build error.
pub fn setup_once(config: &FleetConfig) -> Result<(f64, usize), CbError> {
    let watch = Stopwatch::start();
    let shapes = shapes(config);
    for shape in &shapes {
        std::hint::black_box(CraneSimulator::new(*shape)?);
    }
    Ok((watch.secs(), shapes.len()))
}

/// What the timed pass measured.
#[derive(Debug, Clone)]
pub struct ServeRun {
    /// Per timed repetition: the run's wall-clock stats.
    pub walls: Vec<WallClockStats>,
    /// The (identical) outcome of every repetition.
    pub outcome: FleetOutcome,
    /// Median cold-start seconds and its sample count.
    pub setup_s: f64,
    /// See [`ServeRun::setup_s`].
    pub setup_samples: usize,
    /// Distinct shapes one cold start builds.
    pub shapes: usize,
    /// Repetitions whose document differed from the modeled reference.
    pub mismatched: usize,
    /// Whether the reference run conserved sessions.
    pub conserved: bool,
}

/// Cold-start samples taken before the first timed repetition, and after
/// each one: spreading them over the run keeps one slow stretch of the host
/// from deciding the median.
const SETUP_FIRST: usize = 5;
const SETUP_PER_REP: usize = 2;

/// The timed pass: one modeled reference run, then wall-clock repetitions of
/// the whole fleet until `seconds` have passed (at least one), each checked
/// byte for byte against the reference, with cold-start samples spread over
/// the run.
///
/// # Errors
///
/// Returns the first hard error raised by the fleet.
pub fn run_timed(config: &FleetConfig, seconds: f64) -> Result<ServeRun, CbError> {
    let mut setup = Vec::new();
    let mut shapes = 0;
    let mut sample_setup = |n: usize, setup: &mut Vec<f64>| -> Result<(), CbError> {
        for _ in 0..n {
            let (secs, built) = setup_once(config)?;
            setup.push(secs);
            shapes = built;
        }
        Ok(())
    };
    sample_setup(SETUP_FIRST, &mut setup)?;
    let (reference, _) = run_fleet_timed(&modeled(config))?;
    let reference_doc = document_of(&reference);
    let mut walls = Vec::new();
    let mut mismatched = 0;
    let mut measured = 0.0;
    while walls.is_empty() || measured < seconds {
        let watch = Stopwatch::start();
        let (outcome, wall) = run_fleet_timed(config)?;
        measured += watch.secs();
        if document_of(&outcome) != reference_doc {
            mismatched += 1;
        }
        walls.push(wall);
        sample_setup(SETUP_PER_REP, &mut setup)?;
    }
    Ok(ServeRun {
        walls,
        conserved: conserved(&reference),
        outcome: reference,
        setup_s: median(&setup),
        setup_samples: setup.len(),
        shapes,
        mismatched,
    })
}
