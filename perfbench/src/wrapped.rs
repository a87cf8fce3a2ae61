//! The Full rack rebuilt from the public constructors, with every logical
//! process inside a timing wrapper — the modeled-vs-wall LP table.
//!
//! [`WrappedRack::build`] assembles the same eight-computer deployment
//! `crane_sim::FullFidelity` builds (same computers, names, LPs, order and
//! seeds), but plugs each LP into the cluster through [`Timed`], which
//! implements [`LogicalProcess`] by forwarding to the wrapped LP and
//! recording the wall time, modeled cost and allocations of each `step` into
//! a shared [`LpSlot`]. The wrapper allocates nothing and takes no lock per step: a
//! slot is a handful of relaxed atomics.
//!
//! [`check_against_reference`] proves the wrapping changes nothing: a wrapped
//! rack and an unwrapped [`CraneSimulator`] of the same configuration must
//! agree frame for frame on the whole `FrameRecord` and the whole telemetry
//! snapshot.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cod_cb::{CbApi, CbError, CbStats};
use cod_cluster::{
    frame_period_for_fps, Cluster, ClusterConfig, ComputerId, FrameRecord, FrameSyncServer,
    LogicalProcess,
};
use cod_net::{FaultPlan, LanConfig, LanStats, Micros};
use crane_scene::course::Course;
use crane_sim::audio::AudioLp;
use crane_sim::dashboard::DashboardLp;
use crane_sim::dynamics::DynamicsLp;
use crane_sim::instructor::InstructorLp;
use crane_sim::motion::MotionPlatformLp;
use crane_sim::scenario::ScenarioLp;
use crane_sim::visual::VisualDisplayLp;
use crane_sim::{
    CraneFom, CraneSimulator, ExamOperator, GpuGeneration, IdleOperator, Operator, OperatorKind,
    RecklessOperator, SharedTelemetry, SimulatorConfig,
};
use render_sim::GpuCostModel;

use crate::alloc;
use crate::clock::now_ns;

/// The module names of the Full rack, in report order. Display channels
/// (`visual-0`, `visual-1`, ...) fold into `visual`.
pub const MODULES: [&str; 8] = [
    "audio",
    "dynamics",
    "visual",
    "motion-platform",
    "dashboard",
    "scenario",
    "instructor",
    "frame-sync-server",
];

/// What one wrapped LP recorded: its last step's start and end on the
/// [`now_ns`] clock, plus running totals.
#[derive(Debug)]
pub struct LpSlot {
    /// The module this LP belongs to (see [`MODULES`]).
    pub module: String,
    /// Rack index of the computer hosting the LP.
    pub computer: usize,
    start_ns: AtomicU64,
    end_ns: AtomicU64,
    wall_ns: AtomicU64,
    modeled_us: AtomicU64,
    allocs: AtomicU64,
    steps: AtomicU64,
}

impl LpSlot {
    fn new(name: &str, computer: usize) -> LpSlot {
        LpSlot {
            module: module_of(name).to_owned(),
            computer,
            start_ns: AtomicU64::new(0),
            end_ns: AtomicU64::new(0),
            wall_ns: AtomicU64::new(0),
            modeled_us: AtomicU64::new(0),
            allocs: AtomicU64::new(0),
            steps: AtomicU64::new(0),
        }
    }

    // Relaxed throughout: the rack steps on one thread, and the slots are
    // statistics that publish no other data.
    fn record(&self, start: u64, end: u64, allocs: u64, modeled: Micros) {
        self.start_ns.store(start, Ordering::Relaxed);
        self.end_ns.store(end, Ordering::Relaxed);
        self.wall_ns.fetch_add(end - start, Ordering::Relaxed);
        self.modeled_us.fetch_add(modeled.0, Ordering::Relaxed);
        self.allocs.fetch_add(allocs, Ordering::Relaxed);
        self.steps.fetch_add(1, Ordering::Relaxed);
    }

    /// Start and end of the most recent step.
    pub fn last_span(&self) -> (u64, u64) {
        (self.start_ns.load(Ordering::Relaxed), self.end_ns.load(Ordering::Relaxed))
    }

    /// Totals so far: (wall ns, modeled µs, allocations, steps).
    pub fn totals(&self) -> (u64, u64, u64, u64) {
        (
            self.wall_ns.load(Ordering::Relaxed),
            self.modeled_us.load(Ordering::Relaxed),
            self.allocs.load(Ordering::Relaxed),
            self.steps.load(Ordering::Relaxed),
        )
    }
}

/// The module an LP name belongs to: `visual-2` is `visual`.
fn module_of(name: &str) -> &str {
    match name.rsplit_once('-') {
        Some((head, tail)) if !tail.is_empty() && tail.bytes().all(|b| b.is_ascii_digit()) => head,
        _ => name,
    }
}

/// A [`LogicalProcess`] that forwards every call to `inner` and records each
/// step into its [`LpSlot`].
pub struct Timed {
    inner: Box<dyn LogicalProcess>,
    slot: Arc<LpSlot>,
}

impl LogicalProcess for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn init(&mut self, cb: &mut dyn CbApi) -> Result<(), CbError> {
        self.inner.init(cb)
    }

    fn step(&mut self, cb: &mut dyn CbApi, dt: f64) -> Result<(), CbError> {
        let allocs = alloc::allocations();
        let start = now_ns();
        let result = self.inner.step(cb, dt);
        let end = now_ns();
        let allocs = alloc::allocations() - allocs;
        self.slot.record(start, end, allocs, self.inner.last_step_cost());
        result
    }

    fn last_step_cost(&self) -> Micros {
        self.inner.last_step_cost()
    }

    fn begin_session(&mut self, cb: &mut dyn CbApi, seed: u64) -> Result<(), CbError> {
        self.inner.begin_session(cb, seed)
    }
}

/// Which LP a rack build swaps for a different one — the negative control
/// of [`check_against_reference`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Variant {
    /// The faithful rack.
    #[default]
    Faithful,
    /// The dashboard LP is built around a different operator model than the
    /// configuration names, so the rack no longer matches its reference.
    SwappedDashboard,
}

/// The Full rack with every LP wrapped in [`Timed`].
pub struct WrappedRack {
    /// The cluster, stepped with [`Cluster::run_frame`].
    pub cluster: Cluster,
    /// The telemetry sink the LPs write.
    pub telemetry: SharedTelemetry,
    /// One slot per LP, in rack order (computer by computer).
    pub slots: Vec<Arc<LpSlot>>,
}

fn operator(kind: OperatorKind) -> Box<dyn Operator> {
    match kind {
        OperatorKind::Exam => Box::new(ExamOperator::new(Course::licensing_exam())),
        OperatorKind::Idle => Box::new(IdleOperator),
        OperatorKind::Reckless => Box::new(RecklessOperator::default()),
    }
}

impl WrappedRack {
    /// Builds the Full rack for `config` from the public constructors, runs
    /// the CB initialization and starts the session — step for step what
    /// `CraneSimulator::new` does for the Full tier.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid or an LP fails to
    /// initialize.
    pub fn build(config: &SimulatorConfig, variant: Variant) -> Result<WrappedRack, CbError> {
        config.validate().map_err(CbError::Codec)?;
        let (registry, fom) = CraneFom::standard();
        let telemetry = SharedTelemetry::new();
        let mut cluster = Cluster::new(
            ClusterConfig {
                lan: LanConfig::fast_ethernet(config.seed),
                frame_period: frame_period_for_fps(config.target_fps),
                init_rounds: 120,
            },
            registry.clone(),
        );
        let gpu = match config.gpu {
            GpuGeneration::Tnt2 => GpuCostModel::tnt2_class(),
            GpuGeneration::NextGeneration => GpuCostModel::next_generation(),
        };
        let mut slots = Vec::new();
        let mut add = |cluster: &mut Cluster,
                       pc: ComputerId,
                       lp: Box<dyn LogicalProcess>|
         -> Result<(), CbError> {
            let slot = Arc::new(LpSlot::new(lp.name(), pc.0));
            slots.push(Arc::clone(&slot));
            cluster.add_lp(pc, Box::new(Timed { inner: lp, slot }))?;
            Ok(())
        };
        let speed = config.cpu_speed;

        for channel in 0..config.display_channels {
            let pc = cluster.add_computer_with_speed(&format!("display-{channel}"), speed);
            let lp = VisualDisplayLp::new(
                registry.clone(),
                fom,
                channel,
                config.display_channels,
                config.display_width,
                config.display_height,
                config.render_pixels,
                gpu,
                telemetry.clone(),
            );
            add(&mut cluster, pc, Box::new(lp))?;
        }
        let sync_pc = cluster.add_computer_with_speed("sync-server", speed);
        add(
            &mut cluster,
            sync_pc,
            Box::new(FrameSyncServer::new(fom.sync, config.display_channels)),
        )?;

        let dynamics_pc = cluster.add_computer_with_speed("dynamics-pc", speed);
        let dynamics =
            DynamicsLp::new(registry.clone(), fom, config.cargo_mass_kg, telemetry.clone());
        add(&mut cluster, dynamics_pc, Box::new(dynamics))?;

        let control_pc = cluster.add_computer_with_speed("control-pc", speed);
        let operator_kind = match (variant, config.operator) {
            (Variant::Faithful, kind) => kind,
            (Variant::SwappedDashboard, OperatorKind::Reckless) => OperatorKind::Idle,
            (Variant::SwappedDashboard, _) => OperatorKind::Reckless,
        };
        let dashboard =
            DashboardLp::new(registry.clone(), fom, operator(operator_kind), telemetry.clone());
        add(&mut cluster, control_pc, Box::new(dashboard))?;
        let scenario = ScenarioLp::new(registry.clone(), fom, telemetry.clone());
        add(&mut cluster, control_pc, Box::new(scenario))?;

        let instructor_pc = cluster.add_computer_with_speed("instructor-pc", speed);
        let (instructor, _faults) = InstructorLp::new(registry.clone(), fom, telemetry.clone());
        add(&mut cluster, instructor_pc, Box::new(instructor))?;
        let audio = AudioLp::new(registry.clone(), fom, telemetry.clone());
        add(&mut cluster, instructor_pc, Box::new(audio))?;

        let motion_pc = cluster.add_computer_with_speed("motion-pc", speed);
        let motion = MotionPlatformLp::new(
            registry.clone(),
            fom,
            config.target_fps,
            config.seed,
            telemetry.clone(),
        );
        add(&mut cluster, motion_pc, Box::new(motion))?;

        cluster.initialize()?;
        let epoch = cluster.now();
        telemetry.reset();
        cluster.begin_session(epoch, config.seed)?;
        Ok(WrappedRack { cluster, telemetry, slots })
    }

    /// Sums the CB kernel counters over every computer.
    pub fn cb_stats(&self) -> CbStats {
        let mut total = CbStats::default();
        for i in 0..self.cluster.computer_count() {
            let s = self.cluster.computer(ComputerId(i)).kernel().stats();
            total.updates_sent_remote += s.updates_sent_remote;
            total.updates_routed_locally += s.updates_routed_locally;
            total.reflections_delivered += s.reflections_delivered;
            total.wire_messages_received += s.wire_messages_received;
            total.decode_errors += s.decode_errors;
        }
        total
    }
}

/// Per-frame breakdown of the wrapped rack, accumulated over many frames.
#[derive(Debug, Clone, Default)]
pub struct RackProfile {
    /// Frames profiled.
    pub frames: u64,
    /// Σ wall ns of `Cluster::run_frame`.
    pub frame_ns: u64,
    /// Σ ns from the last LP's return to the return of `run_frame`: the last
    /// kernel tick, `SimLan::advance_to` and the metrics fold.
    pub tail_ns: u64,
    /// Σ ns between one computer's last LP return and the next computer's
    /// first LP call: the kernel ticks of all but the last computer.
    pub tick_ns: u64,
    /// Σ ns not inside an LP, a kernel-tick gap or the tail: the entry of
    /// `run_frame` up to the first LP and the glue between co-resident LPs.
    pub glue_ns: u64,
    /// Per module: (Σ wall ns, Σ modeled µs, Σ allocations).
    pub modules: BTreeMap<String, (u64, u64, u64)>,
    /// Σ allocations and requested bytes over whole frames.
    pub frame_allocs: u64,
    /// See [`RackProfile::frame_allocs`].
    pub frame_alloc_bytes: u64,
    /// CB kernel counter deltas.
    pub cb: CbStats,
    /// LAN counter deltas: datagrams sent, payload bytes, dropped.
    pub lan: (u64, u64, u64),
}

impl RackProfile {
    /// Mean per frame of a nanosecond total, in µs.
    pub fn per_frame_us(&self, total_ns: u64) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            total_ns as f64 / 1e3 / self.frames as f64
        }
    }

    /// Mean per frame of a count.
    pub fn per_frame(&self, total: u64) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            total as f64 / self.frames as f64
        }
    }
}

fn lan_triple(stats: &LanStats) -> (u64, u64, u64) {
    (stats.datagrams_sent, stats.bytes_sent, stats.datagrams_dropped)
}

/// Steps `rack` for `frames` frames with nothing else interleaved and folds
/// each frame's breakdown into `profile`.
///
/// # Errors
///
/// Returns the first error raised by the rack.
pub fn profile_frames(
    rack: &mut WrappedRack,
    frames: usize,
    profile: &mut RackProfile,
) -> Result<(), CbError> {
    let totals_before: Vec<_> = rack.slots.iter().map(|s| s.totals()).collect();
    let cb_before = rack.cb_stats();
    let lan_before = lan_triple(&rack.cluster.lan_stats());
    let mut spans = vec![(0u64, 0u64); rack.slots.len()];
    for _ in 0..frames {
        let (allocs0, bytes0) = alloc::counts();
        let start = now_ns();
        rack.cluster.run_frame()?;
        let end = now_ns();
        let (allocs1, bytes1) = alloc::counts();
        profile.frame_allocs += allocs1 - allocs0;
        profile.frame_alloc_bytes += bytes1 - bytes0;
        for (span, slot) in spans.iter_mut().zip(&rack.slots) {
            *span = slot.last_span();
        }
        let mut lp_ns = 0;
        let mut tick_ns = 0;
        for (i, (s, e)) in spans.iter().enumerate() {
            lp_ns += e - s;
            if let Some((next_start, _)) = spans.get(i + 1) {
                if rack.slots[i + 1].computer != rack.slots[i].computer {
                    tick_ns += next_start - e;
                }
            }
        }
        let last_end = spans.last().map_or(start, |(_, e)| *e);
        let tail_ns = end - last_end;
        let frame_ns = end - start;
        profile.frames += 1;
        profile.frame_ns += frame_ns;
        profile.tail_ns += tail_ns;
        profile.tick_ns += tick_ns;
        profile.glue_ns += frame_ns - lp_ns - tick_ns - tail_ns;
    }
    for (slot, before) in rack.slots.iter().zip(totals_before) {
        let after = slot.totals();
        let entry = profile.modules.entry(slot.module.clone()).or_default();
        entry.0 += after.0 - before.0;
        entry.1 += after.1 - before.1;
        entry.2 += after.2 - before.2;
    }
    let cb_after = rack.cb_stats();
    profile.cb.updates_sent_remote += cb_after.updates_sent_remote - cb_before.updates_sent_remote;
    profile.cb.updates_routed_locally +=
        cb_after.updates_routed_locally - cb_before.updates_routed_locally;
    profile.cb.reflections_delivered +=
        cb_after.reflections_delivered - cb_before.reflections_delivered;
    profile.cb.wire_messages_received +=
        cb_after.wire_messages_received - cb_before.wire_messages_received;
    profile.cb.decode_errors += cb_after.decode_errors - cb_before.decode_errors;
    let lan_after = lan_triple(&rack.cluster.lan_stats());
    profile.lan.0 += lan_after.0 - lan_before.0;
    profile.lan.1 += lan_after.1 - lan_before.1;
    profile.lan.2 += lan_after.2 - lan_before.2;
    Ok(())
}

/// Steps a wrapped rack of `variant` beside an unwrapped [`CraneSimulator`]
/// of the same configuration for `frames` frames, comparing every
/// [`FrameRecord`] and the whole telemetry snapshot after every frame.
/// Returns the number of frames that disagreed (0 when the wrapping is
/// transparent).
///
/// # Errors
///
/// Returns the first error raised by either rack.
pub fn check_against_reference(
    config: &SimulatorConfig,
    plan: Option<&FaultPlan>,
    variant: Variant,
    frames: usize,
) -> Result<u64, CbError> {
    let mut rack = WrappedRack::build(config, variant)?;
    let mut reference = CraneSimulator::new(*config)?;
    if let Some(plan) = plan {
        rack.cluster.set_fault_plan(plan.clone());
        reference.set_fault_plan(plan.clone());
    }
    let mut mismatches = 0;
    for _ in 0..frames {
        let wrapped: FrameRecord = rack.cluster.run_frame()?;
        let unwrapped = reference.step_frame()?;
        let same_telemetry = rack.telemetry.update(|a| reference.telemetry().update(|b| *a == *b));
        if wrapped != unwrapped || !same_telemetry {
            mismatches += 1;
        }
    }
    Ok(mismatches)
}
