//! The `rack-interactive` workload: one trainee at the controls.
//!
//! One Full-tier Exam session (3 display channels, 64×48, TNT2 GPUs) is
//! stepped with [`CraneSimulator::step_frame`] to the exam's 900 s limit —
//! [`EXAM_FRAMES`] frames at 16 fps — timing every call. Successive sessions
//! recycle the simulator with [`CraneSimulator::reset_for_session`], as a
//! training station would between trainees. No fleet, shard, cohort or
//! executor is involved.

use cod_cb::CbError;
use crane_sim::{CraneSimulator, FrameDigest, GpuGeneration, OperatorKind, SimulatorConfig};

use crate::clock::Stopwatch;
use crate::mix_seed;
use crate::stats::{median, LatencyHistogram};

/// Frames of one exam session: the 900 s exam limit at 16 fps.
pub const EXAM_FRAMES: usize = 14_400;

/// The trainee's configuration for session `index` of workload `seed`.
/// Only the session seed varies with `seed`; it reaches the LAN jitter and
/// motion-platform noise streams, and the exam course itself is fixed.
pub fn exam_config(seed: u64, index: u64) -> SimulatorConfig {
    SimulatorConfig {
        operator: OperatorKind::Exam,
        gpu: GpuGeneration::Tnt2,
        display_channels: 3,
        display_width: 64,
        display_height: 48,
        exam_frames: EXAM_FRAMES,
        seed: mix_seed(seed, index),
        ..SimulatorConfig::default()
    }
}

/// What the timed pass measured.
#[derive(Debug, Clone)]
pub struct RackRun {
    /// Wall ns of every `step_frame` call.
    pub frame_ns: LatencyHistogram,
    /// Whole sessions completed.
    pub sessions: u64,
    /// Wall seconds of the completed sessions, recycling included.
    pub wall_s: f64,
    /// Modeled cluster frame rate of each session (`SessionReport::cluster_fps`).
    pub modeled_fps: Vec<f64>,
    /// Median cold-start seconds (one `CraneSimulator::new`).
    pub setup_s: f64,
    /// Cold-start samples taken.
    pub setup_samples: usize,
    /// Whether the replay on a recycled simulator reproduced session 0's
    /// final digest.
    pub replay_matches: bool,
}

/// Times `repeats` cold `CraneSimulator::new` calls of the exam shape,
/// appending each one's seconds to `samples`.
///
/// # Errors
///
/// Returns the first build error.
pub fn sample_setup(seed: u64, repeats: usize, samples: &mut Vec<f64>) -> Result<(), CbError> {
    for _ in 0..repeats {
        let watch = Stopwatch::start();
        let sim = CraneSimulator::new(exam_config(seed, 0))?;
        samples.push(watch.secs());
        drop(sim);
    }
    Ok(())
}

/// Runs `frames` frames on `sim`, appending each call's wall ns.
fn step_session(
    sim: &mut CraneSimulator,
    frames: usize,
    samples: &mut LatencyHistogram,
) -> Result<(), CbError> {
    for _ in 0..frames {
        let watch = Stopwatch::start();
        sim.step_frame()?;
        samples.record(watch.ns());
    }
    Ok(())
}

/// Recycles `sim` for a session with `session_seed`, replays `frames`
/// frames and checks that the final digest equals `expected` — the
/// recycling check.
///
/// # Errors
///
/// Returns the first error raised by the simulator.
pub fn replay_matches(
    sim: &mut CraneSimulator,
    session_seed: u64,
    frames: usize,
    expected: &FrameDigest,
) -> Result<bool, CbError> {
    sim.reset_for_session(session_seed)?;
    sim.run_frames(frames)?;
    Ok(sim.telemetry_digest() == *expected)
}

/// Cold-start samples taken before the first session, and after each one:
/// spreading them over the run keeps one slow stretch of the host from
/// deciding the median.
const SETUP_FIRST: usize = 5;
const SETUP_PER_SESSION: usize = 2;

/// The timed pass: whole exam sessions of `frames` frames until `seconds`
/// of sessions have been measured (at least one), then the recycling check.
///
/// # Errors
///
/// Returns the first error raised by the simulator.
pub fn run_timed(seed: u64, seconds: f64, frames: usize) -> Result<RackRun, CbError> {
    let mut setup = Vec::new();
    sample_setup(seed, SETUP_FIRST, &mut setup)?;
    let mut sim = CraneSimulator::new(exam_config(seed, 0))?;
    let mut frame_ns = LatencyHistogram::new();
    let mut modeled_fps = Vec::new();
    let mut first_digest = None;
    let mut sessions = 0u64;
    let mut wall_s = 0.0;
    while sessions == 0 || wall_s < seconds {
        let watch = Stopwatch::start();
        if sessions > 0 {
            sim.reset_for_session(exam_config(seed, sessions).seed)?;
        }
        step_session(&mut sim, frames, &mut frame_ns)?;
        wall_s += watch.secs();
        modeled_fps.push(sim.report().cluster_fps);
        if sessions == 0 {
            first_digest = Some(sim.telemetry_digest());
        }
        sessions += 1;
        sample_setup(seed, SETUP_PER_SESSION, &mut setup)?;
    }
    let expected = first_digest.expect("at least one session ran");
    let replay_matches = replay_matches(&mut sim, exam_config(seed, 0).seed, frames, &expected)?;
    Ok(RackRun {
        frame_ns,
        sessions,
        wall_s,
        modeled_fps,
        setup_s: median(&setup),
        setup_samples: setup.len(),
        replay_matches,
    })
}
