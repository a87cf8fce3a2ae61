//! The benchmark's one clock: monotonic nanoseconds since the first read.
//!
//! Every wall-clock read the benchmark makes goes through [`now_ns`], so the
//! workspace determinism audit's wall-clock waivers sit on these lines alone.
//! Timings measured here are printed beside the program's deterministic
//! outputs and never fed back into them.

use std::sync::OnceLock;
use std::time::Instant; // audit:allow(wall-clock): the benchmark times the program from outside

static EPOCH: OnceLock<Instant> = OnceLock::new(); // audit:allow(wall-clock): shared origin of every benchmark timestamp

/// Monotonic nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now); // audit:allow(wall-clock): lazily fixes the origin
    epoch.elapsed().as_nanos() as u64 // audit:allow(wall-clock): the one wall-clock read
}

/// A started interval on the [`now_ns`] clock.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(u64);

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Stopwatch {
        Stopwatch(now_ns())
    }

    /// Nanoseconds since [`Stopwatch::start`].
    pub fn ns(&self) -> u64 {
        now_ns() - self.0
    }

    /// Seconds since [`Stopwatch::start`].
    pub fn secs(&self) -> f64 {
        self.ns() as f64 / 1e9
    }
}
