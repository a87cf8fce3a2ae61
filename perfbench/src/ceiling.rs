//! The machine's parallel ceiling: how much faster `threads` independent
//! CPU-bound workers sharing nothing finish than one worker doing the same
//! work back to back. `executor.speedup ÷ ceiling` then reads as efficiency
//! against what the box can actually deliver, not against its core count.

use std::hint::black_box;

use crate::clock::Stopwatch;
use crate::stats::median;

/// A register-only xorshift loop: no memory traffic, nothing shared.
fn spin(iterations: u64, seed: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..iterations {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// Seconds `threads` workers take to run `iterations` each, concurrently.
fn parallel_secs(threads: usize, iterations: u64) -> f64 {
    let watch = Stopwatch::start();
    std::thread::scope(|scope| {
        for t in 0..threads {
            // audit:allow(thread-spawn): the ceiling probe's workers share nothing and are joined by the scope
            scope.spawn(move || black_box(spin(black_box(iterations), t as u64 + 1)));
        }
    });
    watch.secs()
}

/// The parallel ceiling for `threads` workers: the median over `rounds` of
/// (`threads` × one worker's time) ÷ (time for `threads` concurrent workers).
/// Each worker runs about `target_ms` of work.
pub fn measure(threads: usize, target_ms: f64, rounds: usize) -> f64 {
    // Calibrate the work so one worker runs about `target_ms`.
    let probe = 1u64 << 20;
    let watch = Stopwatch::start();
    black_box(spin(black_box(probe), 7));
    let per_iter = watch.secs().max(1e-9) / probe as f64;
    let iterations = ((target_ms / 1e3) / per_iter).max(1.0) as u64;
    let ratios: Vec<f64> = (0..rounds)
        .map(|_| {
            let one = parallel_secs(1, iterations);
            let many = parallel_secs(threads, iterations);
            threads as f64 * one / many
        })
        .collect();
    median(&ratios)
}
