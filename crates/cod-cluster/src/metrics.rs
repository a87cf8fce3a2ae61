//! Execution metrics recorded by the cluster executive.

use cod_net::Micros;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Per-computer accounting for one executed frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ComputerFrameRecord {
    /// Sum of the modeled step costs of the LPs resident on the computer,
    /// scaled by the computer's CPU speed factor.
    pub frame_cost: Micros,
}

/// Metrics accumulated over a cluster run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ClusterMetrics {
    /// Number of frames executed.
    pub frames_run: u64,
    /// Total simulated time elapsed.
    pub simulated_time: Micros,
    /// Per-computer total modeled CPU cost (keyed by computer name).
    pub computer_cost: BTreeMap<String, Micros>,
    /// Largest single-frame cost observed on any computer (the frame-rate
    /// limiter of the pipelined cluster).
    pub max_frame_cost: Micros,
    /// Largest whole-cluster frame cost (the frame-rate limiter of a
    /// single-computer, sequential execution of the same modules).
    pub max_sequential_frame_cost: Micros,
    /// Sum of whole-cluster frame costs over every executed frame — what a
    /// single machine hosting the entire virtual cluster in-process has spent.
    pub total_sequential_cost: Micros,
}

impl ClusterMetrics {
    /// Records one frame's per-computer costs.
    pub fn record_frame(&mut self, dt: Micros, costs: &[(Arc<str>, Micros)]) {
        self.frames_run += 1;
        self.simulated_time += dt;
        let mut sequential = Micros::ZERO;
        for (name, cost) in costs {
            // Look up before inserting: only a computer's first frame copies its name.
            match self.computer_cost.get_mut(&**name) {
                Some(total) => *total += *cost,
                None => {
                    self.computer_cost.insert(name.to_string(), *cost);
                }
            }
            if *cost > self.max_frame_cost {
                self.max_frame_cost = *cost;
            }
            sequential += *cost;
        }
        if sequential > self.max_sequential_frame_cost {
            self.max_sequential_frame_cost = sequential;
        }
        self.total_sequential_cost += sequential;
    }

    /// Mean whole-cluster cost of one frame — the per-frame cost hint a
    /// serving layer needs to predict how expensive keeping this session
    /// resident is on a shard that hosts the virtual cluster in-process.
    /// Zero before any frame has run.
    pub fn mean_sequential_frame_cost(&self) -> Micros {
        if self.frames_run == 0 {
            Micros::ZERO
        } else {
            Micros(self.total_sequential_cost.0 / self.frames_run)
        }
    }

    /// The frame rate the pipelined cluster can sustain given the observed
    /// worst per-computer frame cost, capped by the requested frame period.
    pub fn achievable_fps(&self, frame_period: Micros) -> f64 {
        let limiter = self.max_frame_cost.max(frame_period);
        if limiter == Micros::ZERO {
            0.0
        } else {
            1.0 / limiter.as_secs_f64()
        }
    }

    /// The frame rate a single computer running every module sequentially
    /// could sustain (the "mainframe-replacement" baseline of experiment E6).
    pub fn sequential_fps(&self, frame_period: Micros) -> f64 {
        let limiter = self.max_sequential_frame_cost.max(frame_period);
        if limiter == Micros::ZERO {
            0.0
        } else {
            1.0 / limiter.as_secs_f64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_records_accumulate() {
        let mut m = ClusterMetrics::default();
        m.record_frame(
            Micros::from_millis(16),
            &[("a".into(), Micros::from_millis(10)), ("b".into(), Micros::from_millis(30))],
        );
        m.record_frame(
            Micros::from_millis(16),
            &[("a".into(), Micros::from_millis(20)), ("b".into(), Micros::from_millis(5))],
        );
        assert_eq!(m.frames_run, 2);
        assert_eq!(m.computer_cost["a"], Micros::from_millis(30));
        assert_eq!(m.max_frame_cost, Micros::from_millis(30));
        assert_eq!(m.max_sequential_frame_cost, Micros::from_millis(40));
    }

    #[test]
    fn fps_derivations() {
        let mut m = ClusterMetrics::default();
        m.record_frame(Micros::from_millis(10), &[("a".into(), Micros::from_millis(50))]);
        // Pipelined: limited by the 50 ms computer => 20 fps.
        assert!((m.achievable_fps(Micros::from_millis(10)) - 20.0).abs() < 1e-9);
        // A faster frame period cannot beat the cost limiter.
        assert!((m.achievable_fps(Micros::from_millis(1)) - 20.0).abs() < 1e-9);
        // When costs are negligible the frame period is the limiter.
        let mut cheap = ClusterMetrics::default();
        cheap.record_frame(Micros::from_millis(20), &[("a".into(), Micros::from_millis(1))]);
        assert!((cheap.achievable_fps(Micros::from_millis(20)) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn empty_metrics_have_zero_fps() {
        let m = ClusterMetrics::default();
        assert_eq!(m.achievable_fps(Micros::ZERO), 0.0);
        assert_eq!(m.sequential_fps(Micros::ZERO), 0.0);
    }
}
