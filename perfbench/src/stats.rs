//! Order statistics over timing samples.

/// The `p`-th percentile (0–100) of `samples`, linearly interpolated between
/// closest ranks (the convention `cod_bench::measure::percentile` and the
/// fleet report use). `0.0` for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The mean of `samples` (`0.0` for none).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or `0.0` when `den` is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A fixed-memory latency histogram: 10 ns buckets up to 4 ms, plus an
/// overflow list for the rare slower sample. Its footprint does not grow with
/// the number of samples, so recording every frame of a long run leaves the
/// process's peak RSS to the program under test.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: Vec<u32>,
    overflow: Vec<u64>,
    count: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    const BUCKET_NS: u64 = 10;
    const BUCKETS: usize = 400_000;

    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram { buckets: vec![0; Self::BUCKETS], overflow: Vec::new(), count: 0 }
    }

    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        match self.buckets.get_mut((ns / Self::BUCKET_NS) as usize) {
            Some(bucket) => *bucket += 1,
            None => self.overflow.push(ns),
        }
        self.count += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The value of the sample at zero-based sorted `rank`, spreading the
    /// samples of a bucket evenly across its width.
    fn at_rank(&self, rank: u64) -> f64 {
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            let n = u64::from(n);
            if rank < seen + n {
                let within = (rank - seen) as f64 + 0.5;
                return (i as f64 + within / n as f64) * Self::BUCKET_NS as f64;
            }
            seen += n;
        }
        let mut overflow = self.overflow.clone();
        overflow.sort_unstable();
        overflow.get((rank - seen) as usize).map_or(0.0, |ns| *ns as f64)
    }

    /// The `p`-th percentile (0–100) in ns, interpolated between closest
    /// ranks like [`percentile`]. `0.0` when empty.
    pub fn percentile_ns(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (p / 100.0).clamp(0.0, 1.0) * (self.count - 1) as f64;
        let (lo, hi) = (rank.floor() as u64, rank.ceil() as u64);
        let low = self.at_rank(lo);
        low + (self.at_rank(hi) - low) * (rank - lo as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_track_the_samples() {
        let mut h = LatencyHistogram::new();
        for ns in [100_000u64, 120_000, 140_000, 160_000, 9_000_000] {
            h.record(ns);
        }
        assert_eq!(h.count(), 5);
        assert!((h.percentile_ns(50.0) - 140_005.0).abs() < 1.0);
        assert!((h.percentile_ns(0.0) - 100_005.0).abs() < 1.0);
        assert_eq!(h.percentile_ns(100.0), 9_000_000.0);
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let samples = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(median(&samples), 3.0);
        assert_eq!(percentile(&samples, 100.0), 5.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
