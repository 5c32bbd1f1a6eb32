//! Latency statistics accumulation.

/// Streaming latency statistics: count, mean, min, max and exact
/// quantiles, from a one-cycle counting histogram grown to the largest
/// latency recorded.
///
/// The engine records only sample packets, which are generated inside
/// the measurement window and eject before the drain ends, so the
/// histogram holds at most `measure + drain` entries.
#[derive(Clone, Debug, Default)]
pub struct LatencyStats {
    count: u64,
    sum: u64,
    /// `hist[v]` counts the latencies of exactly `v` cycles; its length
    /// is one past the largest latency recorded.
    hist: Vec<u64>,
}

impl LatencyStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one packet latency (cycles).
    pub fn record(&mut self, latency: u32) {
        let v = latency as usize;
        if v >= self.hist.len() {
            self.hist.resize(v + 1, 0);
        }
        self.hist[v] += 1;
        self.count += 1;
        self.sum += latency as u64;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency; NaN when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Minimum observed latency (None when empty).
    pub fn min(&self) -> Option<u32> {
        self.quantile(0.0)
    }

    /// Maximum observed latency (None when empty).
    pub fn max(&self) -> Option<u32> {
        self.quantile(1.0)
    }

    /// The nearest-rank `q`-quantile, `q` clamped to [0, 1]: the
    /// smallest recorded latency with at least ⌈q·n⌉ of the n samples
    /// at or below it (at least one, so `q = 0` gives the minimum). The
    /// value is exact and always in [min, max]; None when empty.
    pub fn quantile(&self, q: f64) -> Option<u32> {
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut at_or_below = 0;
        self.hist
            .iter()
            .position(|&c| {
                at_or_below += c;
                at_or_below >= rank
            })
            .map(|v| v as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats() {
        let s = LatencyStats::new();
        assert_eq!(s.count(), 0);
        assert!(s.mean().is_nan());
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.quantile(0.5), None);
    }

    #[test]
    fn basic_accumulation() {
        let mut s = LatencyStats::new();
        for l in [10u32, 20, 30] {
            s.record(l);
        }
        assert_eq!(s.count(), 3);
        assert_eq!(s.mean(), 20.0);
        assert_eq!(s.min(), Some(10));
        assert_eq!(s.max(), Some(30));
    }

    #[test]
    fn quantiles_ordered() {
        let mut s = LatencyStats::new();
        for l in 0..100u32 {
            s.record(l);
        }
        let q50 = s.quantile(0.5).unwrap();
        let q99 = s.quantile(0.99).unwrap();
        assert!(q50 <= q99);
        assert!((44..=56).contains(&q50), "q50 = {q50}");
    }
}
