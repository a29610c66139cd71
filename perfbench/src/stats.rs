//! The benchmark's own arithmetic: percentiles under the ten-beyond rule,
//! failure accounting, self-time subtraction and recall.

use hd_core::topk::Neighbor;

/// Tail percentiles the benchmark may report, in per-mille, highest first.
const TAILS_PER_MILLE: [u64; 4] = [999, 990, 950, 900];

/// Samples a tail estimate must leave beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `per_mille` percentile among `n` samples.
fn rank(n: usize, per_mille: u64) -> usize {
    ((n as u64 * per_mille).div_ceil(1000) as usize).max(1)
}

/// Samples strictly beyond the `per_mille` percentile of `n` samples.
pub fn beyond(n: usize, per_mille: u64) -> usize {
    n.saturating_sub(rank(n, per_mille))
}

/// The highest tail percentile (per-mille) that `n` samples support.
pub fn tail_per_mille(n: usize) -> Option<u64> {
    TAILS_PER_MILLE
        .into_iter()
        .find(|&pm| beyond(n, pm) >= MIN_BEYOND)
}

/// Nearest-rank percentile of ascending `sorted` samples.
pub fn percentile(sorted: &[f64], per_mille: u64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), per_mille) - 1]
}

/// Median of unsorted values (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 500)
}

/// Latencies of one kind of operation, with failures counted against the
/// attempts. A failed or refused operation is stored as an infinite
/// latency, so it misses every latency limit a percentile is judged by.
#[derive(Debug, Default, Clone)]
pub struct OpLog {
    /// Milliseconds per attempted operation; `INFINITY` for a failure.
    pub latencies_ms: Vec<f64>,
    pub failed: u64,
}

impl OpLog {
    pub fn ok(&mut self, ms: f64) {
        self.latencies_ms.push(ms);
    }

    pub fn fail(&mut self) {
        self.failed += 1;
        self.latencies_ms.push(f64::INFINITY);
    }

    pub fn attempted(&self) -> u64 {
        self.latencies_ms.len() as u64
    }

    pub fn succeeded(&self) -> u64 {
        self.attempted() - self.failed
    }

    pub fn merge(&mut self, other: OpLog) {
        self.latencies_ms.extend(other.latencies_ms);
        self.failed += other.failed;
    }

    pub fn summary(&self) -> Latency {
        let mut sorted = self.latencies_ms.clone();
        sorted.sort_by(f64::total_cmp);
        let tail = tail_per_mille(sorted.len());
        Latency {
            samples: sorted.len(),
            p50: percentile(&sorted, 500),
            p90: (beyond(sorted.len(), 900) >= MIN_BEYOND).then(|| percentile(&sorted, 900)),
            p99: (beyond(sorted.len(), 990) >= MIN_BEYOND).then(|| percentile(&sorted, 990)),
            tail: tail.map(|pm| (pm, percentile(&sorted, pm))),
        }
    }
}

/// Percentile summary of an [`OpLog`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub samples: usize,
    pub p50: f64,
    /// p90, present only when at least [`MIN_BEYOND`] samples lie beyond it.
    pub p90: Option<f64>,
    /// p99, present only when at least [`MIN_BEYOND`] samples lie beyond it.
    pub p99: Option<f64>,
    /// The highest supported tail percentile (per-mille) and its value.
    pub tail: Option<(u64, f64)>,
}

impl Latency {
    /// One line: median and supported tail with the sample count.
    pub fn describe(&self) -> String {
        let tail = match self.tail {
            Some((pm, v)) => format!("p{} {:.3} ms", pm as f64 / 10.0, v),
            None => "no tail (fewer than 10 samples beyond p90)".to_string(),
        };
        format!("p50 {:.3} ms, {tail} (n = {})", self.p50, self.samples)
    }
}

/// A layer's self time: its call time minus the time of the calls into
/// the layer below on the same inputs.
pub fn self_time(call: f64, calls_below: &[f64]) -> f64 {
    call - calls_below.iter().sum::<f64>()
}

/// Recall@k of `approx` against exact `truth` (ids only).
pub fn recall(truth: &[Neighbor], approx: &[Neighbor]) -> f64 {
    if truth.is_empty() {
        return 1.0;
    }
    let hits = approx
        .iter()
        .filter(|a| truth.iter().any(|t| t.id == a.id))
        .count();
    hits as f64 / truth.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Samples needed before the `per_mille` percentile has
    /// [`MIN_BEYOND`] samples beyond it.
    fn samples_for(per_mille: u64) -> usize {
        (1..)
            .find(|&n| beyond(n, per_mille) >= MIN_BEYOND)
            .expect("unbounded search")
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(samples_for(990), 1000);
        assert_eq!(samples_for(900), 100);
        assert_eq!(beyond(1000, 990), 10);
        assert_eq!(beyond(999, 990), 9);
        assert_eq!(tail_per_mille(999), Some(950));
        assert_eq!(tail_per_mille(1000), Some(990));
        assert_eq!(tail_per_mille(10_000), Some(999));
        assert_eq!(tail_per_mille(99), None);
        assert_eq!(tail_per_mille(100), Some(900));
    }

    #[test]
    fn p99_is_withheld_below_a_thousand_samples() {
        let mut log = OpLog::default();
        for i in 0..999 {
            log.ok(i as f64);
        }
        let s = log.summary();
        assert_eq!(s.p99, None);
        assert_eq!(s.tail, Some((950, 949.0)));
        log.ok(999.0);
        let s = log.summary();
        assert_eq!(s.p99, Some(989.0));
        assert_eq!(s.p90, Some(899.0));
        assert_eq!(s.p50, 499.0);
        assert_eq!(s.samples, 1000);
    }

    #[test]
    fn failures_count_against_attempts_and_miss_every_limit() {
        let mut log = OpLog::default();
        for _ in 0..990 {
            log.ok(1.0);
        }
        for _ in 0..10 {
            log.fail();
        }
        assert_eq!(log.attempted(), 1000);
        assert_eq!(log.succeeded(), 990);
        // The ten failures sit beyond p99, so p99 itself is still a
        // success; one more failure pushes p99 to infinity.
        assert_eq!(log.summary().p99, Some(1.0));
        let mut other = OpLog::default();
        other.fail();
        log.merge(other);
        assert_eq!(log.failed, 11);
        assert_eq!(log.summary().p99, Some(f64::INFINITY));
    }

    #[test]
    fn self_time_subtracts_the_layer_below() {
        assert_eq!(self_time(10.0, &[3.0, 4.0]), 3.0);
        assert_eq!(self_time(5.0, &[]), 5.0);
        // Separate calls on the same inputs can overlap in cost; the
        // difference is reported as measured, sign included.
        assert_eq!(self_time(2.0, &[1.5, 1.0]), -0.5);
    }

    #[test]
    fn recall_counts_shared_ids() {
        let n = |id| Neighbor::new(id, 0.0);
        assert_eq!(recall(&[n(1), n(2), n(3), n(4)], &[n(4), n(9), n(1)]), 0.5);
        assert_eq!(recall(&[], &[n(1)]), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
