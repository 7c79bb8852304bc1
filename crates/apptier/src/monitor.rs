//! Response-time statistics — the application-level monitor of Fig. 1.
//!
//! The paper controls the **90-percentile response time** of each
//! application as its example SLA metric, noting the solution extends to
//! other SLAs (§III). [`ResponseStats`] therefore exposes arbitrary
//! percentiles alongside mean/max, and [`SlaMetric`] selects which one a
//! controller tracks.
//!
//! A controller reads one statistic per control period, so it measures
//! through [`SlaMetric::measure`]: an `O(n)` selection of the nearest-rank
//! order statistic instead of the `O(n log n)` sort [`ResponseStats`]
//! pays to answer every query. Both share one nearest-rank rule and one
//! sample order, so they agree bit for bit.

/// Which response-time statistic a controller treats as the SLA metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SlaMetric {
    /// A percentile in `[0, 100]` by the nearest-rank method — the paper
    /// uses 90. Evaluation clamps `p` into range; the controllers reject
    /// an out-of-range or non-finite `p` at configuration time.
    Percentile(f64),
    /// Mean response time.
    Mean,
    /// Maximum response time.
    Max,
}

impl SlaMetric {
    /// The paper's default: the 90th percentile.
    pub const P90: SlaMetric = SlaMetric::Percentile(90.0);

    /// Evaluate this metric over a sample set; `None` on an empty set.
    pub fn evaluate(&self, stats: &ResponseStats) -> Option<f64> {
        if stats.count() == 0 {
            return None;
        }
        Some(match self {
            SlaMetric::Percentile(p) => stats.percentile(*p),
            SlaMetric::Mean => stats.mean(),
            SlaMetric::Max => stats.max(),
        })
    }

    /// Measure this metric over a drained batch of samples in `O(n)`;
    /// `None` when no finite sample remains.
    ///
    /// Bit-identical to `self.evaluate(&ResponseStats::from_samples(samples))`:
    /// non-finite samples are dropped the same way, a percentile is the
    /// element a sort would put at the same nearest-rank index (selected
    /// with the same total order), the maximum is an order-free fold, and
    /// the mean keeps the sorted-order sum so its rounding is unchanged.
    pub fn measure(&self, mut samples: Vec<f64>) -> Option<f64> {
        samples.retain(|v| v.is_finite());
        match *self {
            SlaMetric::Percentile(p) => {
                if samples.is_empty() {
                    return None;
                }
                let k = nearest_rank_index(p, samples.len());
                Some(*samples.select_nth_unstable_by(k, f64::total_cmp).1)
            }
            SlaMetric::Mean => self.evaluate(&ResponseStats::from_samples(samples)),
            SlaMetric::Max => samples.into_iter().max_by(f64::total_cmp),
        }
    }
}

/// Index into the ascending order of `n ≥ 1` samples of the nearest-rank
/// `p`-th percentile: the smallest sample such that at least `p`% of
/// samples are ≤ it. `p` is clamped into `[0, 100]`.
fn nearest_rank_index(p: f64, n: usize) -> usize {
    let p = p.clamp(0.0, 100.0);
    if p == 0.0 {
        return 0;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Summary statistics over a batch of response-time samples.
///
/// Construction sorts the samples once; every query is then `O(1)`. Use
/// it when several statistics of one batch are wanted; a single SLA
/// metric is cheaper through [`SlaMetric::measure`], an `O(n)` selection.
#[derive(Debug, Clone, Default)]
pub struct ResponseStats {
    sorted: Vec<f64>,
    sum: f64,
}

impl ResponseStats {
    /// Build from a batch of samples (ordering irrelevant; non-finite
    /// samples are dropped defensively).
    pub fn from_samples(mut samples: Vec<f64>) -> ResponseStats {
        samples.retain(|v| v.is_finite());
        samples.sort_by(f64::total_cmp);
        let sum = samples.iter().sum();
        ResponseStats {
            sorted: samples,
            sum,
        }
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sum / self.sorted.len() as f64
        }
    }

    /// Population standard deviation (0 if fewer than 2 samples).
    pub fn std_dev(&self) -> f64 {
        let n = self.sorted.len();
        if n < 2 {
            return 0.0;
        }
        let m = self.mean();
        (self.sorted.iter().map(|v| (v - m).powi(2)).sum::<f64>() / n as f64).sqrt()
    }

    /// Minimum (0 if empty).
    pub fn min(&self) -> f64 {
        self.sorted.first().copied().unwrap_or(0.0)
    }

    /// Maximum (0 if empty).
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(0.0)
    }

    /// Percentile `p ∈ [0, 100]` by the nearest-rank method (0 if empty).
    ///
    /// Nearest rank is what `ab`-style tools report: the smallest sample
    /// such that at least `p`% of samples are ≤ it.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted[nearest_rank_index(p, self.sorted.len())]
    }

    /// The paper's SLA metric: the 90th percentile.
    pub fn p90(&self) -> f64 {
        self.percentile(90.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats() {
        let s = ResponseStats::from_samples(vec![]);
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.p90(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(SlaMetric::P90.evaluate(&s), None);
    }

    #[test]
    fn basic_moments() {
        let s = ResponseStats::from_samples(vec![2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count(), 8);
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.std_dev(), 2.0);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        // 1..=10: p90 = ceil(0.9*10) = 9th value = 9.
        let s = ResponseStats::from_samples((1..=10).map(|i| i as f64).collect());
        assert_eq!(s.percentile(90.0), 9.0);
        assert_eq!(s.percentile(100.0), 10.0);
        assert_eq!(s.percentile(10.0), 1.0);
        assert_eq!(s.percentile(50.0), 5.0);
        assert_eq!(s.percentile(0.0), 1.0);
        // Out-of-range p is clamped.
        assert_eq!(s.percentile(150.0), 10.0);
        assert_eq!(s.percentile(-5.0), 1.0);
    }

    #[test]
    fn percentile_single_sample() {
        let s = ResponseStats::from_samples(vec![3.3]);
        assert_eq!(s.percentile(90.0), 3.3);
        assert_eq!(s.percentile(1.0), 3.3);
    }

    #[test]
    fn unsorted_input_and_nonfinite_dropped() {
        let s = ResponseStats::from_samples(vec![5.0, f64::NAN, 1.0, f64::INFINITY, 3.0]);
        assert_eq!(s.count(), 3);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 5.0);
    }

    #[test]
    fn sla_metric_selection() {
        let s = ResponseStats::from_samples((1..=10).map(|i| i as f64).collect());
        assert_eq!(SlaMetric::P90.evaluate(&s), Some(9.0));
        assert_eq!(SlaMetric::Mean.evaluate(&s), Some(5.5));
        assert_eq!(SlaMetric::Max.evaluate(&s), Some(10.0));
        assert_eq!(SlaMetric::Percentile(50.0).evaluate(&s), Some(5.0));
    }

    #[test]
    fn p90_dominates_mean_for_skewed_data() {
        let mut v = vec![0.1; 95];
        v.extend(vec![2.0; 5]);
        let s = ResponseStats::from_samples(v);
        assert!(s.p90() < 2.0);
        assert!(s.p90() >= s.percentile(50.0));
        assert!(s.max() == 2.0);
    }
}
