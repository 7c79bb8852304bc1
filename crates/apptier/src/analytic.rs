//! Instant analytic plant: Mean Value Analysis plus synthetic sampling.
//!
//! A drop-in [`Plant`] whose "simulation" costs microseconds: mean response
//! time comes from exact MVA of the closed PS network, and per-request
//! samples are drawn log-normally around it so percentile monitors see
//! realistic spread. Each flush solves MVA once and draws its samples with
//! the log-normal constants hoisted out of the loop, and a controller
//! reads its SLA metric from them by an `O(n)` selection
//! ([`SlaMetric::measure`](crate::monitor::SlaMetric::measure)), not a
//! sort. Useful for controller tuning sweeps and tests where
//! the discrete-event engine would dominate run time — and as an
//! independent cross-check of the DES (they agree on means; see
//! `mva::tests::matches_des_simulator_for_exponential_service`).

use crate::mva::{mva_closed_network, MvaResult};
use crate::plant::Plant;
use crate::profile::WorkloadProfile;
use crate::rng::SimRng;
use crate::{AppTierError, Result};

/// Analytic approximation of a closed multi-tier application.
#[derive(Debug, Clone)]
pub struct AnalyticPlant {
    profile: WorkloadProfile,
    allocations_ghz: Vec<f64>,
    concurrency: usize,
    /// Coefficient of variation of synthesized response-time samples.
    response_cv: f64,
    rng: SimRng,
    pending_time_s: f64,
    completed: Vec<f64>,
}

impl AnalyticPlant {
    /// Create an analytic plant. `response_cv` shapes the synthetic sample
    /// spread (0.35–0.6 matches what the DES produces for the RUBBoS-like
    /// profiles).
    pub fn new(
        profile: WorkloadProfile,
        concurrency: usize,
        allocations_ghz: &[f64],
        response_cv: f64,
        seed: u64,
    ) -> Result<AnalyticPlant> {
        if allocations_ghz.len() != profile.n_tiers() {
            return Err(AppTierError::BadConfig(format!(
                "{} allocations for {} tiers",
                allocations_ghz.len(),
                profile.n_tiers()
            )));
        }
        if response_cv < 0.0 || !response_cv.is_finite() {
            return Err(AppTierError::BadConfig(format!(
                "response_cv {response_cv} must be non-negative"
            )));
        }
        Ok(AnalyticPlant {
            profile,
            allocations_ghz: allocations_ghz.to_vec(),
            concurrency,
            response_cv,
            rng: SimRng::seed_from_u64(seed),
            pending_time_s: 0.0,
            completed: Vec::new(),
        })
    }

    /// Exact MVA of the current operating point; `None` when there are no
    /// clients or a tier has no usable (positive, finite-demand) allocation.
    fn mva(&self) -> Option<MvaResult> {
        if self.concurrency == 0 {
            return None;
        }
        let demands: Option<Vec<f64>> = self
            .profile
            .tiers
            .iter()
            .zip(&self.allocations_ghz)
            .map(|(t, &a)| (a > 0.0).then(|| t.mean_cycles / (a * 1e9)))
            .collect();
        mva_closed_network(&demands?, self.profile.think_time, self.concurrency)
    }

    /// Mean response time (seconds) at the current operating point, from
    /// exact MVA; `None` when a tier has zero allocation or there are no
    /// clients.
    pub fn mean_response_s(&self) -> Option<f64> {
        self.mva().map(|r| r.response_time)
    }

    /// Throughput (requests/second) at the current operating point.
    pub fn throughput(&self) -> f64 {
        self.mva().map_or(0.0, |r| r.throughput)
    }

    /// Maximum synthetic samples emitted per flush. A percentile estimate
    /// from 2,000 samples is statistically indistinguishable from one over
    /// hundreds of thousands, and capping keeps long virtual periods cheap
    /// (the co-simulation runs hundreds of plants over a week).
    const MAX_SAMPLES_PER_FLUSH: usize = 2000;

    /// Synthesize the completions accumulated in `pending_time_s`.
    fn flush(&mut self) {
        // One MVA solve yields both the mean and the completion rate.
        let (mean, x) = match self.mva() {
            Some(r) if r.response_time > 0.0 => (r.response_time, r.throughput),
            _ => {
                // Starved plant: nothing completes, time still passes (the
                // DES shows the same behaviour with zero capacity).
                return;
            }
        };
        let expected = x * self.pending_time_s;
        if expected < 1.0 {
            return; // not enough virtual time for even one completion
        }
        let n = expected.floor() as usize;
        self.pending_time_s -= n as f64 / x;
        extend_lognormal(
            &mut self.completed,
            &mut self.rng,
            mean,
            self.response_cv,
            n.min(Self::MAX_SAMPLES_PER_FLUSH),
        );
    }
}

/// Append `n` draws of [`SimRng::lognormal`]`(mean, cv)` for a positive
/// `mean` to `out`, with the log-space constants computed once instead of
/// once per draw. Each draw consumes the same `standard_normal` call and
/// evaluates the same expression, so the output bits and the RNG stream
/// are exactly those of `n` calls to `rng.lognormal(mean, cv)`.
fn extend_lognormal(out: &mut Vec<f64>, rng: &mut SimRng, mean: f64, cv: f64, n: usize) {
    debug_assert!(mean > 0.0, "flush samples only around a positive mean");
    if cv <= 0.0 {
        // `lognormal` returns the mean without touching the RNG.
        out.extend(std::iter::repeat_n(mean, n));
        return;
    }
    let sigma2 = (1.0 + cv * cv).ln();
    let mu = mean.ln() - sigma2 / 2.0;
    let sigma = sigma2.sqrt();
    out.extend((0..n).map(|_| (mu + sigma * rng.standard_normal()).exp()));
}

impl Plant for AnalyticPlant {
    fn n_tiers(&self) -> usize {
        self.profile.n_tiers()
    }

    fn set_allocations(&mut self, ghz: &[f64]) -> Result<()> {
        if ghz.len() != self.profile.n_tiers() {
            return Err(AppTierError::BadConfig(format!(
                "{} allocations for {} tiers",
                ghz.len(),
                self.profile.n_tiers()
            )));
        }
        if ghz.iter().any(|&g| g < 0.0 || !g.is_finite()) {
            return Err(AppTierError::BadConfig(
                "allocations must be finite and non-negative".into(),
            ));
        }
        self.allocations_ghz = ghz.to_vec();
        Ok(())
    }

    fn run_for(&mut self, dt: f64) {
        self.pending_time_s += dt.max(0.0);
        self.flush();
    }

    fn take_completed(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.completed)
    }

    fn set_concurrency(&mut self, concurrency: usize) {
        self.concurrency = concurrency;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::ResponseStats;
    use crate::sim::AppSim;

    fn plant(c: usize, alloc: &[f64]) -> AnalyticPlant {
        AnalyticPlant::new(WorkloadProfile::rubbos(), c, alloc, 0.45, 9).unwrap()
    }

    #[test]
    fn validation() {
        assert!(AnalyticPlant::new(WorkloadProfile::rubbos(), 10, &[1.0], 0.4, 1).is_err());
        assert!(AnalyticPlant::new(WorkloadProfile::rubbos(), 10, &[1.0, 1.0], -0.1, 1).is_err());
        let mut p = plant(10, &[1.0, 1.0]);
        assert!(p.set_allocations(&[1.0]).is_err());
        assert!(p.set_allocations(&[1.0, f64::NAN]).is_err());
        assert!(p.set_allocations(&[1.0, 2.0]).is_ok());
    }

    #[test]
    fn produces_samples_at_mva_rate() {
        let mut p = plant(40, &[1.0, 1.0]);
        let x = p.throughput();
        p.run_for(10.0);
        let n = p.take_completed().len() as f64;
        assert!((n - 10.0 * x).abs() <= 1.0, "completions {n} vs rate {x}");
    }

    #[test]
    fn mean_tracks_mva_and_more_cpu_is_faster() {
        let mut slow = plant(40, &[0.6, 0.6]);
        let mut fast = plant(40, &[2.0, 2.0]);
        slow.run_for(200.0);
        fast.run_for(200.0);
        let ms = ResponseStats::from_samples(slow.take_completed()).mean();
        let mf = ResponseStats::from_samples(fast.take_completed()).mean();
        assert!(ms > 2.0 * mf, "slow {ms} vs fast {mf}");
        // Mean close to the MVA prediction.
        let predicted = plant(40, &[0.6, 0.6]).mean_response_s().unwrap();
        assert!((ms - predicted).abs() / predicted < 0.1);
    }

    #[test]
    fn agrees_with_des_on_p90_within_tolerance() {
        // The analytic plant's p90 (lognormal around the MVA mean) should
        // land near the DES p90 for the same operating point.
        let mut analytic = plant(40, &[1.0, 1.0]);
        analytic.run_for(300.0);
        let p90_a = ResponseStats::from_samples(analytic.take_completed()).p90();
        let mut des = AppSim::new(WorkloadProfile::rubbos(), 40, &[1.0, 1.0], 5).unwrap();
        des.run_for(30.0);
        des.take_completed();
        des.run_for(300.0);
        let p90_d = ResponseStats::from_samples(des.take_completed()).p90();
        let rel = (p90_a - p90_d).abs() / p90_d;
        assert!(
            rel < 0.25,
            "analytic {p90_a:.3}s vs DES {p90_d:.3}s ({rel:.2})"
        );
    }

    /// The hoisted sampler is pinned to the per-draw `SimRng::lognormal`
    /// stream: same output bits, same generator state afterwards.
    #[test]
    fn hoisted_sampler_matches_per_draw_lognormal_bits() {
        let cases = [
            (0.25, 0.45, 9),
            (1.7e-3, 0.35, 1),
            (12.0, 0.6, 77),
            (0.8, 3.0, 2024),
            (0.5, 0.0, 5),
        ];
        for (mean, cv, seed) in cases {
            let mut hoisted_rng = SimRng::seed_from_u64(seed);
            let mut hoisted = vec![-1.0];
            extend_lognormal(&mut hoisted, &mut hoisted_rng, mean, cv, 500);
            let mut reference_rng = SimRng::seed_from_u64(seed);
            let reference: Vec<f64> = std::iter::once(-1.0)
                .chain((0..500).map(|_| reference_rng.lognormal(mean, cv)))
                .collect();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&hoisted), bits(&reference), "({mean}, {cv}, {seed})");
            assert_eq!(hoisted_rng, reference_rng, "({mean}, {cv}, {seed})");
        }
    }

    #[test]
    fn starved_plant_completes_nothing() {
        let mut p = plant(10, &[0.0, 1.0]);
        p.run_for(50.0);
        assert!(p.take_completed().is_empty());
        assert_eq!(p.mean_response_s(), None);
        assert_eq!(p.throughput(), 0.0);
    }

    #[test]
    fn zero_concurrency_idles() {
        let mut p = plant(0, &[1.0, 1.0]);
        p.run_for(50.0);
        assert!(p.take_completed().is_empty());
    }

    #[test]
    fn concurrency_knob_works() {
        let mut p = plant(10, &[1.0, 1.0]);
        p.run_for(50.0);
        let m_low = ResponseStats::from_samples(p.take_completed()).mean();
        p.set_concurrency(80);
        p.run_for(50.0);
        let m_high = ResponseStats::from_samples(p.take_completed()).mean();
        assert!(m_high > 2.0 * m_low);
    }
}
