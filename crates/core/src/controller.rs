//! The application-level response-time controller (§IV), bound to a
//! simulated multi-tier plant.
//!
//! Combines the pieces the paper describes: system identification of the
//! eq. (1) model by PRBS excitation and least squares, then an MPC
//! controller tracking the 90-percentile response time by adjusting the
//! per-tier CPU allocations every control period.
//!
//! [`ResponseTimeController`] is the one application-level controller
//! type. It runs one plant loop — apply the allocation, advance the plant
//! one period, measure — with a starvation watchdog and a sensor-dropout
//! safe mode, over one of two control laws that [`ControllerSpec`]
//! selects:
//!
//! * **`mpc`** — the paper's §IV controller ([`MpcConfig::paper`]); the
//!   default.
//! * **`cooling`** — the same MPC with its PUE-weighted allocation-level
//!   term on (after Ogura et al., arXiv:1806.03375), fed per sample through
//!   [`ResponseTimeController::observe_pue`] from the fleet layer's
//!   `PueSeries`.
//! * **`robust`** — the model-free fixed-gain provisioning law of
//!   [`vdc_control::robust`] (after Makridis et al., arXiv:1811.05533).

use crate::{CoreError, Result};
use vdc_apptier::monitor::SlaMetric;
use vdc_apptier::Plant;
use vdc_control::sysid::{fit_arx, ExperimentData, Prbs};
use vdc_control::{
    ArxModel, MpcConfig, MpcController, ReferenceTrajectory, RobustConfig, RobustController,
};
use vdc_telemetry::Telemetry;

/// How much the reference band widens while re-entering closed loop after
/// a sensor outage: the first clean sample steps toward the set point this
/// much slower, so a single post-outage measurement can't command an
/// aggressive allocation move.
const SAFE_MODE_REFERENCE_SCALE: f64 = 3.0;

/// Configuration of the identification experiment (§IV-B / §VI-A: the
/// paper identifies at concurrency 40).
#[derive(Debug, Clone)]
pub struct IdentificationConfig {
    /// Number of control periods to excite.
    pub periods: usize,
    /// Control period (seconds).
    pub period_s: f64,
    /// Low PRBS allocation level per tier (GHz).
    pub low_ghz: f64,
    /// High PRBS allocation level per tier (GHz).
    pub high_ghz: f64,
    /// Hold length of each PRBS level, in periods.
    pub hold: usize,
    /// ARX output lags (paper's example: 1).
    pub na: usize,
    /// ARX input lags (paper's example: 2).
    pub nb: usize,
    /// Which response-time statistic to identify against. The paper uses
    /// the 90th percentile but notes the solution "can be extended to
    /// control other SLAs such as average or maximum response times"
    /// (§III); the controller must use the same metric it was identified
    /// with.
    pub metric: SlaMetric,
}

impl Default for IdentificationConfig {
    fn default() -> Self {
        IdentificationConfig {
            periods: 220,
            period_s: 4.0,
            low_ghz: 0.45,
            high_ghz: 1.3,
            hold: 3,
            na: 1,
            nb: 2,
            metric: SlaMetric::P90,
        }
    }
}

/// Reject a percentile metric whose `p` is non-finite or outside
/// `[0, 100]`: evaluation would silently clamp it (a NaN `p` would read the
/// minimum sample), so a typo would regulate the wrong statistic.
fn check_metric(metric: SlaMetric) -> Result<()> {
    match metric {
        SlaMetric::Percentile(p) if !(0.0..=100.0).contains(&p) => Err(CoreError::BadConfig(
            format!("SLA percentile {p} must be finite and in [0, 100]"),
        )),
        _ => Ok(()),
    }
}

/// Identify an eq. (1)-style ARX model for `plant` by PRBS excitation.
///
/// The plant is driven for `cfg.periods` control periods with independent
/// per-tier PRBS allocation signals; the 90-percentile response time of
/// each period is regressed on the allocation history. The plant is
/// *consumed* mutably — identify on a dedicated instance (or accept the
/// warm-up perturbation, as a real testbed would). A percentile metric
/// outside `[0, 100]` (or NaN) is rejected as [`CoreError::BadConfig`].
pub fn identify_plant<P: Plant + ?Sized>(
    plant: &mut P,
    cfg: &IdentificationConfig,
    seed: u64,
) -> Result<ArxModel> {
    check_metric(cfg.metric)?;
    let n_tiers = plant.n_tiers();
    let mut prbs: Vec<Prbs> = (0..n_tiers)
        .map(|i| {
            Prbs::new(
                cfg.low_ghz,
                cfg.high_ghz,
                cfg.hold + i % 2, // decorrelate tiers with different holds
                (seed as u16).wrapping_add(101 * i as u16 + 1),
            )
        })
        .collect();
    let mut data = ExperimentData::new();
    for _ in 0..cfg.periods {
        let alloc: Vec<f64> = prbs.iter_mut().map(|p| p.next_level()).collect();
        plant.set_allocations(&alloc)?;
        plant.run_for(cfg.period_s);
        let Some(value) = cfg.metric.measure(plant.take_completed()) else {
            // Starved period: skip the sample (no measurement, like a
            // monitor timeout on the real testbed).
            continue;
        };
        data.push(alloc, value * 1000.0); // seconds → ms
    }
    let fit = fit_arx(&data, cfg.na, cfg.nb)?;
    Ok(fit.model)
}

/// The control law behind a [`ResponseTimeController`].
#[derive(Debug, Clone)]
enum Law {
    /// The paper's MPC (§IV-B), with its cooling term when the energy
    /// weight is positive.
    Mpc {
        /// Boxed: the MPC is over 3× the robust law's size.
        mpc: Box<MpcController>,
        /// EWMA-filtered measurement fed to the MPC. Per-period p90
        /// estimates over ~100 requests are heavy-tailed; light filtering
        /// keeps the controller from chasing sampling noise.
        filtered_ms: Option<f64>,
        /// The paper's reference trajectory, restored on the first clean
        /// sample after a sensor outage.
        nominal: ReferenceTrajectory,
        /// The reference band in force from safe-mode entry up to and
        /// including the first clean sample.
        widened: ReferenceTrajectory,
    },
    /// The model-free robust law; it filters its own error signal.
    Robust(RobustController),
}

/// A response-time controller bound to one application: one plant loop
/// (apply the allocation, advance the plant one period, measure the SLA
/// statistic) over the paper's MPC or the model-free robust law. Build it
/// with [`ResponseTimeController::new`] (the MPC) or
/// [`ControllerSpec::build`].
///
/// # Contract
///
/// Every law upholds the following, and the conformance suite
/// (`tests/controller_conformance.rs`) checks it:
///
/// * [`control_period`](Self::control_period) advances the plant exactly
///   `period_s` seconds under the *currently applied* allocation, then
///   computes the next one. It returns `Ok(Some(t_ms))` for a clean
///   measurement and `Ok(None)` when the period starved (no completions),
///   in which case a watchdog raises the allocation.
/// * [`control_period_masked`](Self::control_period_masked) is the
///   sensor-down variant: the plant still advances (requests drain
///   unseen), the allocation freezes at its last-good value, and *no*
///   control law runs. The first masked period enters safe mode; the first
///   clean `control_period` afterwards exits it. Masked periods always
///   return `Ok(None)`: an absent sample is never `0.0`.
/// * [`set_bounds`](Self::set_bounds) with invalid bounds (non-finite,
///   inverted, infeasible) returns `Err`, ticks a `control.bad_bounds`
///   telemetry counter, and leaves the previous bounds in force. It never
///   partially applies.
/// * [`allocation`](Self::allocation) is always inside the configured box,
///   and never moves while in safe mode.
/// * [`observe_pue`](Self::observe_pue) is feed-forward only, and changes
///   nothing unless the MPC's cooling term is on.
/// * Telemetry only observes: attaching a sink changes no control move.
#[derive(Debug, Clone)]
pub struct ResponseTimeController {
    law: Law,
    period_s: f64,
    /// The SLA statistic this controller regulates (default: p90).
    metric: SlaMetric,
    /// Most recent clean measurement of the SLA statistic (ms).
    last_measurement_ms: Option<f64>,
    /// Sensor-dropout safe mode: the monitor is down and the allocation is
    /// frozen at its last-good value. Cleared by the first clean sample.
    safe_mode: bool,
}

/// EWMA weight of the newest p90 sample in the MPC's measurement filter.
const MEASUREMENT_EWMA_ALPHA: f64 = 0.5;

/// Starvation-watchdog bump per period (GHz).
const WATCHDOG_BUMP_GHZ: f64 = 0.2;

impl ResponseTimeController {
    /// Build the paper's MPC controller ([`MpcConfig::paper`]) from an
    /// identified model.
    ///
    /// `setpoint_ms` is the SLA target; `c0` the initial per-tier
    /// allocation (GHz).
    pub fn new(
        model: ArxModel,
        setpoint_ms: f64,
        period_s: f64,
        c0: &[f64],
    ) -> Result<ResponseTimeController> {
        if setpoint_ms <= 0.0 {
            return Err(CoreError::BadConfig(format!(
                "setpoint {setpoint_ms} ms must be positive"
            )));
        }
        let cfg = MpcConfig::paper(model.n_inputs(), setpoint_ms, period_s)?;
        let nominal = cfg.reference;
        let widened = ReferenceTrajectory::new(
            period_s,
            SAFE_MODE_REFERENCE_SCALE * MpcConfig::PAPER_REFERENCE_PERIODS * period_s,
        )?;
        let law = Law::Mpc {
            mpc: Box::new(MpcController::new(model, cfg, c0)?),
            filtered_ms: None,
            nominal,
            widened,
        };
        Ok(ResponseTimeController::with_law(law, period_s))
    }

    /// Build the robust controller from the SLA target and initial
    /// allocation. The allocation box and rate limit come from
    /// [`RobustConfig::default`] and match the MPC's (`c` in `[0.3, 3.0]`
    /// GHz, 0.3 GHz per period).
    fn robust(setpoint_ms: f64, period_s: f64, c0: &[f64]) -> Result<ResponseTimeController> {
        if !(period_s.is_finite() && period_s > 0.0) {
            return Err(CoreError::BadConfig(format!(
                "control period {period_s} s must be positive"
            )));
        }
        let law = RobustController::new(setpoint_ms, RobustConfig::default(), c0)?;
        Ok(ResponseTimeController::with_law(Law::Robust(law), period_s))
    }

    fn with_law(law: Law, period_s: f64) -> ResponseTimeController {
        ResponseTimeController {
            law,
            period_s,
            metric: SlaMetric::P90,
            last_measurement_ms: None,
            safe_mode: false,
        }
    }

    /// Change the regulated SLA statistic (§III: "can be extended to
    /// control other SLAs such as average or maximum response times").
    /// Use the same metric the model was identified with. A percentile
    /// outside `[0, 100]` (or NaN) is rejected as [`CoreError::BadConfig`]
    /// and leaves the metric unchanged.
    pub fn set_metric(&mut self, metric: SlaMetric) -> Result<()> {
        check_metric(metric)?;
        self.metric = metric;
        Ok(())
    }

    /// Attach a telemetry sink to the control law (for the MPC:
    /// phase-split timings and solver-fallback counters; see
    /// [`MpcController::set_telemetry`]).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        match &mut self.law {
            Law::Mpc { mpc, .. } => mpc.set_telemetry(telemetry),
            Law::Robust(law) => law.set_telemetry(telemetry),
        }
    }

    fn telemetry(&self) -> &Telemetry {
        match &self.law {
            Law::Mpc { mpc, .. } => mpc.telemetry(),
            Law::Robust(law) => law.telemetry(),
        }
    }

    /// The regulated SLA statistic.
    pub fn metric(&self) -> SlaMetric {
        self.metric
    }

    /// Override the per-tier allocation bounds (GHz). The edit happens in
    /// place. For the MPC, controller state resets as a rebuild would, but
    /// the cached step-response matrix survives (it depends only on the
    /// model and horizons); the robust law clamps its allocation into the
    /// new box. Invalid bounds (non-finite, inverted, or infeasible
    /// against the rate limit) are rejected: the error is returned, a
    /// `control.bad_bounds` telemetry counter ticks, and the previous
    /// bounds stay in force.
    pub fn set_bounds(&mut self, c_min: f64, c_max: f64) -> Result<()> {
        let applied = match &mut self.law {
            Law::Mpc { mpc, .. } => {
                let n = mpc.model().n_inputs();
                mpc.set_allocation_bounds(vec![c_min; n], vec![c_max; n])
            }
            Law::Robust(law) => law.set_bounds(c_min, c_max),
        };
        applied.map_err(|e| {
            self.telemetry().incr("control.bad_bounds", 1);
            CoreError::Control(e)
        })
    }

    /// Control period (seconds).
    pub fn period_s(&self) -> f64 {
        self.period_s
    }

    /// Change the set point (ms) at run time.
    pub fn set_setpoint(&mut self, setpoint_ms: f64) {
        match &mut self.law {
            Law::Mpc { mpc, .. } => mpc.set_setpoint(setpoint_ms),
            Law::Robust(law) => law.set_setpoint(setpoint_ms),
        }
    }

    /// Current set point (ms).
    pub fn setpoint(&self) -> f64 {
        match &self.law {
            Law::Mpc { mpc, .. } => mpc.config().setpoint,
            Law::Robust(law) => law.setpoint(),
        }
    }

    /// Currently applied allocation (GHz per tier).
    pub fn allocation(&self) -> &[f64] {
        match &self.law {
            Law::Mpc { mpc, .. } => mpc.current_allocation(),
            Law::Robust(law) => law.allocation(),
        }
    }

    /// Most recent measurement fed to the controller (ms).
    pub fn last_measurement_ms(&self) -> Option<f64> {
        self.last_measurement_ms
    }

    /// Whether the controller is holding in sensor-dropout safe mode.
    pub fn in_safe_mode(&self) -> bool {
        self.safe_mode
    }

    /// Feed the site's current PUE sample (feed-forward, from the fleet
    /// layer's `PueSeries`). The MPC prices it only while its cooling term
    /// is on ([`ControllerSpec::CoolingMpc`]); at energy weight zero it
    /// cannot change a bit, and the robust law ignores it.
    pub fn observe_pue(&mut self, pue: f64) {
        if let Law::Mpc { mpc, .. } = &mut self.law {
            mpc.set_pue(pue);
        }
    }

    /// Apply the current allocation, advance the plant one control period
    /// and drain the completed requests' response times (seconds).
    fn run_period<P: Plant + ?Sized>(&self, plant: &mut P) -> Result<Vec<f64>> {
        plant.set_allocations(self.allocation())?;
        plant.run_for(self.period_s);
        Ok(plant.take_completed())
    }

    /// Run one control period with the response-time sensor *down*: the
    /// plant advances under the frozen last-good allocation, completions
    /// drain unseen (the monitor that would time them is the thing that
    /// failed), and no control law runs — stepping on a fabricated number
    /// would chase noise that isn't there. The first masked period enters
    /// safe mode: the MPC widens its reference band so re-entry is gentle,
    /// and the robust law resets its error filter (pre-outage history is
    /// stale). The MPC's measurement filter resets on every masked period.
    /// Returns `Ok(None)` always — a masked sample is *absent*, never
    /// `0.0`.
    pub fn control_period_masked<P: Plant + ?Sized>(
        &mut self,
        plant: &mut P,
    ) -> Result<Option<f64>> {
        self.run_period(plant)?;
        if !self.safe_mode {
            self.safe_mode = true;
            match &mut self.law {
                Law::Mpc { mpc, widened, .. } => mpc.set_reference(*widened),
                Law::Robust(law) => law.reset_filter(),
            }
        }
        self.last_measurement_ms = None;
        if let Law::Mpc { filtered_ms, .. } = &mut self.law {
            *filtered_ms = None;
        }
        Ok(None)
    }

    /// Run one control period against the plant: simulate `period_s`
    /// seconds, measure the SLA statistic, and compute and apply the next
    /// allocation. Returns the measurement (ms) if any requests completed.
    pub fn control_period<P: Plant + ?Sized>(&mut self, plant: &mut P) -> Result<Option<f64>> {
        let completed = self.run_period(plant)?;
        let Some(t_s) = self.metric.measure(completed) else {
            self.watchdog()?;
            self.last_measurement_ms = None;
            return Ok(None);
        };
        let t_ms = t_s * 1000.0;
        self.last_measurement_ms = Some(t_ms);
        match &mut self.law {
            Law::Mpc {
                mpc, filtered_ms, ..
            } => {
                let filtered = match *filtered_ms {
                    Some(prev) => {
                        MEASUREMENT_EWMA_ALPHA * t_ms + (1.0 - MEASUREMENT_EWMA_ALPHA) * prev
                    }
                    None => t_ms,
                };
                *filtered_ms = Some(filtered);
                mpc.step(filtered)?;
            }
            Law::Robust(law) => {
                law.step(t_ms);
            }
        }
        if self.safe_mode {
            // First clean sample after a sensor outage: the step above ran
            // gently (the MPC against the widened band, the robust law
            // from a reset filter); re-enter normal closed-loop operation.
            self.safe_mode = false;
            if let Law::Mpc { mpc, nominal, .. } = &mut self.law {
                mpc.set_reference(*nominal);
            }
        }
        Ok(Some(t_ms))
    }

    /// Starvation watchdog: a period with no completions pushes every
    /// tier's allocation up by [`WATCHDOG_BUMP_GHZ`] to recover. The
    /// forced allocation resets the law's state (the old dynamics are
    /// stale anyway).
    fn watchdog(&mut self) -> Result<()> {
        match &mut self.law {
            Law::Mpc { mpc, .. } => {
                let c_max = mpc.config().c_max[0];
                let bumped: Vec<f64> = mpc
                    .current_allocation()
                    .iter()
                    .map(|&c| (c + WATCHDOG_BUMP_GHZ).min(c_max))
                    .collect();
                let t_guess = mpc.config().setpoint * 4.0;
                mpc.step(t_guess)?;
                // Keep the MPC's move where it is larger than the bump.
                let merged: Vec<f64> = mpc
                    .current_allocation()
                    .iter()
                    .zip(&bumped)
                    .map(|(&a, &b)| a.max(b))
                    .collect();
                // The merged vector has one entry per input, so this
                // cannot fail.
                let _ = mpc.force_allocation(&merged);
            }
            Law::Robust(law) => {
                let bumped: Vec<f64> = law
                    .allocation()
                    .iter()
                    .map(|&c| c + WATCHDOG_BUMP_GHZ)
                    .collect();
                law.force_allocation(&bumped)?;
            }
        }
        Ok(())
    }

    /// Total CPU demand across tiers (GHz) — what the server-level
    /// arbitrators aggregate.
    pub fn total_demand_ghz(&self) -> f64 {
        self.allocation().iter().sum()
    }
}

// The sharded co-sim ships each application's controller to a scoped
// worker thread (`crate::shard::map_slice_mut`), so the controller must
// stay `Send` — enforced here at compile time rather than discovered as a
// cryptic trait error at the spawn site if someone adds an `Rc`/`RefCell`.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<ResponseTimeController>();
};

/// Default energy weight for [`ControllerSpec::cooling`], in the MPC's
/// cost units (the tracking error is in ms², so allocation-level pressure
/// needs comparable scale — see [`MpcController::set_energy_weight`]).
/// Tuned against the `controllers` ablation: a visible energy saving at
/// PUE ≈ 1.3–1.6 while the week trace still completes within its SLO
/// budget.
pub const DEFAULT_COOLING_WEIGHT: f64 = 1.5e4;

/// Which control law a run builds for each application. Travels on
/// `CosimConfig`, `RunOptions`, and `TestbedConfig`; the run loops call
/// [`ControllerSpec::build`] with the identified model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ControllerSpec {
    /// The paper's MPC (§IV) — the default.
    #[default]
    Mpc,
    /// The model-free robust provisioning law (Makridis et al.,
    /// arXiv:1811.05533). Ignores the identified model by design.
    Robust,
    /// The paper's MPC with the PUE-weighted allocation-level cooling term
    /// (Ogura et al., arXiv:1806.03375) at the given energy weight.
    CoolingMpc {
        /// Weight of the PUE-multiplied allocation-level term.
        energy_weight: f64,
    },
}

impl ControllerSpec {
    /// The cooling-coupled variant at [`DEFAULT_COOLING_WEIGHT`].
    pub fn cooling() -> ControllerSpec {
        ControllerSpec::CoolingMpc {
            energy_weight: DEFAULT_COOLING_WEIGHT,
        }
    }

    /// Stable short name for CLI flags and metrics labels.
    pub fn name(&self) -> &'static str {
        match self {
            ControllerSpec::Mpc => "mpc",
            ControllerSpec::Robust => "robust",
            ControllerSpec::CoolingMpc { .. } => "cooling",
        }
    }

    /// Parse a CLI flag value (`mpc` | `robust` | `cooling`).
    pub fn parse(s: &str) -> Option<ControllerSpec> {
        match s {
            "mpc" => Some(ControllerSpec::Mpc),
            "robust" => Some(ControllerSpec::Robust),
            "cooling" => Some(ControllerSpec::cooling()),
            _ => None,
        }
    }

    /// Build the controller for one application from its identified model.
    /// `CoolingMpc` rejects a negative or non-finite energy weight.
    pub fn build(
        &self,
        model: &ArxModel,
        setpoint_ms: f64,
        period_s: f64,
        c0: &[f64],
    ) -> Result<ResponseTimeController> {
        match *self {
            ControllerSpec::Mpc => {
                ResponseTimeController::new(model.clone(), setpoint_ms, period_s, c0)
            }
            ControllerSpec::Robust => ResponseTimeController::robust(setpoint_ms, period_s, c0),
            ControllerSpec::CoolingMpc { energy_weight } => {
                let mut ctrl =
                    ResponseTimeController::new(model.clone(), setpoint_ms, period_s, c0)?;
                if let Law::Mpc { mpc, .. } = &mut ctrl.law {
                    mpc.set_energy_weight(energy_weight)?;
                }
                Ok(ctrl)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdc_apptier::{AnalyticPlant, AppSim, WorkloadProfile};

    fn plant(concurrency: usize, seed: u64) -> AppSim {
        AppSim::new(WorkloadProfile::rubbos(), concurrency, &[1.0, 1.0], seed).unwrap()
    }

    fn quick_ident_cfg() -> IdentificationConfig {
        IdentificationConfig {
            periods: 150,
            ..Default::default()
        }
    }

    #[test]
    fn identification_produces_sensible_model() {
        let mut p = plant(40, 1);
        let model = identify_plant(&mut p, &quick_ident_cfg(), 11).unwrap();
        assert_eq!(model.n_inputs(), 2);
        assert_eq!(model.na(), 1);
        assert_eq!(model.nb(), 2);
        // More CPU must lower response time: negative DC gains.
        for ch in 0..2 {
            let g = model.dc_gain(ch).expect("non-integrating model");
            assert!(g < 0.0, "channel {ch} gain {g} should be negative");
        }
        // Stable AR part.
        assert!(model.a()[0].abs() < 1.0, "a = {:?}", model.a());
    }

    #[test]
    fn controller_converges_to_setpoint_on_real_plant() {
        let mut ident = plant(40, 2);
        let model = identify_plant(&mut ident, &quick_ident_cfg(), 22).unwrap();
        let mut ctrl = ResponseTimeController::new(model, 1000.0, 4.0, &[1.0, 1.0]).unwrap();
        let mut run = plant(40, 3);
        let mut tail = Vec::new();
        for k in 0..120 {
            if let Some(t) = ctrl.control_period(&mut run).unwrap() {
                if k >= 80 {
                    tail.push(t);
                }
            }
        }
        assert!(tail.len() > 20, "controller starved the plant");
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(
            (mean - 1000.0).abs() < 150.0,
            "steady-state p90 {mean} ms should track the 1000 ms set point"
        );
    }

    #[test]
    fn controller_validates_setpoint() {
        let model = ArxModel::new(vec![0.4], vec![vec![-100.0, -80.0]], 1200.0).unwrap();
        assert!(ResponseTimeController::new(model, 0.0, 4.0, &[1.0, 1.0]).is_err());
    }

    #[test]
    fn setpoint_change_applies() {
        let model = ArxModel::new(vec![0.4], vec![vec![-100.0, -80.0]], 1200.0).unwrap();
        let mut c = ResponseTimeController::new(model, 1000.0, 4.0, &[1.0, 1.0]).unwrap();
        assert_eq!(c.setpoint(), 1000.0);
        c.set_setpoint(700.0);
        assert_eq!(c.setpoint(), 700.0);
        assert_eq!(c.period_s(), 4.0);
        assert!((c.total_demand_ghz() - 2.0).abs() < 1e-12);
    }

    fn model() -> ArxModel {
        ArxModel::new(
            vec![0.45],
            vec![vec![-180.0, -120.0], vec![-60.0, -40.0]],
            1400.0,
        )
        .unwrap()
    }

    const SPECS: [ControllerSpec; 3] = [
        ControllerSpec::Mpc,
        ControllerSpec::Robust,
        ControllerSpec::CoolingMpc {
            energy_weight: DEFAULT_COOLING_WEIGHT,
        },
    ];

    #[test]
    fn spec_names_round_trip_through_parse() {
        for spec in SPECS {
            assert_eq!(ControllerSpec::parse(spec.name()), Some(spec));
        }
        assert_eq!(ControllerSpec::parse("pid"), None);
        assert_eq!(ControllerSpec::default(), ControllerSpec::Mpc);
    }

    #[test]
    fn build_produces_working_controllers_of_each_kind() {
        for spec in SPECS {
            let ctrl = spec.build(&model(), 1000.0, 4.0, &[1.0, 1.0]).unwrap();
            assert_eq!(ctrl.allocation(), &[1.0, 1.0], "{}", spec.name());
            assert_eq!(ctrl.setpoint(), 1000.0);
            assert_eq!(ctrl.period_s(), 4.0);
            assert!(!ctrl.in_safe_mode());
            assert!((ctrl.total_demand_ghz() - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn build_rejects_bad_inputs() {
        assert!(ControllerSpec::Mpc
            .build(&model(), -5.0, 4.0, &[1.0, 1.0])
            .is_err());
        assert!(ControllerSpec::Robust
            .build(&model(), 1000.0, 0.0, &[1.0, 1.0])
            .is_err());
        assert!(ControllerSpec::CoolingMpc {
            energy_weight: -1.0
        }
        .build(&model(), 1000.0, 4.0, &[1.0, 1.0])
        .is_err());
    }

    #[test]
    fn bad_bounds_are_rejected_and_counted() {
        let telemetry = Telemetry::enabled();
        for spec in SPECS {
            let mut ctrl = spec.build(&model(), 1000.0, 4.0, &[1.0, 1.0]).unwrap();
            ctrl.set_telemetry(telemetry.clone());
            assert!(ctrl.set_bounds(2.0, 1.0).is_err(), "{}", spec.name());
            assert!(ctrl.set_bounds(0.5, 2.5).is_ok(), "{}", spec.name());
        }
        let counters = telemetry.counter_values();
        let bad = counters
            .iter()
            .find(|(n, _)| n == "control.bad_bounds")
            .map(|(_, v)| *v)
            .unwrap_or(0);
        assert_eq!(bad, 3, "each controller must tick control.bad_bounds once");
    }

    /// Feeding a PUE sample before every period leaves the MPC and the
    /// robust law bit-identical to a run that is never fed, and moves the
    /// cooling-coupled MPC (the feed is live there).
    #[test]
    fn observe_pue_is_a_noop_for_non_cooling_controllers() {
        let run = |spec: ControllerSpec, pue: Option<f64>| {
            let mut ctrl = spec.build(&model(), 1000.0, 4.0, &[1.0, 1.0]).unwrap();
            let mut plant =
                AnalyticPlant::new(WorkloadProfile::rubbos(), 40, &[1.0, 1.0], 0.4, 9).unwrap();
            let mut trace = Vec::new();
            for _ in 0..40 {
                if let Some(pue) = pue {
                    ctrl.observe_pue(pue);
                }
                let measured = ctrl.control_period(&mut plant).unwrap();
                trace.push(measured.map(f64::to_bits));
                trace.extend(ctrl.allocation().iter().map(|c| Some(c.to_bits())));
            }
            trace
        };
        for spec in [ControllerSpec::Mpc, ControllerSpec::Robust] {
            assert_eq!(
                run(spec, Some(1.8)),
                run(spec, None),
                "PUE feed moved {}",
                spec.name()
            );
        }
        let cooling = ControllerSpec::cooling();
        assert_ne!(
            run(cooling, Some(1.8)),
            run(cooling, None),
            "the cooling law must price the PUE feed"
        );
    }
}

#[cfg(test)]
mod metric_tests {
    use super::*;
    use vdc_apptier::{AppSim, WorkloadProfile};

    /// §III extension: control the *mean* response time instead of the
    /// 90th percentile. Identification and control must share the metric.
    #[test]
    fn mean_response_time_is_controllable() {
        let ident = IdentificationConfig {
            periods: 140,
            metric: SlaMetric::Mean,
            ..Default::default()
        };
        let mut twin = AppSim::new(WorkloadProfile::rubbos(), 30, &[1.0, 1.0], 41).unwrap();
        let model = identify_plant(&mut twin, &ident, 41).unwrap();
        // Target the mean at 600 ms (mean sits well below the p90).
        let mut ctrl = ResponseTimeController::new(model, 600.0, 4.0, &[1.0, 1.0]).unwrap();
        ctrl.set_metric(SlaMetric::Mean).unwrap();
        assert_eq!(ctrl.metric(), SlaMetric::Mean);
        let mut plant = AppSim::new(WorkloadProfile::rubbos(), 30, &[1.0, 1.0], 43).unwrap();
        let mut tail = Vec::new();
        for k in 0..110 {
            if let Some(t) = ctrl.control_period(&mut plant).unwrap() {
                if k >= 70 {
                    tail.push(t);
                }
            }
        }
        let mean = tail.iter().sum::<f64>() / tail.len().max(1) as f64;
        assert!(
            (mean - 600.0).abs() < 120.0,
            "controlled mean {mean:.0} ms vs 600 ms target"
        );
    }

    /// A percentile outside `[0, 100]` or a NaN `p` is a configuration
    /// error, not a silent clamp to the minimum or maximum sample.
    #[test]
    fn bad_percentile_is_rejected() {
        let model = ArxModel::new(vec![0.4], vec![vec![-100.0, -80.0]], 1200.0).unwrap();
        let mut ctrl = ResponseTimeController::new(model, 600.0, 4.0, &[1.0, 1.0]).unwrap();
        let mut twin = AppSim::new(WorkloadProfile::rubbos(), 30, &[1.0, 1.0], 41).unwrap();
        for p in [f64::NAN, f64::INFINITY, -1.0, 100.5, 150.0] {
            let bad = SlaMetric::Percentile(p);
            assert!(
                matches!(ctrl.set_metric(bad), Err(CoreError::BadConfig(_))),
                "p = {p}"
            );
            assert_eq!(ctrl.metric(), SlaMetric::P90, "p = {p}");
            let cfg = IdentificationConfig {
                metric: bad,
                ..Default::default()
            };
            assert!(
                matches!(
                    identify_plant(&mut twin, &cfg, 41),
                    Err(CoreError::BadConfig(_))
                ),
                "p = {p}"
            );
        }
        for p in [0.0, 1e-9, 50.0, 100.0] {
            ctrl.set_metric(SlaMetric::Percentile(p)).unwrap();
        }
    }

    /// Identification under the mean metric produces lower bias/levels
    /// than under p90 (the mean is below the tail by construction).
    #[test]
    fn metric_choice_shifts_identified_level() {
        let mk = |metric| IdentificationConfig {
            periods: 130,
            metric,
            ..Default::default()
        };
        let mut twin_a = AppSim::new(WorkloadProfile::rubbos(), 30, &[1.0, 1.0], 5).unwrap();
        let m_mean = identify_plant(&mut twin_a, &mk(SlaMetric::Mean), 5).unwrap();
        let mut twin_b = AppSim::new(WorkloadProfile::rubbos(), 30, &[1.0, 1.0], 5).unwrap();
        let m_p90 = identify_plant(&mut twin_b, &mk(SlaMetric::P90), 5).unwrap();
        // Compare steady-state predictions at a common operating point.
        let at = |m: &vdc_control::ArxModel| {
            let denom = 1.0 - m.a().iter().sum::<f64>();
            let num: f64 = m.b().iter().flat_map(|lag| lag.iter()).sum::<f64>();
            (m.bias() + num * 1.0) / denom
        };
        assert!(
            at(&m_mean) < at(&m_p90),
            "mean level {:.0} must sit below p90 level {:.0}",
            at(&m_mean),
            at(&m_p90)
        );
    }
}
