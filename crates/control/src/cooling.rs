//! Cooling-coupled MPC (after Ogura et al., arXiv:1806.03375).
//!
//! The paper's MPC objective (eq. (2)) trades tracking error against move
//! effort; the cooling-coupled variant adds a third term that charges each
//! predicted allocation *level* at the site's current power usage
//! effectiveness,
//!
//! ```text
//! J = Σ‖t̂ − t_ref‖²_Q + Σ‖Δc‖²_R + ρ(k) Σ‖c(k+j|k)‖²,
//! ρ(k) = w_energy · PUE(k),
//! ```
//!
//! so when the site's cooling overhead is high (hot hours push PUE up) the
//! controller leans toward leaner allocations, and when cooling is cheap it
//! tracks more aggressively. The coupling is *feed-forward*: the PUE sample
//! arrives via [`CoolingMpc::observe_pue`] from the fleet layer's
//! `PueSeries`, and the optimizer re-weights its cost with it every period.
//!
//! This type is a thin, explicit wrapper over [`MpcController`] — the term
//! itself lives in the MPC's stacked least-squares assembly (both the
//! unconstrained and box-QP paths), activated by a positive energy weight.
//! A weight of zero is *exactly* the paper's controller, bit for bit.

use crate::mpc::MpcStep;
use crate::{ArxModel, MpcConfig, MpcController, Result};
use vdc_telemetry::Telemetry;

/// MPC variant whose objective adds the PUE-weighted allocation-level term
/// described in the module docs.
#[derive(Debug, Clone)]
pub struct CoolingMpc {
    inner: MpcController,
}

impl CoolingMpc {
    /// Build a cooling-coupled controller. `energy_weight` must be finite
    /// and non-negative; until a PUE sample is observed the multiplier
    /// defaults to 1.0 (an ideal site — all power goes to IT load).
    pub fn new(
        model: ArxModel,
        cfg: MpcConfig,
        c0: &[f64],
        energy_weight: f64,
    ) -> Result<CoolingMpc> {
        let mut inner = MpcController::new(model, cfg, c0)?;
        inner.set_energy_weight(energy_weight)?;
        Ok(CoolingMpc { inner })
    }

    /// Feed the site's current PUE sample (clamped to ≥ 1.0; non-finite
    /// values are ignored). Takes effect on the next [`CoolingMpc::step`].
    pub fn observe_pue(&mut self, pue: f64) {
        self.inner.set_pue(pue);
    }

    /// The PUE multiplier currently applied to the energy term.
    pub fn pue(&self) -> f64 {
        self.inner.pue()
    }

    /// The configured energy weight `w_energy`.
    pub fn energy_weight(&self) -> f64 {
        self.inner.energy_weight()
    }

    /// Run one control period: measurement in, next allocation out.
    pub fn step(&mut self, t_measured: f64) -> Result<MpcStep> {
        self.inner.step(t_measured)
    }

    /// Currently applied allocation (GHz per tier).
    pub fn current_allocation(&self) -> &[f64] {
        self.inner.current_allocation()
    }

    /// Change the response-time set point (ms).
    pub fn set_setpoint(&mut self, ts: f64) {
        self.inner.set_setpoint(ts);
    }

    /// Replace the reference trajectory (safe-mode band widening).
    pub fn set_reference(&mut self, reference: crate::ReferenceTrajectory) {
        self.inner.set_reference(reference);
    }

    /// Replace the allocation box; see
    /// [`MpcController::set_allocation_bounds`].
    pub fn set_allocation_bounds(&mut self, c_min: Vec<f64>, c_max: Vec<f64>) -> Result<()> {
        self.inner.set_allocation_bounds(c_min, c_max)
    }

    /// Force the applied allocation; see [`MpcController::force_allocation`].
    pub fn force_allocation(&mut self, alloc: &[f64]) -> Result<()> {
        self.inner.force_allocation(alloc)
    }

    /// Attach a telemetry sink (observation only).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.inner.set_telemetry(telemetry);
    }

    /// The attached telemetry sink.
    pub fn telemetry(&self) -> &Telemetry {
        self.inner.telemetry()
    }

    /// The MPC configuration in use.
    pub fn config(&self) -> &MpcConfig {
        self.inner.config()
    }

    /// The plant model in use.
    pub fn model(&self) -> &ArxModel {
        self.inner.model()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReferenceTrajectory;

    fn plant_model() -> ArxModel {
        ArxModel::new(
            vec![0.45],
            vec![vec![-180.0, -120.0], vec![-60.0, -40.0]],
            1400.0,
        )
        .unwrap()
    }

    fn cfg(setpoint: f64) -> MpcConfig {
        MpcConfig {
            prediction_horizon: 8,
            control_horizon: 2,
            q_weight: 1.0,
            r_weight: vec![1e-4, 1e-4],
            reference: ReferenceTrajectory::new(4.0, 12.0).unwrap(),
            setpoint,
            c_min: vec![0.2, 0.2],
            c_max: vec![3.0, 3.0],
            delta_max: Some(0.5),
            terminal_constraint: true,
        }
    }

    fn run(ctrl: &mut CoolingMpc, plant: &ArxModel, steps: usize, t0: f64) -> Vec<f64> {
        let mut t_hist = vec![t0; plant.na()];
        let mut c_hist = vec![ctrl.current_allocation().to_vec(); plant.nb()];
        let mut t = t0;
        let mut out = Vec::with_capacity(steps);
        for _ in 0..steps {
            let step = ctrl.step(t).unwrap();
            c_hist.insert(0, step.allocation.clone());
            c_hist.truncate(plant.nb());
            t = plant.predict(&t_hist, &c_hist).unwrap();
            t_hist.insert(0, t);
            t_hist.truncate(plant.na().max(1));
            out.push(t);
        }
        out
    }

    #[test]
    fn rejects_bad_energy_weight() {
        let m = plant_model();
        assert!(CoolingMpc::new(m.clone(), cfg(1000.0), &[1.0, 1.0], -0.5).is_err());
        assert!(CoolingMpc::new(m.clone(), cfg(1000.0), &[1.0, 1.0], f64::NAN).is_err());
        let c = CoolingMpc::new(m, cfg(1000.0), &[1.0, 1.0], 25.0).unwrap();
        assert_eq!(c.energy_weight(), 25.0);
        assert_eq!(c.pue(), 1.0, "multiplier defaults to the ideal site");
    }

    #[test]
    fn zero_weight_is_the_paper_controller_bit_for_bit() {
        let plant = plant_model();
        let mut paper = MpcController::new(plant.clone(), cfg(1000.0), &[1.0, 1.0]).unwrap();
        let mut cooled = CoolingMpc::new(plant.clone(), cfg(1000.0), &[1.0, 1.0], 0.0).unwrap();
        cooled.observe_pue(1.8); // observed but inert at weight 0
        let mut t_a = 2000.0;
        let mut t_b = 2000.0;
        for _ in 0..30 {
            let a = paper.step(t_a).unwrap();
            let b = cooled.step(t_b).unwrap();
            for (x, y) in a.allocation.iter().zip(&b.allocation) {
                assert_eq!(x.to_bits(), y.to_bits(), "zero weight must be inert");
            }
            t_a = (t_a * 0.8).max(900.0);
            t_b = t_a;
        }
    }

    #[test]
    fn higher_pue_means_leaner_allocations() {
        let plant = plant_model();
        let norm_at = |pue: f64| {
            let mut ctrl = CoolingMpc::new(plant.clone(), cfg(1000.0), &[1.0, 1.0], 100.0).unwrap();
            ctrl.observe_pue(pue);
            let traj = run(&mut ctrl, &plant, 80, 2000.0);
            let sum: f64 = ctrl.current_allocation().iter().map(|c| c * c).sum();
            (sum, traj[79])
        };
        let (lean_cool, t_cool) = norm_at(1.2);
        let (lean_hot, t_hot) = norm_at(3.0);
        assert!(
            lean_hot <= lean_cool + 1e-9,
            "hot site ({lean_hot}) should allocate no more than cool site ({lean_cool})"
        );
        // Both still track the set point to within the energy-term bias.
        for t in [t_cool, t_hot] {
            assert!((t - 1000.0).abs() < 120.0, "tracking lost: {t} ms");
        }
    }
}
