//! Conformance suite for the response-time controller's control laws.
//!
//! Every [`ControllerSpec`] must honor the same `ResponseTimeController`
//! contract regardless of the law behind it: converge to the set point on
//! a real plant, keep allocations inside any valid box handed to
//! `set_bounds`, freeze the allocation bit-for-bit across masked (sensor
//! dropout) periods, and resume control on the first clean sample. The
//! bounds property is randomized with `vdc-check` (replay failures with
//! `VDC_CHECK_SEED`); the closed-loop checks run the shipped workload
//! profiles deterministically.

use vdc_check::{check, from_fn, prop_assert, TestRng};
use vdcpower::apptier::{AnalyticPlant, AppSim, WorkloadProfile};
use vdcpower::control::ArxModel;
use vdcpower::core::controller::{identify_plant, IdentificationConfig};
use vdcpower::core::ControllerSpec;

const SPECS: [ControllerSpec; 3] = [
    ControllerSpec::Mpc,
    ControllerSpec::Robust,
    ControllerSpec::CoolingMpc {
        energy_weight: vdcpower::core::DEFAULT_COOLING_WEIGHT,
    },
];

/// One identified model shared by the suite: PRBS + least squares on the
/// analytic twin (microsecond-cost plant, same interface as the DES).
fn identified_model() -> ArxModel {
    let mut twin =
        AnalyticPlant::new(WorkloadProfile::rubbos(), 40, &[1.0, 1.0], 0.4, 7).expect("twin");
    identify_plant(&mut twin, &IdentificationConfig::default(), 42).expect("identification")
}

#[test]
fn every_controller_converges_to_the_setpoint_on_the_real_plant() {
    let setpoint_ms = 1000.0;
    let period_s = 4.0;
    // Identify on the discrete-event twin — the "real plant" path the
    // quickstart example exercises.
    let mut twin = AppSim::new(WorkloadProfile::rubbos(), 40, &[1.0, 1.0], 7).expect("twin");
    let model = identify_plant(&mut twin, &IdentificationConfig::default(), 42).expect("model");
    for spec in SPECS {
        let mut ctrl = spec
            .build(&model, setpoint_ms, period_s, &[1.0, 1.0])
            .expect("spec builds");
        let mut plant = AppSim::new(WorkloadProfile::rubbos(), 40, &[1.0, 1.0], 99).expect("plant");
        let mut tail = Vec::new();
        for k in 0..120 {
            let measured = ctrl
                .control_period(&mut plant)
                .expect("clean control period");
            if k >= 90 {
                if let Some(t) = measured {
                    tail.push(t);
                }
            }
        }
        assert!(
            !tail.is_empty(),
            "{}: no measurements in the settling tail",
            spec.name()
        );
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(
            (mean - setpoint_ms).abs() < 200.0,
            "{}: settled at {mean:.0} ms, set point {setpoint_ms} ms",
            spec.name()
        );
        assert_eq!(ctrl.setpoint(), setpoint_ms);
        assert!(ctrl.last_measurement_ms().is_some());
    }
}

#[test]
fn every_controller_honors_allocation_bounds() {
    let model = identified_model();
    // Random valid boxes around the initial allocation, random set points,
    // random spec: allocations must stay inside the box at every period.
    let gen = from_fn(|rng: &mut TestRng| {
        let c_min = rng.f64_in(0.3, 0.9);
        let c_max = rng.f64_in(1.2, 3.0);
        let setpoint = rng.f64_in(600.0, 1400.0);
        let which = rng.usize_in(0, SPECS.len() - 1);
        let seed = rng.usize_in(0, 1 << 30) as u64;
        (c_min, c_max, setpoint, which, seed)
    });
    check(24, &gen, |(c_min, c_max, setpoint, which, seed)| {
        let spec = SPECS[*which];
        let mut ctrl = spec
            .build(&model, *setpoint, 4.0, &[1.0, 1.0])
            .expect("spec builds");
        ctrl.set_bounds(*c_min, *c_max).expect("valid box");
        let mut plant = AnalyticPlant::new(WorkloadProfile::rubbos(), 40, &[1.0, 1.0], 0.4, *seed)
            .expect("plant");
        for k in 0..30 {
            ctrl.control_period(&mut plant).expect("control period");
            for (tier, &c) in ctrl.allocation().iter().enumerate() {
                prop_assert!(
                    (*c_min - 1e-9..=*c_max + 1e-9).contains(&c),
                    "{}: period {k} tier {tier} allocation {c} outside [{c_min}, {c_max}]",
                    spec.name()
                );
            }
        }
        Ok(())
    });
}

#[test]
fn safe_mode_freezes_the_allocation_and_the_first_clean_sample_restores() {
    let model = identified_model();
    for spec in SPECS {
        let mut ctrl = spec
            .build(&model, 1000.0, 4.0, &[1.0, 1.0])
            .expect("spec builds");
        let mut plant =
            AnalyticPlant::new(WorkloadProfile::rubbos(), 40, &[1.0, 1.0], 0.4, 5).expect("plant");
        for _ in 0..10 {
            ctrl.control_period(&mut plant).expect("clean period");
        }
        assert!(!ctrl.in_safe_mode(), "{}: clean loop", spec.name());
        let frozen: Vec<u64> = ctrl.allocation().iter().map(|c| c.to_bits()).collect();
        // Sensor dropout: masked periods must freeze the allocation
        // bit-for-bit — the plant keeps running, the actuation does not.
        for k in 0..5 {
            let masked = ctrl
                .control_period_masked(&mut plant)
                .expect("masked period");
            assert!(masked.is_none(), "{}: masked period measured", spec.name());
            assert!(ctrl.in_safe_mode(), "{}: masked period {k}", spec.name());
            let now: Vec<u64> = ctrl.allocation().iter().map(|c| c.to_bits()).collect();
            assert_eq!(
                frozen,
                now,
                "{}: allocation moved during dropout (period {k})",
                spec.name()
            );
        }
        // First clean sample: measurement returns and safe mode clears.
        let measured = ctrl.control_period(&mut plant).expect("clean period");
        assert!(
            measured.is_some(),
            "{}: no measurement on the first clean sample",
            spec.name()
        );
        assert!(
            !ctrl.in_safe_mode(),
            "{}: safe mode latched after recovery",
            spec.name()
        );
    }
}
