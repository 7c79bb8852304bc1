//! Benches for the control layer: the cost of one MPC control step (the
//! per-period overhead every application controller pays) and of
//! batch/recursive system identification.

use std::hint::black_box;
use vdc_bench::harness::BenchHarness;
use vdc_control::sysid::{fit_arx, ExperimentData, Prbs, RecursiveLeastSquares};
use vdc_control::{ArxModel, MpcConfig, MpcController};

fn model_with_inputs(m: usize) -> ArxModel {
    let b1: Vec<f64> = (0..m).map(|i| -150.0 - 10.0 * i as f64).collect();
    let b2: Vec<f64> = (0..m).map(|i| -50.0 - 5.0 * i as f64).collect();
    ArxModel::new(vec![0.45], vec![b1, b2], 1400.0).unwrap()
}

fn controller(m: usize, horizon: (usize, usize)) -> MpcController {
    let cfg = MpcConfig {
        prediction_horizon: horizon.0,
        control_horizon: horizon.1,
        ..MpcConfig::paper(m, 1000.0, 4.0).unwrap()
    };
    MpcController::new(model_with_inputs(m), cfg, &vec![1.0; m]).unwrap()
}

fn bench_mpc_step(h: &mut BenchHarness) {
    for (m, p, mh) in [(2usize, 10usize, 3usize), (3, 10, 3), (4, 16, 4)] {
        let mut ctrl = controller(m, (p, mh));
        let mut t = 1800.0;
        h.bench("mpc_step", &format!("tiers{m}_P{p}_M{mh}"), || {
            let step = ctrl.step(black_box(t)).unwrap();
            // Keep the measurement wandering so the solve stays hot.
            t = 900.0 + (t * 1.3) % 600.0;
            step
        });
    }
}

fn bench_mpc_step_saturated(h: &mut BenchHarness) {
    // Force the box-QP fallback path by demanding an unreachable set point.
    let mut ctrl = controller(2, (10, 3));
    ctrl.set_setpoint(1.0);
    h.bench("mpc_step_saturated", "tiers2_P10_M3", || {
        ctrl.step(black_box(2500.0)).unwrap()
    });
}

fn ident_data(n: usize) -> ExperimentData {
    let model = model_with_inputs(2);
    let mut p1 = Prbs::new(0.6, 1.4, 3, 0xACE1);
    let mut p2 = Prbs::new(0.5, 1.2, 4, 0xBEEF);
    let mut data = ExperimentData::new();
    let mut t_hist = vec![800.0];
    let mut c_hist = vec![vec![1.0, 1.0], vec![1.0, 1.0]];
    for _ in 0..n {
        let c = vec![p1.next_level(), p2.next_level()];
        c_hist.rotate_right(1);
        c_hist[0] = c.clone();
        let t = model.predict(&t_hist, &c_hist).unwrap();
        t_hist[0] = t;
        data.push(c, t);
    }
    data
}

fn bench_sysid(h: &mut BenchHarness) {
    for n in [200usize, 1000] {
        let data = ident_data(n);
        h.bench("sysid", &format!("fit_arx_{n}"), || {
            fit_arx(black_box(&data), 1, 2).unwrap()
        });
    }
    let data = ident_data(500);
    h.bench("sysid", "rls_500_updates", || {
        let mut rls = RecursiveLeastSquares::new(1, 2, 2, 0.98, 1e6).unwrap();
        for (c, &t) in data.inputs().iter().zip(data.outputs()) {
            rls.observe(c, t).unwrap();
        }
        rls.model().unwrap()
    });
}

fn main() {
    let mut h = BenchHarness::from_env("mpc");
    bench_mpc_step(&mut h);
    bench_mpc_step_saturated(&mut h);
    bench_sysid(&mut h);
    h.finish();
}
