//! Fast experiment-runner checks on the analytic plant: the full Fig. 4 /
//! Fig. 5 sweeps in milliseconds, plus the Fig. 3 static baseline. These
//! guard the experiment plumbing itself; the DES-backed results live in
//! EXPERIMENTS.md and the `fig*` binaries.

use vdcpower::core::controller::IdentificationConfig;
use vdcpower::core::experiments::{fig3_static_baseline, fig4, fig5, PlantKind};
use vdcpower::core::testbed::TestbedConfig;

fn ident() -> IdentificationConfig {
    IdentificationConfig {
        periods: 160,
        ..Default::default()
    }
}

#[test]
fn fig4_sweep_on_analytic_plant_tracks_setpoint() {
    let points = fig4(
        &[30, 50, 70],
        1000.0,
        &ident(),
        30,
        100,
        7,
        PlantKind::Analytic,
    )
    .expect("sweep runs");
    assert_eq!(points.len(), 3);
    for p in &points {
        assert!(
            (p.response.mean - 1000.0).abs() < 150.0,
            "concurrency {}: mean {:.0}",
            p.x,
            p.response.mean
        );
        assert!(p.response.n > 50);
    }
}

#[test]
fn fig5_sweep_on_analytic_plant_tracks_every_setpoint() {
    let points = fig5(
        &[700.0, 1000.0, 1300.0],
        40,
        &ident(),
        30,
        100,
        9,
        PlantKind::Analytic,
    )
    .expect("sweep runs");
    for p in &points {
        let rel = (p.response.mean - p.x).abs() / p.x;
        assert!(rel < 0.12, "set point {}: mean {:.0}", p.x, p.response.mean);
    }
    // Variance grows with the set point (longer queues are noisier).
    assert!(points[2].response.std >= points[0].response.std * 0.8);
}

#[test]
fn fig3_baseline_shows_uncontrolled_surge_violation() {
    let cfg = TestbedConfig {
        concurrency: 40,
        ..Default::default()
    };
    let series = fig3_static_baseline(&cfg, 600.0, 200.0, 400.0, 80, &[0.9, 0.9], 11)
        .expect("baseline runs");
    let mean_in = |lo: f64, hi: f64| {
        let v: Vec<f64> = series
            .iter()
            .filter(|p| p.time_s >= lo && p.time_s < hi)
            .filter_map(|p| p.response_ms)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    let pre = mean_in(50.0, 200.0);
    let surge = mean_in(250.0, 400.0);
    let post = mean_in(450.0, 600.0);
    assert!(
        surge > 1.6 * pre,
        "uncontrolled surge must violate: pre {pre:.0}, surge {surge:.0}"
    );
    assert!(
        (post - pre).abs() < 0.35 * pre,
        "load returns, so should the baseline: pre {pre:.0}, post {post:.0}"
    );
}
