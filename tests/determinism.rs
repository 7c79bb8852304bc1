//! Tier-1 determinism gate: the full co-simulation must be bit-identical
//! across runs with the same seed.
//!
//! The hermetic PRNG (`vdc_apptier::rng::SimRng`) is the only randomness
//! source in the workspace, so two same-seed runs must agree on every f64
//! of the recorded power and response-time trajectories — not just within
//! a tolerance. Comparing `to_bits` makes any nondeterminism (HashMap
//! iteration, thread interleaving, platform math differences inside one
//! build) a hard failure.

use vdc_core::cosim::{run_cosim, CosimConfig, CosimResult};
use vdc_core::largescale::{run_large_scale, LargeScaleConfig, OptimizerKind};
use vdc_core::{run_large_scale_streaming, ControllerSpec, FaultPlan, RunOptions};
use vdc_telemetry::Telemetry;
use vdc_trace::{generate_trace, StreamingTrace, TraceConfig};

fn small_run(seed: u64) -> CosimResult {
    let trace = generate_trace(&TraceConfig {
        n_vms: 12,
        n_samples: 24,
        interval_s: 900.0,
        seed: seed ^ 0x7ACE,
    });
    let cfg = CosimConfig {
        n_apps: 6,
        control_periods_per_sample: 2,
        optimizer_period_samples: 8,
        seed,
        ..Default::default()
    };
    run_cosim(&trace, &cfg, &RunOptions::default()).expect("co-simulation runs")
}

fn bits(series: &[f64]) -> Vec<u64> {
    series.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn same_seed_runs_are_bit_identical() {
    let a = small_run(0xD5EED);
    let b = small_run(0xD5EED);
    assert_eq!(
        bits(&a.power_series_w),
        bits(&b.power_series_w),
        "power trajectory diverged between same-seed runs"
    );
    assert_eq!(
        bits(&a.response_series_ms),
        bits(&b.response_series_ms),
        "response-time trajectory diverged between same-seed runs"
    );
    assert_eq!(a.total_energy_wh.to_bits(), b.total_energy_wh.to_bits());
    assert_eq!(a.migrations, b.migrations);
}

/// The default-path pin of the controller choice: selecting the paper
/// MPC *explicitly* — via `CosimConfig::controller` and again via the
/// `RunOptions` override — must reproduce the implicit-default run bit
/// for bit. `ControllerSpec::Mpc` is the default code path, not a
/// near-copy of it.
#[test]
fn explicit_mpc_spec_is_bit_identical_to_the_default() {
    let default = small_run(0xD5EED);
    let trace = generate_trace(&TraceConfig {
        n_vms: 12,
        n_samples: 24,
        interval_s: 900.0,
        seed: 0xD5EED ^ 0x7ACE,
    });
    let cfg = CosimConfig {
        n_apps: 6,
        control_periods_per_sample: 2,
        optimizer_period_samples: 8,
        seed: 0xD5EED,
        controller: ControllerSpec::Mpc,
        ..Default::default()
    };
    let explicit = run_cosim(
        &trace,
        &cfg,
        &RunOptions::default().with_controller(ControllerSpec::Mpc),
    )
    .expect("explicit-spec run");
    assert_eq!(
        bits(&default.power_series_w),
        bits(&explicit.power_series_w),
        "explicit ControllerSpec::Mpc perturbed the power trajectory"
    );
    assert_eq!(
        bits(&default.response_series_ms),
        bits(&explicit.response_series_ms),
        "explicit ControllerSpec::Mpc perturbed the response trajectory"
    );
    assert_eq!(
        default.total_energy_wh.to_bits(),
        explicit.total_energy_wh.to_bits()
    );
    assert_eq!(default.migrations, explicit.migrations);
    assert_eq!(default.final_placements, explicit.final_placements);
}

#[test]
fn telemetry_does_not_perturb_the_simulation() {
    // The instrumented entry point must be an observer only: attaching an
    // enabled sink may read clocks and fill the registry, but every f64 of
    // the simulation output stays bit-identical to the plain run.
    let plain = small_run(0xD5EED);
    let trace = generate_trace(&TraceConfig {
        n_vms: 12,
        n_samples: 24,
        interval_s: 900.0,
        seed: 0xD5EED ^ 0x7ACE,
    });
    let cfg = CosimConfig {
        n_apps: 6,
        control_periods_per_sample: 2,
        optimizer_period_samples: 8,
        seed: 0xD5EED,
        ..Default::default()
    };
    let telemetry = Telemetry::enabled();
    let instrumented = run_cosim(
        &trace,
        &cfg,
        &RunOptions::default().with_telemetry(&telemetry),
    )
    .expect("instrumented run");
    assert_eq!(
        bits(&plain.power_series_w),
        bits(&instrumented.power_series_w),
        "telemetry perturbed the power trajectory"
    );
    assert_eq!(
        bits(&plain.response_series_ms),
        bits(&instrumented.response_series_ms),
        "telemetry perturbed the response-time trajectory"
    );
    assert_eq!(
        plain.total_energy_wh.to_bits(),
        instrumented.total_energy_wh.to_bits()
    );
    assert_eq!(plain.migrations, instrumented.migrations);
    // And the sink actually observed the run.
    let counters = telemetry.counter_values();
    let get = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    assert_eq!(get("cosim.samples"), 24);
    assert!(get("mpc.steps") > 0, "MPC steps not recorded");
    assert!(!telemetry.slo_snapshot().is_empty(), "no SLO accounting");
}

#[test]
fn empty_fault_plan_is_bit_identical_to_a_plain_run() {
    // Attaching a `FaultPlan` with no scheduled events must be a no-op all
    // the way down: the single `RunOptions::faults()` gate filters empty
    // plans, so none of the fault machinery (host events, fallible plan
    // application, safe mode, watchdog) may run, and every f64 of the
    // trajectories stays bit-identical to a run with no plan attached.
    let plain = small_run(0xD5EED);
    let trace = generate_trace(&TraceConfig {
        n_vms: 12,
        n_samples: 24,
        interval_s: 900.0,
        seed: 0xD5EED ^ 0x7ACE,
    });
    let cfg = CosimConfig {
        n_apps: 6,
        control_periods_per_sample: 2,
        optimizer_period_samples: 8,
        seed: 0xD5EED,
        ..Default::default()
    };
    let plan = FaultPlan::empty();
    let faulted =
        run_cosim(&trace, &cfg, &RunOptions::default().with_faults(&plan)).expect("empty-plan run");
    assert_eq!(
        bits(&plain.power_series_w),
        bits(&faulted.power_series_w),
        "empty fault plan perturbed the power trajectory"
    );
    assert_eq!(
        bits(&plain.response_series_ms),
        bits(&faulted.response_series_ms),
        "empty fault plan perturbed the response-time trajectory"
    );
    assert_eq!(
        plain.total_energy_wh.to_bits(),
        faulted.total_energy_wh.to_bits()
    );
    assert_eq!(plain.migrations, faulted.migrations);
    assert_eq!(plain.final_placements, faulted.final_placements);
}

/// The streaming trace generator must be a pure re-chunking of its
/// materialized twin ([`StreamingTrace::materialize`], the documented
/// bit-identity reference — `generate_trace`'s serial RNG is a different
/// stream by design): driving the replay sample-by-sample from
/// [`StreamingTrace`] yields every bit the materialized week does, with
/// and without the hierarchical pod optimizer. This is the determinism
/// half of the megafleet claim — constant memory may not cost a single
/// ULP.
#[test]
fn streaming_replay_is_bit_identical_to_materialized() {
    let trace_cfg = TraceConfig {
        n_vms: 30,
        n_samples: 24,
        interval_s: 900.0,
        seed: 0x5EED5,
    };
    // Streaming refuses to auto-size (that would scan the whole trace up
    // front), so pin the fleet explicitly for both runs.
    let cfg = LargeScaleConfig {
        n_servers: Some(24),
        ..LargeScaleConfig::new(30, OptimizerKind::Ipac)
    };
    for pods in [None, Some(4)] {
        let mut opts = RunOptions::default().with_series();
        if let Some(p) = pods {
            opts = opts.with_pods(p);
        }
        let trace = StreamingTrace::materialize(&trace_cfg);
        let materialized = run_large_scale(&trace, &cfg, &opts).expect("materialized run");
        let mut stream = StreamingTrace::new(&trace_cfg);
        let streamed = run_large_scale_streaming(&mut stream, &cfg, &opts).expect("streaming run");
        let ctx = format!("pods={pods:?}");
        assert_eq!(
            materialized.total_energy_wh.to_bits(),
            streamed.total_energy_wh.to_bits(),
            "{ctx}: total energy diverged between streaming and materialized"
        );
        assert_eq!(
            bits(
                &materialized
                    .series
                    .iter()
                    .map(|s| s.power_w)
                    .collect::<Vec<_>>()
            ),
            bits(
                &streamed
                    .series
                    .iter()
                    .map(|s| s.power_w)
                    .collect::<Vec<_>>()
            ),
            "{ctx}: power series diverged between streaming and materialized"
        );
        assert_eq!(
            materialized.sla_violation_fraction.to_bits(),
            streamed.sla_violation_fraction.to_bits(),
            "{ctx}: SLA fraction diverged"
        );
        assert_eq!(
            materialized.migrations, streamed.migrations,
            "{ctx}: migrations diverged"
        );
        assert_eq!(
            materialized.final_placements, streamed.final_placements,
            "{ctx}: final placements diverged"
        );
    }
}

/// Same-seed hierarchical runs are bit-identical — the pod optimizer adds
/// no randomness source beyond the seeded trace.
#[test]
fn same_seed_hierarchical_runs_are_bit_identical() {
    let run = || {
        let trace = generate_trace(&TraceConfig {
            n_vms: 30,
            n_samples: 24,
            interval_s: 900.0,
            seed: 0xD5EED,
        });
        let cfg = LargeScaleConfig::new(30, OptimizerKind::Ipac);
        run_large_scale(
            &trace,
            &cfg,
            &RunOptions::default().with_series().with_pods(8),
        )
        .expect("hierarchical run")
    };
    let a = run();
    let b = run();
    assert_eq!(
        a.total_energy_wh.to_bits(),
        b.total_energy_wh.to_bits(),
        "hierarchical energy diverged between same-seed runs"
    );
    assert_eq!(
        bits(&a.series.iter().map(|s| s.power_w).collect::<Vec<_>>()),
        bits(&b.series.iter().map(|s| s.power_w).collect::<Vec<_>>()),
        "hierarchical power trajectory diverged between same-seed runs"
    );
    assert_eq!(a.final_placements, b.final_placements);
}

#[test]
fn different_seeds_diverge() {
    let a = small_run(1);
    let b = small_run(2);
    assert_ne!(
        bits(&a.power_series_w),
        bits(&b.power_series_w),
        "different seeds produced identical power trajectories"
    );
}

#[test]
fn trajectories_cover_every_sample_and_are_physical() {
    let r = small_run(42);
    assert_eq!(r.power_series_w.len(), 24);
    assert_eq!(r.response_series_ms.len(), 24);
    for &w in &r.power_series_w {
        assert!(w.is_finite() && w >= 0.0, "power sample {w}");
    }
    for &ms in &r.response_series_ms {
        // -1.0 is the no-measurement sentinel; everything else is a mean
        // response time in milliseconds.
        assert!(ms == -1.0 || (ms.is_finite() && ms > 0.0), "response {ms}");
    }
}
