//! Tier-1 shard-equivalence gate: the sharded replay and co-simulation
//! must be **bit-identical** to the single-threaded run at every shard
//! count — trajectories, telemetry counters, SLO accounting, and final VM
//! placements.
//!
//! The guarantee holds because sharding only fans out per-element work
//! (one application's control periods, one server's power read) while
//! every f64 reduction stays a sequential index-order fold (see
//! `vdc_core::shard`). These tests are the enforcement: any change that
//! lets the shard count leak into an f64 — a parallel sum, a
//! HashMap-ordered fold, a per-shard RNG reseed — fails here, not in a
//! figure three PRs later.
//!
//! `ci.sh` additionally runs this suite with `VDC_SHARDS=1` and
//! `VDC_SHARDS=8`, which the env-driven test below picks up.

use vdc_churn::{AdmissionPolicy, ChurnConfig, ChurnWorkload};
use vdc_core::churn::{run_churn, ChurnResult};
use vdc_core::cosim::{run_cosim, CosimConfig, CosimResult};
use vdc_core::largescale::{run_large_scale, LargeScaleConfig, LargeScaleResult, OptimizerKind};
use vdc_core::{ControllerSpec, FaultConfig, FaultPlan, RunOptions};
use vdc_dcsim::{FleetSpec, PueSeries};
use vdc_telemetry::Telemetry;
use vdc_trace::{generate_trace, TraceConfig, UtilizationTrace};

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 8];

fn bits(series: &[f64]) -> Vec<u64> {
    series.iter().map(|x| x.to_bits()).collect()
}

fn fast_trace(n_vms: usize, seed: u64) -> UtilizationTrace {
    generate_trace(&TraceConfig {
        n_vms,
        n_samples: 24,
        interval_s: 900.0,
        seed,
    })
}

/// Per-app SLO accounting, f64 fields bit-cast for exact comparison:
/// `(app, setpoint_bits, samples, violations, mean_bits)`.
type SloState = (u32, u64, u64, u64, u64);

/// Deterministic telemetry state: counters plus the SLO accounting.
/// Timing histograms are excluded on purpose — they record wall-clock
/// nanoseconds, the one thing sharding *should* change.
fn telemetry_state(t: &Telemetry) -> (Vec<(String, u64)>, Vec<SloState>) {
    let counters = t.counter_values();
    let slo = t
        .slo_snapshot()
        .into_iter()
        .map(|s| {
            (
                s.app,
                s.setpoint_ms.to_bits(),
                s.samples,
                s.violations,
                s.mean_ms.to_bits(),
            )
        })
        .collect();
    (counters, slo)
}

fn cosim_at(
    trace: &UtilizationTrace,
    shards: usize,
    pods: Option<usize>,
) -> (CosimResult, Telemetry) {
    let cfg = CosimConfig {
        n_apps: 6,
        control_periods_per_sample: 2,
        optimizer_period_samples: 8,
        seed: 0x5A4D,
        ..Default::default()
    };
    let telemetry = Telemetry::enabled();
    let opts = RunOptions {
        pods,
        ..RunOptions::default()
            .with_telemetry(&telemetry)
            .with_shards(shards)
    };
    let result = run_cosim(trace, &cfg, &opts).expect("cosim runs");
    (result, telemetry)
}

fn assert_cosim_identical(a: &CosimResult, b: &CosimResult, ctx: &str) {
    assert_eq!(
        bits(&a.power_series_w),
        bits(&b.power_series_w),
        "{ctx}: power trajectory diverged"
    );
    assert_eq!(
        bits(&a.response_series_ms),
        bits(&b.response_series_ms),
        "{ctx}: response trajectory diverged"
    );
    assert_eq!(
        a.total_energy_wh.to_bits(),
        b.total_energy_wh.to_bits(),
        "{ctx}: total energy"
    );
    assert_eq!(
        a.mean_tracking_error_ms.to_bits(),
        b.mean_tracking_error_ms.to_bits(),
        "{ctx}: tracking error"
    );
    assert_eq!(
        a.violation_fraction.to_bits(),
        b.violation_fraction.to_bits(),
        "{ctx}: violation fraction"
    );
    assert_eq!(a.migrations, b.migrations, "{ctx}: migrations");
    assert_eq!(
        a.final_placements, b.final_placements,
        "{ctx}: final VM placements"
    );
}

#[test]
fn cosim_is_bit_identical_across_shard_counts() {
    let trace = fast_trace(6, 0x7ACE);
    // Flat planning, then pods of 2: `with_pods` must reach the
    // co-simulation's optimizer and stay bit-identical across shards.
    for pods in [None, Some(2)] {
        let (baseline, base_tel) = cosim_at(&trace, 1, pods);
        if pods.is_some() {
            let pod_invocations = base_tel
                .counter_values()
                .into_iter()
                .find(|(n, _)| n == "optimizer.pod_invocations")
                .map(|(_, v)| v);
            assert!(
                pod_invocations.is_some_and(|n| n > 0),
                "with_pods must drive the pod planner, got {pod_invocations:?}"
            );
        }
        let base_state = telemetry_state(&base_tel);
        for shards in SHARD_COUNTS {
            let (r, tel) = cosim_at(&trace, shards, pods);
            let ctx = format!("cosim pods={pods:?} shards={shards}");
            assert_cosim_identical(&baseline, &r, &ctx);
            assert_eq!(
                base_state,
                telemetry_state(&tel),
                "{ctx}: telemetry counters/SLO diverged"
            );
        }
    }
}

fn cosim_spec_at(
    trace: &UtilizationTrace,
    spec: ControllerSpec,
    pue: &PueSeries,
    shards: usize,
) -> (CosimResult, Telemetry) {
    let cfg = CosimConfig {
        n_apps: 6,
        control_periods_per_sample: 2,
        optimizer_period_samples: 8,
        seed: 0x5A4D,
        ..Default::default()
    };
    let telemetry = Telemetry::enabled();
    let opts = RunOptions::default()
        .with_telemetry(&telemetry)
        .with_shards(shards)
        .with_controller(spec)
        .with_pue(pue);
    let result = run_cosim(trace, &cfg, &opts).expect("cosim runs");
    (result, telemetry)
}

/// The controller choice must not weaken shard equivalence: the two
/// non-default controllers — robust fixed-gain and cooling-coupled MPC,
/// the latter with a stepped PUE feed actually steering its objective —
/// produce different results than the paper MPC, but any *given* spec is
/// bit-identical at every shard count.
#[test]
fn non_default_controllers_are_bit_identical_across_shard_counts() {
    let trace = fast_trace(6, 0x7ACE);
    let pue = PueSeries::from_samples(vec![1.25, 1.25, 1.85, 1.85, 1.25, 1.85])
        .expect("PUE samples >= 1 validate");
    for spec in [ControllerSpec::Robust, ControllerSpec::cooling()] {
        let (baseline, base_tel) = cosim_spec_at(&trace, spec, &pue, 1);
        let base_state = telemetry_state(&base_tel);
        for shards in SHARD_COUNTS {
            let (r, tel) = cosim_spec_at(&trace, spec, &pue, shards);
            let ctx = format!("cosim {} shards={shards}", spec.name());
            assert_cosim_identical(&baseline, &r, &ctx);
            assert_eq!(
                base_state,
                telemetry_state(&tel),
                "{ctx}: telemetry counters/SLO diverged"
            );
        }
    }
}

fn largescale_at(
    trace: &UtilizationTrace,
    shards: usize,
) -> (LargeScaleResult, Vec<u64>, Telemetry) {
    let cfg = LargeScaleConfig::new(30, OptimizerKind::Ipac);
    let telemetry = Telemetry::enabled();
    let opts = RunOptions::default()
        .with_telemetry(&telemetry)
        .with_shards(shards)
        .with_series();
    let result = run_large_scale(trace, &cfg, &opts).expect("replay runs");
    let series_bits = result.series.iter().map(|s| s.power_w.to_bits()).collect();
    (result, series_bits, telemetry)
}

fn assert_largescale_identical(a: &LargeScaleResult, b: &LargeScaleResult, ctx: &str) {
    assert_eq!(
        a.total_energy_wh.to_bits(),
        b.total_energy_wh.to_bits(),
        "{ctx}: total energy"
    );
    assert_eq!(
        a.energy_per_vm_wh.to_bits(),
        b.energy_per_vm_wh.to_bits(),
        "{ctx}: energy per VM"
    );
    assert_eq!(
        a.sla_violation_fraction.to_bits(),
        b.sla_violation_fraction.to_bits(),
        "{ctx}: SLA fraction"
    );
    assert_eq!(a.migrations, b.migrations, "{ctx}: migrations");
    assert_eq!(a.relief_migrations, b.relief_migrations, "{ctx}: relief");
    assert_eq!(a.peak_active_servers, b.peak_active_servers, "{ctx}");
    assert_eq!(
        a.final_placements, b.final_placements,
        "{ctx}: final VM placements"
    );
}

#[test]
fn largescale_is_bit_identical_across_shard_counts() {
    let trace = fast_trace(30, 0xBEE);
    let (baseline, base_series, base_tel) = largescale_at(&trace, 1);
    let base_state = telemetry_state(&base_tel);
    for shards in SHARD_COUNTS {
        let (r, series, tel) = largescale_at(&trace, shards);
        assert_largescale_identical(&baseline, &r, &format!("largescale shards={shards}"));
        assert_eq!(
            base_series, series,
            "largescale shards={shards}: power series diverged"
        );
        assert_eq!(
            base_state,
            telemetry_state(&tel),
            "largescale shards={shards}: telemetry counters diverged"
        );
    }
}

fn largescale_fleet_at(
    trace: &UtilizationTrace,
    shards: usize,
) -> (LargeScaleResult, Vec<u64>, Telemetry) {
    let mut cfg = LargeScaleConfig::new(30, OptimizerKind::Ipac);
    // Two-site SPECpower fleet with distinct per-site PUE: the
    // heterogeneous path (profile-aware power, facility multipliers,
    // per-site energy buckets) must stay on the sequential index-order
    // folds that make the homogeneous replay shard-stable.
    cfg.fleet = Some(FleetSpec::specpower_mixed(12));
    let telemetry = Telemetry::enabled();
    let opts = RunOptions::default()
        .with_telemetry(&telemetry)
        .with_shards(shards)
        .with_series();
    let result = run_large_scale(trace, &cfg, &opts).expect("fleet replay runs");
    let series_bits = result.series.iter().map(|s| s.power_w.to_bits()).collect();
    (result, series_bits, telemetry)
}

#[test]
fn heterogeneous_fleet_is_bit_identical_across_shard_counts() {
    let trace = fast_trace(30, 0xF1EE7);
    let (baseline, base_series, base_tel) = largescale_fleet_at(&trace, 1);
    let base_state = telemetry_state(&base_tel);
    let base_sites = bits(&baseline.site_energy_wh);
    for shards in SHARD_COUNTS {
        let (r, series, tel) = largescale_fleet_at(&trace, shards);
        assert_largescale_identical(&baseline, &r, &format!("fleet shards={shards}"));
        assert_eq!(
            base_series, series,
            "fleet shards={shards}: power series diverged"
        );
        assert_eq!(
            base_sites,
            bits(&r.site_energy_wh),
            "fleet shards={shards}: per-site energy diverged"
        );
        assert_eq!(
            base_state,
            telemetry_state(&tel),
            "fleet shards={shards}: telemetry counters diverged"
        );
    }
}

fn churn_at(trace: &UtilizationTrace, shards: usize) -> (ChurnResult, Vec<u64>, Telemetry) {
    // Short steady lifetimes so plenty of VMs depart before the flash
    // crowd lands — later arrivals then reuse freed arena slots, putting
    // slot recycling squarely on the sharded path under test.
    let wl_cfg = ChurnConfig {
        mean_lifetime_s: 3_600.0,
        ..ChurnConfig::with_flash_crowd(80.0, 24, 25, 0xF1A5)
    };
    let workload = ChurnWorkload::generate(&wl_cfg, trace.n_samples(), trace.interval_s());
    let cfg = LargeScaleConfig::new(40, OptimizerKind::Ipac);
    let telemetry = Telemetry::enabled();
    let opts = RunOptions::default()
        .with_telemetry(&telemetry)
        .with_shards(shards)
        .with_series();
    let result = run_churn(trace, &cfg, &workload, AdmissionPolicy::WakeAndRetry, &opts)
        .expect("churn replay runs");
    let series_bits = result
        .base
        .series
        .iter()
        .map(|s| s.power_w.to_bits())
        .collect();
    (result, series_bits, telemetry)
}

/// Lifecycle churn — arrivals, departures, admission control, and the
/// slot-recycling free list — must not perturb shard equivalence: the
/// flash-crowd scenario is bit-identical at every shard count, down to
/// the churn counters and the final placements of recycled slots.
#[test]
fn flash_crowd_churn_is_bit_identical_across_shard_counts() {
    let trace = generate_trace(&TraceConfig {
        n_vms: 40,
        n_samples: 48,
        interval_s: 900.0,
        seed: 0xC4B2,
    });
    let (baseline, base_series, base_tel) = churn_at(&trace, 1);
    let base_state = telemetry_state(&base_tel);
    assert!(baseline.arrivals > 0, "scenario must churn");
    assert!(baseline.departures > 0, "scenario must free slots");
    assert!(
        baseline.recycled_slots > 0,
        "scenario must exercise slot recycling"
    );
    for shards in SHARD_COUNTS {
        let (r, series, tel) = churn_at(&trace, shards);
        let ctx = format!("churn shards={shards}");
        assert_largescale_identical(&baseline.base, &r.base, &ctx);
        assert_eq!(base_series, series, "{ctx}: power series diverged");
        assert_eq!(baseline.arrivals, r.arrivals, "{ctx}: arrivals");
        assert_eq!(baseline.departures, r.departures, "{ctx}: departures");
        assert_eq!(baseline.admitted, r.admitted, "{ctx}: admitted");
        assert_eq!(baseline.rejections, r.rejections, "{ctx}: rejections");
        assert_eq!(baseline.wake_retries, r.wake_retries, "{ctx}: wake retries");
        assert_eq!(
            baseline.peak_queue_depth, r.peak_queue_depth,
            "{ctx}: peak queue depth"
        );
        assert_eq!(
            baseline.recycled_slots, r.recycled_slots,
            "{ctx}: recycled slots"
        );
        assert_eq!(
            baseline.live_churn_vms, r.live_churn_vms,
            "{ctx}: live churn VMs"
        );
        assert_eq!(
            base_state,
            telemetry_state(&tel),
            "{ctx}: telemetry counters diverged"
        );
    }
}

fn faulted_churn_at(
    trace: &UtilizationTrace,
    plan: &FaultPlan,
    shards: usize,
) -> (ChurnResult, Vec<u64>, Telemetry) {
    let wl_cfg = ChurnConfig {
        mean_lifetime_s: 3_600.0,
        ..ChurnConfig::with_flash_crowd(80.0, 24, 25, 0xF1A5)
    };
    let workload = ChurnWorkload::generate(&wl_cfg, trace.n_samples(), trace.interval_s());
    let cfg = LargeScaleConfig::new(40, OptimizerKind::Ipac);
    let telemetry = Telemetry::enabled();
    let opts = RunOptions::default()
        .with_telemetry(&telemetry)
        .with_shards(shards)
        .with_series()
        .with_faults(plan);
    let result = run_churn(trace, &cfg, &workload, AdmissionPolicy::WakeAndRetry, &opts)
        .expect("faulted churn replay runs");
    let series_bits = result
        .base
        .series
        .iter()
        .map(|s| s.power_w.to_bits())
        .collect();
    (result, series_bits, telemetry)
}

/// Fault injection must not perturb shard equivalence: a crash storm with
/// flaky migrations and wakes layered over the flash-crowd churn scenario
/// — evacuations, retries with backoff, stranded accounting, watchdog
/// relief — stays bit-identical at every shard count. This holds because
/// every fault draw is a pure function of the plan and the attempt
/// ordinal, never of shard-local state.
#[test]
fn crash_storm_churn_is_bit_identical_across_shard_counts() {
    let trace = generate_trace(&TraceConfig {
        n_vms: 40,
        n_samples: 48,
        interval_s: 900.0,
        seed: 0xC4B2,
    });
    let fault_cfg = FaultConfig {
        migration_failure_prob: 0.2,
        migration_backoff_budget: 3,
        wake_failure_prob: 0.2,
        ..FaultConfig::crash_storm(8.0 * 3_600.0, 1_800.0, 0xFA11)
    };
    let plan = FaultPlan::generate(&fault_cfg, trace.n_samples(), trace.interval_s(), 40, 0);
    assert!(!plan.is_empty(), "scenario must schedule faults");
    let (baseline, base_series, base_tel) = faulted_churn_at(&trace, &plan, 1);
    let base_state = telemetry_state(&base_tel);
    let crashes = base_state
        .0
        .iter()
        .find(|(n, _)| n == "fault.crashes")
        .map(|(_, v)| *v)
        .unwrap_or(0);
    assert!(crashes > 0, "scenario must crash hosts");
    for shards in SHARD_COUNTS {
        let (r, series, tel) = faulted_churn_at(&trace, &plan, shards);
        let ctx = format!("faulted churn shards={shards}");
        assert_largescale_identical(&baseline.base, &r.base, &ctx);
        assert_eq!(base_series, series, "{ctx}: power series diverged");
        assert_eq!(baseline.admitted, r.admitted, "{ctx}: admitted");
        assert_eq!(baseline.rejections, r.rejections, "{ctx}: rejections");
        assert_eq!(baseline.wake_retries, r.wake_retries, "{ctx}: wake retries");
        assert_eq!(
            base_state,
            telemetry_state(&tel),
            "{ctx}: telemetry counters diverged"
        );
    }
}

fn hierarchical_at(
    trace: &UtilizationTrace,
    shards: usize,
) -> (LargeScaleResult, Vec<u64>, Telemetry) {
    let mut cfg = LargeScaleConfig::new(30, OptimizerKind::Ipac);
    // Two-site fleet with pods of 4: the partition yields multiple pods
    // per site, so the shard fan-out over pods, the merge in pod order,
    // and the spill/rebalance/drain passes are all on the path under
    // test — not just a degenerate single pod.
    cfg.fleet = Some(FleetSpec::specpower_mixed(12));
    let telemetry = Telemetry::enabled();
    let opts = RunOptions::default()
        .with_telemetry(&telemetry)
        .with_shards(shards)
        .with_series()
        .with_pods(4);
    let result = run_large_scale(trace, &cfg, &opts).expect("hierarchical replay runs");
    let series_bits = result.series.iter().map(|s| s.power_w.to_bits()).collect();
    (result, series_bits, telemetry)
}

/// The hierarchical pod optimizer must preserve the repo-wide invariant:
/// pods are packed from one immutable snapshot and merged in pod index
/// order, so the shard count — which only decides how pods fan out over
/// workers — can never leak into a result bit.
#[test]
fn hierarchical_is_bit_identical_across_shard_counts() {
    let trace = fast_trace(30, 0xF1EE7);
    let (baseline, base_series, base_tel) = hierarchical_at(&trace, 1);
    let base_state = telemetry_state(&base_tel);
    assert!(
        base_state
            .0
            .iter()
            .any(|(n, v)| n == "optimizer.pod_invocations" && *v > 0),
        "scenario must actually run pod-local planning"
    );
    for shards in SHARD_COUNTS {
        let (r, series, tel) = hierarchical_at(&trace, shards);
        let ctx = format!("hierarchical shards={shards}");
        assert_largescale_identical(&baseline, &r, &ctx);
        assert_eq!(base_series, series, "{ctx}: power series diverged");
        assert_eq!(
            bits(&baseline.site_energy_wh),
            bits(&r.site_energy_wh),
            "{ctx}: per-site energy diverged"
        );
        assert_eq!(
            base_state,
            telemetry_state(&tel),
            "{ctx}: telemetry counters diverged"
        );
    }
}

fn env_shards() -> usize {
    std::env::var("VDC_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// CI entry point: `VDC_SHARDS=N` pins an extra shard count to verify
/// against the single-threaded baseline (ci.sh runs 1 and 8). Unset, it
/// exercises the auto mode (`shards = 0`, host parallelism).
#[test]
fn env_selected_shard_count_matches_baseline() {
    let shards = env_shards();
    let trace = fast_trace(6, 0xC1);
    let (baseline, _) = cosim_at(&trace, 1, None);
    let (r, _) = cosim_at(&trace, shards, None);
    assert_cosim_identical(&baseline, &r, &format!("cosim VDC_SHARDS={shards}"));
}

/// Trace-replay twin of the env-driven gate: the same `VDC_SHARDS` matrix
/// must also leave the week replay — per-sample demand updates, DVFS
/// passes, and the power series — bit-identical to the single-threaded
/// baseline.
#[test]
fn env_selected_shard_count_matches_replay_baseline() {
    let shards = env_shards();
    let trace = fast_trace(30, 0xC2);
    let (baseline, base_series, _) = largescale_at(&trace, 1);
    let (r, series, _) = largescale_at(&trace, shards);
    assert_largescale_identical(&baseline, &r, &format!("largescale VDC_SHARDS={shards}"));
    assert_eq!(
        base_series, series,
        "largescale VDC_SHARDS={shards}: power series diverged"
    );
}
