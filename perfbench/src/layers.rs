//! Per-layer metrics of one traced run: the program's own telemetry read
//! back through its public API, the benchmark's spans around the calls
//! into each layer, and the apptier probe.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};
use vdc_apptier::{AnalyticPlant, Plant, ResponseStats, WorkloadProfile};

use crate::metrics::{median, ratio, tail_quantile, Profile, Snapshot, PER_LAYER};
use crate::workloads::{Outcome, SetupTimes, Workload};

/// One round of the traced measurement: the same inputs run untraced at
/// [`SHARDS`](crate::workloads::SHARDS), traced at the same count, and
/// untraced at [`SPEEDUP_SHARDS`](crate::workloads::SPEEDUP_SHARDS).
pub struct TracedRound {
    /// Set-up of the traced run's inputs.
    pub setup: SetupTimes,
    /// Host wall time of the traced run.
    pub traced_wall_s: f64,
    /// Host wall time of the untraced run at `SHARDS`.
    pub untraced_wall_s: f64,
    /// Host wall time of the untraced run at `SPEEDUP_SHARDS`.
    pub speedup_wall_s: f64,
    /// The traced run's telemetry.
    pub snapshot: Snapshot,
    /// The traced run's outcome.
    pub outcome: Outcome,
}

/// Cost of one control period of the analytic application plant.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// Host wall time per period (µs), median over batches.
    pub period_us: f64,
    /// Response-time samples the plant synthesizes per period.
    pub samples_per_period: f64,
}

/// Control period of the co-simulation: 900 s samples, 8 periods each.
const COSIM_PERIOD_S: f64 = 900.0 / 8.0;
/// Concurrency of the probe: mid-range of the co-simulation's client caps.
const PROBE_CLIENTS: usize = 40;
const PROBE_BATCH: usize = 100;

/// Time the public plant calls one co-simulation control period makes
/// when its tier controller measures: `run_for`, `take_completed`, and the
/// p90 of `ResponseStats::from_samples`.
pub fn apptier_probe(seed: u64, budget: Duration) -> Probe {
    let mut plant = AnalyticPlant::new(
        WorkloadProfile::rubbos(),
        PROBE_CLIENTS,
        &[1.0, 1.0],
        0.45,
        seed,
    )
    .expect("the probe's plant configuration is valid");
    let mut batch_us = Vec::new();
    let mut samples = 0usize;
    let mut periods = 0usize;
    let start = Instant::now();
    while batch_us.len() < 5 || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..PROBE_BATCH {
            plant.run_for(COSIM_PERIOD_S);
            let completed = plant.take_completed();
            samples += completed.len();
            black_box(ResponseStats::from_samples(completed).p90());
        }
        batch_us.push(t.elapsed().as_secs_f64() * 1e6 / PROBE_BATCH as f64);
        periods += PROBE_BATCH;
    }
    Probe {
        period_us: median(&batch_us).expect("at least five batches"),
        samples_per_period: samples as f64 / periods as f64,
    }
}

/// The wall-clock profile of a traced run: the stage rows plus the
/// unattributed row add up to the run's wall time.
pub fn profile(w: Workload, r: &TracedRound) -> Profile {
    let s = &r.snapshot;
    // In-loop optimizer time: every invocation but the longest, which is
    // the initial pack onto the empty fleet and falls before the loop.
    let optimizer_loop = s.span_s_without_max("optimizer.invocation_ns");
    match w {
        Workload::FleetBulk | Workload::WeekChurn => Profile::new(
            "optimizer.initial_s",
            r.traced_wall_s,
            s.span_s("largescale.sample_ns"),
            &[
                ("trace.demand_s", s.span_s("largescale.demand_ns")),
                ("churn.placement_s", s.span_s("churn.placement_ns")),
                ("optimizer.loop_s", optimizer_loop),
                (
                    "relief.snapshot_s",
                    s.span_s("largescale.relief_snapshot_ns"),
                ),
                ("dcsim.dvfs_s", s.span_s("largescale.dvfs_ns")),
                ("dcsim.power_map_s", s.span_s("largescale.power_map_ns")),
            ],
            "largescale.unattributed_s",
        ),
        Workload::CosimMpc => Profile::new(
            "cosim.identify_s",
            r.traced_wall_s,
            s.span_s("cosim.sample_ns"),
            &[
                ("cosim.control_s", s.span_s("cosim.control_ns")),
                ("optimizer.loop_s", optimizer_loop),
            ],
            "cosim.unattributed_s",
        ),
    }
}

/// Every per-layer metric of a traced run; layers the workload does not
/// exercise report 0.
pub fn per_layer(
    w: Workload,
    r: &TracedRound,
    probe: Option<Probe>,
) -> BTreeMap<&'static str, f64> {
    let s = &r.snapshot;
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|l| (l.name, 0.0)).collect();
    let mut set = |name: &'static str, v: f64| {
        let slot = m
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        *slot = v;
    };
    for &(name, secs) in &profile(w, r).rows {
        set(name, secs);
    }
    match w {
        Workload::FleetBulk | Workload::WeekChurn => {
            set("largescale.loop_s", s.span_s("largescale.sample_ns"));
            if let Some(h) = s.hist("largescale.sample_ns") {
                set("largescale.sample_count", h.count as f64);
                set("largescale.sample_p50_ms", h.p50 / 1e6);
                if let Some(q) = tail_quantile(h.count) {
                    let v = if q == 0.99 {
                        h.p99
                    } else if q == 0.90 {
                        h.p90
                    } else {
                        h.p50
                    };
                    set("largescale.sample_tail_ms", v / 1e6);
                    set("largescale.sample_tail_pct", q * 100.0);
                }
            }
            set(
                "relief.migrations",
                s.counter("largescale.relief_migrations"),
            );
        }
        Workload::CosimMpc => {
            set("cosim.loop_s", s.span_s("cosim.sample_ns"));
            set("relief.migrations", s.counter("cosim.relief_migrations"));
        }
    }

    set("trace.build_s", r.setup.trace_s);
    set(
        "optimizer.invocation_s",
        s.span_s("optimizer.invocation_ns"),
    );
    set(
        "optimizer.pack_search_s",
        s.span_s("optimizer.pack_search_ns"),
    );
    set("optimizer.snapshot_s", s.span_s("optimizer.snapshot_ns"));
    for name in [
        "optimizer.invocations",
        "optimizer.migrations_proposed",
        "optimizer.migrations_applied",
        "optimizer.servers_woken",
        "optimizer.servers_slept",
        "optimizer.pod_invocations",
        "optimizer.pod_drain_moves",
        "optimizer.pod_spill_placed",
        "optimizer.pod_rebalance_moves",
        "dcsim.dvfs_transitions",
        "dcsim.wake_transitions",
        "dcsim.sleep_transitions",
        "fault.crashes",
        "fault.evacuated_vms",
        "fault.stranded_vms",
        "fault.migration_retries",
        "fault.migrations_dropped",
        "fault.wake_failures",
        "fault.watchdog_reliefs",
        "mpc.steps",
        "mpc.qp_fallbacks",
    ] {
        set(name, s.counter(name));
    }
    set(
        "optimizer.apply_ratio",
        ratio(
            s.counter("optimizer.migrations_applied"),
            s.counter("optimizer.migrations_proposed"),
        ),
    );
    set(
        "optimizer.slack_ghz",
        s.gauge("optimizer.slack_ghz").unwrap_or(0.0),
    );
    set(
        "dcsim.wake_energy_wh",
        s.gauge("dcsim.wake_energy_wh").unwrap_or(0.0),
    );
    set(
        "dcsim.server_power_records",
        s.count("dcsim.server_power_w") as f64,
    );
    // The histogram holds each admission's simulated wake latency in ns.
    set("churn.wake_wait_sim_s", s.sum("churn.wake_wait_ns") / 1e9);
    set("mpc.predict_cpu_s", s.span_s("mpc.predict_ns"));
    set("mpc.solve_cpu_s", s.span_s("mpc.solve_ns"));
    set(
        "mpc.qp_fallback_ratio",
        ratio(s.counter("mpc.qp_fallbacks"), s.counter("mpc.steps")),
    );
    set("outcome.slo_violation_frac", r.outcome.slo_violation_frac);
    set("outcome.migrations", r.outcome.migrations as f64);
    for &(name, v) in &r.outcome.result_metrics {
        set(name, v);
    }
    if let Some(p) = probe {
        set("apptier.period_us", p.period_us);
        set("apptier.samples_per_period", p.samples_per_period);
    }
    set("shard.wall_1_s", r.untraced_wall_s);
    set("shard.wall_2_s", r.speedup_wall_s);
    set("shard.speedup", ratio(r.untraced_wall_s, r.speedup_wall_s));
    set("telemetry.traced_wall_s", r.traced_wall_s);
    set("telemetry.untraced_wall_s", r.untraced_wall_s);
    set(
        "telemetry.overhead_ratio",
        ratio(r.traced_wall_s, r.untraced_wall_s),
    );
    m
}
