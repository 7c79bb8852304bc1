//! The benchmark's metric table and the arithmetic applied to raw timings.
//!
//! Every metric carries its unit. Per-layer units also say what kind of
//! number it is:
//!
//! * `host_wall_*` — host time on the wall clock of the calling thread;
//! * `host_thread_s` — host time summed over spans that may run on
//!   several shard threads at once, so it can exceed the wall time that
//!   contains it and must never be subtracted from a wall span;
//! * `host_ratio` — a ratio of two host times, both also reported;
//! * `sim_*` — a simulated quantity (count, seconds, energy, capacity or
//!   ratio), deterministic for a given seed and identical on every host.

use std::collections::BTreeMap;
use vdc_telemetry::{HistogramSummary, Telemetry};

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user of the simulator sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// One per-layer metric, reported only by the traced run.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name, `<layer>.<quantity>`.
    pub name: &'static str,
    /// Unit, labelled host/sim and wall/thread-summed (see module docs).
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better: Better::Lower,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// End-to-end metrics, measured with the program's telemetry disabled.
/// Host times are medians over the runs of one invocation; the simulated
/// energy is the mean over the invocation's input sets, each of which
/// must repeat bit for bit.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("wall_s", "s", 0.25),
    e2e("setup_s", "s", 0.25),
    e2e("peak_rss_mib", "MiB", 0.25),
    e2e("energy_per_vm_wh", "Wh", 0.2),
];

use Better::{Higher, Lower};

/// Per-layer metrics, emitted by the traced run of every workload; a
/// layer the workload does not exercise reports 0.
pub const PER_LAYER: &[PerLayer] = &[
    // trace
    layer("trace.build_s", "host_wall_s", Lower),
    layer("trace.demand_s", "host_wall_s", Lower),
    // core::optimizer + consolidate
    layer("optimizer.initial_s", "host_wall_s", Lower),
    layer("optimizer.loop_s", "host_wall_s", Lower),
    layer("optimizer.invocation_s", "host_wall_s", Lower),
    layer("optimizer.pack_search_s", "host_thread_s", Lower),
    layer("optimizer.snapshot_s", "host_wall_s", Lower),
    layer("optimizer.invocations", "sim_count", Lower),
    layer("optimizer.migrations_proposed", "sim_count", Lower),
    layer("optimizer.migrations_applied", "sim_count", Lower),
    layer("optimizer.apply_ratio", "sim_ratio", Higher),
    layer("optimizer.slack_ghz", "sim_GHz", Lower),
    layer("optimizer.servers_woken", "sim_count", Lower),
    layer("optimizer.servers_slept", "sim_count", Higher),
    layer("optimizer.pod_invocations", "sim_count", Lower),
    layer("optimizer.pod_drain_moves", "sim_count", Lower),
    layer("optimizer.pod_spill_placed", "sim_count", Lower),
    layer("optimizer.pod_rebalance_moves", "sim_count", Lower),
    // core::largescale (loop, relief)
    layer("largescale.loop_s", "host_wall_s", Lower),
    layer("largescale.sample_count", "sim_count", Higher),
    layer("largescale.sample_p50_ms", "host_wall_ms", Lower),
    layer("largescale.sample_tail_ms", "host_wall_ms", Lower),
    layer("largescale.sample_tail_pct", "percentile", Higher),
    layer("relief.snapshot_s", "host_wall_s", Lower),
    layer("relief.migrations", "sim_count", Lower),
    layer("largescale.unattributed_s", "host_wall_s", Lower),
    // dcsim
    layer("dcsim.dvfs_s", "host_wall_s", Lower),
    layer("dcsim.power_map_s", "host_wall_s", Lower),
    layer("dcsim.dvfs_transitions", "sim_count", Lower),
    layer("dcsim.wake_transitions", "sim_count", Lower),
    layer("dcsim.sleep_transitions", "sim_count", Lower),
    layer("dcsim.wake_energy_wh", "sim_Wh", Lower),
    layer("dcsim.server_power_records", "sim_count", Lower),
    // churn
    layer("churn.placement_s", "host_wall_s", Lower),
    layer("churn.wake_wait_sim_s", "sim_s", Lower),
    layer("churn.arrivals", "sim_count", Higher),
    layer("churn.admitted", "sim_count", Higher),
    layer("churn.rejections", "sim_count", Lower),
    layer("churn.wake_retries", "sim_count", Lower),
    layer("churn.recycled_slots", "sim_count", Higher),
    layer("churn.peak_queue_depth", "sim_count", Lower),
    // faults
    layer("fault.crashes", "sim_count", Lower),
    layer("fault.evacuated_vms", "sim_count", Lower),
    layer("fault.stranded_vms", "sim_count", Lower),
    layer("fault.migration_retries", "sim_count", Lower),
    layer("fault.migrations_dropped", "sim_count", Lower),
    layer("fault.wake_failures", "sim_count", Lower),
    layer("fault.watchdog_reliefs", "sim_count", Lower),
    // control + linalg
    layer("mpc.steps", "sim_count", Lower),
    layer("mpc.predict_cpu_s", "host_thread_s", Lower),
    layer("mpc.solve_cpu_s", "host_thread_s", Lower),
    layer("mpc.qp_fallbacks", "sim_count", Lower),
    layer("mpc.qp_fallback_ratio", "sim_ratio", Lower),
    // apptier
    layer("apptier.period_us", "host_wall_us", Lower),
    layer("apptier.samples_per_period", "sim_count", Lower),
    // core::cosim
    layer("cosim.loop_s", "host_wall_s", Lower),
    layer("cosim.control_s", "host_wall_s", Lower),
    layer("cosim.identify_s", "host_wall_s", Lower),
    layer("cosim.unattributed_s", "host_wall_s", Lower),
    // simulated outcomes too unsteady from seed to seed to gate end to
    // end: a rare-event share and a small count
    layer("outcome.slo_violation_frac", "sim_ratio", Lower),
    layer("outcome.migrations", "sim_count", Lower),
    // core::shard
    layer("shard.speedup", "host_ratio", Higher),
    layer("shard.wall_1_s", "host_wall_s", Lower),
    layer("shard.wall_2_s", "host_wall_s", Lower),
    // telemetry
    layer("telemetry.overhead_ratio", "host_ratio", Lower),
    layer("telemetry.traced_wall_s", "host_wall_s", Lower),
    layer("telemetry.untraced_wall_s", "host_wall_s", Lower),
];

/// How a metric is judged: its improvement direction and, for an
/// end-to-end metric, its regression bound.
pub fn describe(name: &str) -> String {
    if let Some(m) = END_TO_END.iter().find(|m| m.name == name) {
        format!(
            "{} is better, bound {} %",
            m.better.as_str(),
            m.bound * 100.0
        )
    } else if let Some(m) = PER_LAYER.iter().find(|m| m.name == name) {
        format!("{} is better", m.better.as_str())
    } else {
        "not a benchmark metric".into()
    }
}

/// Median of a sample (the mean of the middle two for an even count);
/// `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// `num / base`, or 0 when the base is 0 (the base is always reported
/// beside the ratio, so a 0 base is visible).
pub fn ratio(num: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        num / base
    }
}

/// Percentiles the program's histograms export.
const EXPORTED_QUANTILES: [f64; 3] = [0.99, 0.90, 0.50];

/// Samples strictly beyond the nearest-rank `q`-quantile of `count`
/// samples (the rank rule `vdc_telemetry`'s histograms use).
fn samples_beyond(count: u64, q: f64) -> u64 {
    let rank = ((q * count as f64).ceil() as u64).max(1);
    count.saturating_sub(rank)
}

/// The highest exported percentile with at least ten samples beyond it,
/// or `None` when even the median has fewer.
pub fn tail_quantile(count: u64) -> Option<f64> {
    EXPORTED_QUANTILES
        .into_iter()
        .find(|&q| samples_beyond(count, q) >= 10)
}

/// A wall-clock profile: named rows that add up to the wall time.
///
/// `wall = head + Σ stages + unattributed`, where `head` is the part of
/// the wall before the per-sample loop (`wall − loop`) and `unattributed`
/// is the part of the loop no stage span covers (`loop − Σ stages`).
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// `(row name, seconds)`, head first and unattributed last.
    pub rows: Vec<(&'static str, f64)>,
}

impl Profile {
    /// Build the profile of one run from its wall time, the summed
    /// per-sample loop spans, and the stage spans inside the loop.
    pub fn new(
        head: &'static str,
        wall_s: f64,
        loop_s: f64,
        stages: &[(&'static str, f64)],
        unattributed: &'static str,
    ) -> Profile {
        let mut rows = vec![(head, wall_s - loop_s)];
        rows.extend_from_slice(stages);
        let staged: f64 = stages.iter().map(|&(_, s)| s).sum();
        rows.push((unattributed, loop_s - staged));
        Profile { rows }
    }

    /// Sum of every row; equals the wall time up to rounding.
    pub fn total(&self) -> f64 {
        self.rows.iter().map(|&(_, s)| s).sum()
    }
}

/// A read-back of the program's telemetry registry.
#[derive(Debug, Default)]
pub struct Snapshot {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, HistogramSummary>,
}

impl Snapshot {
    /// Copy every counter, gauge and histogram summary out of `t`.
    pub fn of(t: &Telemetry) -> Snapshot {
        Snapshot {
            counters: t.counter_values().into_iter().collect(),
            gauges: t.gauge_values().into_iter().collect(),
            hists: t
                .histogram_summaries()
                .into_iter()
                .map(|h| (h.name.clone(), h))
                .collect(),
        }
    }

    /// Counter value (0 when never incremented).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// Gauge value (`None` when never set).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram summary, if any sample was recorded.
    pub fn hist(&self, name: &str) -> Option<&HistogramSummary> {
        self.hists.get(name)
    }

    /// Samples recorded into a histogram.
    pub fn count(&self, name: &str) -> u64 {
        self.hist(name).map_or(0, |h| h.count)
    }

    /// Sum of a histogram's samples, rebuilt as mean × count because the
    /// registry exports no sum.
    pub fn sum(&self, name: &str) -> f64 {
        self.hist(name).map_or(0.0, |h| h.mean * h.count as f64)
    }

    /// Sum of a nanosecond span histogram, in seconds.
    pub fn span_s(&self, name: &str) -> f64 {
        self.sum(name) / 1e9
    }

    /// Sum of a span histogram minus its longest sample, in seconds — the
    /// spans after the first when the first is known to be the longest.
    pub fn span_s_without_max(&self, name: &str) -> f64 {
        self.hist(name)
            .map_or(0.0, |h| (h.mean * h.count as f64 - h.max) / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_quantile_needs_ten_samples_beyond() {
        // Too few samples for even the median.
        assert_eq!(tail_quantile(0), None);
        assert_eq!(tail_quantile(19), None);
        // 20 samples: rank 10 for p50, 10 beyond.
        assert_eq!(tail_quantile(20), Some(0.50));
        // The megafleet loop: 48 samples, p90 has only 4 beyond.
        assert_eq!(tail_quantile(48), Some(0.50));
        assert_eq!(tail_quantile(99), Some(0.50));
        // 100 samples: p90 is rank 90, 10 beyond.
        assert_eq!(tail_quantile(100), Some(0.90));
        // A week of samples: p99 is rank 666, 6 beyond; p90 has 67.
        assert_eq!(tail_quantile(672), Some(0.90));
        assert_eq!(tail_quantile(999), Some(0.90));
        assert_eq!(tail_quantile(1000), Some(0.99));
    }

    #[test]
    fn ratio_reports_zero_for_a_zero_base() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(3.0, 0.0), 0.0);
    }

    #[test]
    fn profile_rows_add_up_to_the_wall() {
        let p = Profile::new("head", 10.0, 6.0, &[("a", 2.0), ("b", 1.5)], "unattributed");
        assert_eq!(
            p.rows,
            vec![("head", 4.0), ("a", 2.0), ("b", 1.5), ("unattributed", 2.5)]
        );
        assert_eq!(p.total(), 10.0);
    }

    #[test]
    fn snapshot_rebuilds_sums_and_drops_the_longest_span() {
        let t = Telemetry::enabled();
        for ns in [1e9, 2e9, 5e9] {
            t.record("x_ns", ns);
        }
        t.incr("c", 7);
        let s = Snapshot::of(&t);
        assert!((s.span_s("x_ns") - 8.0).abs() < 1e-9);
        assert!((s.span_s_without_max("x_ns") - 3.0).abs() < 1e-9);
        assert_eq!(s.count("x_ns"), 3);
        assert_eq!(s.counter("c"), 7.0);
        assert_eq!(s.counter("missing"), 0.0);
        assert_eq!(s.span_s("missing"), 0.0);
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for n in names {
            assert!(n.len() <= 64 && n.chars().all(ok), "{n}");
        }
        let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(u.len() <= 16 && u.chars().all(unit_ok), "{u}");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the widest bound");
    }
}
