//! The benchmark workloads: inputs generated from the seed, one run call
//! into the simulator's public entry points, and the checks on its output.

use std::time::Instant;
use vdc_apptier::rng::seed_stream;
use vdc_churn::{AdmissionPolicy, ChurnConfig, ChurnWorkload};
use vdc_core::largescale::{LargeScaleConfig, LargeScaleResult, OptimizerKind};
use vdc_core::{
    run_churn, run_cosim, run_large_scale_streaming, ControllerSpec, CosimConfig, FaultConfig,
    FaultPlan, RunOptions,
};
use vdc_telemetry::Telemetry;
use vdc_trace::{generate_trace, StreamingTrace, TraceConfig, UtilizationTrace};

use crate::metrics::Snapshot;

/// Shard workers for every measured run. Fixed rather than taken from the
/// host, so a record names the parallelism it measured. One worker leaves
/// the host's second core to everything else on it: a 2-shard fork-join
/// waits for its slowest worker, so any competing thread shows up in its
/// wall time (a single busy thread slowed `cosim_mpc` at 2 shards by 60 %
/// on a 2-vCPU VM and left it unchanged at 1 shard).
pub const SHARDS: usize = 1;

/// Shard workers of the traced mode's rerun that gives `shard.speedup`.
pub const SPEEDUP_SHARDS: usize = 2;

/// Trace sampling interval (the paper's 15 minutes).
const INTERVAL_S: f64 = 900.0;

/// `fleet_bulk`: the megafleet smoke tier.
const FLEET_SERVERS: usize = 2000;
const FLEET_VMS: usize = 6_000;
const FLEET_SAMPLES: usize = 48;
const FLEET_POD: usize = 256;

/// `week_churn`: a week of 15-minute samples over the base population.
const WEEK_VMS: usize = 1030;
const WEEK_SAMPLES: usize = 672;

/// `cosim_mpc`: two-tier applications over whole days.
const COSIM_APPS: usize = 32;
const COSIM_DAYS: usize = 1;

/// Seed streams, one per generated input. The seed draws the load —
/// traces, churn, faults — while the fleet (server types, application
/// populations) keeps its configuration's default seed: one data center
/// under varying load, so seed-to-seed spread reflects the load alone.
const STREAM_TRACE: u64 = 1;
const STREAM_CHURN: u64 = 2;
const STREAM_FAULTS: u64 = 3;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Streaming megafleet: bulk hierarchical consolidation dominates.
    FleetBulk,
    /// A materialized week with churn and faults: incremental placement
    /// and the per-sample loop dominate.
    WeekChurn,
    /// MPC co-simulation: the control and application tiers dominate.
    CosimMpc,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Workload::FleetBulk, Workload::WeekChurn, Workload::CosimMpc];

    /// The workload's name on the command line and in records.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetBulk => "fleet_bulk",
            Workload::WeekChurn => "week_churn",
            Workload::CosimMpc => "cosim_mpc",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Generated inputs of one run. A streaming trace is consumed by the run,
/// so every run gets freshly generated inputs.
pub enum Inputs {
    /// `fleet_bulk`.
    Fleet {
        stream: StreamingTrace,
        cfg: LargeScaleConfig,
    },
    /// `week_churn`.
    Churn {
        trace: UtilizationTrace,
        churn: ChurnWorkload,
        faults: FaultPlan,
        cfg: LargeScaleConfig,
    },
    /// `cosim_mpc`.
    Cosim {
        trace: UtilizationTrace,
        cfg: CosimConfig,
    },
}

/// Host time spent generating each input, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Trace or stream generation.
    pub trace_s: f64,
    /// Churn workload generation.
    pub churn_s: f64,
    /// Fault plan generation.
    pub faults_s: f64,
}

impl SetupTimes {
    /// All set-up time.
    pub fn total(&self) -> f64 {
        self.trace_s + self.churn_s + self.faults_s
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

fn trace_config(n_vms: usize, n_samples: usize, seed: u64) -> TraceConfig {
    TraceConfig {
        n_vms,
        n_samples,
        interval_s: INTERVAL_S,
        seed: seed_stream(seed, STREAM_TRACE),
    }
}

/// Generate a workload's inputs from the benchmark seed.
pub fn setup(w: Workload, seed: u64) -> (Inputs, SetupTimes) {
    let mut times = SetupTimes::default();
    let inputs = match w {
        Workload::FleetBulk => {
            let (stream, s) =
                timed(|| StreamingTrace::new(&trace_config(FLEET_VMS, FLEET_SAMPLES, seed)));
            times.trace_s = s;
            let cfg = LargeScaleConfig {
                n_servers: Some(FLEET_SERVERS),
                shards: SHARDS,
                ..LargeScaleConfig::new(FLEET_VMS, OptimizerKind::Ipac)
            };
            Inputs::Fleet { stream, cfg }
        }
        Workload::WeekChurn => {
            let (trace, s) = timed(|| generate_trace(&trace_config(WEEK_VMS, WEEK_SAMPLES, seed)));
            times.trace_s = s;
            let n_servers = WEEK_VMS / 2;
            // The churn bin's flash-crowd scenario stretched to a week:
            // n/2 steady arrivals a day with 3-hour lifetimes, and a burst
            // of n/3 short-lived VMs mid-week.
            let churn_cfg = ChurnConfig {
                mean_lifetime_s: 3.0 * 3600.0,
                ..ChurnConfig::with_flash_crowd(
                    WEEK_VMS as f64 / 2.0,
                    WEEK_SAMPLES / 2,
                    WEEK_VMS / 3,
                    seed_stream(seed, STREAM_CHURN),
                )
            };
            let (churn, s) =
                timed(|| ChurnWorkload::generate(&churn_cfg, WEEK_SAMPLES, INTERVAL_S));
            times.churn_s = s;
            // Host crashes (two-week MTTF, one-hour MTTR), flaky
            // migrations and flaky wakes together.
            let fault_cfg = FaultConfig {
                migration_failure_prob: 0.1,
                wake_failure_prob: 0.2,
                ..FaultConfig::crash_storm(
                    14.0 * 86_400.0,
                    3_600.0,
                    seed_stream(seed, STREAM_FAULTS),
                )
            };
            let (faults, s) =
                timed(|| FaultPlan::generate(&fault_cfg, WEEK_SAMPLES, INTERVAL_S, n_servers, 0));
            times.faults_s = s;
            let cfg = LargeScaleConfig {
                n_servers: Some(n_servers),
                shards: SHARDS,
                ..LargeScaleConfig::new(WEEK_VMS, OptimizerKind::Ipac)
            };
            Inputs::Churn {
                trace,
                churn,
                faults,
                cfg,
            }
        }
        Workload::CosimMpc => {
            let (trace, s) =
                timed(|| generate_trace(&trace_config(COSIM_APPS, COSIM_DAYS * 96, seed)));
            times.trace_s = s;
            let cfg = CosimConfig {
                n_apps: COSIM_APPS,
                shards: SHARDS,
                controller: ControllerSpec::Mpc,
                ..CosimConfig::default()
            };
            Inputs::Cosim { trace, cfg }
        }
    };
    (inputs, times)
}

/// The simulated outputs of one run that must repeat bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Identity {
    /// `total energy` as IEEE-754 bits.
    pub energy_bits: u64,
    /// Live migrations.
    pub migrations: u64,
    /// FNV-1a hash of the final `(vm id, server)` placement.
    pub placement_hash: u64,
}

/// What one run produced: its simulated outcome, the per-layer values the
/// result carries, and the output checks that failed.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Simulated energy per VM (Wh).
    pub energy_per_vm_wh: f64,
    /// Simulated share of SLO misses.
    pub slo_violation_frac: f64,
    /// Simulated live migrations.
    pub migrations: u64,
    /// Bit-identity key.
    pub identity: Identity,
    /// Per-layer values read from the run's result (not its telemetry).
    pub result_metrics: Vec<(&'static str, f64)>,
    /// Failed output checks; empty when the output is correct.
    pub failures: Vec<String>,
}

impl Outcome {
    fn new(
        total_energy_wh: f64,
        energy_per_vm_wh: f64,
        slo_violation_frac: f64,
        migrations: u64,
        placements: &[(u64, usize)],
        result_metrics: Vec<(&'static str, f64)>,
        checks: Checks,
    ) -> Outcome {
        Outcome {
            energy_per_vm_wh,
            slo_violation_frac,
            migrations,
            identity: Identity {
                energy_bits: total_energy_wh.to_bits(),
                migrations,
                placement_hash: placement_hash(placements),
            },
            result_metrics,
            failures: checks.0,
        }
    }
}

fn placement_hash(placements: &[(u64, usize)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &(id, server) in placements {
        for byte in id
            .to_le_bytes()
            .into_iter()
            .chain((server as u64).to_le_bytes())
        {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Collects failed checks.
#[derive(Default)]
struct Checks(Vec<String>);

impl Checks {
    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }

    fn positive(&mut self, name: &str, v: f64) {
        self.require(v.is_finite() && v > 0.0, || {
            format!("{name} = {v} is not finite and positive")
        });
    }

    fn fraction(&mut self, name: &str, v: f64) {
        self.require((0.0..=1.0).contains(&v), || {
            format!("{name} = {v} is outside [0, 1]")
        });
    }

    fn close(&mut self, name: &str, a: f64, b: f64) {
        self.require((a - b).abs() <= 1e-9 * b.abs().max(1.0), || {
            format!("{name}: {a} != {b}")
        });
    }

    /// Each VM id appears once and every server index is below `n_servers`
    /// (when the benchmark sized the fleet itself).
    fn placements(&mut self, placements: &[(u64, usize)], n_servers: Option<usize>) {
        self.require(placements.windows(2).all(|p| p[0].0 < p[1].0), || {
            "a VM is placed twice or placements are unsorted".into()
        });
        if let Some(n) = n_servers {
            let bad = placements.iter().filter(|&&(_, s)| s >= n).count();
            self.require(bad == 0, || {
                format!("{bad} placements name a server outside 0..{n}")
            });
        }
    }
}

/// Base VMs (ids below `n_vms`) in the final placement.
fn placed_base(placements: &[(u64, usize)], n_vms: usize) -> usize {
    placements
        .iter()
        .filter(|&&(id, _)| id < n_vms as u64)
        .count()
}

/// Checks shared by the two trace-replay workloads.
fn check_large_scale(c: &mut Checks, r: &LargeScaleResult, n_servers: usize) {
    c.placements(&r.final_placements, Some(n_servers));
    c.positive("total_energy_wh", r.total_energy_wh);
    c.positive("energy_per_vm_wh", r.energy_per_vm_wh);
    c.fraction("sla_violation_fraction", r.sla_violation_fraction);
    let site_sum: f64 = r.site_energy_wh.iter().sum();
    c.close(
        "site energy + wake energy vs total",
        site_sum + r.wake_energy_wh,
        r.total_energy_wh,
    );
}

/// Run a workload once. `telemetry` is `None` for the untraced runs that
/// give the end-to-end metrics. Output checks that need the program's
/// telemetry run only when it is given.
pub fn run(
    inputs: Inputs,
    shards: usize,
    telemetry: Option<&Telemetry>,
) -> Result<Outcome, String> {
    let mut opts = RunOptions::default().with_shards(shards);
    if let Some(t) = telemetry {
        opts = opts.with_telemetry(t);
    }
    let mut c = Checks::default();
    match inputs {
        Inputs::Fleet { mut stream, cfg } => {
            let opts = opts.with_pods(FLEET_POD);
            let r =
                run_large_scale_streaming(&mut stream, &cfg, &opts).map_err(|e| e.to_string())?;
            let n_servers = cfg.n_servers.expect("fleet_bulk sizes its fleet");
            check_large_scale(&mut c, &r, n_servers);
            // No faults: every VM must be placed.
            let placed = placed_base(&r.final_placements, cfg.n_vms);
            c.require(placed == cfg.n_vms, || {
                format!("{placed} of {} VMs placed without faults", cfg.n_vms)
            });
            Ok(Outcome::new(
                r.total_energy_wh,
                r.energy_per_vm_wh,
                r.sla_violation_fraction,
                r.migrations,
                &r.final_placements,
                vec![],
                c,
            ))
        }
        Inputs::Churn {
            trace,
            churn,
            faults,
            cfg,
        } => {
            let opts = opts.with_faults(&faults);
            let r = run_churn(&trace, &cfg, &churn, AdmissionPolicy::WakeAndRetry, &opts)
                .map_err(|e| e.to_string())?;
            let n_servers = cfg.n_servers.expect("week_churn sizes its fleet");
            check_large_scale(&mut c, &r.base, n_servers);
            let placed = placed_base(&r.base.final_placements, cfg.n_vms);
            let placed_churn = r.base.final_placements.len() - placed;
            c.require(placed_churn <= r.live_churn_vms, || {
                format!(
                    "{placed_churn} churn VMs placed but only {} live",
                    r.live_churn_vms
                )
            });
            // Arrivals are admitted, rejected, or still queued at the end.
            let settled = r.admitted + r.rejections;
            c.require(
                settled <= r.arrivals && r.arrivals - settled <= r.peak_queue_depth as u64,
                || {
                    format!(
                        "arrivals {} != admitted {} + rejected {} + queued (peak {})",
                        r.arrivals, r.admitted, r.rejections, r.peak_queue_depth
                    )
                },
            );
            if let Some(t) = telemetry {
                let s = Snapshot::of(t);
                // Unplaced base VMs were stranded by a fault.
                let unplaced = (cfg.n_vms - placed) as f64;
                let stranded = s.counter("fault.stranded_vms");
                c.require(unplaced <= stranded, || {
                    format!("{unplaced} base VMs unplaced but {stranded} stranded")
                });
                let queued = s.gauge("churn.queue_depth").unwrap_or(0.0);
                c.require(settled as f64 + queued == r.arrivals as f64, || {
                    format!(
                        "arrivals {} != settled {settled} + queued {queued}",
                        r.arrivals
                    )
                });
            }
            let b = &r.base;
            Ok(Outcome::new(
                b.total_energy_wh,
                b.energy_per_vm_wh,
                b.sla_violation_fraction,
                b.migrations,
                &b.final_placements,
                vec![
                    ("churn.arrivals", r.arrivals as f64),
                    ("churn.admitted", r.admitted as f64),
                    ("churn.rejections", r.rejections as f64),
                    ("churn.wake_retries", r.wake_retries as f64),
                    ("churn.recycled_slots", r.recycled_slots as f64),
                    ("churn.peak_queue_depth", r.peak_queue_depth as f64),
                ],
                c,
            ))
        }
        Inputs::Cosim { trace, cfg } => {
            let r = run_cosim(&trace, &cfg, &opts).map_err(|e| e.to_string())?;
            let n_vms = 2 * cfg.n_apps;
            // The co-simulation sizes its own fleet, so only the ids are
            // range-checked: ids 0..2N, each placed once.
            c.placements(&r.final_placements, None);
            c.require(
                r.final_placements.len() == n_vms
                    && r.final_placements.iter().all(|&(id, _)| id < n_vms as u64),
                || format!("{} placements for {n_vms} VMs", r.final_placements.len()),
            );
            c.positive("total_energy_wh", r.total_energy_wh);
            c.fraction("violation_fraction", r.violation_fraction);
            c.require(r.power_series_w.len() == trace.n_samples(), || {
                "power series does not cover every sample".into()
            });
            // Total = Σ active power × Δt, folded in sample order as the run
            // loop does, + wake energy (≥ 0, known only to the telemetry).
            let active_wh = r
                .power_series_w
                .iter()
                .fold(0.0, |acc, w| acc + w * trace.interval_s() / 3600.0);
            c.require(active_wh <= r.total_energy_wh * (1.0 + 1e-9), || {
                format!(
                    "active energy {active_wh} exceeds total {}",
                    r.total_energy_wh
                )
            });
            if let Some(t) = telemetry {
                let wake = Snapshot::of(t).gauge("dcsim.wake_energy_wh").unwrap_or(0.0);
                c.close(
                    "active energy + wake energy vs total",
                    active_wh + wake,
                    r.total_energy_wh,
                );
            }
            Ok(Outcome::new(
                r.total_energy_wh,
                r.total_energy_wh / n_vms as f64,
                r.violation_fraction,
                r.migrations,
                &r.final_placements,
                vec![],
                c,
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(placements: Vec<(u64, usize)>) -> LargeScaleResult {
        LargeScaleResult {
            n_vms: placements.len(),
            total_energy_wh: 110.0,
            energy_per_vm_wh: 110.0 / placements.len() as f64,
            migrations: 3,
            mean_active_servers: 2.0,
            peak_active_servers: 2,
            optimizer_invocations: 1,
            relief_migrations: 0,
            sla_violation_fraction: 0.01,
            wake_energy_wh: 10.0,
            final_placements: placements,
            site_energy_wh: vec![60.0, 40.0],
            series: vec![],
        }
    }

    /// A named way to break a consistent result.
    type Corruption = (&'static str, fn(&mut LargeScaleResult));

    fn failures(r: &LargeScaleResult) -> Vec<String> {
        let mut c = Checks::default();
        check_large_scale(&mut c, r, 4);
        c.0
    }

    #[test]
    fn a_consistent_result_passes() {
        assert!(failures(&result(vec![(0, 1), (1, 3), (2, 1)])).is_empty());
    }

    #[test]
    fn each_corruption_fires_a_check() {
        let ok = result(vec![(0, 1), (1, 3), (2, 1)]);
        let corruptions: [Corruption; 7] = [
            ("VM placed twice", |r| r.final_placements[1].0 = 0),
            ("server out of range", |r| r.final_placements[2].1 = 4),
            ("energy not finite", |r| r.total_energy_wh = f64::NAN),
            ("energy per VM zero", |r| r.energy_per_vm_wh = 0.0),
            ("fraction above 1", |r| r.sla_violation_fraction = 1.5),
            ("site sum off", |r| r.site_energy_wh[0] += 1.0),
            ("wake energy off", |r| r.wake_energy_wh = 0.0),
        ];
        for (what, corrupt) in corruptions {
            let mut r = ok.clone();
            corrupt(&mut r);
            assert!(!failures(&r).is_empty(), "{what} went unnoticed");
        }
    }

    #[test]
    fn placement_hash_sees_every_field_and_order() {
        let a = placement_hash(&[(0, 1), (1, 2)]);
        assert_ne!(a, placement_hash(&[(0, 1), (1, 3)]));
        assert_ne!(a, placement_hash(&[(0, 1), (2, 2)]));
        assert_ne!(a, placement_hash(&[(1, 2), (0, 1)]));
        assert_eq!(a, placement_hash(&[(0, 1), (1, 2)]));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
