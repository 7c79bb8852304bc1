//! The run engine: the one per-sample loop under the trace replay, churn
//! and the co-simulation.
//!
//! The [`Engine`] owns the [`DataCenter`], the [`PowerOptimizer`] and the
//! optional [`FaultSession`], and runs fixed stages every sample:
//! facility (site PUE) → workload → host faults → consolidate (optimizer
//! on its period, else relief) → DVFS → power fold → watchdog. Entry points
//! differ only in their [`Workload`] stage and their [`EngineConfig`].
//!
//! Faults stay one engine-owned `Option`: `RunOptions::faults()` maps an
//! empty plan to `None`, so a fault-free run executes the exact pre-fault
//! instruction stream, and every stage draws from the same session in
//! stage order.

use crate::largescale::{LargeScaleResult, WeekSample};
use crate::optimizer::{apply_faulted, snapshot_sharded, OptimizerConfig, PowerOptimizer};
use crate::run::RunOptions;
use crate::Result;
use vdc_consolidate::constraint::AndConstraint;
use vdc_consolidate::item::{PackItem, PackServer};
use vdc_consolidate::minslack::MinSlackConfig;
use vdc_consolidate::pac::pac_pack;
use vdc_consolidate::relief::{relieve_overloads, ReliefConfig};
use vdc_consolidate::view::ApplyStats;
use vdc_dcsim::{DataCenter, FleetSpec, ServerHandle, VmHandle};
use vdc_faults::{FaultSession, HostFaultKind};
use vdc_telemetry::{SpanTimer, Telemetry};

/// Consecutive SLO-violation samples that trip the watchdog's emergency
/// relief pass.
const WATCHDOG_STREAK: usize = 3;

/// The telemetry keys one run kind exports.
pub(crate) struct RunKeys {
    /// Per-sample step-cost span.
    pub sample: &'static str,
    /// Per-sample counter.
    pub samples: &'static str,
    /// Overload-relief migration counter.
    pub relief_migrations: &'static str,
    /// Record the `largescale.{relief_snapshot,dvfs,power_map}_ns` spans.
    pub stage_spans: bool,
}

/// The run state the workload stage shares with the engine.
pub(crate) struct Core<'r> {
    pub dc: DataCenter,
    pub faults: Option<FaultSession<'r>>,
    pub telemetry: Telemetry,
    pub shards: usize,
}

/// The workload stage: sets a sample's VM demands before the data-center
/// stages run.
pub(crate) trait Workload {
    /// Set the demands (and apply any lifecycle events) of sample `t`.
    fn sample(&mut self, core: &mut Core<'_>, t: usize) -> Result<()>;

    /// Did the sample violate the SLO? Asked by the watchdog after the
    /// power fold; the default judges by CPU demand left unserved.
    fn slo_violated(&self, unmet_ghz: f64) -> bool {
        unmet_ghz > 0.0
    }
}

/// What differs between run kinds besides the workload stage.
pub(crate) struct EngineConfig<'r> {
    pub keys: &'static RunKeys,
    /// Optimizer invocation period, in samples.
    pub period_samples: usize,
    /// Sample length (seconds).
    pub interval_s: f64,
    /// Relieve overloads on samples without an optimizer invocation.
    pub relief: bool,
    /// Run the DVFS arbitrators; `false` pins active servers at maximum
    /// frequency.
    pub dvfs: bool,
    /// Charge wake-transition energy to the run total.
    pub count_wake_energy: bool,
    /// Keep the per-sample [`WeekSample`] series.
    pub capture_series: bool,
    /// Fleet spec whose per-site PUE series the facility stage replays.
    pub fleet: Option<&'r FleetSpec>,
}

/// Run accumulators.
#[derive(Default)]
struct Totals {
    energy_wh: f64,
    site_energy_wh: Vec<f64>,
    site_watts: Vec<f64>,
    active_sum: usize,
    peak_active: usize,
    demand_ghz: f64,
    unmet_ghz: f64,
    relief_migrations: u64,
    violation_streak: usize,
    series: Vec<WeekSample>,
}

/// The per-sample engine.
pub(crate) struct Engine<'r> {
    pub core: Core<'r>,
    optimizer: PowerOptimizer,
    cfg: EngineConfig<'r>,
}

impl<'r> Engine<'r> {
    /// Wrap a populated data center. The optimizer shares the run's
    /// telemetry, shard count and pod size; a fault session (and its
    /// counter family) exists only for a non-empty plan.
    pub(crate) fn new(
        dc: DataCenter,
        cfg: EngineConfig<'r>,
        optimizer: OptimizerConfig,
        opts: &RunOptions<'r>,
        shards: usize,
    ) -> Engine<'r> {
        let telemetry = opts.telemetry();
        let mut optimizer = PowerOptimizer::new(optimizer);
        optimizer.set_telemetry(telemetry.clone());
        optimizer.set_shards(shards);
        optimizer.set_pods(opts.pods);
        let faults = opts.faults().map(|plan| {
            register_fault_keys(&telemetry);
            FaultSession::new(plan)
        });
        let core = Core {
            dc,
            faults,
            telemetry,
            shards,
        };
        Engine {
            core,
            optimizer,
            cfg,
        }
    }

    /// Place the base population `initial`, run `n_samples` samples and
    /// roll the run up (`n_vms` counts the base population).
    pub(crate) fn run(
        &mut self,
        workload: &mut impl Workload,
        initial: &[PackItem],
        n_samples: usize,
    ) -> Result<LargeScaleResult> {
        self.optimize(initial)?;
        let n_sites = self.core.dc.n_sites();
        let mut totals = Totals {
            site_energy_wh: vec![0.0; n_sites],
            site_watts: vec![0.0; n_sites],
            ..Totals::default()
        };
        for t in 0..n_samples {
            let sample_span = self.core.telemetry.timer(self.cfg.keys.sample);
            if let Some(spec) = self.cfg.fleet {
                // Facility: PUE before any decision, so consolidation
                // prices what the power fold charges.
                for (site, s) in spec.sites.iter().enumerate() {
                    self.core.dc.set_site_pue(site, s.pue.at(t))?;
                }
            }
            workload.sample(&mut self.core, t)?;
            self.host_events(t)?;
            if t > 0 && t % self.cfg.period_samples == 0 {
                self.optimize(&[])?;
            } else if self.cfg.relief {
                totals.relief_migrations += self.relieve(true)?;
            }
            self.dvfs()?;
            let unmet = self.power_fold(t, &mut totals)?;
            if self.core.faults.is_some() {
                self.watchdog(workload.slo_violated(unmet), &mut totals)?;
            }
            sample_span.finish();
        }
        Ok(self.roll_up(totals, initial.len(), n_samples))
    }

    /// A stage span, recorded only for run kinds that export stage spans.
    fn stage_span(&self, name: &str) -> Option<SpanTimer> {
        let keys = self.cfg.keys;
        keys.stage_spans.then(|| self.core.telemetry.timer(name))
    }

    /// One optimizer invocation, fault-aware when a session is active.
    fn optimize(&mut self, items: &[PackItem]) -> Result<ApplyStats> {
        let Core { dc, faults, .. } = &mut self.core;
        self.optimizer.optimize_faulted(dc, items, faults.as_mut())
    }

    /// Replay every host crash/recover event due at sample `t`. A crash
    /// evacuates the host's VMs; out-of-range host indices (a plan drawn
    /// for a larger fleet) are skipped.
    fn host_events(&mut self, t: usize) -> Result<()> {
        let Core {
            dc,
            faults,
            telemetry,
            shards,
        } = &mut self.core;
        let Some(f) = faults.as_mut() else {
            return Ok(());
        };
        for ev in f.host_events_at(t) {
            if ev.host >= dc.n_servers() {
                continue;
            }
            let server = ServerHandle::from_index(ev.host);
            match ev.kind {
                HostFaultKind::Crash => {
                    let evacuees = dc.fail_server(server)?;
                    f.crashes += 1;
                    telemetry.incr("fault.crashes", 1);
                    evacuate_vms(dc, &evacuees, *shards, f, telemetry)?;
                }
                HostFaultKind::Recover => {
                    dc.recover_server(server)?;
                    f.recoveries += 1;
                    telemetry.incr("fault.recoveries", 1);
                }
            }
        }
        Ok(())
    }

    /// One overload-relief pass (§III); returns the migrations applied.
    /// `timed` records the snapshot span (periodic passes only, not the
    /// watchdog's).
    fn relieve(&mut self, timed: bool) -> Result<u64> {
        let span = timed
            .then(|| self.stage_span("largescale.relief_snapshot_ns"))
            .flatten();
        let snap = snapshot_sharded(&self.core.dc, self.core.shards);
        drop(span);
        let constraint = AndConstraint::cpu_and_memory();
        let outcome = relieve_overloads(&snap, &constraint, &ReliefConfig::default());
        if outcome.plan.is_empty() {
            return Ok(0);
        }
        let c = &mut self.core;
        let stats = apply_faulted(&mut c.dc, &outcome.plan, c.faults.as_mut(), &c.telemetry)?;
        let migrations = stats.migrations as u64;
        c.telemetry
            .incr(self.cfg.keys.relief_migrations, migrations);
        Ok(migrations)
    }

    /// DVFS stage. The per-server arbitrator decision is a pure read, so it
    /// fans out across shards; the commit (state writes and transition
    /// counters) stays a sequential index-order pass.
    fn dvfs(&mut self) -> Result<()> {
        if !self.cfg.dvfs {
            return pin_max_frequency(&mut self.core.dc);
        }
        let span = self.stage_span("largescale.dvfs_ns");
        let dc = &self.core.dc;
        let decisions = crate::shard::map_indices(dc.n_servers(), self.core.shards, |s| {
            dc.dvfs_decision(ServerHandle::from_index(s), true)
        })
        .into_iter()
        .collect::<vdc_dcsim::Result<Vec<_>>>();
        drop(span);
        self.core.dc.apply_dvfs_decisions(&decisions?)?;
        Ok(())
    }

    /// Power-fold stage; returns the sample's unmet demand (GHz).
    ///
    /// Energy counts *active* servers only: the paper's inactive pool is
    /// powered off, not suspended. Per-server reads fan out across shards;
    /// every sum stays a sequential fold in active-list order, matching
    /// the single-threaded fold bit for bit.
    fn power_fold(&self, t: usize, totals: &mut Totals) -> Result<f64> {
        let (dc, telemetry) = (&self.core.dc, &self.core.telemetry);
        let active = dc.active_servers();
        totals.active_sum += active.len();
        totals.peak_active = totals.peak_active.max(active.len());
        let span = self.stage_span("largescale.power_map_ns");
        let per_server: Vec<Result<(f64, f64, f64, usize)>> =
            crate::shard::map_indices(active.len(), self.core.shards, |i| {
                let s = active[i];
                // Facility power: IT power × site PUE (bit-identical to IT
                // power at the default PUE of 1.0).
                let w = dc.server_facility_power_watts(s)?;
                let demand = dc.server_demand_ghz(s)?;
                let cap = dc.server(s)?.spec.max_capacity_ghz();
                Ok((w, demand, cap, dc.server_site(s)))
            });
        drop(span);
        let (mut watts, mut sample_demand, mut sample_unmet) = (0.0_f64, 0.0_f64, 0.0_f64);
        totals.site_watts.fill(0.0);
        for r in per_server {
            let (w, demand, cap, site) = r?;
            telemetry.record("dcsim.server_power_w", w);
            watts += w;
            totals.site_watts[site] += w;
            // SLA proxy: demand beyond maximum capacity goes unserved.
            totals.demand_ghz += demand;
            totals.unmet_ghz += (demand - cap).max(0.0);
            sample_demand += demand;
            sample_unmet += (demand - cap).max(0.0);
        }
        let interval_s = self.cfg.interval_s;
        totals.energy_wh += watts * interval_s / 3600.0;
        for (e, w) in totals.site_energy_wh.iter_mut().zip(&totals.site_watts) {
            *e += w * interval_s / 3600.0;
        }
        telemetry.incr(self.cfg.keys.samples, 1);
        if self.cfg.capture_series {
            totals.series.push(WeekSample {
                t_s: t as f64 * interval_s,
                power_w: watts,
                active_servers: active.len(),
                migrations_so_far: self.optimizer.total_migrations() + totals.relief_migrations,
                unmet_fraction: if sample_demand > 0.0 {
                    sample_unmet / sample_demand
                } else {
                    0.0
                },
            });
        }
        Ok(sample_unmet)
    }

    /// Watchdog stage: three consecutive violating samples trigger an
    /// out-of-cadence relief pass — faulted runs can strand load where the
    /// periodic cadence is too slow to fix it (e.g. a crash dumped VMs
    /// onto busy hosts, or an optimizer sample skipped relief).
    fn watchdog(&mut self, violated: bool, totals: &mut Totals) -> Result<()> {
        totals.violation_streak = if violated {
            totals.violation_streak + 1
        } else {
            0
        };
        if totals.violation_streak < WATCHDOG_STREAK {
            return Ok(());
        }
        totals.violation_streak = 0;
        if let Some(f) = self.core.faults.as_mut() {
            f.watchdog_reliefs += 1;
        }
        self.core.telemetry.incr("fault.watchdog_reliefs", 1);
        totals.relief_migrations += self.relieve(false)?;
        Ok(())
    }

    /// End-of-run roll-up: wake energy, the fault session's apply-path
    /// aggregates, arbitrator transition counts and final placements.
    fn roll_up(&self, mut totals: Totals, n_vms: usize, n_samples: usize) -> LargeScaleResult {
        let Core { dc, telemetry, .. } = &self.core;
        let wake_energy_wh = dc.wake_energy_wh();
        if self.cfg.count_wake_energy {
            totals.energy_wh += wake_energy_wh;
        }
        if let Some(f) = &self.core.faults {
            telemetry.incr("fault.migration_retries", f.migration_retries);
            telemetry.incr("fault.migrations_dropped", f.migrations_dropped);
            telemetry.incr("fault.plan_partials", f.plan_partials);
            telemetry.incr("fault.wake_failures", f.wake_failures);
            telemetry.incr("fault.stranded_vms", f.stranded_vms);
        }
        telemetry.incr("dcsim.dvfs_transitions", dc.dvfs_transitions());
        telemetry.incr("dcsim.wake_transitions", dc.wake_count());
        telemetry.incr("dcsim.sleep_transitions", dc.sleep_count());
        telemetry.gauge_set("dcsim.wake_energy_wh", wake_energy_wh);
        LargeScaleResult {
            n_vms,
            total_energy_wh: totals.energy_wh,
            energy_per_vm_wh: totals.energy_wh / n_vms as f64,
            migrations: self.optimizer.total_migrations() + totals.relief_migrations,
            mean_active_servers: totals.active_sum as f64 / n_samples as f64,
            peak_active_servers: totals.peak_active,
            optimizer_invocations: self.optimizer.invocations(),
            relief_migrations: totals.relief_migrations,
            sla_violation_fraction: if totals.demand_ghz > 0.0 {
                totals.unmet_ghz / totals.demand_ghz
            } else {
                0.0
            },
            wake_energy_wh,
            // Label-ordered (VmId-sorted) iteration.
            final_placements: dc
                .vm_handles()
                .filter_map(|(id, h)| dc.placement_of(h).map(|s| (id.0, s.index())))
                .collect(),
            site_energy_wh: totals.site_energy_wh,
            series: totals.series,
        }
    }
}

/// Fault counter family pre-registered at session creation, so every
/// faulted run exports the same key set regardless of which paths fire.
fn register_fault_keys(telemetry: &Telemetry) {
    for key in [
        "fault.crashes",
        "fault.recoveries",
        "fault.evacuated_vms",
        "fault.stranded_vms",
        "fault.watchdog_reliefs",
        "fault.migration_retries",
        "fault.migrations_dropped",
        "fault.plan_partials",
        "fault.wake_failures",
        "optimizer.plan_partial",
    ] {
        telemetry.incr(key, 0);
    }
}

/// Re-place the VMs evacuated from a crashed host: Minimum Slack onto the
/// active fleet first, spill onto the sleeping pool (waking hosts), and
/// count whatever fits nowhere as stranded. A stranded VM stays registered
/// but unplaced — removing it would recycle its arena slot under any
/// external owner bookkeeping keyed by slot — and runs no work for the
/// rest of the horizon.
fn evacuate_vms(
    dc: &mut DataCenter,
    evacuees: &[VmHandle],
    shards: usize,
    faults: &mut FaultSession<'_>,
    telemetry: &Telemetry,
) -> Result<()> {
    if evacuees.is_empty() {
        return Ok(());
    }
    let mut items = Vec::with_capacity(evacuees.len());
    let mut by_id = std::collections::BTreeMap::new();
    for &h in evacuees {
        let spec = dc.vm(h)?;
        let (id, mem) = (spec.id, spec.memory_mib);
        items.push(PackItem::new(id, dc.vm_demand(h)?, mem));
        by_id.insert(id.0, h);
    }
    let constraint = AndConstraint::cpu_and_memory();
    let minslack = MinSlackConfig {
        shards,
        ..MinSlackConfig::default()
    };
    let (mut active_view, mut sleeping_view): (Vec<PackServer>, Vec<PackServer>) =
        snapshot_sharded(dc, shards)
            .into_iter()
            .partition(|s| s.active);
    // Failed hosts land in the inactive partition advertising zero
    // capacity; drop them so the spill pass can't select one (a
    // zero-demand item would otherwise "fit").
    sleeping_view.retain(|s| s.cpu_capacity_ghz > 0.0);
    let first = pac_pack(&mut active_view, &items, &constraint, &minslack);
    for &(id, si) in &first.assignments {
        dc.place_vm(
            by_id[&id.0],
            ServerHandle::from_index(active_view[si].index),
        )?;
    }
    telemetry.incr("fault.evacuated_vms", first.assignments.len() as u64);
    if !first.unplaced.is_empty() {
        let spill_items: Vec<PackItem> = items
            .iter()
            .filter(|i| first.unplaced.contains(&i.vm))
            .cloned()
            .collect();
        let second = pac_pack(&mut sleeping_view, &spill_items, &constraint, &minslack);
        for &(id, si) in &second.assignments {
            // `place_vm` auto-wakes the sleeping target.
            dc.place_vm(
                by_id[&id.0],
                ServerHandle::from_index(sleeping_view[si].index),
            )?;
        }
        telemetry.incr("fault.evacuated_vms", second.assignments.len() as u64);
        faults.stranded_vms += second.unplaced.len() as u64;
    }
    Ok(())
}

/// Without DVFS, active servers run at their maximum frequency; idle ones
/// still sleep (both schemes consolidate).
fn pin_max_frequency(dc: &mut DataCenter) -> Result<()> {
    for i in 0..dc.n_servers() {
        let s = ServerHandle::from_index(i);
        if dc.server(s)?.is_active() {
            if dc.hosted_vms(s)?.is_empty() {
                dc.sleep_server(s)?;
            } else {
                dc.wake_server(s)?; // ensures Active at max frequency
            }
        }
    }
    Ok(())
}
