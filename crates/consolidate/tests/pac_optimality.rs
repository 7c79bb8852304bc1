//! PAC against the exhaustive optimum on tiny instances.
//!
//! Vector packing is NP-hard (§V cites \[10\]), which is why the paper packs
//! with heuristics. For a few VMs on a few servers, exhaustive search is
//! tractable and gives the ground truth. The objective is PAC's: the total
//! idle power of occupied servers (dynamic power is placement invariant;
//! placement decides which static floors are paid).

use vdc_consolidate::constraint::{AndConstraint, Constraint, CpuConstraint};
use vdc_consolidate::item::{PackItem, PackServer};
use vdc_consolidate::minslack::MinSlackConfig;
use vdc_consolidate::pac::pac_pack;
use vdc_dcsim::VmId;

fn server(index: usize, cpu: f64, idle: f64) -> PackServer {
    PackServer {
        index,
        cpu_capacity_ghz: cpu,
        mem_capacity_mib: 1e9,
        max_watts: idle / 0.6,
        idle_watts: idle,
        active: false,
        pue: 1.0,
        resident: Vec::new(),
    }
}

fn items(cpus: &[f64]) -> Vec<PackItem> {
    cpus.iter()
        .enumerate()
        .map(|(i, &c)| PackItem::new(VmId(i as u64), c, 100.0))
        .collect()
}

fn occupied_idle_watts(servers: &[PackServer]) -> f64 {
    servers
        .iter()
        .filter(|s| !s.resident.is_empty())
        .map(|s| s.idle_watts)
        .sum()
}

/// The minimum occupied idle watts over every feasible assignment of
/// `items` onto `servers`, or `None` if no complete assignment fits.
/// Branch and bound: the occupied idle power only grows as items land.
fn exact_idle_watts(
    servers: &[PackServer],
    items: &[PackItem],
    constraint: &dyn Constraint,
) -> Option<f64> {
    fn dfs(
        servers: &mut [PackServer],
        items: &[PackItem],
        c: &dyn Constraint,
        best: &mut Option<f64>,
    ) {
        let cost = occupied_idle_watts(servers);
        if best.is_some_and(|b| cost >= b) {
            return;
        }
        let Some((&item, rest)) = items.split_first() else {
            *best = Some(cost);
            return;
        };
        for s in 0..servers.len() {
            if c.admits(&servers[s], std::slice::from_ref(&item)) {
                servers[s].resident.push(item);
                dfs(servers, rest, c, best);
                servers[s].resident.pop();
            }
        }
    }
    let mut best = None;
    dfs(&mut servers.to_vec(), items, constraint, &mut best);
    best
}

#[test]
fn oracle_solves_hand_checked_instances() {
    let c = CpuConstraint::default();
    // Everything fits on the cheaper server.
    let servers = [server(0, 4.0, 100.0), server(1, 4.0, 50.0)];
    assert_eq!(
        exact_idle_watts(&servers, &items(&[1.0; 3]), &c),
        Some(50.0)
    );
    // Two 1.5 GHz VMs cannot share a 2 GHz server.
    let servers = [server(0, 2.0, 100.0), server(1, 2.0, 60.0)];
    assert_eq!(
        exact_idle_watts(&servers, &items(&[1.5, 1.5]), &c),
        Some(160.0)
    );
    assert_eq!(
        exact_idle_watts(&[server(0, 1.0, 100.0)], &items(&[2.0]), &c),
        None
    );
}

#[test]
fn pac_is_near_optimal_on_small_instances() {
    // Deterministic pseudo-random instances: 6 VMs on 4 servers.
    let mut state: u64 = 0xBEEF;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let constraint = AndConstraint::cpu_and_memory();
    let mut ratio_sum = 0.0;
    let mut judged = 0usize;
    for _ in 0..25 {
        let servers: Vec<PackServer> = (0..4)
            .map(|i| server(i, 2.0 + next() * 8.0, 40.0 + next() * 200.0))
            .collect();
        let q: Vec<PackItem> = (0..6)
            .map(|i| PackItem::new(VmId(i as u64), 0.2 + next() * 2.0, 100.0))
            .collect();
        let Some(best) = exact_idle_watts(&servers, &q, &constraint) else {
            continue; // infeasible instance
        };
        let mut pac_servers = servers.clone();
        let res = pac_pack(
            &mut pac_servers,
            &q,
            &constraint,
            &MinSlackConfig::default(),
        );
        if !res.is_complete() {
            continue;
        }
        let pac_idle = occupied_idle_watts(&pac_servers);
        // Per instance a greedy efficiency-ordered heuristic can lose to the
        // optimum, but never catastrophically.
        assert!(
            pac_idle <= best * 2.0 + 1e-9,
            "PAC idle {pac_idle} vs optimal {best}"
        );
        ratio_sum += pac_idle / best;
        judged += 1;
    }
    // In aggregate PAC must be close to optimal.
    assert!(judged >= 10, "too few feasible instances ({judged})");
    let mean_ratio = ratio_sum / judged as f64;
    assert!(
        mean_ratio <= 1.15,
        "PAC averages {mean_ratio:.3}x the optimal idle power"
    );
}
