//! Algorithm 1: Minimum Slack — pick the VM subset that leaves the least
//! unallocated CPU on one server.
//!
//! This is the paper's extension of the Minimum Bin Slack heuristic of
//! Fleszar & Hindi \[4\]: a depth-first branch-and-bound over subsets of the
//! unallocated list, where feasibility is an arbitrary [`Constraint`]
//! rather than a plain size check. Two pragmatic devices from Algorithm 1
//! are implemented faithfully:
//!
//! * **allowed slack `ε`** (line 4): the search stops as soon as a subset
//!   leaves less than `ε` of CPU unallocated — a perfect fill is not worth
//!   exponential time;
//! * **step budget** (lines 15–17): if the search exceeds its step budget,
//!   `ε` is increased by one step, making the early exit progressively
//!   easier until the search terminates.
//!
//! # Root-partitioned search
//!
//! The search space is partitioned by **root**: root `r` covers exactly the
//! subsets whose largest chosen item is the `r`-th in the largest-first
//! order. Each root is explored by an independent depth-first descent with
//! its own ε ladder and step budget, and the overall winner is picked by a
//! rule that looks only at per-root outcomes in index order:
//!
//! 1. the lowest-index root whose descent hit the ε early exit, if any
//!    (sequentially this means later roots are never explored at all);
//! 2. otherwise the root with the best fill (ties to the lowest index).
//!
//! Every root's descent is seeded with the **greedy first fill** (walk the
//! largest-first order once, take whatever is admitted) as its incumbent
//! best. The seed is a pure function of the inputs — identical on every
//! worker — and it is what makes the partitioned search affordable: a root
//! whose subtree cannot beat the greedy fill is cut by the suffix-sum
//! bound after a single constraint evaluation. If the greedy fill already
//! sits within ε the sweep never starts at all.
//!
//! Because roots share no *mutable* search state, the sweep can fan out over
//! [`MinSlackConfig::shards`] worker threads and still return bit-identical
//! results at every shard count: each root's outcome is a pure function of
//! the inputs, and the winner rule is a deterministic index-order fold.
//! Workers scan contiguous root ranges and stop at the first qualifying
//! root in their range; every root below the global winner is therefore
//! explored under any partitioning, which keeps the step/relaxation
//! accounting shard-invariant too.
//!
//! # Cost of a step
//!
//! A step is one O(1) [`Constraint::admits_load`] call. The residents are
//! summed once per call, and every descent (and the greedy fill) carries
//! the path's CPU and memory totals as running left-fold sums, so a step
//! adds one item instead of re-summing the residents and the whole stack.
//! `f64: Sum` folds left from `-0.0`, so those totals have exactly the bits
//! [`Load::of`] computes from scratch, and every comparison sees the
//! operands a re-summing search would. The search is generic over the
//! constraint, so the rule set ([`crate::constraint::AndConstraint`] of
//! CPU and memory by default) is monomorphized and inlined into the
//! descent. Descents walk a contiguous largest-first copy of the items,
//! and a sweep reuses one set of stack and best-subset buffers across its
//! roots.

use crate::constraint::{Constraint, Load};
use crate::item::{PackItem, PackServer};

/// Tuning knobs for the Minimum Slack search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinSlackConfig {
    /// Initial allowed slack ε (GHz).
    pub epsilon_ghz: f64,
    /// Increment applied to ε each time the step budget is exhausted
    /// (line 16 of Algorithm 1).
    pub epsilon_step_ghz: f64,
    /// Constraint evaluations allowed between ε relaxations for the whole
    /// search. The budget is divided evenly across the roots (with a small
    /// floor per root), so a sweep over many roots relaxes on the same
    /// overall schedule as a single undivided search would.
    pub step_budget: u64,
    /// Hard cap on relaxations per root branch; a root past this cap
    /// abandons its descent and reports the best subset it saw.
    pub max_relaxations: u32,
    /// Worker threads for the root sweep (`1` = inline). The result is
    /// bit-identical at every value; small inputs stay inline regardless.
    pub shards: usize,
}

impl Default for MinSlackConfig {
    fn default() -> Self {
        MinSlackConfig {
            epsilon_ghz: 0.05,
            epsilon_step_ghz: 0.1,
            step_budget: 20_000,
            max_relaxations: 16,
            shards: 1,
        }
    }
}

/// Below this many roots the sweep always runs inline: thread spawn costs
/// more than the whole search.
const FAN_OUT_MIN_ROOTS: usize = 64;

/// Every root keeps at least this many steps per ε rung, however many
/// roots share [`MinSlackConfig::step_budget`]: a descent needs a little
/// room to reach an improving leaf before the ladder moves.
const ROOT_BUDGET_FLOOR: u64 = 32;

/// Outcome of one Minimum Slack search.
#[derive(Debug, Clone, PartialEq)]
pub struct MinSlackResult {
    /// Indices into the *input* list `q` of the chosen VMs.
    pub chosen: Vec<usize>,
    /// Remaining unallocated CPU on the server with the chosen set (GHz).
    pub slack_ghz: f64,
    /// Constraint evaluations performed (roots up to the winner).
    pub steps: u64,
    /// Number of ε relaxations taken (roots up to the winner).
    pub relaxations: u32,
}

/// What one root's descent reported; the chosen subset itself stays in
/// the sweep's [`Scratch::best`] buffer.
#[derive(Debug, Clone, Copy, Default)]
struct RootOutcome {
    /// CPU of the best subset seen (GHz), summed along the descent path.
    chosen_cpu: f64,
    steps: u64,
    relaxations: u32,
    /// Whether the descent ended via the ε early exit.
    qualified: bool,
}

/// The index-order winner fold (see the module docs) over consecutive
/// roots, or over consecutive ranges' picks: the first qualifying one,
/// else the best fill with ties to the lowest index.
#[derive(Debug, Clone, Default)]
struct Pick {
    /// The winner's subset, as positions in the sorted order.
    chosen: Vec<usize>,
    /// The winner's fill and qualification, with the steps and
    /// relaxations of everything folded in so far.
    outcome: RootOutcome,
}

impl Pick {
    /// Fold in the next outcome in index order (`first` marks the first
    /// one). Returns whether it qualified: nothing later can then win.
    fn absorb(&mut self, first: bool, chosen: &[usize], o: &RootOutcome) -> bool {
        self.outcome.steps += o.steps;
        self.outcome.relaxations += o.relaxations;
        if first || o.qualified || o.chosen_cpu > self.outcome.chosen_cpu {
            self.chosen.clear();
            self.chosen.extend_from_slice(chosen);
            self.outcome.chosen_cpu = o.chosen_cpu;
            self.outcome.qualified = o.qualified;
        }
        o.qualified
    }
}

/// Buffers one sweep reuses across its roots.
#[derive(Default)]
struct Scratch {
    /// Candidate items on the current descent path.
    stack: Vec<PackItem>,
    /// Sorted-order positions of `stack`.
    path: Vec<usize>,
    /// Best subset seen by the current root (sorted-order positions).
    best: Vec<usize>,
}

/// One root's depth-first descent: subsets whose largest item is the
/// root, explored largest-first with suffix-sum pruning. Every step is one
/// O(1) constraint check on running totals.
struct RootSearch<'a, C: ?Sized> {
    ctx: &'a SweepCtx<'a, C>,
    buf: &'a mut Scratch,
    best_cpu: f64,
    steps: u64,
    /// Steps left before the next ε relaxation.
    until_relax: u64,
    epsilon: f64,
    relaxations: u32,
    done: bool,
    qualified: bool,
}

impl<C: Constraint + ?Sized> RootSearch<'_, C> {
    /// Descend from sorted position `pos` with the path's CPU and memory
    /// totals `cpu` and `mem` (candidates only, residents excluded).
    fn dfs(&mut self, pos: usize, cpu: f64, mem: f64) {
        if self.done {
            return;
        }
        let ctx = self.ctx;
        if cpu > self.best_cpu {
            self.best_cpu = cpu;
            self.buf.best.clone_from(&self.buf.path);
        }
        // Early exit: slack below ε (line 4/5 of Algorithm 1).
        if ctx.target - self.best_cpu <= self.epsilon {
            self.done = true;
            self.qualified = true;
            return;
        }
        // Bound: even taking every remaining item cannot beat the best.
        if pos < ctx.suffix_cpu.len() && cpu + ctx.suffix_cpu[pos] <= self.best_cpu {
            return;
        }
        for i in pos..ctx.items.len() {
            let item = ctx.items[i];
            let next_cpu = cpu + item.cpu_ghz;
            // Quick reject: obviously over CPU (cheap pre-filter before the
            // general constraint).
            if next_cpu > ctx.cpu_limit {
                continue;
            }
            let next_mem = mem + item.mem_mib;
            self.buf.stack.push(item);
            self.buf.path.push(i);
            self.steps += 1;
            self.until_relax -= 1;
            if self.until_relax == 0 {
                // Line 15–17: the search is taking too long — relax ε.
                self.until_relax = ctx.root_budget;
                self.relaxations += 1;
                if self.relaxations > ctx.cfg.max_relaxations {
                    self.done = true;
                } else {
                    self.epsilon += ctx.cfg.epsilon_step_ghz;
                }
            }
            if ctx.admits(&self.buf.stack, next_cpu, next_mem) {
                self.dfs(i + 1, next_cpu, next_mem);
            }
            self.buf.stack.pop();
            self.buf.path.pop();
            if self.done {
                return;
            }
        }
    }
}

/// Shared, read-only context of one `minimum_slack` call: what every root
/// descent (on any worker thread) needs.
struct SweepCtx<'a, C: ?Sized> {
    server: &'a PackServer,
    constraint: &'a C,
    /// The input items, largest-first (contiguous, so a descent walks
    /// memory in order).
    items: &'a [PackItem],
    /// Suffix sums of CPU over `items` for bound pruning.
    suffix_cpu: &'a [f64],
    /// The server's resident CPU and memory, summed once per call.
    resident_cpu: f64,
    resident_mem: f64,
    target: f64,
    /// `target + 1e-9`: the CPU quick-reject threshold.
    cpu_limit: f64,
    cfg: MinSlackConfig,
    /// Per-root share of the step budget (identical for every root).
    root_budget: u64,
    /// The greedy first fill (sorted-order positions) and its CPU: the
    /// incumbent every root descent starts from.
    seed: &'a [usize],
    seed_cpu: f64,
}

impl<C: Constraint + ?Sized> SweepCtx<'_, C> {
    /// One constraint evaluation: `stack` on the server, whose CPU and
    /// memory sum to `cpu` and `mem`.
    #[inline]
    fn admits(&self, stack: &[PackItem], cpu: f64, mem: f64) -> bool {
        let load = Load {
            candidates: stack,
            cpu_ghz: self.resident_cpu + cpu,
            mem_mib: self.resident_mem + mem,
        };
        self.constraint.admits_load(self.server, &load)
    }

    /// Explore one root subtree to completion (early exit, exhaustion, or
    /// relaxation cap), leaving its best subset in `buf.best`. Pure:
    /// depends only on the context and `root`.
    fn search_root(&self, root: usize, buf: &mut Scratch) -> RootOutcome {
        buf.best.clear();
        let empty = |steps: u64| RootOutcome {
            steps,
            ..RootOutcome::default()
        };
        let item = self.items[root];
        if item.cpu_ghz > self.cpu_limit {
            // Quick reject at the root: nothing in this subtree fits.
            return empty(0);
        }
        buf.stack.clear();
        buf.stack.push(item);
        if !self.admits(&buf.stack, item.cpu_ghz, item.mem_mib) {
            return empty(1);
        }
        buf.path.clear();
        buf.path.push(root);
        buf.best.extend_from_slice(self.seed);
        let mut st = RootSearch {
            ctx: self,
            buf,
            best_cpu: self.seed_cpu,
            steps: 1,
            until_relax: self.root_budget - 1,
            epsilon: self.cfg.epsilon_ghz.max(0.0),
            relaxations: 0,
            done: false,
            qualified: false,
        };
        st.dfs(root + 1, item.cpu_ghz, item.mem_mib);
        RootOutcome {
            chosen_cpu: st.best_cpu,
            steps: st.steps,
            relaxations: st.relaxations,
            qualified: st.qualified,
        }
    }

    /// Scan roots `lo..hi` in order and fold them into the range's pick,
    /// stopping after the first qualifying root (no later root in the
    /// range can win the index-order selection).
    fn sweep_range(&self, lo: usize, hi: usize) -> Pick {
        let mut buf = Scratch::default();
        let mut pick = Pick::default();
        for root in lo..hi {
            let o = self.search_root(root, &mut buf);
            if pick.absorb(root == lo, &buf.best, &o) {
                break;
            }
        }
        pick
    }
}

/// Run Algorithm 1: select from `q` the subset that best fills `server`
/// under `constraint`.
///
/// Items in `q` with zero CPU demand still participate (they may consume
/// other resources); an empty `q` or an already-full server returns an
/// empty selection. With [`MinSlackConfig::shards`] > 1 the root sweep
/// fans out over that many worker threads; the result is bit-identical at
/// every shard count.
///
/// # Examples
///
/// ```
/// use vdc_consolidate::{minimum_slack, CpuConstraint, MinSlackConfig, PackItem, PackServer};
/// use vdc_dcsim::VmId;
///
/// let server = PackServer {
///     index: 0, cpu_capacity_ghz: 4.0, mem_capacity_mib: 8192.0,
///     max_watts: 200.0, idle_watts: 120.0, active: true, pue: 1.0,
///     resident: vec![],
/// };
/// // Greedy-decreasing would take 3.0 then be stuck; {2.5, 1.5} is exact.
/// let q = vec![
///     PackItem::new(VmId(0), 3.0, 100.0),
///     PackItem::new(VmId(1), 2.5, 100.0),
///     PackItem::new(VmId(2), 1.5, 100.0),
/// ];
/// let res = minimum_slack(&server, &q, &CpuConstraint::default(),
///                         &MinSlackConfig { epsilon_ghz: 0.0, ..Default::default() });
/// assert!(res.slack_ghz.abs() < 1e-9);
/// ```
pub fn minimum_slack<C: Constraint + Sync + ?Sized>(
    server: &PackServer,
    q: &[PackItem],
    constraint: &C,
    cfg: &MinSlackConfig,
) -> MinSlackResult {
    let resident_cpu = server.resident_cpu();
    let target = server.cpu_capacity_ghz - resident_cpu;
    let epsilon0 = cfg.epsilon_ghz.max(0.0);
    if q.is_empty() || target <= epsilon0 {
        // Nothing to choose from, or the server is already within ε of
        // full: the empty selection wins immediately.
        return MinSlackResult {
            chosen: Vec::new(),
            slack_ghz: target,
            steps: 0,
            relaxations: 0,
        };
    }
    let resident_mem = server.resident_mem();
    let cpu_limit = target + 1e-9;

    // Largest-first ordering makes the greedy first descent strong and the
    // suffix bound tight (the MBS paper sorts decreasing as well). The
    // search walks a contiguous copy in that order; `sorted` maps its
    // positions back to indices into `q`.
    let mut sorted: Vec<usize> = (0..q.len()).collect();
    sorted.sort_by(|&a, &b| {
        q[b].cpu_ghz
            .partial_cmp(&q[a].cpu_ghz)
            .expect("finite demands")
            .then(a.cmp(&b))
    });
    let items: Vec<PackItem> = sorted.iter().map(|&i| q[i]).collect();
    let mut suffix_cpu = vec![0.0; items.len() + 1];
    for i in (0..items.len()).rev() {
        suffix_cpu[i] = suffix_cpu[i + 1] + items[i].cpu_ghz;
    }
    let to_q = |positions: &[usize]| positions.iter().map(|&p| sorted[p]).collect::<Vec<_>>();

    // The greedy fill below checks through the same context as the
    // descents; the seed it produces is filled in afterwards.
    let roots = items.len();
    let ctx = SweepCtx {
        server,
        constraint,
        items: &items,
        suffix_cpu: &suffix_cpu,
        resident_cpu,
        resident_mem,
        target,
        cpu_limit,
        cfg: *cfg,
        root_budget: (cfg.step_budget / roots as u64).max(ROOT_BUDGET_FLOOR),
        seed: &[],
        seed_cpu: 0.0,
    };

    // Greedy first fill: one largest-first pass taking whatever the
    // constraint admits. This is the incumbent seeded into every root
    // descent, and with ε > 0 it very often already qualifies. Its totals
    // start from `-0.0`, the identity `f64: Sum` folds from.
    let mut greedy: Vec<usize> = Vec::new();
    let mut greedy_stack: Vec<PackItem> = Vec::new();
    let (mut greedy_cpu, mut greedy_mem) = (-0.0, -0.0);
    let mut greedy_steps = 0u64;
    for (p, &item) in items.iter().enumerate() {
        let cpu = greedy_cpu + item.cpu_ghz;
        if cpu > cpu_limit {
            continue;
        }
        let mem = greedy_mem + item.mem_mib;
        greedy_stack.push(item);
        greedy_steps += 1;
        if ctx.admits(&greedy_stack, cpu, mem) {
            greedy.push(p);
            greedy_cpu = cpu;
            greedy_mem = mem;
        } else {
            greedy_stack.pop();
        }
    }
    // Three cheap exits, all pure functions of the inputs (so identical at
    // every shard count): the greedy fill already qualifies; the greedy
    // fill admitted the whole pool, so no subset can beat it; or even a
    // perfect pack of the whole pool stays outside the fully-relaxed ε, so
    // no ladder ever qualifies and the branch-and-bound would only burn
    // its budget rediscovering the greedy fill.
    let final_epsilon = epsilon0 + cfg.max_relaxations as f64 * cfg.epsilon_step_ghz.max(0.0);
    if target - greedy_cpu <= epsilon0
        || greedy.len() == roots
        || target - suffix_cpu[0] > final_epsilon
    {
        return MinSlackResult {
            chosen: to_q(&greedy),
            slack_ghz: target - greedy_cpu,
            steps: greedy_steps,
            relaxations: 0,
        };
    }
    let ctx = SweepCtx {
        seed: &greedy,
        seed_cpu: greedy_cpu,
        ..ctx
    };

    let fan = if roots >= FAN_OUT_MIN_ROOTS {
        cfg.shards.max(1).min(roots)
    } else {
        1
    };
    let ranges: Vec<Pick> = if fan <= 1 {
        vec![ctx.sweep_range(0, roots)]
    } else {
        // Contiguous root ranges, one per worker (same partitioning rule as
        // the replay's shard module): the first `roots % fan` ranges get one
        // extra root.
        let base = roots / fan;
        let rem = roots % fan;
        let mut bounds = Vec::with_capacity(fan);
        let mut start = 0;
        for k in 0..fan {
            let len = base + usize::from(k < rem);
            bounds.push((start, start + len));
            start += len;
        }
        let ctx_ref = &ctx;
        std::thread::scope(|scope| {
            let handles: Vec<_> = bounds
                .into_iter()
                .map(|(lo, hi)| scope.spawn(move || ctx_ref.sweep_range(lo, hi)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("minslack worker panicked"))
                .collect()
        })
    };

    // Index-order winner selection over the ranges' picks, the same fold
    // each range ran over its roots. Ranges arrive in root order, and a
    // range before the winning one can only have stopped early if it found
    // a qualifying (winning) root itself — so every root before the winner
    // is explored and counted.
    let mut pick = Pick::default();
    for (k, r) in ranges.iter().enumerate() {
        if pick.absorb(k == 0, &r.chosen, &r.outcome) {
            break;
        }
    }
    MinSlackResult {
        chosen: to_q(&pick.chosen),
        slack_ghz: target - pick.outcome.chosen_cpu,
        steps: greedy_steps + pick.outcome.steps,
        relaxations: pick.outcome.relaxations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{AndConstraint, CpuConstraint, FnConstraint};
    use vdc_dcsim::VmId;

    fn server(cpu: f64, mem: f64) -> PackServer {
        PackServer {
            index: 0,
            cpu_capacity_ghz: cpu,
            mem_capacity_mib: mem,
            max_watts: 200.0,
            idle_watts: 120.0,
            active: true,
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

    fn chosen_cpu(q: &[PackItem], r: &MinSlackResult) -> f64 {
        r.chosen.iter().map(|&i| q[i].cpu_ghz).sum()
    }

    #[test]
    fn empty_list_and_full_server() {
        let s = server(4.0, 8192.0);
        let c = CpuConstraint::default();
        let r = minimum_slack(&s, &[], &c, &MinSlackConfig::default());
        assert!(r.chosen.is_empty());
        assert_eq!(r.slack_ghz, 4.0);

        let mut full = server(4.0, 8192.0);
        full.resident = items(&[4.0]);
        let q = items(&[1.0]);
        let r = minimum_slack(&full, &q, &c, &MinSlackConfig::default());
        assert!(r.chosen.is_empty());
        assert!(r.slack_ghz.abs() < 1e-9);
    }

    #[test]
    fn perfect_fill_found() {
        // Capacity 4.0; items 2.5, 1.5, 1.0, 3.0 — best = {2.5, 1.5} or {3.0, 1.0}.
        let s = server(4.0, 8192.0);
        let q = items(&[2.5, 1.5, 1.0, 3.0]);
        let c = CpuConstraint::default();
        let r = minimum_slack(&s, &q, &c, &MinSlackConfig::default());
        assert!(r.slack_ghz.abs() < 1e-9, "slack {}", r.slack_ghz);
        assert!((chosen_cpu(&q, &r) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn beats_greedy_first_fit() {
        // Capacity 10; decreasing greedy takes 6 then 3 (slack 1), but
        // {6, 4} is exact.
        let s = server(10.0, 8192.0);
        let q = items(&[6.0, 3.0, 4.0]);
        let c = CpuConstraint::default();
        let r = minimum_slack(
            &s,
            &q,
            &c,
            &MinSlackConfig {
                epsilon_ghz: 0.0,
                ..Default::default()
            },
        );
        assert!(r.slack_ghz.abs() < 1e-9);
        let mut ids: Vec<u64> = r.chosen.iter().map(|&i| q[i].vm.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 2]);
    }

    #[test]
    fn respects_residents() {
        let mut s = server(4.0, 8192.0);
        s.resident = items(&[2.0]);
        let q = vec![
            PackItem::new(VmId(10), 1.5, 100.0),
            PackItem::new(VmId(11), 2.5, 100.0),
        ];
        let c = CpuConstraint::default();
        let r = minimum_slack(&s, &q, &c, &MinSlackConfig::default());
        // Only 2.0 GHz of headroom: 1.5 fits, 2.5 does not.
        assert_eq!(r.chosen, vec![0]);
        assert!((r.slack_ghz - 0.5).abs() < 1e-9);
    }

    #[test]
    fn search_work_is_pinned() {
        // 24 awkward items on a memory-tight server with a resident. The
        // expected selections, slack bits, steps and relaxations are those
        // the search produced when every step re-summed the residents and
        // the candidate stack; the ε ladder and step accounting must keep
        // them exactly.
        let mut s = server(10.0, 9000.0);
        s.resident = vec![PackItem::new(VmId(99), 0.3, 700.0)];
        let q: Vec<PackItem> = (0..24u64)
            .map(|i| {
                let (a, b) = ((i * 5 % 7) as f64, (i * 3 % 11) as f64);
                PackItem::new(VmId(i), 0.7 + 0.013 * a, 400.0 + 37.0 * b)
            })
            .collect();
        let c = AndConstraint::cpu_and_memory();
        let long = [18, 1, 8, 15, 22, 5, 12, 19, 2, 9, 6, 0, 7];
        type Case<'a> = (u64, u32, f64, &'a [usize], u64, u64, u32);
        let cases: [Case; 4] = [
            (50, 8, 0.0, &long, 0x3f60624dd2f1c000, 629, 19),
            (1, 3, 0.0, &long, 0x3f60624dd2f1c000, 309, 9),
            (
                20_000,
                16,
                0.0,
                &[4, 11, 18, 1, 8, 15, 22, 5, 12, 0, 7, 14, 21],
                0x3f60624dd2f1c000,
                845,
                1,
            ),
            (
                64,
                16,
                0.02,
                &[4, 11, 18, 1, 8, 15, 22, 5, 12, 19, 2, 9],
                0x3fe24dd2f1a9fbf0,
                396,
                12,
            ),
        ];
        for (step_budget, max_relaxations, epsilon_ghz, chosen, slack_bits, steps, relaxations) in
            cases
        {
            let cfg = MinSlackConfig {
                epsilon_ghz,
                epsilon_step_ghz: 0.05,
                step_budget,
                max_relaxations,
                shards: 1,
            };
            let r = minimum_slack(&s, &q, &c, &cfg);
            assert_eq!(r.chosen, chosen, "{cfg:?}");
            assert_eq!(r.slack_ghz.to_bits(), slack_bits, "{cfg:?}");
            assert_eq!((r.steps, r.relaxations), (steps, relaxations), "{cfg:?}");
        }
    }

    #[test]
    fn epsilon_early_exit_reduces_steps() {
        // Many combinable items: with a large ε the search stops almost
        // immediately; with ε = 0 it keeps optimizing.
        let s = server(10.0, 1e9);
        let q = items(&[3.3, 3.3, 3.3, 1.1, 1.1, 1.1, 2.2, 2.2, 0.9, 0.8]);
        let c = CpuConstraint::default();
        let tight = minimum_slack(
            &s,
            &q,
            &c,
            &MinSlackConfig {
                epsilon_ghz: 0.0,
                ..Default::default()
            },
        );
        let loose = minimum_slack(
            &s,
            &q,
            &c,
            &MinSlackConfig {
                epsilon_ghz: 1.0,
                ..Default::default()
            },
        );
        assert!(loose.steps <= tight.steps);
        assert!(loose.slack_ghz <= 1.0 + 1e-9);
        assert!(tight.slack_ghz <= loose.slack_ghz + 1e-9);
    }

    #[test]
    fn step_budget_relaxes_epsilon_and_terminates() {
        // 24 equal awkward items force a big search space; a tiny budget
        // must still terminate via relaxations.
        let s = server(10.0, 1e9);
        let q = items(&[0.7; 24]);
        let c = CpuConstraint::default();
        let r = minimum_slack(
            &s,
            &q,
            &c,
            &MinSlackConfig {
                epsilon_ghz: 0.0,
                epsilon_step_ghz: 0.05,
                step_budget: 50,
                max_relaxations: 8,
                shards: 1,
            },
        );
        assert!(r.relaxations >= 1);
        // 14 items of 0.7 = 9.8 is the best possible; the relaxed search
        // must still produce something decent.
        assert!(r.slack_ghz < 10.0);
        assert!(!r.chosen.is_empty());
    }

    #[test]
    fn general_constraint_limits_count() {
        // Administrator constraint: at most 2 VMs per server.
        let s = server(10.0, 1e9);
        let q = items(&[1.0, 1.0, 1.0, 1.0]);
        let c = AndConstraint(
            CpuConstraint::default(),
            FnConstraint(|s: &PackServer, cand: &[PackItem]| s.resident.len() + cand.len() <= 2),
        );
        let r = minimum_slack(&s, &q, &c, &MinSlackConfig::default());
        assert_eq!(r.chosen.len(), 2);
    }

    #[test]
    fn zero_cpu_items_admitted() {
        let s = server(4.0, 8192.0);
        let q = vec![
            PackItem::new(VmId(0), 0.0, 10.0),
            PackItem::new(VmId(1), 4.0, 10.0),
        ];
        let c = CpuConstraint::default();
        let r = minimum_slack(&s, &q, &c, &MinSlackConfig::default());
        // The 4.0 item gives slack 0 and triggers early exit; the zero-CPU
        // item contributes nothing to slack so either way slack == 0.
        assert!(r.slack_ghz.abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_equal_inputs() {
        let s = server(7.0, 1e9);
        let q = items(&[2.0, 2.0, 3.0, 3.0, 1.0]);
        let c = CpuConstraint::default();
        let a = minimum_slack(&s, &q, &c, &MinSlackConfig::default());
        let b = minimum_slack(&s, &q, &c, &MinSlackConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn shard_count_does_not_change_the_selection() {
        // Enough items to clear the fan-out threshold, awkward sizes so
        // several roots get explored before one qualifies.
        let s = server(12.0, 1e9);
        let mut cpus = Vec::new();
        for i in 0..96 {
            cpus.push(0.37 + 0.11 * ((i * 7 % 13) as f64));
        }
        let q = items(&cpus);
        let c = AndConstraint::cpu_and_memory();
        let base = minimum_slack(
            &s,
            &q,
            &c,
            &MinSlackConfig {
                epsilon_ghz: 0.0,
                ..Default::default()
            },
        );
        for shards in [2usize, 3, 8, 33] {
            let r = minimum_slack(
                &s,
                &q,
                &c,
                &MinSlackConfig {
                    epsilon_ghz: 0.0,
                    shards,
                    ..Default::default()
                },
            );
            assert_eq!(r.chosen, base.chosen, "shards={shards}");
            assert_eq!(r.slack_ghz.to_bits(), base.slack_ghz.to_bits());
            assert_eq!(r.steps, base.steps);
            assert_eq!(r.relaxations, base.relaxations);
        }
    }
}
