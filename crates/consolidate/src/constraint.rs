//! Generalized packing constraints.
//!
//! Algorithm 1 extends the MBS heuristic "by evaluating a more general
//! constraint in each step, instead of checking if the total size of the
//! items exceeds the size of the bin" — administrators can add their own
//! feasibility rules (the paper's §VII-B example is a memory-size
//! restriction). A [`Constraint`] decides whether a server can host a
//! candidate item set on top of its residents.
//!
//! Each step of the Minimum Slack search is one [`Constraint::admits_load`]
//! call on a precomputed [`Load`]: the search carries the server's CPU and
//! memory totals down its descent as running sums, so the built-in rules
//! compare two numbers instead of re-summing the residents and the whole
//! candidate stack. Rules compose statically ([`AndConstraint`] is a generic
//! pair), so the search monomorphizes and inlines the whole rule set.
//! [`Constraint::admits`] builds the [`Load`] from scratch for callers that
//! test one placement at a time.

use crate::item::{PackItem, PackServer};

/// A server's totals once `candidates` are placed on it, on top of its
/// residents.
#[derive(Debug, Clone, Copy)]
pub struct Load<'a> {
    /// The candidate items being placed.
    pub candidates: &'a [PackItem],
    /// Resident plus candidate CPU demand (GHz).
    pub cpu_ghz: f64,
    /// Resident plus candidate memory (MiB).
    pub mem_mib: f64,
}

impl<'a> Load<'a> {
    /// The load of `candidates` on `server`, summed from scratch:
    /// `server.resident_cpu() + Σ cpu`, and the same for memory.
    ///
    /// `f64: Sum` folds left from `-0.0`, so a running left-fold sum along
    /// a growing candidate stack yields these exact bits.
    pub fn of(server: &PackServer, candidates: &'a [PackItem]) -> Load<'a> {
        let cpu: f64 = candidates.iter().map(|i| i.cpu_ghz).sum();
        let mem: f64 = candidates.iter().map(|i| i.mem_mib).sum();
        Load {
            candidates,
            cpu_ghz: server.resident_cpu() + cpu,
            mem_mib: server.resident_mem() + mem,
        }
    }
}

/// A feasibility rule for placing candidates on `server` (in addition to
/// the server's residents).
pub trait Constraint {
    /// `true` iff the placement described by `load` is admissible.
    fn admits_load(&self, server: &PackServer, load: &Load<'_>) -> bool;

    /// `true` iff placing `candidates` on `server` is admissible.
    fn admits(&self, server: &PackServer, candidates: &[PackItem]) -> bool {
        self.admits_load(server, &Load::of(server, candidates))
    }
}

/// CPU capacity constraint with an optional utilization cap.
///
/// `utilization_cap = 1.0` allows filling the server completely; `0.9`
/// keeps 10 % of capacity free for transient growth.
#[derive(Debug, Clone, Copy)]
pub struct CpuConstraint {
    /// Fraction of total capacity that may be allocated, in `(0, 1]`.
    pub utilization_cap: f64,
}

impl Default for CpuConstraint {
    fn default() -> Self {
        CpuConstraint {
            utilization_cap: 1.0,
        }
    }
}

impl Constraint for CpuConstraint {
    #[inline]
    fn admits_load(&self, server: &PackServer, load: &Load<'_>) -> bool {
        load.cpu_ghz <= server.cpu_capacity_ghz * self.utilization_cap.clamp(0.0, 1.0) + 1e-9
    }
}

/// Memory capacity constraint (the §VII-B administrator example: "the
/// memory size of every server should be greater than the total memory
/// allocations of the hosted VMs").
#[derive(Debug, Clone, Copy, Default)]
pub struct MemoryConstraint;

impl Constraint for MemoryConstraint {
    #[inline]
    fn admits_load(&self, server: &PackServer, load: &Load<'_>) -> bool {
        load.mem_mib <= server.mem_capacity_mib + 1e-9
    }
}

/// Conjunction of two constraints; nest it for more
/// (`AndConstraint(a, AndConstraint(b, c))`).
#[derive(Debug, Clone, Copy, Default)]
pub struct AndConstraint<A, B>(pub A, pub B);

impl AndConstraint<CpuConstraint, MemoryConstraint> {
    /// The standard rule set: CPU (full utilization) + memory.
    pub fn cpu_and_memory() -> Self {
        AndConstraint(CpuConstraint::default(), MemoryConstraint)
    }
}

impl<A: Constraint, B: Constraint> Constraint for AndConstraint<A, B> {
    #[inline]
    fn admits_load(&self, server: &PackServer, load: &Load<'_>) -> bool {
        self.0.admits_load(server, load) && self.1.admits_load(server, load)
    }
}

/// Closure adapter so administrators can write ad-hoc rules over the
/// candidate slice.
pub struct FnConstraint<F>(pub F);

impl<F> Constraint for FnConstraint<F>
where
    F: Fn(&PackServer, &[PackItem]) -> bool,
{
    fn admits_load(&self, server: &PackServer, load: &Load<'_>) -> bool {
        (self.0)(server, load.candidates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdc_dcsim::VmId;

    fn server() -> PackServer {
        PackServer {
            index: 0,
            cpu_capacity_ghz: 4.0,
            mem_capacity_mib: 4096.0,
            max_watts: 200.0,
            idle_watts: 120.0,
            active: true,
            pue: 1.0,
            resident: vec![PackItem::new(VmId(1), 1.0, 1024.0)],
        }
    }

    fn item(cpu: f64, mem: f64) -> PackItem {
        PackItem::new(VmId(99), cpu, mem)
    }

    #[test]
    fn cpu_constraint_respects_residents() {
        let c = CpuConstraint::default();
        assert!(c.admits(&server(), &[item(3.0, 0.0)]));
        assert!(!c.admits(&server(), &[item(3.1, 0.0)]));
        assert!(c.admits(&server(), &[]));
    }

    #[test]
    fn cpu_utilization_cap() {
        let c = CpuConstraint {
            utilization_cap: 0.5,
        };
        // Cap = 2.0 GHz total; resident already uses 1.0.
        assert!(c.admits(&server(), &[item(1.0, 0.0)]));
        assert!(!c.admits(&server(), &[item(1.1, 0.0)]));
    }

    #[test]
    fn memory_constraint() {
        let c = MemoryConstraint;
        assert!(c.admits(&server(), &[item(0.0, 3072.0)]));
        assert!(!c.admits(&server(), &[item(0.0, 3073.0)]));
    }

    #[test]
    fn and_constraint_needs_all() {
        let c = AndConstraint::cpu_and_memory();
        assert!(c.admits(&server(), &[item(3.0, 3072.0)]));
        assert!(!c.admits(&server(), &[item(3.1, 100.0)])); // CPU fails
        assert!(!c.admits(&server(), &[item(0.1, 4000.0)])); // memory fails
    }

    #[test]
    fn fn_constraint_custom_rule() {
        // Administrator rule: at most 2 candidate VMs per placement.
        let c = FnConstraint(|_: &PackServer, cands: &[PackItem]| cands.len() <= 2);
        assert!(c.admits(&server(), &[item(0.1, 0.1), item(0.1, 0.1)]));
        assert!(!c.admits(&server(), &[item(0.1, 0.1), item(0.1, 0.1), item(0.1, 0.1)]));
    }

    #[test]
    fn load_of_adds_residents_to_candidates() {
        let cands = [item(1.5, 100.0), item(0.5, 28.0)];
        let load = Load::of(&server(), &cands);
        assert_eq!(load.cpu_ghz, 3.0);
        assert_eq!(load.mem_mib, 1152.0);
        assert_eq!(load.candidates.len(), 2);
        // Nothing resident, nothing placed: `Sum`'s -0.0 identity.
        let bare = PackServer {
            resident: Vec::new(),
            ..server()
        };
        assert!(Load::of(&bare, &[]).cpu_ghz.is_sign_negative());
    }

    #[test]
    fn multiple_candidates_summed() {
        let c = CpuConstraint::default();
        let ok = [item(1.5, 0.0), item(1.5, 0.0)];
        assert!(c.admits(&server(), &ok));
        let over = [item(1.6, 0.0), item(1.5, 0.0)];
        assert!(!c.admits(&server(), &over));
    }
}
