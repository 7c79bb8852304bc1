//! Shared helpers for the figure-regeneration binaries.
//!
//! Each `fig*` binary (see `src/bin/`) reproduces one figure of the paper's
//! evaluation section and prints the corresponding rows/series; this crate
//! holds the formatting and argument plumbing they share. The benches under
//! `benches/` measure the algorithmic costs (MPC solve time, Minimum Slack
//! vs FFD, PAC/IPAC/pMapper scaling) with the std-only [`harness`].

pub mod harness;

/// Print a horizontal rule sized to a table width.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Print a standard figure header with reproduction context.
pub fn figure_header(figure: &str, description: &str) {
    rule(78);
    println!("{figure}: {description}");
    println!(
        "(reproduction of Wang & Wang, ICPP 2010 — simulated substrate; compare shapes,\n \
         not absolute values; see EXPERIMENTS.md)"
    );
    rule(78);
}

/// Parse `--flag value`-style overrides from argv, returning the value.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Parse a numeric flag with a default.
pub fn arg_num<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    arg_value(args, flag)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// `true` when `--flag` is present.
pub fn arg_present(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// A counter's exported value (0 when it was never registered).
pub fn counter(telemetry: &vdc_telemetry::Telemetry, name: &str) -> u64 {
    telemetry
        .counter_values()
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

/// The paper-scale week trace over `n_vms` rows, or one day of it under
/// `--quick`.
pub fn week_or_day_trace(n_vms: usize, seed: u64, quick: bool) -> vdc_trace::TraceConfig {
    let week = vdc_trace::TraceConfig::paper_scale(seed);
    vdc_trace::TraceConfig {
        n_vms,
        n_samples: if quick { 96 } else { week.n_samples },
        ..week
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arg_parsing() {
        let a = args(&["--seed", "42", "--full"]);
        assert_eq!(arg_value(&a, "--seed").as_deref(), Some("42"));
        assert_eq!(arg_num(&a, "--seed", 7u64), 42);
        assert_eq!(arg_num(&a, "--missing", 7u64), 7);
        assert!(arg_present(&a, "--full"));
        assert!(!arg_present(&a, "--quick"));
        // Flag at the end without a value.
        let b = args(&["--seed"]);
        assert_eq!(arg_value(&b, "--seed"), None);
        // Unparseable value falls back to the default.
        let c = args(&["--seed", "zebra"]);
        assert_eq!(arg_num(&c, "--seed", 7u64), 7);
    }
}
