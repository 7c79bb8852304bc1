//! Ablation ABL1 (DESIGN.md): separate the paper's two claimed saving
//! sources by running IPAC with DVFS, IPAC without DVFS, and pMapper on
//! the same trace.
//!
//! §VII-B attributes IPAC's win over pMapper to (1) Minimum Slack packing
//! better than FFD and (2) DVFS harvesting short-term demand dips between
//! optimizer invocations. This binary quantifies each contribution.
//!
//! ```text
//! cargo run -p vdc-bench --bin ablation_dvfs --release [--vms 1030] [--quick]
//! ```

use vdc_bench::{arg_num, arg_present, figure_header, rule, week_or_day_trace};
use vdc_core::experiments::ablation_dvfs;
use vdc_trace::generate_trace;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed = arg_num(&args, "--seed", 5415u64);
    let quick = arg_present(&args, "--quick");
    let n_vms = arg_num(&args, "--vms", if quick { 200 } else { 1030 });

    let trace_cfg = week_or_day_trace(n_vms, seed, quick);
    figure_header(
        "Ablation ABL1",
        "energy per VM: IPAC vs IPAC-without-DVFS vs pMapper",
    );
    let trace = generate_trace(&trace_cfg);
    let a = ablation_dvfs(&trace, n_vms).expect("ablation failed");

    rule(64);
    println!(
        "{:<18} {:>14} {:>14} {:>12}",
        "scheme", "Wh/VM", "migrations", "mean active"
    );
    rule(64);
    for (name, r) in [
        ("IPAC + DVFS", &a.ipac),
        ("IPAC (no DVFS)", &a.ipac_no_dvfs),
        ("pMapper", &a.pmapper),
    ] {
        println!(
            "{:<18} {:>14.1} {:>14} {:>12.1}",
            name, r.energy_per_vm_wh, r.migrations, r.mean_active_servers
        );
    }
    rule(64);
    let packing_gain = 1.0 - a.ipac_no_dvfs.energy_per_vm_wh / a.pmapper.energy_per_vm_wh;
    let dvfs_gain = 1.0 - a.ipac.energy_per_vm_wh / a.ipac_no_dvfs.energy_per_vm_wh;
    println!(
        "packing (MinSlack vs FFD) contributes {:.1} %; DVFS adds another {:.1} %",
        100.0 * packing_gain,
        100.0 * dvfs_gain
    );
}
