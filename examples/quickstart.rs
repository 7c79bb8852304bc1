//! Quickstart: identify a response-time model for a simulated two-tier
//! application, build the MPC controller, and watch it drive the
//! 90-percentile response time to an SLA set point while a server-level
//! arbitrator throttles the CPU with DVFS.
//!
//! ```text
//! cargo run --example quickstart --release
//! ```

use vdcpower::apptier::{AppSim, WorkloadProfile};
use vdcpower::control::analysis::analyze_closed_loop;
use vdcpower::control::MpcConfig;
use vdcpower::core::controller::{identify_plant, IdentificationConfig};
use vdcpower::core::ControllerSpec;
use vdcpower::dcsim::{CpuArbitrator, ServerSpec};

fn main() {
    // 1. A two-tier RUBBoS-like application: a web tier in front of a
    //    database tier, driven by 40 closed-loop clients (`ab -c 40`).
    let profile = WorkloadProfile::rubbos();
    let concurrency = 40;

    // 2. System identification (§IV-B of the paper): excite a twin of the
    //    plant with PRBS allocation signals and fit the ARX model of
    //    eq. (1) by least squares.
    println!("identifying the response-time model at concurrency {concurrency}...");
    let mut twin = AppSim::new(profile.clone(), concurrency, &[1.0, 1.0], 7).unwrap();
    let model = identify_plant(&mut twin, &IdentificationConfig::default(), 42).unwrap();
    println!(
        "  t(k) = {:.3}·t(k-1) {:+.1}·c1(k) {:+.1}·c2(k) {:+.1}·c1(k-1) {:+.1}·c2(k-1) {:+.1}",
        model.a()[0],
        model.b()[0][0],
        model.b()[0][1],
        model.b()[1][0],
        model.b()[1][1],
        model.bias()
    );
    for ch in 0..2 {
        println!(
            "  steady-state gain of tier {}: {:.1} ms per GHz",
            ch + 1,
            model.dc_gain(ch).unwrap()
        );
    }

    // 2b. Closed-loop analysis: linearize the receding-horizon law around
    //     its equilibrium and check the spectral radius (< 1 = the nominal
    //     loop is locally asymptotically stable).
    let analysis_cfg = MpcConfig::paper(2, 1000.0, 4.0).unwrap();
    match analyze_closed_loop(&model, &analysis_cfg) {
        Ok(a) => println!(
            "  closed-loop tracking-mode decay {:.3}, {} structural marginal mode(s) \
             (allocation-split null space)",
            a.decay_radius(),
            a.marginal_modes(),
        ),
        Err(e) => println!("  closed-loop analysis unavailable: {e}"),
    }

    // 3. Build the paper's MPC response-time controller (swap `Mpc` for
    //    `Robust` or `cooling()` to ablate the law) with a 1000 ms set
    //    point, and run it against a fresh plant instance.
    let setpoint_ms = 1000.0;
    let period_s = 4.0;
    let mut controller = ControllerSpec::Mpc
        .build(&model, setpoint_ms, period_s, &[1.0, 1.0])
        .unwrap();
    let mut plant = AppSim::new(profile, concurrency, &[1.0, 1.0], 99).unwrap();

    // The server hosting the web tier: a quad-core 3 GHz box whose CPU
    // resource arbitrator picks the lowest sufficient DVFS level.
    let server = ServerSpec::type_quad_3ghz();
    let arbitrator = CpuArbitrator::default();

    println!("\ncontrolling to a {setpoint_ms} ms 90-percentile set point:");
    println!(
        "{:>8} {:>12} {:>16} {:>14}",
        "t (s)", "p90 (ms)", "alloc (GHz)", "DVFS (GHz)"
    );
    for k in 0..60 {
        let measured = controller.control_period(&mut plant).unwrap();
        let alloc = controller.allocation().to_vec();
        // Suppose all tier VMs of this app land on the same server: the
        // arbitrator aggregates their demands and throttles.
        let freq = arbitrator.choose_frequency(&server, alloc.iter().sum());
        if k % 5 == 0 {
            match measured {
                Some(t) => println!(
                    "{:>8.0} {:>12.0} {:>16} {:>14.1}",
                    (k + 1) as f64 * period_s,
                    t,
                    format!("[{:.2}, {:.2}]", alloc[0], alloc[1]),
                    freq
                ),
                None => println!("{:>8.0} {:>12}", (k + 1) as f64 * period_s, "-"),
            }
        }
    }
    let final_t = controller.last_measurement_ms().unwrap_or(0.0);
    println!(
        "\nfinal p90 = {final_t:.0} ms (set point {setpoint_ms} ms); total demand {:.2} GHz",
        controller.total_demand_ghz()
    );
}
