//! Benchmark of the vdcpower simulator: end-to-end host-time and
//! simulated-outcome metrics per workload, and a traced run that splits
//! each run into per-layer numbers.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fleet_bulk|week_churn|cosim_mpc|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every metric is printed as `name = value unit`; the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are the end-to-end
//! ones, with `--trace 1` the per-layer ones. A record with the host
//! fingerprint, the metrics and the benchmark's spans is written to
//! `.bench_out/` at exit. See `perfbench/README.md` for the workloads and
//! the meaning of each metric.

mod host;
mod layers;
mod metrics;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use vdc_apptier::rng::seed_stream;
use vdc_dcsim::json::{array, escape, JsonObject};
use vdc_telemetry::Telemetry;

use host::Fingerprint;
use layers::{apptier_probe, per_layer, profile, TracedRound};
use metrics::{median, Snapshot, END_TO_END, PER_LAYER};
use workloads::{run, setup, Identity, Outcome, SetupTimes, Workload, SHARDS, SPEEDUP_SHARDS};

/// Input sets generated from one seed; averaging over them keeps the
/// simulated outcomes steady from seed to seed.
const INPUT_SETS: usize = 4;
/// Time spent repeating set-up alone after each timed run, as a share of
/// that run's wall time.
const SETUP_SHARE: f64 = 0.1;
/// Share of `--seconds` (at most one second) spent in the apptier probe.
const PROBE_SHARE: f64 = 0.05;
/// Directory (relative to the working directory) for the records.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workloads = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workloads = Some(if value == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?]
                })
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One span recorded by the benchmark around a call into the program.
struct Span {
    name: String,
    parent: Option<usize>,
    start_s: f64,
    end_s: f64,
}

/// Spans kept in memory and written with the record at exit.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start_s: now,
            end_s: now,
        });
        self.spans.len() - 1
    }

    /// Close a span and return its duration in seconds.
    fn close(&mut self, id: usize) -> f64 {
        let span = &mut self.spans[id];
        span.end_s = self.origin.elapsed().as_secs_f64();
        span.end_s - span.start_s
    }

    /// Run `f` inside a span; returns its output and duration.
    fn span<T>(&mut self, name: &str, parent: Option<usize>, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name, parent);
        let out = f();
        (out, self.close(id))
    }

    fn to_json(&self, trace_id: &str) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut o = JsonObject::new()
                    .str("trace_id", trace_id)
                    .int("id", id as i64)
                    .str("name", &s.name);
                if let Some(p) = s.parent {
                    o = o.int("parent", p as i64);
                }
                o.num("start_s", s.start_s).num("end_s", s.end_s).build()
            })
            .collect();
        array(&spans)
    }
}

/// Inputs plus set-up times, generated inside spans.
fn traced_setup(
    tr: &mut Tracer,
    w: Workload,
    seed: u64,
    parent: usize,
) -> (workloads::Inputs, SetupTimes) {
    let ((inputs, times), _) = tr.span("setup", Some(parent), || setup(w, seed));
    (inputs, times)
}

/// Outcomes of the checked runs of one invocation.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Simulated outputs of the first run of each input set.
    first: BTreeMap<usize, Identity>,
    problems: Vec<String>,
}

impl Tally {
    /// Count one run of input set `set`; a run fails when it errors,
    /// fails an output check, or its simulated outputs differ from the
    /// first run of the same input set.
    fn record(&mut self, label: &str, set: usize, result: &Result<Outcome, String>) {
        self.attempted += 1;
        let problem = match result {
            Err(e) => Some(format!("{label}: run failed: {e}")),
            Ok(o) if !o.failures.is_empty() => Some(format!("{label}: {}", o.failures.join("; "))),
            Ok(o) => match self.first.get(&set) {
                None => {
                    self.first.insert(set, o.identity);
                    None
                }
                Some(id) if *id != o.identity => Some(format!(
                    "{label}: simulated outputs of input set {set} differ from its first run \
                     ({:?} vs {id:?})",
                    o.identity
                )),
                Some(_) => None,
            },
        };
        if let Some(p) = problem {
            self.failed += 1;
            eprintln!("perfbench: {p}");
            self.problems.push(p);
        }
    }
}

/// A workload's metrics, in print order, with units.
struct Report {
    workload: Workload,
    metrics: Vec<(&'static str, f64, &'static str)>,
    tally: Tally,
    profile: Option<metrics::Profile>,
}

/// Seed of input set `set` of an invocation seeded with `seed`.
fn set_seed(seed: u64, set: usize) -> u64 {
    seed_stream(seed, set as u64)
}

/// End-to-end measurement with the program's telemetry off.
///
/// An invocation generates [`INPUT_SETS`] input sets from its seed and
/// runs them in turn, one whole cycle and then as many more runs as fit in
/// `seconds`, warm-up included: host times are medians over every timed
/// run, simulated outcomes are means over the input sets.
fn measure(tr: &mut Tracer, w: Workload, seed: u64, seconds: f64) -> Report {
    let root = tr.open(w.name(), None);
    let mut tally = Tally::default();
    // One untimed run warms caches and the allocator. Its set-up + run,
    // from a fresh peak, gives the workload's peak resident set: later
    // runs start from whatever heap the allocator kept, which makes their
    // peaks depend on allocation history rather than on the workload.
    let start = Instant::now();
    let rss_reset = host::reset_peak_rss();
    let (inputs, _) = traced_setup(tr, w, set_seed(seed, 0), root);
    let (result, _) = tr.span("run.warmup", Some(root), || run(inputs, SHARDS, None));
    let peak = host::peak_rss_mib();
    tally.record("warm-up run", 0, &result);
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut outcomes: BTreeMap<usize, Outcome> = BTreeMap::new();
    for i in 0.. {
        let set = i % INPUT_SETS;
        let (inputs, times) = traced_setup(tr, w, set_seed(seed, set), root);
        setups.push(times.total());
        let (result, wall) = tr.span("run", Some(root), || run(inputs, SHARDS, None));
        // Set-up repeats after every run, so its samples are spread over
        // the invocation as the runs are: the host's speed changes from
        // one tenth of a second to the next.
        let until = Instant::now() + Duration::from_secs_f64(wall * SETUP_SHARE);
        while Instant::now() < until {
            let (_, times) = traced_setup(tr, w, set_seed(seed, set), root);
            setups.push(times.total());
        }
        tally.record(&format!("run {i}"), set, &result);
        if let Ok(o) = result {
            walls.push(wall);
            outcomes.entry(set).or_insert(o);
        }
        if i + 1 >= INPUT_SETS && !another_fits(start, i + 1, seconds) {
            break;
        }
    }
    tr.close(root);
    if !rss_reset {
        tally
            .problems
            .push("peak RSS could not be reset; it covers the whole process".into());
    }
    let mean = |f: fn(&Outcome) -> f64| {
        outcomes.values().map(f).sum::<f64>() / outcomes.len().max(1) as f64
    };
    let metrics = vec![
        ("wall_s", median(&walls).unwrap_or(0.0), "s"),
        ("setup_s", median(&setups).unwrap_or(0.0), "s"),
        ("peak_rss_mib", peak.unwrap_or(0.0), "MiB"),
        ("energy_per_vm_wh", mean(|o| o.energy_per_vm_wh), "Wh"),
    ];
    assert!(
        metrics
            .iter()
            .zip(END_TO_END)
            .all(|(m, e)| m.0 == e.name && m.2 == e.unit),
        "the measured metrics follow END_TO_END"
    );
    println!(
        "{}: {} timed runs over {} input sets (+1 warm-up), {} set-ups",
        w.name(),
        walls.len(),
        outcomes.len(),
        setups.len()
    );
    // Simulated outcomes reported but not gated (see README).
    println!(
        "slo_violation_frac = {} ratio, migrations = {} count (means over input sets)",
        mean(|o| o.slo_violation_frac),
        mean(|o| o.migrations as f64)
    );
    Report {
        workload: w,
        metrics,
        tally,
        profile: None,
    }
}

/// Traced measurement: rounds of (untraced at [`SHARDS`], traced at
/// [`SHARDS`], untraced at [`SPEEDUP_SHARDS`]) for as many rounds as fit in
/// `seconds` (at least one); the per-layer metrics come from the round
/// with the median traced wall time.
fn measure_traced(tr: &mut Tracer, w: Workload, seed: u64, seconds: f64) -> Report {
    let root = tr.open(w.name(), None);
    // Every round runs the invocation's first input set.
    let seed = set_seed(seed, 0);
    let start = Instant::now();
    let probe = (w == Workload::CosimMpc).then(|| {
        let budget = Duration::from_secs_f64((seconds * PROBE_SHARE).min(1.0));
        tr.span("apptier_probe", Some(root), || apptier_probe(seed, budget))
            .0
    });
    let mut tally = Tally::default();
    let mut rounds: Vec<TracedRound> = Vec::new();
    while rounds.is_empty() || another_fits(start, rounds.len(), seconds) {
        let round = tr.open("round", Some(root));
        let (inputs, _) = traced_setup(tr, w, seed, round);
        let (plain, untraced_wall_s) =
            tr.span("run.untraced", Some(round), || run(inputs, SHARDS, None));
        tally.record("untraced run", 0, &plain);
        let (inputs, setup_times) = traced_setup(tr, w, seed, round);
        let telemetry = Telemetry::enabled();
        let (traced, traced_wall_s) = tr.span("run.traced", Some(round), || {
            run(inputs, SHARDS, Some(&telemetry))
        });
        tally.record("traced run", 0, &traced);
        let (inputs, _) = traced_setup(tr, w, seed, round);
        let (rerun, speedup_wall_s) = tr.span("run.speedup", Some(round), || {
            run(inputs, SPEEDUP_SHARDS, None)
        });
        tally.record("speed-up rerun", 0, &rerun);
        tr.close(round);
        let (Ok(outcome), true, true) = (traced, plain.is_ok(), rerun.is_ok()) else {
            break;
        };
        rounds.push(TracedRound {
            setup: setup_times,
            traced_wall_s,
            untraced_wall_s,
            speedup_wall_s,
            snapshot: Snapshot::of(&telemetry),
            outcome,
        });
    }
    tr.close(root);
    rounds.sort_by(|a, b| a.traced_wall_s.total_cmp(&b.traced_wall_s));
    let (metrics, profile) = match rounds.get(rounds.len() / 2) {
        Some(r) => {
            let m = per_layer(w, r, probe);
            let units: BTreeMap<&str, &str> = PER_LAYER.iter().map(|l| (l.name, l.unit)).collect();
            let metrics = m.iter().map(|(&name, &v)| (name, v, units[name])).collect();
            (metrics, Some(profile(w, r)))
        }
        None => (
            PER_LAYER.iter().map(|l| (l.name, 0.0, l.unit)).collect(),
            None,
        ),
    };
    println!("{}: {} traced rounds", w.name(), rounds.len());
    Report {
        workload: w,
        metrics,
        tally,
        profile,
    }
}

/// Whether one more unit of work fits in `seconds` since `start`, taking
/// a unit to last as long as the `done` units so far did on average.
fn another_fits(start: Instant, done: usize, seconds: f64) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    elapsed + elapsed / done.max(1) as f64 <= seconds
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <fleet_bulk|week_churn|cosim_mpc|all> \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let fingerprint = Fingerprint::detect();
    println!("host: {}", fingerprint.to_json());
    let mut tr = Tracer::new();
    let reports: Vec<Report> = args
        .workloads
        .iter()
        .map(|&w| {
            if args.trace {
                measure_traced(&mut tr, w, args.seed, args.seconds)
            } else {
                measure(&mut tr, w, args.seed, args.seconds)
            }
        })
        .collect();

    let single = reports.len() == 1;
    let mut attempted = 0;
    let mut failed = 0;
    let mut entries = Vec::new();
    for r in &reports {
        attempted += r.tally.attempted;
        failed += r.tally.failed;
        println!(
            "== {} (seed {}, shards {})",
            r.workload.name(),
            args.seed,
            SHARDS
        );
        for &(name, value, unit) in &r.metrics {
            println!("{name} = {value} {unit} ({})", metrics::describe(name));
            let key = if single {
                name.to_string()
            } else {
                format!("{}.{name}", r.workload.name())
            };
            entries.push((key, value, unit));
        }
        if let Some(p) = &r.profile {
            println!(
                "-- wall profile ({} rows, sum {} s)",
                p.rows.len(),
                p.total()
            );
            for &(name, secs) in &p.rows {
                println!("   {name:<28} {secs:>12.6} s");
            }
        }
        println!(
            "failed_frac = {} ({} of {} runs)",
            metrics::ratio(r.tally.failed as f64, r.tally.attempted as f64),
            r.tally.failed,
            r.tally.attempted
        );
        for p in &r.tally.problems {
            println!("note: {p}");
        }
    }
    let result = render_result(attempted, failed, &entries);
    write_record(&args, &fingerprint, &tr, &result);
    println!("{result}");
    ExitCode::SUCCESS
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit. A non-finite value cannot be written as a JSON number,
/// so it is written as 0 and the result marked incorrect.
fn render_result(attempted: u64, failed: u64, entries: &[(String, f64, &str)]) -> String {
    let finite = entries.iter().all(|&(_, v, _)| v.is_finite());
    let correct = failed == 0 && finite && attempted > 0;
    let metrics: Vec<String> = entries
        .iter()
        .map(|(key, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "\"{}\":{}",
                escape(key),
                JsonObject::new()
                    .num("value", value)
                    .str("unit", unit)
                    .build()
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    )
}

/// Write the invocation's record (fingerprint, result, spans) under
/// [`OUT_DIR`]. A write failure is reported but does not fail the run.
fn write_record(args: &Args, fingerprint: &Fingerprint, tr: &Tracer, result: &str) {
    let names: Vec<&str> = args.workloads.iter().map(|w| w.name()).collect();
    let id = format!(
        "{}-seed{}-trace{}",
        if names.len() == 1 { names[0] } else { "all" },
        args.seed,
        u8::from(args.trace)
    );
    let record = JsonObject::new()
        .raw("host", &fingerprint.to_json())
        .str("id", &id)
        .int("shards", SHARDS as i64)
        .num("seconds", args.seconds)
        .raw("result", result)
        .raw("spans", &tr.to_json(&id))
        .build();
    let path = format!("{OUT_DIR}/{id}.json");
    if let Err(e) =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, record + "\n"))
    {
        eprintln!("perfbench: could not write {path}: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::Better;
    use vdc_dcsim::json::JsonValue;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let entries = vec![("wall_s".to_string(), 1.25, "s")];
        let v = JsonValue::parse(&render_result(4, 0, &entries)).unwrap();
        let JsonValue::Object(fields) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&JsonValue::Bool(true)));
        let wall = v.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("value").and_then(JsonValue::as_f64), Some(1.25));
        assert_eq!(wall.get("unit").and_then(JsonValue::as_str), Some("s"));
    }

    #[test]
    fn a_failed_run_or_a_non_finite_metric_makes_the_result_incorrect() {
        let ok = vec![("wall_s".to_string(), 1.0, "s")];
        let nan = vec![("wall_s".to_string(), f64::NAN, "s")];
        let correct = |line: String| JsonValue::parse(&line).unwrap().get("correct").cloned();
        assert_eq!(
            correct(render_result(4, 1, &ok)),
            Some(JsonValue::Bool(false))
        );
        assert_eq!(
            correct(render_result(0, 0, &ok)),
            Some(JsonValue::Bool(false))
        );
        assert_eq!(
            correct(render_result(4, 0, &nan)),
            Some(JsonValue::Bool(false))
        );
    }

    fn outcome(energy_bits: u64, failures: Vec<String>) -> Outcome {
        Outcome {
            energy_per_vm_wh: 1.0,
            slo_violation_frac: 0.0,
            migrations: 1,
            identity: Identity {
                energy_bits,
                migrations: 1,
                placement_hash: 7,
            },
            result_metrics: vec![],
            failures,
        }
    }

    #[test]
    fn tally_fails_errors_check_failures_and_diverging_repeats() {
        let mut t = Tally::default();
        t.record("a", 0, &Ok(outcome(1, vec![])));
        t.record("b", 1, &Ok(outcome(2, vec![])));
        t.record("c", 0, &Ok(outcome(1, vec![])));
        assert_eq!((t.attempted, t.failed), (3, 0));
        t.record("d", 0, &Ok(outcome(3, vec![])));
        t.record("e", 1, &Ok(outcome(2, vec!["bad".into()])));
        t.record("f", 1, &Err("boom".into()));
        assert_eq!((t.attempted, t.failed), (6, 3));
    }

    #[test]
    fn args_are_validated() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = parse("--workload week_churn --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workloads, vec![Workload::WeekChurn]);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        assert_eq!(parse("--workload all").unwrap().workloads.len(), 3);
        for bad in [
            "",
            "--workload nope",
            "--workload all --trace 2",
            "--workload all --seconds 0",
            "--workload all --seed -1",
            "--workload all --bogus 1",
            "--workload",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    /// `BENCHMARK.json` at the repository root describes exactly the
    /// workloads and metrics this program measures.
    #[test]
    fn benchmark_manifest_matches_the_metric_tables() {
        let text = include_str!("../../BENCHMARK.json");
        let m = JsonValue::parse(text).expect("BENCHMARK.json parses");
        let list = |key: &str| m.get(key).and_then(JsonValue::as_array).unwrap().to_vec();
        let field =
            |v: &JsonValue, k: &str| v.get(k).and_then(JsonValue::as_str).unwrap().to_string();
        let names: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
        let better = |b: Better| b.as_str().to_string();
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, t) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(j, "name"), t.name);
            assert_eq!(field(j, "unit"), t.unit);
            assert_eq!(field(j, "better"), better(t.better));
            assert_eq!(j.get("bound").and_then(JsonValue::as_f64), Some(t.bound));
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, t) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(j, "name"), t.name);
            assert_eq!(field(j, "unit"), t.unit);
            assert_eq!(field(j, "better"), better(t.better));
        }
    }
}
