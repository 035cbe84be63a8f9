//! mccsbench — long-run workloads, end-to-end metrics and an outside-in
//! per-layer trace for the MCCS simulator. See `README.md` beside
//! `Cargo.toml` for the workloads, the metric tables and how they are
//! expected to interact.
//!
//! ```text
//! mccsbench --workload W [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! mccsbench suite   [--seed N] [--seconds S] [--quick]   > results.json
//! mccsbench aa      [--seed N] [--seconds S] [--quick]
//! mccsbench compare A.json B.json
//! ```
//!
//! The first form is the one `BENCHMARK.json` names: it runs one
//! workload and prints, as the last line of standard output, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. The exit code is non-zero when a correctness check fails.

mod alloc;
mod compare;
mod json;
mod measure;
mod metrics;
mod procfs;
mod replay;
mod run;
mod spec;
mod stats;
mod trace;
mod traced;

use json::Value;
use metrics::Reading;
use spec::{Workload, WORKLOADS};
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

const DEFAULT_SEED: u64 = 11;

struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    /// Positional arguments (the sub-command and its files).
    rest: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: metrics::manifest().run_seconds as f64,
        trace: false,
        quick: false,
        rest: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                o.workload = Some(Workload::parse(&name).ok_or_else(|| {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name}; one of {}", known.join(", "))
                })?);
            }
            "--seed" => {
                o.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                o.seconds = value("a number of seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds: not a non-negative number")?;
            }
            "--trace" => {
                o.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: {other} is not 0 or 1")),
                };
            }
            "--quick" => o.quick = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => o.rest.push(arg.clone()),
        }
    }
    Ok(o)
}

/// The benchmark measures the default configuration only: any `MCCS_*`
/// switch in the environment would silently measure something else.
fn refuse_mode_switches() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("MCCS_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: mccsbench measures the default configuration",
            set.join(", ")
        ))
    }
}

/// One finished workload run: the check results and its readings.
struct Report {
    workload: Workload,
    correct: bool,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    digest: u64,
    /// `end_to_end` or `per_layer`: which table `readings` fills.
    section: &'static str,
    readings: Vec<Reading>,
    /// Facts about the run that are not metrics.
    notes: Vec<(&'static str, Value)>,
}

impl Report {
    /// The contract's last line.
    fn contract_line(&self) -> Value {
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed)),
            (
                "metrics",
                Value::obj(self.readings.iter().map(|r| (r.name, r.brief()))),
            ),
        ])
    }

    /// The readings with quartiles, extremes and sample counts.
    fn readings_detailed(&self) -> (String, Value) {
        (
            self.section.to_owned(),
            Value::obj(self.readings.iter().map(|r| (r.name, r.detailed()))),
        )
    }

    fn notes(&self) -> impl Iterator<Item = (String, Value)> + '_ {
        self.notes.iter().map(|(k, v)| ((*k).to_owned(), v.clone()))
    }

    fn detailed(&self) -> Vec<(String, Value)> {
        let mut fields = vec![
            ("name".to_owned(), Value::str(self.workload.name())),
            ("correct".to_owned(), Value::Bool(self.correct)),
            ("attempted".to_owned(), Value::from(self.attempted)),
            ("failed".to_owned(), Value::from(self.failed)),
            (
                "problems".to_owned(),
                Value::Arr(self.problems.iter().map(Value::str).collect()),
            ),
            (
                "digest".to_owned(),
                Value::str(format!("{:016x}", self.digest)),
            ),
        ];
        fields.extend(self.notes());
        fields.push(self.readings_detailed());
        fields
    }
}

/// Failures are only tolerated where the workload injects faults.
fn verdict(w: Workload, failed: u64, problems: &mut Vec<String>) -> bool {
    if w != Workload::SvcCtrlChurn && failed > 0 {
        problems.push(format!(
            "{failed} collectives failed on a fault-free workload"
        ));
    }
    problems.is_empty()
}

fn untraced_report(w: Workload, m: &measure::Measured) -> Report {
    let mut problems = m.problems.clone();
    let correct = verdict(w, m.outcome.failed, &mut problems);
    let mut notes = vec![
        ("reps", Value::from(m.samples.len() as u64)),
        ("p99_has_ten_beyond", Value::Bool(m.outcome.p99_supported)),
    ];
    // Informational: time spent runnable but not running. A large share
    // means the box was busy and host times are inflated.
    if let Some(waits) = m.runq_values() {
        let wait = stats::median(&waits);
        notes.push(("runq_wait_s", Value::from(wait)));
        notes.push((
            "runq_wait_flagged",
            Value::Bool(wait > 0.05 * m.wall_median()),
        ));
    }
    Report {
        workload: w,
        correct,
        attempted: m.outcome.attempted,
        failed: m.outcome.failed,
        problems,
        digest: m.outcome.digest,
        section: "end_to_end",
        readings: metrics::end_to_end(m),
        notes,
    }
}

fn run_traced(w: Workload, o: &Options) -> Report {
    let t = traced::traced(w, o.seed, o.quick);
    let mut problems = t.problems.clone();
    let correct = verdict(w, t.outcome.failed, &mut problems);
    Report {
        workload: w,
        correct,
        attempted: t.outcome.attempted,
        failed: t.outcome.failed,
        problems,
        digest: t.outcome.digest,
        section: "per_layer",
        readings: metrics::per_layer(&t.values),
        notes: vec![
            ("sim_workers", Value::from(t.sim_workers as u64)),
            ("sim_shards", Value::from(t.sim_shards as u64)),
        ],
    }
}

fn report_problems(r: &Report) {
    for p in &r.problems {
        eprintln!("mccsbench: {}: {p}", r.workload.name());
    }
}

/// The contract form: one workload, one kind of metrics.
fn one_workload(w: Workload, o: &Options) -> ExitCode {
    let report = if o.trace {
        run_traced(w, o)
    } else {
        untraced_report(w, &measure::measure(w, o.seed, o.seconds, o.quick))
    };
    report_problems(&report);
    println!("{}", Value::Obj(report.detailed()));
    println!("{}", report.contract_line());
    exit_code(report.correct)
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One workload of a result set: the untraced measurement `m` and, when
/// `with_trace`, a traced run. Returns its fields and whether every
/// check passed.
fn suite_entry(w: Workload, m: &measure::Measured, o: &Options, with_trace: bool) -> (Value, bool) {
    let untraced = untraced_report(w, m);
    report_problems(&untraced);
    let mut correct = untraced.correct;
    let mut fields = untraced.detailed();
    if with_trace {
        eprintln!("mccsbench: {} (traced)", w.name());
        let traced = run_traced(w, o);
        report_problems(&traced);
        correct &= traced.correct;
        if traced.digest != untraced.digest {
            eprintln!("mccsbench: {}: traced digest differs", w.name());
            correct = false;
        }
        fields.extend(traced.notes());
        fields.push(traced.readings_detailed());
    }
    (Value::Obj(fields), correct)
}

/// `N` result sets over every workload, each with whether all its checks
/// passed. The sets take turns episode by episode (`measure_sets`).
fn suites<const N: usize>(o: &Options, with_trace: bool) -> [(Value, bool); N] {
    let mut sets: [(Vec<Value>, bool); N] = std::array::from_fn(|_| (Vec::new(), true));
    for w in WORKLOADS {
        eprintln!("mccsbench: {} (untraced)", w.name());
        let measured: [_; N] = measure::measure_sets(w, o.seed, o.seconds, o.quick);
        for ((workloads, all_correct), m) in sets.iter_mut().zip(&measured) {
            let (entry, correct) = suite_entry(w, m, o, with_trace);
            workloads.push(entry);
            *all_correct &= correct;
        }
    }
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    sets.map(|(workloads, all_correct)| {
        let set = Value::obj([
            ("seed", Value::from(o.seed)),
            ("seconds", Value::from(o.seconds)),
            ("quick", Value::Bool(o.quick)),
            ("available_parallelism", Value::from(cores as u64)),
            ("correct", Value::Bool(all_correct)),
            ("workloads", Value::Arr(workloads)),
        ]);
        (set, all_correct)
    })
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Rows of `b` against `a`; `Ok(true)` when nothing regressed.
fn compare_sets(a: &Value, b: &Value) -> Result<bool, String> {
    let rows = compare::compare(a, b, &metrics::manifest().end_to_end)?;
    compare::print(&rows);
    Ok(rows
        .iter()
        .all(|r| r.verdict != compare::Verdict::Regressed))
}

fn real_main() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = parse_args(&args)?;
    let ok = exit_code;
    match o.rest.first().map(String::as_str) {
        None => {
            let w = o.workload.ok_or(
                "nothing to do: give --workload NAME, or one of suite, aa, compare (see README.md)",
            )?;
            refuse_mode_switches()?;
            Ok(one_workload(w, &o))
        }
        Some("suite") => {
            refuse_mode_switches()?;
            let [(set, correct)] = suites(&o, true);
            println!("{set}");
            Ok(ok(correct))
        }
        Some("aa") => {
            refuse_mode_switches()?;
            let [(a, a_correct), (b, b_correct)] = suites(&o, false);
            // An episode of either set whose digest, counts or sim results
            // differ from the first's has already made its set incorrect.
            let within = compare_sets(&a, &b)?;
            Ok(ok(a_correct && b_correct && within))
        }
        Some("compare") => match o.rest.as_slice() {
            [_, a, b] => Ok(ok(compare_sets(&read_json(a)?, &read_json(b)?)?)),
            _ => Err("compare needs two result files".to_owned()),
        },
        Some(other) => Err(format!("unknown command {other}")),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("mccsbench: {e}");
            ExitCode::from(2)
        }
    }
}
