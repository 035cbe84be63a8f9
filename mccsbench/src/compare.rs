//! `compare`: apply the benchmark's bounds to two result sets written
//! by `suite`, one row per workload and end-to-end metric.
//!
//! The bounds of `BENCHMARK.json` are what the benchmark's driver
//! applies to runs on *different* seeds, so they are wide enough for the
//! seed to move a metric. Two sets of the *same* seed from the same
//! machine — a parent against a change, or `aa` — are judged by the
//! tighter rules below.
//!
//! A row is *unresolved*, not unchanged, when either side's own spread
//! (interquartile distance over median, across its repetitions) is wider
//! than the bound it would be judged by.

use crate::json::Value;
use crate::metrics::{Better, EndToEnd};

/// Same seed: a host time or rate may worsen by this share at most.
const SAME_SEED_HOST_BOUND: f64 = 0.10;
/// Same seed: peak heap repeats to well under a per cent.
const SAME_SEED_HEAP_BOUND: f64 = 0.05;
/// Set-up is a millisecond or less on the small worlds; a change of
/// less than this many seconds is no regression whatever its share.
const SETUP_FLOOR_S: f64 = 0.050;

/// The share by which `m` may worsen. Within one seed a virtual-time
/// result repeats exactly, so it may not worsen at all.
fn bound_for(m: &EndToEnd, same_seed: bool) -> f64 {
    if !same_seed {
        m.bound
    } else if m.exact() {
        0.0
    } else if m.name == "peak_heap_mib" {
        m.bound.min(SAME_SEED_HEAP_BOUND)
    } else {
        m.bound.min(SAME_SEED_HOST_BOUND)
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Ok,
    Unresolved,
    Regressed,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "REGRESSED",
        }
    }
}

#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// Signed share by which `b` is worse than `a` (negative = better).
    pub worse_by: f64,
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Judge one pairing. `lower_is_better` orients the change; a change
/// smaller than `floor`, in the metric's own unit, is always fine.
pub fn judge(
    a: f64,
    b: f64,
    spread: f64,
    bound: f64,
    floor: f64,
    lower_is_better: bool,
) -> (f64, Verdict) {
    let change = if a == 0.0 { 0.0 } else { (b - a) / a.abs() };
    let worse_by = if lower_is_better { change } else { -change };
    let verdict = if (b - a).abs() < floor {
        Verdict::Ok
    } else if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

/// A reading's own spread: `(q3 - q1) / value`, zero for exact values.
fn spread_of(reading: &Value) -> f64 {
    let get = |k| reading.get(k).and_then(Value::as_f64);
    match (get("q1"), get("q3"), get("value")) {
        (Some(q1), Some(q3), Some(v)) if v != 0.0 => (q3 - q1) / v.abs(),
        _ => 0.0,
    }
}

fn workloads_of(set: &Value) -> Result<&[Value], String> {
    set.get("workloads")
        .and_then(Value::as_arr)
        .ok_or_else(|| "result set has no \"workloads\" array".to_owned())
}

/// Compare result set `b` against `a` under the bounds of `metrics`.
/// A workload missing from `b`, or a metric only one side has, is an
/// error: a silent skip would read as "no regression". A metric neither
/// side has (`cpu_s` where `/proc` is absent) has no row.
pub fn compare(a: &Value, b: &Value, metrics: &[EndToEnd]) -> Result<Vec<Row>, String> {
    let seed = |set: &Value| set.get("seed").and_then(Value::as_f64);
    let same_seed = seed(a).is_some() && seed(a) == seed(b);
    let mut rows = Vec::new();
    for wa in workloads_of(a)? {
        let name = wa
            .get("name")
            .and_then(Value::as_str)
            .ok_or("workload without a name")?;
        let wb = workloads_of(b)?
            .iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
            .ok_or_else(|| format!("{name}: missing from the second result set"))?;
        for m in metrics {
            let metric = m.name.as_str();
            let bound = bound_for(m, same_seed);
            let floor = if metric == "setup_s" {
                SETUP_FLOOR_S
            } else {
                0.0
            };
            let lower = m.better == Better::Lower;
            let reading = |w: &'_ Value| w.get("end_to_end").and_then(|e| e.get(metric)).cloned();
            let (ra, rb) = match (reading(wa), reading(wb)) {
                (Some(ra), Some(rb)) => (ra, rb),
                (None, None) => continue,
                _ => return Err(format!("{name}: only one side has {metric}")),
            };
            let value = |r: &Value| {
                r.get("value")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("{name}: {metric} has no value"))
            };
            let (va, vb) = (value(&ra)?, value(&rb)?);
            let spread = spread_of(&ra).max(spread_of(&rb));
            let (worse_by, verdict) = judge(va, vb, spread, bound, floor, lower);
            rows.push(Row {
                workload: name.to_owned(),
                metric: metric.to_owned(),
                a: va,
                b: vb,
                worse_by,
                spread,
                bound,
                verdict,
            });
        }
    }
    Ok(rows)
}

pub fn print(rows: &[Row]) {
    println!(
        "{:<15} {:<18} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "a", "b", "worse_by", "spread", "bound"
    );
    for r in rows {
        println!(
            "{:<15} {:<18} {:>14.6} {:>14.6} {:>+8.2}% {:>7.2}% {:>5.0}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            r.verdict.word()
        );
    }
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} rows: {} ok, {} unresolved, {} regressed",
        rows.len(),
        count(Verdict::Ok),
        count(Verdict::Unresolved),
        count(Verdict::Regressed)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_orients_by_direction_and_flags_wide_spread() {
        // 8 % slower under a 10 % bound: fine.
        assert_eq!(judge(1.0, 1.08, 0.02, 0.10, 0.0, true).1, Verdict::Ok);
        // 12 % slower: regressed.
        assert_eq!(
            judge(1.0, 1.12, 0.02, 0.10, 0.0, true).1,
            Verdict::Regressed
        );
        // 12 % more throughput is an improvement, 12 % less is not.
        assert_eq!(judge(100.0, 112.0, 0.0, 0.10, 0.0, false).1, Verdict::Ok);
        assert_eq!(
            judge(100.0, 88.0, 0.0, 0.10, 0.0, false).1,
            Verdict::Regressed
        );
        // Too noisy to call either way.
        assert_eq!(judge(1.0, 1.5, 0.2, 0.10, 0.0, true).1, Verdict::Unresolved);
        assert_eq!(judge(1.0, 1.0, 0.2, 0.10, 0.0, true).1, Verdict::Unresolved);
        let (worse, _) = judge(2.0, 1.0, 0.0, 0.1, 0.0, true);
        assert!((worse + 0.5).abs() < 1e-12);
        // Below the floor neither a large share nor a wide spread counts;
        // above it both do again.
        assert_eq!(judge(0.001, 0.003, 0.4, 0.10, 0.05, true).1, Verdict::Ok);
        assert_eq!(
            judge(0.10, 0.16, 0.02, 0.10, 0.05, true).1,
            Verdict::Regressed
        );
    }

    fn metric(name: &str, better: Better, bound: f64) -> EndToEnd {
        EndToEnd {
            name: name.to_owned(),
            unit: "x".to_owned(),
            better,
            bound,
        }
    }

    /// One workload `w` with the given `name: (value, q1, q3)` readings.
    fn set(seed: Option<u64>, readings: &[(&str, f64, f64, f64)]) -> Value {
        let readings = readings.iter().map(|&(name, value, q1, q3)| {
            let fields = [("value", value), ("q1", q1), ("q3", q3)];
            (name, Value::obj(fields.map(|(k, v)| (k, Value::from(v)))))
        });
        let workload = Value::obj([
            ("name", Value::str("w")),
            ("end_to_end", Value::obj(readings)),
        ]);
        let mut fields = vec![("workloads", Value::Arr(vec![workload]))];
        if let Some(seed) = seed {
            fields.push(("seed", Value::from(seed)));
        }
        Value::obj(fields)
    }

    #[test]
    fn compare_walks_every_workload_and_metric() {
        let bench = [
            metric("wall_s", Better::Lower, 0.25),
            metric("peak_heap_mib", Better::Lower, 0.10),
            metric("sim_busbw_gbps", Better::Higher, 0.25),
        ];
        let a = [
            ("wall_s", 2.0, 1.95, 2.05),
            ("peak_heap_mib", 30.0, 30.0, 30.0),
            ("sim_busbw_gbps", 80.0, 80.0, 80.0),
        ];
        // 15 % slower, 7 % more heap, 1 % less bus bandwidth.
        let b = [
            ("wall_s", 2.3, 2.25, 2.35),
            ("peak_heap_mib", 32.1, 32.1, 32.1),
            ("sim_busbw_gbps", 79.2, 79.2, 79.2),
        ];
        let verdicts = |a: &Value, b: &Value| -> Vec<Verdict> {
            let rows = compare(a, b, &bench).unwrap();
            rows.iter().map(|r| r.verdict).collect()
        };
        // Across seeds the bounds of BENCHMARK.json hold: all pass.
        assert_eq!(
            verdicts(&set(Some(1), &a), &set(Some(2), &b)),
            [Verdict::Ok; 3]
        );
        assert_eq!(verdicts(&set(None, &a), &set(None, &b)), [Verdict::Ok; 3]);
        // Within one seed: 10 % for host times, 5 % for heap, and a
        // virtual-time result may not worsen at all.
        assert_eq!(
            verdicts(&set(Some(1), &a), &set(Some(1), &b)),
            [Verdict::Regressed; 3]
        );
        // The other way round everything got better.
        assert_eq!(
            verdicts(&set(Some(1), &b), &set(Some(1), &a)),
            [Verdict::Ok; 3]
        );
        // A side whose repetitions spread wider than the bound decides
        // nothing about that row.
        let noisy = [("wall_s", 2.0, 1.8, 2.2), a[1], a[2]];
        assert_eq!(
            verdicts(&set(Some(1), &noisy), &set(Some(1), &a)),
            [Verdict::Unresolved, Verdict::Ok, Verdict::Ok]
        );
    }

    #[test]
    fn a_metric_both_sides_lack_has_no_row_but_one_side_lacking_is_an_error() {
        let bench = [
            metric("wall_s", Better::Lower, 0.25),
            metric("cpu_s", Better::Lower, 0.25),
        ];
        let without = set(Some(1), &[("wall_s", 2.0, 2.0, 2.0)]);
        let with = set(
            Some(1),
            &[("wall_s", 2.0, 2.0, 2.0), ("cpu_s", 2.0, 2.0, 2.0)],
        );
        let rows = compare(&without, &without, &bench).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].metric, "wall_s");
        assert!(compare(&with, &without, &bench).is_err());
        assert!(compare(&without, &with, &bench).is_err());
    }

    #[test]
    fn set_up_has_an_absolute_floor() {
        let bench = [metric("setup_s", Better::Lower, 0.25)];
        let run = |a: f64, b: f64| {
            let a = set(Some(1), &[("setup_s", a, a * 0.8, a * 1.2)]);
            let b = set(Some(1), &[("setup_s", b, b, b)]);
            compare(&a, &b, &bench).unwrap()[0].verdict
        };
        // 0.3 ms to 0.9 ms with a 40 % spread: three times worse, and
        // still far below anything a user would wait for.
        assert_eq!(run(0.0003, 0.0009), Verdict::Ok);
        assert_eq!(run(0.09, 0.2), Verdict::Unresolved);
    }
}
