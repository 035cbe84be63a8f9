//! The metric tables — names, units, directions and regression bounds —
//! and the assembly of measured values under those names.
//!
//! `BENCHMARK.json` at the repository root is the only place the tables
//! are written down: it is compiled in, so the program reports exactly
//! the metrics the file promises and `compare` judges by its bounds.

use crate::json::Value;
use crate::measure::Measured;
use crate::stats;
use std::sync::OnceLock;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug)]
pub struct EndToEnd {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen when
    /// runs use different seeds, as the benchmark's driver does. It has
    /// to cover the metric's own spread over seeds and, for host
    /// metrics, the sandbox's noise — see README.md, "Bounds".
    pub bound: f64,
}

impl EndToEnd {
    /// A result of the modelled service in virtual time (`sim_*` and
    /// `completed_share`), which repeats exactly for a seed; the rest
    /// are host time and memory of the simulator itself.
    pub fn exact(&self) -> bool {
        self.name.starts_with("sim_") || self.name == "completed_share"
    }
}

#[derive(Debug)]
pub struct PerLayer {
    pub name: String,
    pub unit: String,
}

/// What `BENCHMARK.json` says about running and reading the benchmark.
#[derive(Debug)]
pub struct Manifest {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// What a user of the simulator pays for and gets.
    pub end_to_end: Vec<EndToEnd>,
    /// `<layer>.<metric>`, from the traced run and the layer replays.
    pub per_layer: Vec<PerLayer>,
}

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The compiled-in `BENCHMARK.json`. Panics if the file is not what the
/// benchmark contract describes: that is a broken build, not an input.
pub fn manifest() -> &'static Manifest {
    static MANIFEST: OnceLock<Manifest> = OnceLock::new();
    MANIFEST.get_or_init(|| {
        Manifest::parse(BENCHMARK_JSON).unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"))
    })
}

impl Manifest {
    fn parse(text: &str) -> Result<Manifest, String> {
        let doc = Value::parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("no \"{key}\" list"))
        };
        let text_of = |entry: &Value, key: &str| {
            entry
                .get(key)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("an entry has no \"{key}\""))
        };
        let end_to_end = list("end_to_end")?
            .iter()
            .map(|m| {
                Ok(EndToEnd {
                    name: text_of(m, "name")?,
                    unit: text_of(m, "unit")?,
                    better: match text_of(m, "better")?.as_str() {
                        "lower" => Better::Lower,
                        "higher" => Better::Higher,
                        other => return Err(format!("\"better\" is {other}")),
                    },
                    bound: m
                        .get("bound")
                        .and_then(Value::as_f64)
                        .ok_or("an end-to-end metric has no bound")?,
                })
            })
            .collect::<Result<_, String>>()?;
        let per_layer = list("per_layer")?
            .iter()
            .map(|m| {
                Ok(PerLayer {
                    name: text_of(m, "name")?,
                    unit: text_of(m, "unit")?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Manifest {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("no \"run_seconds\"")? as u64,
            end_to_end,
            per_layer,
        })
    }
}

/// One reported value with the spread of the samples behind it.
#[derive(Clone, Debug)]
pub struct Reading {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// `(q1, q3, min, max, n)` of the repetitions, for host metrics.
    pub spread: Option<(f64, f64, f64, f64, usize)>,
}

impl Reading {
    fn exact(name: &'static str, unit: &'static str, value: f64) -> Reading {
        Reading {
            name,
            unit,
            value,
            spread: None,
        }
    }

    fn median_of(name: &'static str, unit: &'static str, samples: &[f64]) -> Reading {
        let (q1, med, q3) = stats::quartiles(samples);
        let sorted = stats::sorted(samples);
        Reading {
            name,
            unit,
            value: med,
            spread: Some((q1, q3, sorted[0], sorted[sorted.len() - 1], sorted.len())),
        }
    }

    /// The contract's `{"value": .., "unit": ..}`.
    pub fn brief(&self) -> Value {
        Value::obj([
            ("value", Value::from(self.value)),
            ("unit", Value::str(self.unit)),
        ])
    }

    /// `brief` plus quartiles, extremes and sample count when known.
    pub fn detailed(&self) -> Value {
        let Value::Obj(mut fields) = self.brief() else {
            unreachable!("brief() builds an object");
        };
        if let Some((q1, q3, min, max, n)) = self.spread {
            for (k, v) in [("q1", q1), ("q3", q3), ("min", min), ("max", max)] {
                fields.push((k.to_owned(), Value::from(v)));
            }
            fields.push(("n".to_owned(), Value::from(n as u64)));
        }
        Value::Obj(fields)
    }
}

fn unit_of(name: &str) -> &'static str {
    &manifest()
        .end_to_end
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not an end-to-end metric of BENCHMARK.json"))
        .unit
}

/// The end-to-end metrics of an untraced measurement, in table order.
/// `cpu_s` is left out where `/proc` could not be read.
pub fn end_to_end(m: &Measured) -> Vec<Reading> {
    let o = &m.outcome;
    let wall = m.values(|s| s.wall_s);
    let rate: Vec<f64> = wall.iter().map(|w| o.completed as f64 / w).collect();
    let median = |name, samples: &[f64]| Reading::median_of(name, unit_of(name), samples);
    let exact = |name, value| Reading::exact(name, unit_of(name), value);
    let mut out = vec![median("setup_s", &m.setup_s), median("wall_s", &wall)];
    if let Some(cpu) = m.cpu_values() {
        out.push(median("cpu_s", &cpu));
    }
    out.extend([
        median("collectives_per_s", &rate),
        median("peak_heap_mib", &m.values(|s| s.peak_heap_mib)),
        exact("sim_makespan_s", o.sim_makespan_s),
        exact("sim_coll_p50_ms", o.sim_coll_p50_ms),
        exact("sim_coll_p99_ms", o.sim_coll_p99_ms),
        exact("sim_busbw_gbps", o.sim_busbw_gbps),
        exact(
            "completed_share",
            o.completed as f64 / o.attempted.max(1) as f64,
        ),
    ]);
    out
}

/// Per-layer values under their table names and units, in table order.
/// Panics if a table entry has no value: the traced run must fill all.
pub fn per_layer(values: &[(&'static str, f64)]) -> Vec<Reading> {
    manifest()
        .per_layer
        .iter()
        .map(|m| {
            let (name, v) = values
                .iter()
                .find(|(name, _)| *name == m.name)
                .unwrap_or_else(|| panic!("traced run produced no {}", m.name));
            Reading::exact(name, &m.unit, *v)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// `BENCHMARK.json` keeps to the limits of the benchmark contract,
    /// names this program's workloads and the metrics it reports.
    #[test]
    fn benchmark_json_fits_the_contract_and_the_program() {
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
        let m = manifest();
        let mut seen = BTreeSet::new();
        let named = m
            .end_to_end
            .iter()
            .map(|e| (&e.name, &e.unit))
            .chain(m.per_layer.iter().map(|p| (&p.name, &p.unit)));
        for (name, unit) in named {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!((1..=16).contains(&m.end_to_end.len()));
        assert!((1..=128).contains(&m.per_layer.len()));
        assert!((1..=60).contains(&m.run_seconds));
        assert!(m
            .end_to_end
            .iter()
            .all(|e| e.bound > 0.0 && e.bound <= 0.25));
        let setup = m.end_to_end.iter().find(|e| e.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(m.end_to_end.iter().all(|e| e.bound <= setup.bound));
        let doc = Value::parse(BENCHMARK_JSON).unwrap();
        let theirs: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
        assert_eq!(theirs, ours);
    }

    #[test]
    fn a_manifest_without_its_tables_is_refused() {
        assert!(Manifest::parse("{}").is_err());
        assert!(Manifest::parse(r#"{"end_to_end": [{"name": "x"}]}"#).is_err());
    }
}
