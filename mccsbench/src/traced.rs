//! The traced run of one `(workload, seed)`: the same episode with a
//! [`Tracer`] around every driver call, bracketed by two untraced
//! episodes that fix the reference digest and the tracing overhead,
//! followed by the layer replays.

use crate::json::Value;
use crate::measure::episode;
use crate::run::{self, Outcome};
use crate::spec::Workload;
use crate::trace::{self, SpanName, Tracer};
use crate::{replay, stats};
use std::path::PathBuf;
use std::sync::Arc;

/// Spans written to the trace file verbatim; the summary covers all.
const SPANS_KEPT: usize = 20_000;

pub struct Traced {
    pub outcome: Outcome,
    pub problems: Vec<String>,
    /// `(metric name, value)` for every per-layer metric.
    pub values: Vec<(&'static str, f64)>,
    pub sim_workers: usize,
    pub sim_shards: usize,
}

pub fn traced(w: Workload, seed: u64, quick: bool) -> Traced {
    let (before, reference, mut problems) = episode(w, seed, quick);

    let mut tracer = Tracer::new();
    let (mut sc, _) = run::set_up(w, seed, quick, &mut tracer);
    let drive = run::drive(&mut sc, &mut tracer);
    let (outcome, found) = run::outcome(&sc, drive);
    problems.extend(found);
    if outcome != reference {
        problems.push(format!(
            "traced run diverged from the untraced one: digest {:016x} vs {:016x}, {:?} vs {:?}",
            outcome.digest, reference.digest, outcome.counts, reference.counts
        ));
    }

    let (after, again, _) = episode(w, seed, quick);
    if again != reference {
        problems.push("second untraced run diverged from the first".to_owned());
    }

    let mut values = driver_metrics(&tracer, &outcome);
    let traced_wall = tracer.total_s(SpanName::Run);
    let untraced_wall = (before.wall_s + after.wall_s) / 2.0;
    values.push(("trace.overhead_share", traced_wall / untraced_wall - 1.0));
    eprintln!(
        "  {} seed {seed}: untraced {:.3} s and {:.3} s, traced {traced_wall:.3} s",
        w.name(),
        before.wall_s,
        after.wall_s
    );

    let topo = Arc::clone(&sc.cluster.world.topo);
    let sim_workers = sc.cluster.sim_workers();
    let sim_shards = sc.cluster.sim_shards();
    values.extend(replay::run(w, &topo, &sc.spec, sim_shards, seed));

    if let Err(e) = write_trace(w, seed, &tracer) {
        // The file is a convenience; the metrics above do not need it.
        eprintln!("mccsbench: could not write the trace file: {e}");
    }
    Traced {
        outcome,
        problems,
        values,
        sim_workers,
        sim_shards,
    }
}

/// Span totals and percentiles, and the counts taken at the same
/// boundaries.
fn driver_metrics(t: &Tracer, o: &Outcome) -> Vec<(&'static str, f64)> {
    let c = &o.counts;
    let polls = c.polls.max(1) as f64;
    let poll_us = stats::sorted(&t.durations_ns(SpanName::Poll));
    let advance_us = stats::sorted(&t.durations_ns(SpanName::Advance));
    let us = |sorted: &[f64], permille| {
        if sorted.is_empty() {
            0.0
        } else {
            stats::percentile(sorted, permille) / 1e3
        }
    };
    let poll_s = t.total_s(SpanName::Poll);
    let advance_s = t.total_s(SpanName::Advance);
    let flows: Vec<f64> = t.live_flows.iter().map(|&n| f64::from(n)).collect();
    let flows = stats::sorted(&flows);
    vec![
        ("topology.build_s", t.total_s(SpanName::TopologyBuild)),
        ("workloads.plan_s", t.total_s(SpanName::Plan)),
        ("core.cluster_new_s", t.total_s(SpanName::ClusterNew)),
        ("shim.add_apps_s", t.total_s(SpanName::AddApps)),
        ("core.poll_s", poll_s),
        ("core.poll_us_p50", us(&poll_us, 500)),
        ("core.poll_us_p99", us(&poll_us, 990)),
        ("core.advance_s", advance_s),
        ("core.advance_us_p50", us(&advance_us, 500)),
        ("core.advance_us_p99", us(&advance_us, 990)),
        ("core.next_time_s", t.total_s(SpanName::NextTime)),
        ("control.optimize_s", t.total_s(SpanName::Optimize)),
        ("control.optimize_calls", c.drive.optimize_calls as f64),
        ("control.reconfigs", c.drive.reconfigs as f64),
        ("core.steps", c.drive.steps as f64),
        ("sim.polls", c.polls as f64),
        ("sim.wasted_polls", c.wasted_polls as f64),
        (
            "sim.wasted_per_useful",
            c.wasted_polls as f64 / (c.polls - c.wasted_polls).max(1) as f64,
        ),
        ("sim.wakes", c.wakes as f64),
        ("sim.polls_per_step", polls / c.drive.steps.max(1) as f64),
        ("core.ns_per_poll", (poll_s + advance_s) * 1e9 / polls),
        ("netsim.live_flows_p50", stats::percentile(&flows, 500)),
        ("netsim.live_flows_max", flows[flows.len() - 1]),
        ("netsim.remap_hits", c.remap_hits as f64),
        ("netsim.remap_misses", c.remap_misses as f64),
        ("netsim.remap_fast_hits", c.remap_fast_hits as f64),
        ("core.sched_cache_hits", c.sched_cache_hits as f64),
        ("core.sched_cache_misses", c.sched_cache_misses as f64),
        (
            "core.allocs_per_poll",
            t.allocs(SpanName::Poll).calls as f64 / polls,
        ),
        (
            "core.alloc_bytes_per_poll",
            t.allocs(SpanName::Poll).bytes as f64 / polls,
        ),
        (
            "core.allocs_per_advance",
            t.allocs(SpanName::Advance).calls as f64 / advance_us.len().max(1) as f64,
        ),
        ("core.flow_retries", c.flow_retries as f64),
        ("core.flow_repins", c.flow_repins as f64),
        ("core.recoveries", c.recoveries as f64),
        ("core.failbacks", c.failbacks as f64),
        ("core.reconfig_rejects", c.reconfig_rejects as f64),
        ("core.failed_collectives", o.failed as f64),
        ("control.checkpoints", c.checkpoints as f64),
    ]
}

/// `$CARGO_TARGET_DIR/mccsbench/` (or `target/mccsbench/`), relative to
/// the working directory like the build itself.
fn trace_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("mccsbench")
}

fn write_trace(w: Workload, seed: u64, t: &Tracer) -> std::io::Result<()> {
    let dir = trace_dir();
    std::fs::create_dir_all(&dir)?;
    let Value::Obj(mut fields) = trace::to_json(&t.spans, SPANS_KEPT) else {
        unreachable!("the trace document is an object");
    };
    fields.insert(0, ("seed".to_owned(), Value::from(seed)));
    fields.insert(0, ("workload".to_owned(), Value::str(w.name())));
    fields.insert(2, ("steps".to_owned(), Value::from(u64::from(t.steps()))));
    std::fs::write(
        dir.join(format!("trace_{}.json", w.name())),
        Value::Obj(fields).to_string(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use crate::spec::WORKLOADS;

    /// The traced driver reproduces the untraced digest and fills every
    /// per-layer metric, on all four workloads at toy sizes.
    #[test]
    fn quick_traced_run_matches_untraced_and_fills_every_metric() {
        for w in WORKLOADS {
            let t = traced(w, 5, true);
            assert!(t.problems.is_empty(), "{}: {:?}", w.name(), t.problems);
            let readings = metrics::per_layer(&t.values);
            assert_eq!(readings.len(), metrics::manifest().per_layer.len());
            assert!(readings.iter().all(|r| r.value.is_finite()), "{}", w.name());
            let get = |name| t.values.iter().find(|(n, _)| *n == name).unwrap().1;
            assert_eq!(get("core.steps"), t.outcome.counts.drive.steps as f64);
            assert!(get("core.poll_s") > 0.0 && get("sim.polls") > 0.0);
            let controlled = w == Workload::SvcCtrlChurn;
            assert_eq!(
                get("control.optimize_calls") > 0.0,
                controlled,
                "{}",
                w.name()
            );
        }
    }
}
