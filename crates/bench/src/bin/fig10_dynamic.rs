//! Figure 10 — normalized training throughput under dynamic job arrivals
//! and policy changes.
//!
//! Tenant A (VGG) occupies the cluster from the start; B (GPT) arrives at
//! t1, C (GPT) at t2 — all sharing under FFA. At t3 the administrator
//! prioritizes A with PFA; at t4 B is further prioritized over C with
//! traffic scheduling. Each tenant's windowed throughput (collective bytes
//! completed per second) is normalized to its own first stable phase after
//! arrival, the paper's FFA reference.
//!
//! Run: `cargo run --release -p mccs-bench --bin fig10_dynamic`

use mccs_bench::report::{json_rows, print_csv, write_bench_json};
use mccs_bench::setups::multi_app_setup;
use mccs_control::{
    apply_traffic_schedule, optimize_cluster, ChannelPolicy, FlowAssignment, PolicySpec,
};
use mccs_core::{ClusterConfig, Scenario};
use mccs_ipc::{AppId, CommunicatorId};
use mccs_sim::{Nanos, TimeSeries};
use mccs_topology::{presets, RouteId};
use mccs_workloads::{gpt27b_tensor_parallel, vgg19_data_parallel};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

const T1: Nanos = Nanos::from_millis(2_000); // B arrives
const T2: Nanos = Nanos::from_millis(4_000); // C arrives
const T3: Nanos = Nanos::from_millis(6_000); // PFA: prioritize A
const T4: Nanos = Nanos::from_millis(8_000); // TS: prioritize B over C
const END: Nanos = Nanos::from_millis(11_000);
const WINDOW: Nanos = Nanos::from_millis(500);

fn main() {
    println!("== Figure 10: dynamic arrivals and policy changes ==\n");
    let placements = multi_app_setup(3);
    let mut cluster = Scenario {
        topo: Arc::new(presets::testbed()),
        config: ClusterConfig::with_seed(10),
        tenants: vec![
            vgg19_data_parallel(40).tenant(
                "A",
                CommunicatorId(1),
                &placements[0].gpus,
                Nanos::from_millis(20),
            ),
            gpt27b_tensor_parallel(16).tenant("B", CommunicatorId(2), &placements[1].gpus, T1),
            gpt27b_tensor_parallel(12).tenant("C", CommunicatorId(3), &placements[2].gpus, T2),
        ],
        faults: None,
    }
    .build();
    let (a, b, c) = (AppId(0), AppId(1), AppId(2));
    let apps = [a, b, c];

    // FFA from the start (recomputed at each arrival, as the controller
    // does "when a job joins or exits").
    cluster.run_until(Nanos::from_millis(5));
    optimize_cluster(&mut cluster, &PolicySpec::mccs());
    cluster.run_until(T1);
    optimize_cluster(&mut cluster, &PolicySpec::mccs());
    cluster.run_until(T2);
    optimize_cluster(&mut cluster, &PolicySpec::mccs());
    cluster.run_until(T3);
    println!("t={:.1}s  PFA: route 0 dedicated to A", T3.as_secs_f64());
    optimize_cluster(
        &mut cluster,
        &PolicySpec {
            optimal_rings: true,
            channels: ChannelPolicy::MatchNics,
            assignment: FlowAssignment::Pfa {
                priorities: BTreeMap::from([(a, 0u32)]),
                reserved: BTreeSet::from([RouteId(0)]),
            },
        },
    );
    cluster.run_until(T4);
    println!(
        "t={:.1}s  TS: C gated into B's idle windows",
        T4.as_secs_f64()
    );
    let ok = apply_traffic_schedule(&mut cluster, b, &[c]);
    assert!(ok, "B's trace must expose a period for TS");
    cluster.run_until(END);

    // Windowed collective-byte throughput per app, each normalized to its
    // own first stable phase after arrival.
    let arrivals = [Nanos::from_millis(20), T1, T2];
    let mut all_rows: Vec<Vec<String>> = Vec::new();
    for (i, &app) in apps.iter().enumerate() {
        let mut series = TimeSeries::new(format!("app{i}"));
        for rec in cluster.mgmt().timeline(app) {
            let done = rec.completed_at.expect("complete");
            if done <= END {
                series.push(done, rec.size.as_f64());
            }
        }
        // windowed bytes/s
        let windows = series.windowed_means(WINDOW);
        let counts: Vec<(Nanos, f64)> = windows
            .iter()
            .map(|&(t, mean_bytes)| {
                // mean bytes per completion x completions per window:
                // reconstruct sum via mean * count in window
                let count = series
                    .samples()
                    .iter()
                    .filter(|&&(st, _)| st >= t && st < t + WINDOW)
                    .count();
                (t, mean_bytes * count as f64 / WINDOW.as_secs_f64())
            })
            .collect();
        // reference: mean of the first two stable windows after arrival
        let ref_start = arrivals[i] + WINDOW;
        let reference: Vec<f64> = counts
            .iter()
            .filter(|&&(t, _)| t >= ref_start && t < ref_start + WINDOW * 2)
            .map(|&(_, v)| v)
            .collect();
        let norm = if reference.is_empty() {
            1.0
        } else {
            reference.iter().sum::<f64>() / reference.len() as f64
        };
        for (t, v) in counts {
            all_rows.push(vec![
                ["A", "B", "C"][i].to_owned(),
                format!("{:.2}", t.as_secs_f64()),
                format!("{:.3}", v / norm),
            ]);
        }
    }
    // Collectives the service cleanly failed back to each tenant: zero on
    // this fault-free run, but reported explicitly so an injected fault
    // shows up in the figure's data instead of silently thinning it.
    let failed: Vec<usize> = apps
        .iter()
        .map(|&app| {
            cluster
                .mgmt()
                .tenant_outcomes(app)
                .iter()
                .filter(|r| r.failed)
                .count()
        })
        .collect();
    print_csv("fig10", &["app", "elapsed_s", "normalized_tput"], &all_rows);
    write_bench_json(
        "fig10_dynamic",
        &format!(
            "\"timeline_s\":{{\"b_arrives\":{:.3},\"c_arrives\":{:.3},\
             \"pfa\":{:.3},\"ts\":{:.3}}},\
             \"failed_collectives\":{{\"a\":{},\"b\":{},\"c\":{}}},\"rows\":{}",
            T1.as_secs_f64(),
            T2.as_secs_f64(),
            T3.as_secs_f64(),
            T4.as_secs_f64(),
            failed[0],
            failed[1],
            failed[2],
            json_rows(&["app", "elapsed_s", "normalized_tput"], &all_rows)
        ),
    );
    println!(
        "failed collectives: A={} B={} C={}",
        failed[0], failed[1], failed[2]
    );
    println!(
        "\ntimeline: B arrives {:.0}s, C arrives {:.0}s, PFA {:.0}s, TS {:.0}s",
        T1.as_secs_f64(),
        T2.as_secs_f64(),
        T3.as_secs_f64(),
        T4.as_secs_f64()
    );
    println!(
        "paper shape: A's throughput steps down as B then C arrive, steps\n\
         back up at PFA; B steps up at TS while C pays; fluctuations after\n\
         TS reflect the window schedule."
    );
}
