//! Figure 9 — job completion time of VGG (A) and two GPT fine-tunes
//! (B, C) under ECMP / FFA / PFA / PFA+TS, setup 3, normalized to FFA.
//!
//! A has the highest priority (PFA dedicates it an inter-rack route);
//! B is prioritized over C by traffic scheduling. The slowdown columns
//! divide each tenant's shared JCT by its JCT alone in the same trial
//! (`run_alone`), the price of sharing under each strategy.
//!
//! Run: `cargo run --release -p mccs-bench --bin fig9_qos_jct [trials]`

use mccs_bench::qos::{run_alone, run_qos, QosStrategy};
use mccs_bench::report::{json_rows, print_csv, print_table, write_bench_json};
use mccs_sim::stats::Summary;

fn main() {
    let trials: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    println!("== Figure 9: JCT under scheduling/QoS strategies ({trials} trials) ==");
    println!("workloads: A=VGG-19 DP (4 GPUs), B,C=GPT-2.7B TP (2 GPUs each); setup 3\n");

    // Collect JCTs (and failed-collective counts) per strategy per app.
    let names = ["VGG (A)", "GPT (B)", "GPT (C)"];
    let mut jcts: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); 3]; QosStrategy::ALL.len()];
    let mut failed: Vec<usize> = vec![0; QosStrategy::ALL.len()];
    // Each tenant's JCT alone, per trial.
    let alone: Vec<Vec<f64>> = (0..trials)
        .map(|trial| {
            let runs = run_alone(trial);
            assert!(runs.iter().all(|r| r.failed == 0), "a fault-free run");
            runs.iter().map(|r| r.jct.as_secs_f64()).collect()
        })
        .collect();
    for (si, &strategy) in QosStrategy::ALL.iter().enumerate() {
        for trial in 0..trials {
            let results = run_qos(strategy, trial);
            for (ai, run) in results.iter().enumerate() {
                jcts[si][ai].push(run.jct.as_secs_f64());
                failed[si] += run.failed;
            }
        }
    }
    // Normalize to the FFA mean per app (the paper's y-axis).
    let ffa_index = 1;
    let ffa_means: Vec<f64> = (0..3)
        .map(|ai| Summary::new(jcts[ffa_index][ai].iter().copied()).mean())
        .collect();

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (si, &strategy) in QosStrategy::ALL.iter().enumerate() {
        let mut cells = vec![strategy.label().to_owned()];
        let mut csv_row = vec![strategy.label().to_owned()];
        for ai in 0..3 {
            let s = Summary::new(jcts[si][ai].iter().map(|j| j / ffa_means[ai]));
            let (lo, hi) = s.p95_interval();
            cells.push(format!("{:.3} [{:.3},{:.3}]", s.mean(), lo, hi));
            csv_row.push(format!("{:.4}", s.mean()));
        }
        cells.push(failed[si].to_string());
        csv_row.push(failed[si].to_string());
        for (ai, shared) in jcts[si].iter().enumerate() {
            let slowdown = shared.iter().zip(&alone).map(|(s, alone)| s / alone[ai]);
            let mean = Summary::new(slowdown).mean();
            cells.push(format!("{mean:.3}"));
            csv_row.push(format!("{mean:.4}"));
        }
        rows.push(cells);
        csv.push(csv_row);
    }
    let headers = [
        "strategy",
        names[0],
        names[1],
        names[2],
        "failed",
        "slowdown A",
        "slowdown B",
        "slowdown C",
    ];
    print_table(&headers, &rows);
    println!();
    let columns = [
        "strategy",
        "vgg_a",
        "gpt_b",
        "gpt_c",
        "failed",
        "slowdown_a",
        "slowdown_b",
        "slowdown_c",
    ];
    print_csv("fig9", &columns, &csv);
    write_bench_json(
        "fig9_qos_jct",
        &format!(
            "\"trials\":{trials},\"normalized_to\":\"ffa\",\
             \"slowdown\":\"mean over trials of shared JCT / alone JCT; alone is the \
             same tenant, seed and start under FFA from 2 ms, and draws its own IPC \
             jitter stream (EXPERIMENTS.md, deviation 4)\",\"rows\":{}",
            json_rows(&columns, &csv)
        ),
    );
    println!(
        "\npaper shape: ECMP slows every workload vs FFA (18/22/14%); PFA\n\
         speeds A up further (13% vs FFA / 34% vs ECMP) at B/C's expense;\n\
         PFA+TS then speeds B up (~16%) relative to PFA, paid by C.\n\
         slowdown: shared JCT / the same tenant's JCT alone (FFA, same trial)."
    );
}
