//! Seeded chaos exploration gate: run a battery of `Explorer` episodes
//! over the two-tenant testbed, judge every episode with the
//! completed-xor-failed and quiescence oracles, then deterministically
//! replay every recorded decision trace and fail if any replay digest
//! diverges from its recording.
//!
//! One line per episode:
//! `episode=<i> seed=<016x> decisions=<n> actions=<n> verdict=<v> digest=<016x>`
//! — the whole output is seed-pinned and virtual-time deterministic, so
//! it doubles as a cross-process determinism probe for the driver path.
//!
//! Exit status is non-zero on any oracle violation, hang, or replay
//! divergence. Also writes `results/BENCH_chaos_explore.json` for the
//! bench-regression gate.
//!
//! Run: `cargo run --release -p mccs-bench --bin chaos_explore`

use mccs_bench::report::{json_rows, print_table, write_bench_json};
use mccs_bench::setups::{two_tenant_testbed, SPINE0};
use mccs_core::{episode_seed, ChaosAction, Decision, Explorer, ExplorerConfig, Verdict};
use mccs_sim::{Bytes, Nanos};
use std::process::ExitCode;

fn verdict_label(v: &Verdict) -> String {
    match v {
        Verdict::Ok { completed, failed } => format!("ok({completed}c/{failed}f)"),
        Verdict::Hang { .. } => "hang".to_owned(),
        Verdict::Violation { .. } => "violation".to_owned(),
    }
}

fn main() -> ExitCode {
    let cfg = ExplorerConfig {
        seed: 0x4d43_4353, // "MCCS"
        episodes: 8,
        inject_prob: 0.02,
        max_actions: 3,
        horizon: Nanos::from_millis(40),
        deadline: Nanos::from_secs(60),
    };
    let world = two_tenant_testbed(33, Bytes::mib(8), 3);
    let mut explorer = Explorer::new(cfg, || world.build());
    let reports = explorer.run();

    let mut failed = false;
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (i, r) in reports.iter().enumerate() {
        println!(
            "episode={i} seed={:016x} decisions={} actions={} verdict={} digest={:016x}",
            r.seed,
            r.decisions_seen,
            r.trace.len(),
            verdict_label(&r.verdict),
            r.digest,
        );
        if !r.verdict.is_ok() {
            failed = true;
            println!("  FAIL oracle: {:?}", r.verdict);
            println!("  trace: {:?}", r.trace);
        }
        let replay = explorer.replay(r.seed, &r.trace);
        if replay.digest != r.digest || replay.verdict != r.verdict {
            failed = true;
            println!(
                "  FAIL replay diverged: digest {:016x} -> {:016x}, verdict {} -> {}",
                r.digest,
                replay.digest,
                verdict_label(&r.verdict),
                verdict_label(&replay.verdict),
            );
            println!("  trace: {:?}", r.trace);
        }
        let (completed, failures) = match r.verdict {
            Verdict::Ok { completed, failed } => (completed, failed),
            _ => (0, 0),
        };
        rows.push(vec![
            format!("{i}"),
            format!("{:016x}", r.seed),
            format!("{}", r.decisions_seen),
            format!("{}", r.trace.len()),
            verdict_label(&r.verdict),
            format!("{completed}"),
            format!("{failures}"),
            format!("{:016x}", r.digest),
            format!("{}", (replay.digest == r.digest) as u8),
        ]);
    }
    assert_eq!(
        reports.len(),
        cfg.episodes as usize,
        "explorer must run every configured episode"
    );
    assert!(
        reports.iter().any(|r| !r.trace.is_empty()),
        "exploration battery never injected a single fault — retune inject_prob"
    );
    // Derived seeds must all be distinct (episode streams unrelated).
    for i in 0..cfg.episodes {
        for j in (i + 1)..cfg.episodes {
            assert_ne!(episode_seed(cfg.seed, i), episode_seed(cfg.seed, j));
        }
    }

    // Pinned controller-crash episodes: hand-authored decision traces
    // replayed through the explorer (the RNG is never consulted), so the
    // crash/restart interleavings are exercised on every run regardless
    // of what the seeded search happens to sample. Each trace is run
    // twice and the doubled run must agree digest-for-digest.
    let spine = world.topo.switch_links(SPINE0);
    let pin = |index, action| Decision {
        index,
        at: Nanos::ZERO, // recorded for humans; replay is index-driven
        action,
    };
    // The whole spine-0 domain dies at the same decision point the
    // controller crashes: the corrective drain can only come from the
    // restarted incarnation, and the late repair forces its fail-back.
    let mut crash_during_outage: Vec<Decision> = spine
        .iter()
        .map(|&l| pin(30, ChaosAction::LinkDown(l)))
        .collect();
    crash_during_outage.push(pin(30, ChaosAction::CrashController));
    crash_during_outage.push(pin(90, ChaosAction::RestartController));
    crash_during_outage.extend(spine.iter().map(|&l| pin(150, ChaosAction::LinkUp(l))));
    let pinned: Vec<(&str, u64, Vec<Decision>)> = vec![
        (
            "pin:restart_noop",
            0x7e57_0001,
            vec![
                pin(40, ChaosAction::CrashController),
                pin(120, ChaosAction::RestartController),
            ],
        ),
        ("pin:crash_during_outage", 0x7e57_0002, crash_during_outage),
    ];
    for (name, seed, trace) in &pinned {
        let rep = explorer.replay(*seed, trace);
        let rerun = explorer.replay(*seed, trace);
        println!(
            "episode={name} seed={seed:016x} decisions={} actions={} verdict={} digest={:016x}",
            rep.decisions_seen,
            rep.trace.len(),
            verdict_label(&rep.verdict),
            rep.digest,
        );
        if rep.trace.len() != trace.len() {
            failed = true;
            println!(
                "  FAIL pinned trace truncated: {} of {} decisions applied \
                 (episode quiesced before the last index)",
                rep.trace.len(),
                trace.len()
            );
        }
        if !rep.verdict.is_ok() {
            failed = true;
            println!("  FAIL oracle: {:?}", rep.verdict);
        }
        if rerun.digest != rep.digest || rerun.verdict != rep.verdict {
            failed = true;
            println!(
                "  FAIL doubled run diverged: digest {:016x} -> {:016x}, verdict {} -> {}",
                rep.digest,
                rerun.digest,
                verdict_label(&rep.verdict),
                verdict_label(&rerun.verdict),
            );
        }
        let (completed, failures) = match rep.verdict {
            Verdict::Ok { completed, failed } => (completed, failed),
            _ => (0, 0),
        };
        rows.push(vec![
            (*name).to_owned(),
            format!("{seed:016x}"),
            format!("{}", rep.decisions_seen),
            format!("{}", rep.trace.len()),
            verdict_label(&rep.verdict),
            format!("{completed}"),
            format!("{failures}"),
            format!("{:016x}", rep.digest),
            format!("{}", (rerun.digest == rep.digest) as u8),
        ]);
    }

    let headers = [
        "episode",
        "seed",
        "decisions",
        "actions",
        "verdict",
        "completed",
        "failed",
        "digest",
        "replay_ok",
    ];
    println!();
    print_table(&headers, &rows);
    write_bench_json(
        "chaos_explore",
        &format!(
            "\"episodes\":{},\"total_actions\":{},\"rows\":{}",
            reports.len(),
            reports.iter().map(|r| r.trace.len()).sum::<usize>(),
            json_rows(&headers, &rows)
        ),
    );

    if failed {
        eprintln!("\nchaos exploration gate failed");
        ExitCode::FAILURE
    } else {
        println!("\nall episodes passed both oracles and replayed byte-identically");
        ExitCode::SUCCESS
    }
}
