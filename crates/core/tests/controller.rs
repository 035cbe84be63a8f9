//! Crash-tolerant control plane: controller checkpoint/restart with
//! epoch-fenced, idempotent reconfiguration.
//!
//! The central properties under test:
//!
//! * **Convergence** — a controller crashed mid-drain and restarted from
//!   its checkpoint reconciles to exactly the state the crash-free run
//!   reaches: post-repair pins equal the healthy-fabric plan.
//! * **Idempotence** — re-driving a drain whose completion the dead
//!   incarnation never observed is a no-op when the drain in fact
//!   completed: the run's observable digest is byte-identical to the
//!   crash-free run.
//! * **Fencing** — commands from a previous controller incarnation are
//!   dropped by the ranks, counted, and never perturb protocol state.
//! * **Bounded memory** — detour baselines and drain obligations are
//!   cleared on fail-back retirement and communicator destroy.
//! * **Overflow resync** — a long outage rolls the bounded health
//!   channel past the frozen cursor; the restart resyncs from a snapshot
//!   that matches ground truth.

mod common;

use common::{four_host, COMM, GPUS, SPINE0};
use mccs_collectives::op::all_reduce_sum;
use mccs_core::config::ServiceConfig;
use mccs_core::messages::ProxyMsg;
use mccs_core::{
    ChaosAction, ChaosDriver, Cluster, ClusterConfig, CollectiveConfig, DetourPolicy, Explorer,
    ExplorerConfig, FailureEvent, HealthDelivery, RouteMap, Scenario, Work,
};
use mccs_netsim::FaultPlan;
use mccs_shim::{ScriptStep, ScriptedProgram};
use mccs_sim::{Bytes, Nanos};
use mccs_topology::presets;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A service config with an aggressive checkpoint cadence, so every
/// recovery-engine poll snapshots the controller's working state.
fn eager_checkpoint_svc() -> ServiceConfig {
    ServiceConfig {
        controller_checkpoint_interval: Nanos::from_micros(1),
        ..ServiceConfig::default()
    }
}

/// The fault suite's four-host tenant under the eager checkpoint cadence.
fn ctrl(seed: u64, size: Bytes, iters: usize) -> Scenario {
    let mut s = four_host("ctrl", seed, size, iters);
    s.config.service = eager_checkpoint_svc();
    s
}

/// Whether every rank of `COMM` is back in `Normal` at or past `epoch`.
fn drained_to(cluster: &Cluster, epoch: u64) -> bool {
    let ranks: Vec<_> = cluster
        .world
        .comms
        .values()
        .filter(|r| r.comm == COMM)
        .collect();
    ranks.len() == GPUS.len()
        && ranks
            .iter()
            .all(|r| r.reconfig.is_settled() && r.config.epoch >= epoch)
}

/// Assert the convergence oracle: `COMM`'s pins are exactly what the
/// detour policy proposes on the current (healthy) fabric.
fn assert_pins_converged(cluster: &Cluster) {
    let rank = cluster
        .world
        .comms
        .values()
        .find(|r| r.comm == COMM)
        .expect("comm persists");
    let (rings, routes) =
        DetourPolicy::plan(&cluster.world, &rank.config).expect("healthy fabric must yield a plan");
    assert_eq!(rank.config.channel_rings, rings, "rings did not converge");
    assert_eq!(
        rank.config.routes, routes,
        "post-restart pins are not the healthy-fabric choice"
    );
}

/// Assert completed-xor-failed: every collective left a record on every
/// rank, with all ranks agreeing on the outcome.
fn assert_completed_xor_failed(cluster: &Cluster, collectives: usize) {
    assert_eq!(cluster.world.tenant_log.unfinished(), 0);
    let mut groups: BTreeMap<u64, Vec<bool>> = BTreeMap::new();
    for r in cluster.world.tenant_log.records() {
        groups.entry(r.seq).or_default().push(r.failed);
    }
    assert_eq!(groups.len(), collectives, "missing collective records");
    for (seq, flags) in &groups {
        assert_eq!(flags.len(), GPUS.len(), "seq {seq} missing ranks");
        assert!(
            flags.iter().all(|&f| f == flags[0]),
            "seq {seq} split-brained: {flags:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Tentpole: crash mid-drain, restart, reconcile, converge
// ---------------------------------------------------------------------------

/// The pinned acceptance scenario (mirrored by the `fault_digest`
/// determinism gate): the hottest outage domain dies at 10ms, the
/// controller crashes at the instant its corrective drain is issued, the
/// drain completes while the controller is dead, and the restart must
/// reconcile — re-drive nothing (the drain visibly completed), survive
/// the stall-report replay, and still fail back to the healthy plan
/// after the 120ms repair.
#[test]
fn crash_mid_drain_restart_reconverges() {
    let mut cluster = ctrl(95, Bytes::mib(32), 4).build();
    let domain = cluster.world.topo.switch_links(SPINE0);
    let mut driver = ChaosDriver::new(&mut cluster);
    driver.run_until(Nanos::from_millis(10));
    for &l in &domain {
        driver.link_down(l);
    }
    // Run to the instant the corrective drain goes out, then kill the
    // controller right there — the barrier is still propagating.
    driver
        .run_until_event(
            Nanos::from_secs(5),
            |e| matches!(e, FailureEvent::RecoveryIssued { comm, .. } if *comm == COMM),
        )
        .expect("spine-0 outage must force a corrective drain");
    driver.crash_controller();
    assert!(driver.is_controller_down());
    driver.run_for(Nanos::from_millis(20));
    assert!(
        drained_to(driver.cluster(), 1),
        "the issued drain must complete on its own while the controller is dead"
    );
    driver.restart_controller();
    driver.run_until(Nanos::from_millis(120));
    for &l in &domain {
        driver.link_up(l);
    }
    driver
        .run_to_quiescence(Nanos::from_secs(30))
        .expect("crash + restart + repair must still quiesce");

    let stats = cluster.mgmt().controller_stats();
    assert_eq!(stats.crashes, 1);
    assert_eq!(stats.restarts, 1);
    assert_eq!(stats.reconciliations, 1, "restart must reconcile once");
    assert!(stats.downtime_ns > 0, "downtime must be accounted");
    assert!(stats.checkpoints >= 1, "eager cadence must checkpoint");
    assert!(!cluster.mgmt().controller_down());
    assert_eq!(cluster.mgmt().controller_incarnation(), 1);

    let counters = cluster.mgmt().health_counters();
    assert!(counters.recoveries > 0, "outage must force a detour");
    assert!(counters.failbacks > 0, "repair must trigger fail-back");
    assert_eq!(counters.collectives_failed, 0);
    assert_pins_converged(&cluster);
    assert_completed_xor_failed(&cluster, 4);
}

/// A repair edge that lands while the corrective drain is still in
/// flight must not strand the detour: the ranks cannot enter a new
/// barrier mid-drain, so the fail-back evaluation is deferred until the
/// drain retires — and must then actually run. (Found by the pinned
/// `crash_during_outage` chaos episode: the retirement sweep used to run
/// the check only for restorative drains, so a repair consumed mid-drain
/// left the pins on the detour forever.)
#[test]
fn repair_racing_drain_defers_failback() {
    let mut cluster = ctrl(95, Bytes::mib(32), 4).build();
    let domain = cluster.world.topo.switch_links(SPINE0);
    let mut driver = ChaosDriver::new(&mut cluster);
    driver.run_until(Nanos::from_millis(10));
    for &l in &domain {
        driver.link_down(l);
    }
    driver
        .run_until_event(
            Nanos::from_secs(5),
            |e| matches!(e, FailureEvent::RecoveryIssued { comm, .. } if *comm == COMM),
        )
        .expect("spine-0 outage must force a corrective drain");
    // Step until the barrier visibly holds a rank out of `Normal`, then
    // repair the whole domain with the drain still in flight.
    while !driver
        .cluster()
        .world
        .comms
        .values()
        .any(|r| r.comm == COMM && !r.reconfig.is_settled())
    {
        driver.step().expect("the issued drain must start");
    }
    for &l in &domain {
        driver.link_up(l);
    }
    driver
        .run_to_quiescence(Nanos::from_secs(30))
        .expect("repair racing the drain must still quiesce");

    let counters = cluster.mgmt().health_counters();
    assert!(counters.recoveries > 0, "outage must force a detour");
    assert!(
        counters.failbacks > 0,
        "the deferred fail-back must run once the drain retires"
    );
    assert_eq!(counters.collectives_failed, 0);
    let live = &cluster.world.controller.live;
    assert!(live.issued.is_empty(), "all obligations must retire");
    assert!(live.detoured.is_empty(), "detour must retire after repair");
    assert!(live.baselines.is_empty(), "baselines must clear on retire");
    assert_pins_converged(&cluster);
    assert_completed_xor_failed(&cluster, 4);
}

// ---------------------------------------------------------------------------
// Tentpole: re-driving a converged drain is observably a no-op
// ---------------------------------------------------------------------------

/// Digest-equality acceptance: a crash taken after the drain converged,
/// restarted from a checkpoint that still carries the drain obligation,
/// must retire it without sending a byte — the full run hashes
/// identically to the crash-free run.
#[test]
fn redrive_of_converged_drain_is_digest_noop() {
    let seed = 95;
    let fault_at = Nanos::from_millis(10);
    let repair_at = Nanos::from_millis(120);

    // Arm A: no crash.
    let mut baseline = ctrl(seed, Bytes::mib(32), 4).build();
    let domain = baseline.world.topo.switch_links(SPINE0);
    {
        let mut driver = ChaosDriver::new(&mut baseline);
        driver.run_until(fault_at);
        for &l in &domain {
            driver.link_down(l);
        }
        driver.run_until(repair_at);
        for &l in &domain {
            driver.link_up(l);
        }
        driver
            .run_to_quiescence(Nanos::from_secs(30))
            .expect("baseline arm must quiesce");
    }

    // Arm B: same timeline, plus a crash at the instant the corrective
    // drain goes out. The drain converges while the controller is dead,
    // so the restart's re-drive must observe completion and retire the
    // checkpointed obligation without sending a byte.
    let mut crashed = ctrl(seed, Bytes::mib(32), 4).build();
    {
        let mut driver = ChaosDriver::new(&mut crashed);
        driver.run_until(fault_at);
        for &l in &domain {
            driver.link_down(l);
        }
        driver
            .run_until_event(
                Nanos::from_secs(5),
                |e| matches!(e, FailureEvent::RecoveryIssued { comm, .. } if *comm == COMM),
            )
            .expect("outage must force a corrective drain");
        driver.crash_controller();
        // The eager checkpoint taken at the drain-issuing poll carries
        // the obligation whose completion the dead incarnation will
        // never observe.
        let ckpt = driver
            .cluster()
            .world
            .controller
            .checkpoint
            .as_ref()
            .expect("eager cadence leaves a checkpoint");
        assert!(
            ckpt.issued.contains_key(&COMM),
            "checkpoint must carry the unobserved drain obligation"
        );
        driver.run_for(Nanos::from_millis(20));
        assert!(
            drained_to(driver.cluster(), 1),
            "drain must converge while the controller is dead"
        );
        driver.restart_controller();
        driver.run_until(repair_at);
        assert!(
            driver.cluster().world.controller.live.issued.is_empty(),
            "reconciliation must retire the completed obligation"
        );
        for &l in &domain {
            driver.link_up(l);
        }
        driver
            .run_to_quiescence(Nanos::from_secs(30))
            .expect("crash arm must quiesce");
    }

    let stats = crashed.mgmt().controller_stats();
    assert_eq!(stats.crashes, 1);
    assert_eq!(stats.reconciliations, 1);
    assert_eq!(stats.stale_fenced, 0, "nothing stale was ever delivered");
    assert_eq!(
        baseline.observable_digest(),
        crashed.observable_digest(),
        "a reconciled crash+restart must be observably a no-op"
    );
}

// ---------------------------------------------------------------------------
// Tentpole: epoch/incarnation fencing of stale commands
// ---------------------------------------------------------------------------

/// A command issued by a dead incarnation and delivered after the
/// restart is dropped by every rank: counted as fenced, no barrier
/// entered, epoch untouched. A current-incarnation command still works.
#[test]
fn stale_incarnation_command_is_fenced() {
    let mut cluster = ctrl(33, Bytes::mib(8), 3).build();
    let mut driver = ChaosDriver::new(&mut cluster);
    driver.run_until(Nanos::from_millis(5));
    assert!(drained_to(driver.cluster(), 0), "comm must be registered");
    driver.crash_controller();
    driver.restart_controller();
    driver.run_for(Nanos::from_millis(1));
    assert_eq!(driver.cluster().world.controller.incarnation, 1);

    // The new incarnation contacts the ranks first — this is what
    // raises their fences (incarnation is learned per message, so a
    // restarted controller that has sent nothing yet cannot be
    // protected against its predecessor).
    let rings = driver
        .cluster_mut()
        .mgmt()
        .communicator(COMM)
        .expect("registered")
        .rings;
    driver
        .cluster_mut()
        .mgmt()
        .reconfigure(COMM, rings, RouteMap::ecmp());
    driver.run_until_event(
        Nanos::from_secs(5),
        |e| matches!(e, FailureEvent::ReconfigApplied { comm, .. } if *comm == COMM),
    );
    while !drained_to(driver.cluster(), 1) {
        driver.step().expect("reconfiguration must converge");
    }

    // Forge the dead incarnation's in-flight reconfigure: a valid
    // next-epoch config stamped with incarnation 0.
    let stale = {
        let rank = driver
            .cluster()
            .world
            .comms
            .values()
            .find(|r| r.comm == COMM)
            .expect("comm persists");
        CollectiveConfig {
            epoch: rank.config.epoch + 1,
            channel_rings: rank.config.channel_rings.clone(),
            routes: RouteMap::ecmp(),
        }
    };
    let epoch_before = stale.epoch - 1;
    for &gpu in &GPUS {
        driver.cluster_mut().world.send_control(
            gpu,
            ProxyMsg::Reconfigure {
                comm: COMM,
                incarnation: 0,
                config: stale.clone(),
            },
        );
    }
    driver.run_for(Nanos::from_millis(2));
    let w = &driver.cluster().world;
    assert_eq!(
        w.controller.stats.stale_fenced,
        GPUS.len() as u64,
        "every rank must fence the stale command"
    );
    let ranks: Vec<_> = w.comms.values().filter(|r| r.comm == COMM).collect();
    assert!(
        ranks
            .iter()
            .all(|r| r.reconfig.is_settled() && r.config.epoch == epoch_before),
        "a fenced command must not perturb protocol state"
    );
    drop(ranks);

    // The new incarnation's commands still go through.
    let rings = driver
        .cluster_mut()
        .mgmt()
        .communicator(COMM)
        .expect("registered")
        .rings;
    driver
        .cluster_mut()
        .mgmt()
        .reconfigure(COMM, rings, RouteMap::ecmp());
    driver
        .run_to_quiescence(Nanos::from_secs(30))
        .expect("must quiesce");
    assert!(drained_to(&cluster, epoch_before + 1));
    assert_eq!(cluster.mgmt().controller_stats().stale_fenced, 4);
}

// ---------------------------------------------------------------------------
// Satellite 1: baseline memory is bounded
// ---------------------------------------------------------------------------

/// Fail-back retirement clears the detour baseline: the map grows while
/// the detour is live and shrinks back to empty once the repaired fabric
/// converges.
#[test]
fn failback_retire_clears_baselines() {
    let mut cluster = ctrl(95, Bytes::mib(32), 4).build();
    let domain = cluster.world.topo.switch_links(SPINE0);
    let mut driver = ChaosDriver::new(&mut cluster);
    driver.run_until(Nanos::from_millis(10));
    for &l in &domain {
        driver.link_down(l);
    }
    driver.run_until(Nanos::from_millis(50));
    {
        let live = &driver.cluster().world.controller.live;
        assert!(
            live.baselines.contains_key(&COMM),
            "an active detour must remember its baseline"
        );
        assert!(live.detoured.contains(&COMM));
    }
    driver.run_until(Nanos::from_millis(120));
    for &l in &domain {
        driver.link_up(l);
    }
    driver
        .run_to_quiescence(Nanos::from_secs(30))
        .expect("must quiesce");
    let live = &cluster.world.controller.live;
    assert!(
        live.baselines.is_empty(),
        "retired fail-back must clear its baseline: {:?}",
        live.baselines.keys().collect::<Vec<_>>()
    );
    assert!(live.detoured.is_empty(), "detour set must retire");
    assert!(live.issued.is_empty(), "completed drains must be swept");
}

/// Destroying a communicator while it is detoured (the fabric never
/// heals) clears every per-communicator controller entry on the next
/// sweep — the unbounded-growth fix.
#[test]
fn destroyed_comm_clears_controller_state() {
    let size = Bytes::mib(32);
    let cfg = ClusterConfig {
        service: eager_checkpoint_svc(),
        ..ClusterConfig::with_seed(95)
    };
    let mut cluster = Cluster::new(Arc::new(presets::testbed()), cfg);
    let ranks = GPUS
        .iter()
        .enumerate()
        .map(|(rank, &gpu)| {
            let mut steps = vec![
                ScriptStep::Alloc { size, slot: 0 },
                ScriptStep::Alloc { size, slot: 1 },
                ScriptStep::CommInit {
                    comm: COMM,
                    world: GPUS.to_vec(),
                    rank,
                },
            ];
            for _ in 0..4 {
                steps.push(ScriptStep::Collective {
                    comm: COMM,
                    op: all_reduce_sum(),
                    size,
                    send_slot: 0,
                    recv_slot: 1,
                });
            }
            steps.push(ScriptStep::CommDestroy { comm: COMM });
            let prog = ScriptedProgram::new(format!("destroy/r{rank}"), steps);
            (gpu, Box::new(prog) as Box<dyn mccs_shim::AppProgram>)
        })
        .collect();
    cluster.add_app("destroy", ranks);

    let domain = cluster.world.topo.switch_links(SPINE0);
    let mut driver = ChaosDriver::new(&mut cluster);
    driver.run_until(Nanos::from_millis(10));
    for &l in &domain {
        driver.link_down(l);
    }
    // Let the detoured collectives finish and the script destroy the
    // communicator — the fabric stays broken the whole time.
    driver.run_until(Nanos::from_millis(400));
    assert!(
        !driver.cluster().world.comms.keys().any(|(c, _)| *c == COMM),
        "script must have destroyed the communicator by now"
    );
    assert!(
        !driver.cluster().world.controller.live.baselines.is_empty(),
        "pre-sweep: the dead communicator's baseline still lingers"
    );
    // Any topology edge triggers a batch, whose sweep drops state for
    // communicators that no longer exist.
    for &l in &domain {
        driver.link_up(l);
    }
    driver
        .run_to_quiescence(Nanos::from_secs(30))
        .expect("must quiesce");
    let live = &cluster.world.controller.live;
    assert!(live.baselines.is_empty(), "destroy must clear baselines");
    assert!(live.detoured.is_empty(), "destroy must clear detours");
    assert!(live.issued.is_empty(), "destroy must clear obligations");
    assert_eq!(cluster.mgmt().health_counters().collectives_failed, 0);
}

// ---------------------------------------------------------------------------
// Satellite 2: long outage overflows the channel; restart resyncs
// ---------------------------------------------------------------------------

/// With a tiny channel, a long controller outage accumulates more events
/// than the ring holds. A subscriber frozen across the outage gets a
/// snapshot resync whose view matches ground truth exactly, and the
/// restarted engine reconciles through the same path without issue.
#[test]
fn long_outage_overflows_channel_and_resyncs() {
    let svc = ServiceConfig {
        health_channel_capacity: 8,
        ..eager_checkpoint_svc()
    };
    let cfg = ClusterConfig {
        service: svc,
        ..ClusterConfig::with_seed(7)
    };
    let mut cluster = Cluster::new(Arc::new(presets::testbed()), cfg);
    let mut driver = ChaosDriver::new(&mut cluster);
    driver.run_until(Nanos::from_millis(1));
    // This subscriber stands in for any controller-side consumer whose
    // cursor froze at the crash.
    let mut sub = driver.cluster_mut().mgmt().subscribe_health();
    driver.crash_controller();

    // 16 events against capacity 8: degrade/repair pairs on the spine
    // uplinks, spread over the outage.
    let domain = driver.cluster().world.topo.switch_links(SPINE0);
    let mut injected = 0u64;
    for round in 0..2 {
        for (i, &l) in domain.iter().take(4).enumerate() {
            let t = Nanos::from_millis(2 + round * 8 + i as u64 * 2);
            driver.run_until(t);
            if round == 0 {
                driver.degrade(l, 300 + i as u32 * 100);
            } else {
                driver.degrade(l, 1000);
            }
            injected += 1;
        }
    }
    // Leave one uplink browned out so the snapshot has content.
    driver.run_until(Nanos::from_millis(20));
    driver.degrade(domain[0], 500);
    injected += 1;
    assert!(injected > 8, "must outrun the ring");

    let delivery = driver.cluster().world.health.poll(&mut sub);
    let snap = match delivery {
        HealthDelivery::Resync(snap) => snap,
        HealthDelivery::Events(e) => panic!("expected overflow resync, got {} events", e.len()),
    };
    assert!(snap.lost > 0, "overflow must report lost events");
    let w = &driver.cluster().world;
    assert_eq!(
        snap.links_down,
        w.health.links_down().collect::<Vec<_>>(),
        "snapshot links_down diverged from ground truth"
    );
    assert_eq!(
        snap.hosts_down,
        w.health.hosts_down().collect::<Vec<_>>(),
        "snapshot hosts_down diverged from ground truth"
    );
    assert_eq!(
        snap.links_degraded,
        w.health.links_degraded().collect::<Vec<_>>(),
        "snapshot links_degraded diverged from ground truth"
    );
    assert_eq!(snap.links_degraded, vec![(domain[0], 500)]);

    // The restarted engine's frozen cursor takes the same resync path.
    driver.restart_controller();
    driver
        .run_to_quiescence(Nanos::from_secs(10))
        .expect("must quiesce");
    let stats = cluster.mgmt().controller_stats();
    assert_eq!(stats.reconciliations, 1);
    assert_eq!(stats.crashes, 1);
}

// ---------------------------------------------------------------------------
// Acceptance proptest: random crash points over random fault timelines
// ---------------------------------------------------------------------------

fn crashy_explorer_config(master: u64) -> ExplorerConfig {
    ExplorerConfig {
        seed: master,
        episodes: 3,
        inject_prob: 0.3,
        max_actions: 4,
        horizon: Nanos::from_millis(40),
        deadline: Nanos::from_secs(60),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Controller crashes at random decision points (each carrying a
    /// paired restart obligation) over random fault timelines: every
    /// episode must satisfy completed-xor-failed, quiesce, pass the
    /// post-restart pin-convergence oracle, and replay byte-identically
    /// from its decision trace.
    #[test]
    fn random_crash_points_stay_sound(master in 1_u64..10_000) {
        let world = ctrl(7, Bytes::mib(8), 3);
        let mut explorer = Explorer::new(crashy_explorer_config(master), || world.build());
        for r in explorer.run() {
            prop_assert!(
                r.verdict.is_ok(),
                "episode seed {:#x} violated an oracle: {:?} (trace {:?})",
                r.seed, r.verdict, r.trace
            );
            let replay = explorer.replay(r.seed, &r.trace);
            prop_assert_eq!(
                replay.digest, r.digest,
                "replay of seed {:#x} diverged from its recording", r.seed
            );
        }
    }
}

/// The crash action is actually reachable: across a fixed deterministic
/// seed range the explorer chooses `CrashController` (with its paired
/// restart obligation) at least once, and those episodes pass.
#[test]
fn explorer_reaches_controller_crashes() {
    let mut crashes = 0usize;
    for master in 1..=6 {
        let world = ctrl(7, Bytes::mib(8), 3);
        let mut explorer = Explorer::new(crashy_explorer_config(master), || world.build());
        for r in explorer.run() {
            assert!(
                r.verdict.is_ok(),
                "episode seed {:#x}: {:?} (trace {:?})",
                r.seed,
                r.verdict,
                r.trace
            );
            crashes += r
                .trace
                .iter()
                .filter(|d| d.action == ChaosAction::CrashController)
                .count();
        }
    }
    assert!(
        crashes > 0,
        "no episode ever crashed the controller — the menu arm is dead"
    );
}

// ---------------------------------------------------------------------------
// Determinism with two obligations in play
// ---------------------------------------------------------------------------

/// Both four-host tenants of `common::two_tenants` on the testbed, under
/// the eager checkpoint cadence. Spine 0 carries both communicators'
/// cross-rack edges, so its outage forces one corrective drain each.
fn two_comms(seed: u64, jitter: bool) -> Scenario {
    let mut tenants = common::two_tenants(Bytes::mib(4), 4);
    for t in &mut tenants {
        // Idle ranks between collectives: a request reaching one starts
        // its barrier at once, so request latencies show in the trace.
        t.body.insert(0, Work::Compute(Nanos::from_millis(40)));
    }
    let mut s = common::testbed(seed, tenants);
    s.config.service = eager_checkpoint_svc();
    if !jitter {
        s.config.service.control_jitter_frac = 0.0;
        s.config.ipc.jitter_frac = 0.0;
    }
    s
}

/// Run `run` five times in this process and require one digest. Every
/// run builds its maps afresh, so a walk in hash order shows up as runs
/// that disagree.
fn five_runs_agree(what: &str, run: impl Fn() -> u64) {
    let digests: Vec<u64> = (0..5).map(|_| run()).collect();
    assert!(
        digests.iter().all(|&d| d == digests[0]),
        "{what}: repetitions in one process diverged: {digests:x?}"
    );
}

/// The recovery engine's retirement sweep finds both communicators'
/// drains complete in one pass (no jitter, so both barriers settle at
/// one instant) and retires them, then the repair fails both back. The
/// run repeats exactly.
#[test]
fn two_drains_retiring_in_one_sweep_repeat_exactly() {
    let run = || {
        let mut cluster = two_comms(95, false).build();
        let domain = cluster.world.topo.switch_links(SPINE0);
        let mut driver = ChaosDriver::new(&mut cluster);
        driver.run_until(Nanos::from_millis(10));
        for &l in &domain {
            driver.link_down(l);
        }
        let issued = |d: &ChaosDriver| d.cluster().world.controller.live.issued.len();
        while issued(&driver) < 2 {
            driver.step().expect("the outage must force two drains");
        }
        while issued(&driver) == 2 {
            driver.step().expect("the drains must complete");
        }
        assert_eq!(issued(&driver), 0, "both drains retire in one sweep");
        driver.run_until(Nanos::from_millis(120));
        for &l in &domain {
            driver.link_up(l);
        }
        driver
            .run_to_quiescence(Nanos::from_secs(30))
            .expect("outage and repair must quiesce");
        let counters = cluster.mgmt().health_counters();
        assert!(counters.recoveries >= 2, "one drain per communicator");
        assert!(counters.failbacks >= 2, "one fail-back per communicator");
        assert_eq!(counters.collectives_failed, 0);
        cluster.observable_digest()
    };
    five_runs_agree("two drains retired in one sweep", run);
}

/// The controller crashes with both corrective drains in flight and
/// restarts at once. Their requests (the first eight control messages)
/// are lost, so reconciliation re-drives both checkpointed obligations
/// for real, and each resend draws control-latency jitter: the order it
/// walks them in is visible. The run repeats exactly.
#[test]
fn a_restart_with_two_obligations_in_flight_repeats_exactly() {
    let run = || {
        let mut s = two_comms(95, true);
        s.faults = Some((0..8).fold(FaultPlan::new(), FaultPlan::drop_control));
        let mut cluster = s.build();
        let domain = cluster.world.topo.switch_links(SPINE0);
        let mut driver = ChaosDriver::new(&mut cluster);
        driver.run_until(Nanos::from_millis(10));
        for &l in &domain {
            driver.link_down(l);
        }
        while driver.cluster().world.controller.live.issued.len() < 2 {
            driver.step().expect("the outage must force two drains");
        }
        driver.crash_controller();
        let ckpt = (driver.cluster().world.controller.checkpoint.as_ref())
            .expect("eager cadence leaves a checkpoint");
        assert_eq!(ckpt.issued.len(), 2, "both obligations are checkpointed");
        driver.restart_controller();
        driver.run_until(Nanos::from_millis(120));
        for &l in &domain {
            driver.link_up(l);
        }
        driver
            .run_to_quiescence(Nanos::from_secs(30))
            .expect("crash, restart and repair must quiesce");
        let stats = cluster.mgmt().controller_stats();
        assert_eq!(stats.reconciliations, 1);
        assert_eq!(cluster.mgmt().health_counters().collectives_failed, 0);
        cluster.observable_digest()
    };
    five_runs_agree("restart re-driving two obligations", run);
}
