//! End-to-end tests of the MCCS service: tenant programs talking through
//! the shim to frontends, proxies and transports over the simulated
//! testbed fabric.

mod common;

use common::{allreduce, testbed};
use mccs_collectives::op::all_reduce_sum;
use mccs_collectives::{bandwidth, CollectiveOp, ReduceKind, RingOrder};
use mccs_core::config::RouteMap;
use mccs_core::explore::{Explorer, ExplorerConfig, Verdict};
use mccs_core::{Cluster, Record, Tenant, TrafficWindows, Work};
use mccs_device::MemHandle;
use mccs_ipc::{AppId, CommunicatorId, ErrorCode};
use mccs_shim::{AppProgram, AppStatus, ReqId, ScriptStep, ScriptedProgram, ShimApi};
use mccs_sim::{Bytes, Nanos};
use mccs_topology::{presets, GpuId, RouteId};
use std::sync::{Arc, Mutex};

#[test]
fn single_host_allreduce_uses_intra_host_channels_only() {
    let comm = CommunicatorId(1);
    let gpus = [GpuId(0), GpuId(1)];
    let mut cluster = testbed(1, vec![allreduce("local", comm, &gpus, Bytes::mib(16), 1)]).build();
    cluster.check_engine_contract();
    let end = cluster.run_until_quiescent(Nanos::from_secs(5));
    assert!(end > Nanos::ZERO);
    // no network flows at all
    assert_eq!(cluster.world.net.flow_count(), 0);
    let tl = cluster.mgmt().timeline(AppId(0));
    assert_eq!(tl.len(), 1);
    // Each of 2 ring edges carries (2*1/2)*16MiB = 16MiB at ~20GiB/s shm:
    // well under 2ms with overheads.
    let lat = tl[0].latency().expect("complete");
    assert!(
        lat < Nanos::from_millis(3),
        "intra-host allreduce took {lat}"
    );
}

#[test]
fn four_host_allreduce_hits_line_rate() {
    let comm = CommunicatorId(7);
    // one GPU per host; world order follows hosts so the default
    // (NCCL-like) ring is already rack-contiguous.
    let gpus = [GpuId(0), GpuId(2), GpuId(4), GpuId(6)];
    let size = Bytes::mib(64);
    let mut cluster = testbed(2, vec![allreduce("ar4", comm, &gpus, size, 3)]).build();
    cluster.check_engine_contract();
    cluster.run_until_quiescent(Nanos::from_secs(10));
    let tl = cluster.mgmt().timeline(AppId(0));
    assert_eq!(tl.len(), 3);
    for rec in &tl {
        let lat = rec.latency().expect("complete");
        // Ideal: 1.5 * 64MiB at 50 Gbps = 16.1ms; allow overheads.
        let ideal = Nanos::from_secs_f64(1.5 * size.as_f64() * 8.0 / 50e9);
        assert!(
            lat >= ideal,
            "collective faster than the physics: {lat} < {ideal}"
        );
        assert!(
            lat < ideal + Nanos::from_millis(1),
            "too much overhead: {lat} vs ideal {ideal}"
        );
        // Algorithm bandwidth just under the 4.17 GB/s ideal.
        let algbw = bandwidth::algo_bandwidth(size, lat);
        assert!(
            algbw.as_gbytes_per_sec() > 4.0,
            "algbw {}",
            algbw.as_gbytes_per_sec()
        );
    }
}

#[test]
fn eight_gpu_two_channels_engage_both_nics() {
    let comm = CommunicatorId(2);
    let gpus: Vec<GpuId> = (0..8).map(GpuId).collect();
    let mut cluster = testbed(3, vec![allreduce("ar8", comm, &gpus, Bytes::mib(64), 1)]).build();
    cluster.check_engine_contract();
    cluster.run_until_quiescent(Nanos::from_secs(10));
    let info = cluster.mgmt().communicator(comm).expect("registered");
    assert_eq!(info.channels, 2, "2 GPUs/host -> 2 channels");
    assert_eq!(info.registered_ranks, 8);
    let tl = cluster.mgmt().timeline(AppId(0));
    assert_eq!(tl.len(), 1);
}

#[test]
fn allgather_latency_scales_with_op_factor() {
    // AllGather moves (n-1)/n*S per edge vs AllReduce's 2(n-1)/n*S:
    // same size should take about half the time.
    let size = Bytes::mib(128);
    let run = |op: CollectiveOp, seed: u64| -> Nanos {
        let comm = CommunicatorId(1);
        let gpus = [GpuId(0), GpuId(2), GpuId(4), GpuId(6)];
        let mut cluster = testbed(
            seed,
            vec![Tenant {
                body: vec![Work::Collective { op, size }],
                ..allreduce("x", comm, &gpus, size, 1)
            }],
        )
        .build();
        cluster.check_engine_contract();
        cluster.run_until_quiescent(Nanos::from_secs(20));
        cluster.mgmt().timeline(AppId(0))[0]
            .latency()
            .expect("complete")
    };
    let ar = run(all_reduce_sum(), 4);
    let ag = run(CollectiveOp::AllGather, 4);
    let ratio = ar.as_secs_f64() / ag.as_secs_f64();
    assert!(
        (1.8..2.2).contains(&ratio),
        "AR/AG latency ratio {ratio}, expected ~2"
    );
}

#[test]
fn collectives_serialize_per_communicator() {
    let comm = CommunicatorId(1);
    let gpus = [GpuId(0), GpuId(2)];
    let size = Bytes::mib(32);
    let mut cluster = testbed(5, vec![allreduce("serial", comm, &gpus, size, 4)]).build();
    cluster.check_engine_contract();
    cluster.run_until_quiescent(Nanos::from_secs(30));
    let tl = cluster.mgmt().timeline(AppId(0));
    assert_eq!(tl.len(), 4);
    for pair in tl.windows(2) {
        let prev_done = pair[0].completed_at.expect("complete");
        let next_started = pair[1].launched_at.expect("launched");
        assert!(
            next_started >= prev_done,
            "collective {} launched before {} completed",
            pair[1].seq,
            pair[0].seq
        );
    }
}

#[test]
fn reconfiguration_is_safe_and_epochs_agree() {
    let comm = CommunicatorId(3);
    let gpus = [GpuId(0), GpuId(2), GpuId(4), GpuId(6)];
    let size = Bytes::mib(32);
    let iters = 12;
    let mut cluster = testbed(6, vec![allreduce("reconf", comm, &gpus, size, iters)]).build();
    cluster.check_engine_contract();
    // Let a few collectives through, then reverse the ring at runtime.
    cluster.run_until(Nanos::from_millis(40));
    let info = cluster.mgmt().communicator(comm).expect("registered");
    assert_eq!(info.epoch, 0);
    let reversed: Vec<RingOrder> = info.rings.iter().map(RingOrder::reversed).collect();
    cluster.mgmt().reconfigure(comm, reversed, RouteMap::ecmp());
    cluster.run_until_quiescent(Nanos::from_secs(30));

    // All collectives completed.
    let tl = cluster.mgmt().timeline(AppId(0));
    assert_eq!(tl.len(), iters);
    // The epoch advanced.
    let info = cluster.mgmt().communicator(comm).expect("registered");
    assert_eq!(info.epoch, 1);
    // SAFETY PROPERTY: for every sequence number, all ranks executed it
    // under the same epoch.
    let records = cluster.mgmt().trace(AppId(0));
    let mut by_seq: std::collections::BTreeMap<u64, Vec<u64>> = Default::default();
    for r in &records {
        by_seq.entry(r.seq).or_default().push(r.epoch);
    }
    let mut saw_epoch1 = false;
    for (seq, epochs) in &by_seq {
        assert_eq!(epochs.len(), 4, "seq {seq} missing rank records");
        assert!(
            epochs.windows(2).all(|w| w[0] == w[1]),
            "seq {seq} executed under mixed epochs: {epochs:?}"
        );
        saw_epoch1 |= epochs[0] == 1;
    }
    assert!(saw_epoch1, "no collective ran under the new configuration");
}

/// Run a 4-rank AllReduce job, propose `bad(current rings)` as its next
/// epoch after a few collectives, and check that every rank refuses it:
/// one rejection per rank, the epoch unchanged, and every collective
/// completing under epoch 0.
fn assert_reconfiguration_refused(bad: impl FnOnce(&[RingOrder]) -> (Vec<RingOrder>, RouteMap)) {
    let comm = CommunicatorId(3);
    let gpus = [GpuId(0), GpuId(2), GpuId(4), GpuId(6)];
    let iters = 6;
    let mut cluster = testbed(
        6,
        vec![allreduce("refused", comm, &gpus, Bytes::mib(32), iters)],
    )
    .build();
    cluster.check_engine_contract();
    cluster.run_until(Nanos::from_millis(40));
    let info = cluster.mgmt().communicator(comm).expect("registered");
    let (rings, routes) = bad(&info.rings);
    cluster.mgmt().reconfigure(comm, rings, routes);
    cluster.run_until_quiescent(Nanos::from_secs(30));

    assert_eq!(
        cluster.world.health.counters.reconfig_rejects,
        gpus.len() as u64,
        "one rejection per rank"
    );
    let info = cluster.mgmt().communicator(comm).expect("registered");
    assert_eq!(info.epoch, 0, "the bad epoch was never entered");
    assert_eq!(cluster.mgmt().timeline(AppId(0)).len(), iters);
    assert_epochs_agree(&mut cluster, AppId(0), gpus.len());
}

#[test]
fn reconfiguration_with_an_unroutable_pin_is_rejected() {
    // The testbed has two equal-cost routes between racks. A route map
    // pinning a third used to be accepted and panic the first flow started
    // under it; now every rank refuses the epoch and the job runs on.
    let topo = presets::testbed();
    let (n0, n1) = (topo.nic_of_gpu(GpuId(2)), topo.nic_of_gpu(GpuId(4)));
    assert_eq!(topo.path_diversity(n0, n1), 2);
    let mut routes = RouteMap::ecmp();
    routes.pin(0, n0, n1, RouteId(2));
    let err = routes.validate(&topo).expect_err("id 2 of 2 routes");
    assert_eq!(err.code, mccs_ipc::ErrorCode::InvalidArgument);
    assert!(err.message.contains("out of range"), "{err}");
    let mut unroutable = RouteMap::ecmp();
    unroutable.pin(0, n0, n0, RouteId(0));
    let err = unroutable.validate(&topo).expect_err("self route");
    assert!(err.message.contains("itself"), "{err}");

    assert_reconfiguration_refused(|rings| (rings.to_vec(), routes));
}

#[test]
fn reconfiguration_with_a_short_ring_is_rejected() {
    // A second channel over three of the four GPUs used to be applied and
    // panic every proxy at its next launch.
    assert_reconfiguration_refused(|rings| {
        let mut rings = rings.to_vec();
        rings.push(RingOrder::new(rings[0].gpus()[..3].to_vec()));
        (rings, RouteMap::ecmp())
    });
}

#[test]
fn reconfiguration_naming_a_foreign_gpu_is_rejected() {
    // Swapping g6 for its host mate g7 (not a member) keeps the ring
    // length, and used to be applied as is: g7 has no rank to run it.
    assert_reconfiguration_refused(|rings| {
        let swap = |g: &GpuId| if *g == GpuId(6) { GpuId(7) } else { *g };
        let rings = rings
            .iter()
            .map(|r| RingOrder::new(r.gpus().iter().map(swap).collect()))
            .collect();
        (rings, RouteMap::ecmp())
    });
}

/// Check the Figure 4 safety property on a completed run: every sequence
/// number executed under one epoch on all `ranks` ranks.
fn assert_epochs_agree(cluster: &mut Cluster, app: AppId, ranks: usize) {
    let records = cluster.mgmt().trace(app);
    let mut by_seq: std::collections::BTreeMap<u64, Vec<u64>> = Default::default();
    for r in &records {
        by_seq.entry(r.seq).or_default().push(r.epoch);
    }
    for (seq, epochs) in &by_seq {
        assert_eq!(epochs.len(), ranks, "seq {seq} missing rank records");
        assert!(
            epochs.windows(2).all(|w| w[0] == w[1]),
            "seq {seq} executed under mixed epochs: {epochs:?}"
        );
    }
}

#[test]
fn reconfiguration_survives_skewed_req_arrival() {
    // Crank control-message jitter so a `Req` can take up to 9 hop
    // latencies to reach a rank: a neighbour's barrier gossip then often
    // arrives *before* the rank's own request (the pending-gossip path)
    // and late gossip keeps circulating past ranks that already finished
    // their barrier. The protocol must still quiesce safely.
    for seed in [11u64, 12, 13, 14] {
        let comm = CommunicatorId(3);
        let gpus = [GpuId(0), GpuId(2), GpuId(4), GpuId(6)];
        let iters = 10;
        let mut s = testbed(
            seed,
            vec![allreduce("skew", comm, &gpus, Bytes::mib(16), iters)],
        );
        s.config.service.control_jitter_frac = 8.0;
        let mut cluster = s.build();
        cluster.check_engine_contract();
        let app = AppId(0);
        cluster.run_until(Nanos::from_millis(20));
        let info = cluster.mgmt().communicator(comm).expect("registered");
        let reversed: Vec<RingOrder> = info.rings.iter().map(RingOrder::reversed).collect();
        cluster.mgmt().reconfigure(comm, reversed, RouteMap::ecmp());
        cluster.run_until_quiescent(Nanos::from_secs(30));

        let tl = cluster.mgmt().timeline(app);
        assert_eq!(tl.len(), iters, "seed {seed}: collectives lost");
        let info = cluster.mgmt().communicator(comm).expect("registered");
        assert_eq!(info.epoch, 1, "seed {seed}: reconfiguration never applied");
        assert_epochs_agree(&mut cluster, app, gpus.len());
    }
}

#[test]
fn back_to_back_reconfigurations_tolerate_late_gossip() {
    // Issue a second reconfiguration as soon as the first is applied,
    // while epoch-1 gossip may still be circulating the control ring:
    // stale messages must neither corrupt the epoch-2 barrier nor
    // deadlock it.
    let comm = CommunicatorId(3);
    let gpus = [GpuId(0), GpuId(2), GpuId(4), GpuId(6)];
    let iters = 14;
    let mut s = testbed(
        17,
        vec![allreduce("twice", comm, &gpus, Bytes::mib(16), iters)],
    );
    s.config.service.control_jitter_frac = 8.0;
    let mut cluster = s.build();
    cluster.check_engine_contract();
    let app = AppId(0);
    cluster.run_until(Nanos::from_millis(20));
    let info = cluster.mgmt().communicator(comm).expect("registered");
    let reversed: Vec<RingOrder> = info.rings.iter().map(RingOrder::reversed).collect();
    cluster
        .mgmt()
        .reconfigure(comm, reversed.clone(), RouteMap::ecmp());
    // Step in small increments and fire the second reconfiguration the
    // moment the first lands on rank 0.
    let mut t = Nanos::from_millis(20);
    loop {
        t += Nanos::from_millis(1);
        cluster.run_until(t);
        let info = cluster.mgmt().communicator(comm).expect("registered");
        if info.epoch == 1 {
            let back: Vec<RingOrder> = info.rings.iter().map(RingOrder::reversed).collect();
            cluster.mgmt().reconfigure(comm, back, RouteMap::ecmp());
            break;
        }
        assert!(
            t < Nanos::from_secs(30),
            "first reconfiguration never applied"
        );
    }
    cluster.run_until_quiescent(Nanos::from_secs(60));

    let tl = cluster.mgmt().timeline(app);
    assert_eq!(tl.len(), iters, "collectives lost across reconfigurations");
    let info = cluster.mgmt().communicator(comm).expect("registered");
    assert_eq!(info.epoch, 2, "second reconfiguration never applied");
    assert_epochs_agree(&mut cluster, app, gpus.len());
}

#[test]
fn communicators_with_identical_ring_shape_share_one_cache_entry() {
    // Two communicators over the same GPUs derive the same rings, so the
    // world-level cache must hold exactly one schedule both of them use:
    // the very first rank to launch derives it, every later launch — on
    // either communicator — hits.
    let mut cluster = testbed(41, Vec::new()).build();
    cluster.check_engine_contract();
    let gpus = [GpuId(0), GpuId(2), GpuId(4), GpuId(6)];
    let size = Bytes::mib(1);
    let progs: Vec<(GpuId, Box<dyn mccs_shim::AppProgram>)> = gpus
        .iter()
        .enumerate()
        .map(|(rank, &gpu)| {
            let prog = ScriptedProgram::new(
                format!("twin/r{rank}"),
                vec![
                    ScriptStep::Alloc { size, slot: 0 },
                    ScriptStep::Alloc { size, slot: 1 },
                    ScriptStep::CommInit {
                        comm: CommunicatorId(1),
                        world: gpus.to_vec(),
                        rank,
                    },
                    ScriptStep::CommInit {
                        comm: CommunicatorId(2),
                        world: gpus.to_vec(),
                        rank,
                    },
                    ScriptStep::Collective {
                        comm: CommunicatorId(1),
                        op: all_reduce_sum(),
                        size,
                        send_slot: 0,
                        recv_slot: 1,
                    },
                    ScriptStep::Collective {
                        comm: CommunicatorId(2),
                        op: all_reduce_sum(),
                        size,
                        send_slot: 0,
                        recv_slot: 1,
                    },
                ],
            );
            (gpu, Box::new(prog) as Box<dyn mccs_shim::AppProgram>)
        })
        .collect();
    let app = cluster.add_app("twin", progs);
    cluster.run_until_quiescent(Nanos::from_secs(30));
    assert_eq!(
        cluster.mgmt().timeline(app).len(),
        2,
        "both collectives ran"
    );

    let mgmt = cluster.mgmt();
    let cache = &mgmt.world().schedule_cache;
    let (hits, misses) = cache.stats();
    assert_eq!(
        cache.len(),
        1,
        "identical ring shapes must share one schedule entry"
    );
    assert_eq!(misses, 1, "only the first launch derives");
    // 4 ranks x 2 communicators = 8 lookups; all but the first hit.
    assert_eq!(hits, 7, "every later launch on either communicator hits");
}

#[test]
fn reconfiguration_keys_a_fresh_cache_entry() {
    // Epoch correctness is structural: a reconfigured ring produces a new
    // key, so the new config derives a fresh schedule (a miss) while the
    // old entry simply goes cold instead of being served stale.
    let comm = CommunicatorId(5);
    let gpus = [GpuId(0), GpuId(2), GpuId(4), GpuId(6)];
    let mut cluster = testbed(
        43,
        vec![allreduce("reconf", comm, &gpus, Bytes::mib(16), 8)],
    )
    .build();
    cluster.check_engine_contract();
    let app = AppId(0);
    cluster.run_until(Nanos::from_millis(20));
    let info = cluster.mgmt().communicator(comm).expect("registered");
    let reversed: Vec<RingOrder> = info.rings.iter().map(RingOrder::reversed).collect();
    cluster.mgmt().reconfigure(comm, reversed, RouteMap::ecmp());
    cluster.run_until_quiescent(Nanos::from_secs(30));
    assert_eq!(cluster.mgmt().timeline(app).len(), 8);

    let mgmt = cluster.mgmt();
    let cache = &mgmt.world().schedule_cache;
    let (hits, misses) = cache.stats();
    assert_eq!(
        cache.len(),
        2,
        "old and new ring shapes key distinct entries"
    );
    assert_eq!(misses, 2, "one derivation per ring shape");
    assert!(hits > 0, "steady-state launches hit");
}

#[test]
fn rooted_collectives_validate_buffers_per_rank() {
    // NCCL semantics: Broadcast reads the send buffer only at the root and
    // Reduce writes the recv buffer only at the root. Non-root ranks with
    // a token-sized buffer on the insignificant side must pass validation.
    let size = Bytes::mib(1);
    let run = |op: CollectiveOp, small_send: bool| {
        let mut cluster = testbed(31, Vec::new()).build();
        cluster.check_engine_contract();
        let comm = CommunicatorId(1);
        let gpus = [GpuId(0), GpuId(1)];
        let progs: Vec<(GpuId, Box<dyn mccs_shim::AppProgram>)> = gpus
            .iter()
            .enumerate()
            .map(|(rank, &gpu)| {
                // rank 1 is non-root: shrink the insignificant buffer.
                let tiny = rank == 1;
                let (send_size, recv_size) = match (tiny, small_send) {
                    (true, true) => (Bytes::kib(4), size),
                    (true, false) => (size, Bytes::kib(4)),
                    (false, _) => (size, size),
                };
                let prog = ScriptedProgram::new(
                    format!("rooted/r{rank}"),
                    vec![
                        ScriptStep::Alloc {
                            size: send_size,
                            slot: 0,
                        },
                        ScriptStep::Alloc {
                            size: recv_size,
                            slot: 1,
                        },
                        ScriptStep::CommInit {
                            comm,
                            world: gpus.to_vec(),
                            rank,
                        },
                        ScriptStep::Collective {
                            comm,
                            op,
                            size,
                            send_slot: 0,
                            recv_slot: 1,
                        },
                    ],
                );
                (gpu, Box::new(prog) as Box<dyn mccs_shim::AppProgram>)
            })
            .collect();
        let app = cluster.add_app("rooted", progs);
        cluster.run_until_quiescent(Nanos::from_secs(5));
        let tl = cluster.mgmt().timeline(app);
        assert_eq!(tl.len(), 1, "collective did not complete for {op:?}");
        tl[0].latency().expect("complete");
    };
    // Non-root Broadcast rank needs no send buffer ...
    run(CollectiveOp::Broadcast { root: 0 }, true);
    // ... and a non-root Reduce rank needs no recv buffer.
    run(
        CollectiveOp::Reduce {
            root: 0,
            kind: ReduceKind::Sum,
        },
        false,
    );
}

#[test]
fn rooted_collectives_still_reject_undersized_significant_buffers() {
    // The root's send buffer for Broadcast stays significant: shrinking it
    // must still trip the service-side validation, answered to the root
    // as a typed error.
    let answers = issue_once(
        33,
        CollectiveOp::Broadcast { root: 0 },
        &[
            (GpuId(0), [Bytes::kib(4), Bytes::mib(1)]),
            (GpuId(1), [Bytes::mib(1); 2]),
        ],
    );
    let refused: Vec<_> = answers.iter().filter(|a| a.is_err()).collect();
    assert!(
        matches!(refused[..], [Err((ErrorCode::InvalidArgument, m))]
            if m.starts_with("buffer validation failed")),
        "{answers:?}"
    );
}

/// What the service answered a collective: `Ok(seq)` for a launch,
/// `Err((code, message))` for an error completion.
type Answer = Result<u64, (ErrorCode, String)>;

/// What a probe answers when it waits: `Running` if its pumps moved a
/// command or a completion this poll (an idle poll changes nothing), else
/// `Blocked`.
fn waiting(moved: bool) -> AppStatus {
    if moved {
        AppStatus::Running
    } else {
        AppStatus::Blocked
    }
}

/// One rank that allocates a send and a receive buffer of the sizes in
/// `alloc`, joins `comm` and issues a single 1 MiB `op`, then records
/// what the service answered.
struct IssueOnce {
    comm: CommunicatorId,
    world: Vec<GpuId>,
    rank: usize,
    op: CollectiveOp,
    alloc: [Bytes; 2],
    /// The requests the current stage waits on.
    pending: Vec<ReqId>,
    buffers: Vec<MemHandle>,
    stage: usize,
    answers: Arc<Mutex<Vec<Answer>>>,
}

/// Rank `r` of `op` on `ranks[r].0` of the testbed at `seed`, allocating
/// `ranks[r].1`; the answers, in the order they arrived, once the world
/// is quiet.
fn issue_once(seed: u64, op: CollectiveOp, ranks: &[(GpuId, [Bytes; 2])]) -> Vec<Answer> {
    let mut cluster = testbed(seed, Vec::new()).build();
    cluster.check_engine_contract();
    let answers = Arc::new(Mutex::new(Vec::new()));
    let world: Vec<GpuId> = ranks.iter().map(|&(gpu, _)| gpu).collect();
    let progs = ranks
        .iter()
        .enumerate()
        .map(|(rank, &(gpu, alloc))| {
            let prog = IssueOnce {
                comm: CommunicatorId(1),
                world: world.clone(),
                rank,
                op,
                alloc,
                pending: Vec::new(),
                buffers: Vec::new(),
                stage: 0,
                answers: Arc::clone(&answers),
            };
            (gpu, Box::new(prog) as Box<dyn AppProgram>)
        })
        .collect();
    cluster.add_app("issue-once", progs);
    cluster.run_until_quiescent(Nanos::from_secs(5));
    let answers = answers.lock().unwrap().clone();
    answers
}

impl AppProgram for IssueOnce {
    fn poll(&mut self, api: &mut ShimApi<'_>) -> AppStatus {
        let size = Bytes::mib(1);
        let mut moved = false;
        loop {
            moved |= api.pump();
            match self.stage {
                0 => self.pending = self.alloc.iter().map(|&b| api.alloc(b)).collect(),
                1 => {
                    let Some(buffers) = self.pending.iter().map(|&r| api.alloc_result(r)).collect()
                    else {
                        return waiting(moved);
                    };
                    self.buffers = buffers;
                    self.pending =
                        vec![api.comm_init_rank(self.comm, self.world.clone(), self.rank)];
                }
                2 => {
                    if api.comm_result(self.pending[0]).is_none() {
                        return waiting(moved);
                    }
                    let (send, recv) = ((self.buffers[0], 0), (self.buffers[1], 0));
                    self.pending = vec![api.collective(self.comm, self.op, size, send, recv, None)];
                }
                _ => {
                    let req = self.pending[0];
                    let answer = match (api.launched_seq(req), api.error_code(req)) {
                        (Some(seq), _) => Ok(seq),
                        (_, Some(code)) => Err((code, api.error(req).unwrap_or("").to_owned())),
                        _ => return waiting(moved),
                    };
                    self.answers.lock().unwrap().push(answer);
                    return AppStatus::Finished;
                }
            }
            self.stage += 1;
        }
    }
}

/// One rank that joins communicators 1 and 2 and issues an AllReduce on
/// each without waiting in between, so both are in flight at once.
struct TwoCommsAtOnce {
    world: Vec<GpuId>,
    rank: usize,
    pending: Vec<ReqId>,
    buffers: Vec<MemHandle>,
    stage: usize,
}

impl AppProgram for TwoCommsAtOnce {
    fn poll(&mut self, api: &mut ShimApi<'_>) -> AppStatus {
        let size = Bytes::mib(1);
        let comms = [CommunicatorId(1), CommunicatorId(2)];
        let mut moved = false;
        loop {
            moved |= api.pump();
            match self.stage {
                0 => self.pending = vec![api.alloc(size), api.alloc(size)],
                1 => {
                    let Some(buffers) = self.pending.iter().map(|&r| api.alloc_result(r)).collect()
                    else {
                        return waiting(moved);
                    };
                    self.buffers = buffers;
                    self.pending = comms
                        .iter()
                        .map(|&c| api.comm_init_rank(c, self.world.clone(), self.rank))
                        .collect();
                }
                2 => {
                    if self.pending.iter().any(|&r| api.comm_result(r).is_none()) {
                        return waiting(moved);
                    }
                    let (send, recv) = ((self.buffers[0], 0), (self.buffers[1], 0));
                    self.pending = comms
                        .iter()
                        .map(|&c| api.collective(c, all_reduce_sum(), size, send, recv, None))
                        .collect();
                }
                _ => {
                    if !self.pending.iter().all(|&r| api.collective_done(r)) {
                        return waiting(moved);
                    }
                    return AppStatus::Finished;
                }
            }
            self.stage += 1;
        }
    }
}

#[test]
fn two_communicators_in_flight_on_one_endpoint_both_reach_the_tenant_log() {
    // Both collectives launch as seq 0 of their communicator; the log
    // used to key them by endpoint and seq alone, so one overwrote the
    // other and its record was lost.
    let mut cluster = testbed(36, Vec::new()).build();
    cluster.check_engine_contract();
    let world = vec![GpuId(0), GpuId(2)];
    let progs = (0..world.len())
        .map(|rank| {
            let prog = TwoCommsAtOnce {
                world: world.clone(),
                rank,
                pending: Vec::new(),
                buffers: Vec::new(),
                stage: 0,
            };
            (world[rank], Box::new(prog) as Box<dyn AppProgram>)
        })
        .collect();
    cluster.add_app("twocomms", progs);
    cluster.run_until_quiescent(Nanos::from_secs(5));
    let log = &cluster.world.tenant_log;
    for endpoint in 0..world.len() {
        let records = log.outcomes_of_endpoint(endpoint);
        let mut comms: Vec<_> = records.iter().map(|r| r.comm).collect();
        comms.sort();
        assert_eq!(comms, [CommunicatorId(1), CommunicatorId(2)], "{records:?}");
        for r in &records {
            assert!(!r.failed && r.seq == 0 && r.issued <= r.finished, "{r:?}");
        }
    }
    assert_eq!(log.unfinished(), 0);
}

#[test]
fn a_rooted_collective_with_an_out_of_range_root_is_refused() {
    // NCCL answers ncclInvalidArgument; the service used to launch it with
    // no rank acting as the root.
    for op in [
        CollectiveOp::Broadcast { root: 2 },
        CollectiveOp::Reduce {
            root: 2,
            kind: ReduceKind::Sum,
        },
    ] {
        let answers = issue_once(
            35,
            op,
            &[
                (GpuId(0), [Bytes::mib(1); 2]),
                (GpuId(2), [Bytes::mib(1); 2]),
            ],
        );
        let refused = (
            ErrorCode::InvalidArgument,
            "root 2 out of range for 2 ranks".to_owned(),
        );
        assert_eq!(answers, vec![Err(refused); 2], "{op:?}");
    }
}

#[test]
fn pinned_routes_beat_colliding_ecmp() {
    // Two 2-rank apps, both crossing racks on the same NIC pairs. With a
    // deliberately colliding ECMP we see ~halved rates; with FFA-style
    // pins on distinct routes both run at line rate.
    let size = Bytes::mib(128);
    let gpus_a = [GpuId(0), GpuId(4)]; // H0 -> H2, NIC0s
    let gpus_b = [GpuId(2), GpuId(6)]; // H1 -> H3, NIC0s

    // ECMP hashes are a deterministic function of (comm, epoch, channel,
    // NIC pair) — as in NCCL, connections outlive collectives — so find a
    // communicator-id pair whose default hashes collide on a path.
    let topo = presets::testbed();
    let colliding_pair = {
        use mccs_core::config::CollectiveConfig;
        let mut found = None;
        'outer: for a_id in 1..40u64 {
            for b_id in (a_id + 1)..40u64 {
                let ca = CollectiveConfig::default_for(&topo, &gpus_a);
                let cb = CollectiveConfig::default_for(&topo, &gpus_b);
                let na0 = topo.nic_of_gpu(gpus_a[0]);
                let na1 = topo.nic_of_gpu(gpus_a[1]);
                let nb0 = topo.nic_of_gpu(gpus_b[0]);
                let nb1 = topo.nic_of_gpu(gpus_b[1]);
                let ra = topo.ecmp_route(na0, na1, ca.ecmp_hash(CommunicatorId(a_id), 0, na0, na1));
                let rb = topo.ecmp_route(nb0, nb1, cb.ecmp_hash(CommunicatorId(b_id), 0, nb0, nb1));
                // same spine path (compare middle links)
                if ra.links[1] == rb.links[1] {
                    found = Some((a_id, b_id));
                    break 'outer;
                }
            }
        }
        found.expect("some comm-id pair must hash to the same spine")
    };

    let run = |pin: bool, seed: u64| -> Nanos {
        let a = CommunicatorId(colliding_pair.0);
        let b = CommunicatorId(colliding_pair.1);
        let start = Nanos::from_millis(5);
        let tenants = vec![
            Tenant {
                start,
                ..allreduce("A", a, &gpus_a, size, 2)
            },
            Tenant {
                start,
                ..allreduce("B", b, &gpus_b, size, 2)
            },
        ];
        let mut cluster = testbed(seed, tenants).build();
        cluster.check_engine_contract();
        // wait for registration (collectives start only at 5 ms)
        cluster.run_until(Nanos::from_millis(1));
        if pin {
            let topo = Arc::clone(cluster.world.net.topology());
            for (comm, gpus, route) in [(a, gpus_a, 0u32), (b, gpus_b, 1u32)] {
                let info = cluster.mgmt().communicator(comm).expect("registered");
                let mut routes = RouteMap::ecmp();
                // pin both directions of the single inter-host edge pair
                let n0 = topo.nic_of_gpu(gpus[0]);
                let n1 = topo.nic_of_gpu(gpus[1]);
                routes.pin(0, n0, n1, RouteId(route));
                routes.pin(0, n1, n0, RouteId(route));
                cluster.mgmt().reconfigure(comm, info.rings.clone(), routes);
            }
        }
        cluster.run_until_quiescent(Nanos::from_secs(60));
        // slowest app's last completion
        let t1 = cluster.mgmt().timeline(AppId(0));
        let t2 = cluster.mgmt().timeline(AppId(1));
        t1.last()
            .expect("ran")
            .completed_at
            .expect("complete")
            .max(t2.last().expect("ran").completed_at.expect("complete"))
    };
    let ecmp_t = run(false, 1);
    let pinned_t = run(true, 1);
    assert!(
        ecmp_t.as_secs_f64() > pinned_t.as_secs_f64() * 1.5,
        "pinning should halve completion under collision: ecmp {ecmp_t}, pinned {pinned_t}"
    );
}

#[test]
fn traffic_windows_gate_and_release_flows() {
    let comm = CommunicatorId(1);
    let gpus = [GpuId(0), GpuId(4)];
    let size = Bytes::mib(64);
    let mut cluster = testbed(8, vec![allreduce("gated", comm, &gpus, size, 2)]).build();
    cluster.check_engine_contract();
    let app = AppId(0);
    // Gate the app to a 30%-duty window.
    cluster.run_until(Nanos::from_millis(1));
    cluster
        .mgmt()
        .set_traffic_windows(
            app,
            Some(
                TrafficWindows::single(
                    Nanos::from_millis(10),
                    Nanos::from_millis(0),
                    Nanos::from_millis(3),
                )
                .expect("valid window"),
            ),
        )
        .expect("valid schedule accepted");
    cluster.run_until_quiescent(Nanos::from_secs(60));
    let gated_tl = cluster.mgmt().timeline(app);
    assert_eq!(gated_tl.len(), 2);
    let gated_last = gated_tl.last().expect("ran").completed_at.expect("done");

    // Reference run without gating.
    let mut free = testbed(8, vec![allreduce("free", comm, &gpus, size, 2)]).build();
    free.check_engine_contract();
    free.run_until_quiescent(Nanos::from_secs(60));
    let free_last = free
        .mgmt()
        .timeline(AppId(0))
        .last()
        .expect("ran")
        .completed_at
        .expect("done");
    // 30% duty cycle: roughly 3x slower end to end.
    let slowdown = gated_last.as_secs_f64() / free_last.as_secs_f64();
    assert!(
        slowdown > 2.0,
        "gating too weak: slowdown {slowdown:.2} (gated {gated_last}, free {free_last})"
    );
}

#[test]
fn malformed_traffic_windows_rejected_without_aborting() {
    // A tenant-supplied schedule whose windows overflow the period must
    // come back as InvalidArgument — not crash the service — and leave
    // the transports untouched so traffic proceeds ungated.
    let comm = CommunicatorId(1);
    let gpus = [GpuId(0), GpuId(4)];
    let mut cluster = testbed(8, vec![allreduce("tenant", comm, &gpus, Bytes::mib(4), 2)]).build();
    cluster.check_engine_contract();
    let app = AppId(0);
    // Construction refuses the bad schedule outright.
    let err = TrafficWindows::single(
        Nanos::from_millis(10),
        Nanos::from_millis(8),
        Nanos::from_millis(5),
    )
    .expect_err("overlong window must not construct");
    assert_eq!(err.code, mccs_ipc::ErrorCode::InvalidArgument);
    // A schedule corrupted after construction (fields are public) is
    // caught again at the management API.
    let bad = TrafficWindows {
        period: Nanos::from_millis(10),
        open: vec![
            (Nanos::from_millis(0), Nanos::from_millis(5)),
            (Nanos::from_millis(3), Nanos::from_millis(2)),
        ],
    };
    let err = cluster
        .mgmt()
        .set_traffic_windows(app, Some(bad))
        .expect_err("overlapping windows rejected");
    assert_eq!(err.code, mccs_ipc::ErrorCode::InvalidArgument);
    // Service still healthy: the app runs to completion, ungated.
    cluster.run_until_quiescent(Nanos::from_secs(60));
    assert_eq!(cluster.mgmt().timeline(app).len(), 2);
}

#[test]
fn invalid_buffer_is_rejected_by_the_service() {
    // A program that allocates too little for the collective it issues:
    // the service's validation must reject it with a typed error on every
    // rank.
    let answers = issue_once(
        9,
        all_reduce_sum(),
        &[
            (GpuId(0), [Bytes::kib(4); 2]),
            (GpuId(1), [Bytes::kib(4); 2]),
        ],
    );
    assert_eq!(answers.len(), 2, "{answers:?}");
    for answer in &answers {
        assert!(
            matches!(answer, Err((ErrorCode::InvalidArgument, m))
                if m.starts_with("buffer validation failed")),
            "{answers:?}"
        );
    }
}

#[test]
fn management_sees_link_utilization() {
    let comm = CommunicatorId(1);
    let gpus = [GpuId(0), GpuId(4)];
    let mut cluster = testbed(21, vec![allreduce("util", comm, &gpus, Bytes::mib(256), 1)]).build();
    cluster.check_engine_contract();
    // run into the middle of the transfer
    cluster.run_until(Nanos::from_millis(30));
    let hot = cluster.mgmt().hottest_link().expect("traffic in flight");
    assert!(
        (hot.1 - 1.0).abs() < 1e-6,
        "a lone cross-rack flow saturates its bottleneck: {hot:?}"
    );
    let busy = cluster.mgmt().link_utilization();
    // one flow per direction, each traversing 4 links
    assert_eq!(busy.len(), 8, "expected both directions' paths: {busy:?}");
    // after completion the network is quiet again
    cluster.run_until_quiescent(Nanos::from_secs(30));
    assert!(cluster.mgmt().hottest_link().is_none());
}

/// Utilization is relative to what a link can carry *now*: browned-out
/// links that are full top the list, they do not hide at their degrade
/// fraction below healthy links that are merely busy.
#[test]
fn degraded_links_become_the_hottest() {
    let gpus = [GpuId(0), GpuId(4)];
    let mut cluster = testbed(
        22,
        vec![allreduce(
            "brownout",
            CommunicatorId(1),
            &gpus,
            Bytes::mib(256),
            1,
        )],
    )
    .build();
    cluster.check_engine_contract();
    cluster.run_until(Nanos::from_millis(30));
    // Both ranks' NIC uplinks (one per direction of the ring): no route
    // avoids them, whatever recovery does.
    let topo = Arc::clone(&cluster.world.topo);
    let mut uplinks = gpus.map(|g| topo.nic(topo.nic_of_gpu(g)).uplink);
    uplinks.sort();
    for link in uplinks {
        cluster.inject_fault(mccs_netsim::FaultEvent::LinkDegrade { link, milli: 400 });
    }
    cluster.run_until(Nanos::from_millis(31));
    let busy = cluster.mgmt().link_utilization();
    let mut hottest = [busy[0].0, busy[1].0];
    hottest.sort();
    assert_eq!(hottest, uplinks, "{busy:?}");
    assert!((busy[0].1 - 1.0).abs() < 1e-6, "{busy:?}");
    assert!((busy[1].1 - 1.0).abs() < 1e-6, "{busy:?}");
    // Every healthy link on the two paths idles at the degrade fraction.
    assert!(
        busy[2..].iter().all(|&(_, u)| (u - 0.4).abs() < 1e-6),
        "{busy:?}"
    );
    assert_eq!(
        cluster.mgmt().hottest_link().map(|(l, _)| l),
        Some(busy[0].0)
    );
    cluster.run_until_quiescent(Nanos::from_secs(30));
    assert!(cluster.mgmt().hottest_link().is_none());
}

#[test]
fn deterministic_across_identical_runs() {
    let run = || {
        let comm = CommunicatorId(1);
        let gpus = [GpuId(0), GpuId(2), GpuId(4), GpuId(6)];
        let mut cluster =
            testbed(42, vec![allreduce("det", comm, &gpus, Bytes::mib(16), 5)]).build();
        cluster.check_engine_contract();
        cluster.run_until_quiescent(Nanos::from_secs(30));
        cluster
            .mgmt()
            .timeline(AppId(0))
            .iter()
            .map(|r| r.completed_at.expect("done"))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run(), "same seed must reproduce identical timings");
}

/// One rank that sends `inits` `CommInit`s of communicator 9 over `world`
/// as rank 0, one after the other, and records each answer: `Ok(())` for
/// an init completion, `Err(code)` for an error completion.
struct InitEach {
    world: Vec<GpuId>,
    inits: usize,
    pending: Option<ReqId>,
    answers: Arc<Mutex<Vec<Result<(), ErrorCode>>>>,
}

impl AppProgram for InitEach {
    fn poll(&mut self, api: &mut ShimApi<'_>) -> AppStatus {
        let mut moved = false;
        loop {
            moved |= api.pump();
            match self.pending {
                None if self.answers.lock().unwrap().len() == self.inits => {
                    return AppStatus::Finished
                }
                None => {
                    let world = self.world.clone();
                    self.pending = Some(api.comm_init_rank(CommunicatorId(9), world, 0));
                }
                Some(req) => {
                    let answer = match (api.comm_result(req), api.error_code(req)) {
                        (Some(_), _) => Ok(()),
                        (_, Some(code)) => Err(code),
                        _ => return waiting(moved),
                    };
                    self.answers.lock().unwrap().push(answer);
                    self.pending = None;
                }
            }
        }
    }
}

/// A one-rank tenant on GPU 1 sends `inits` `CommInit`s over `world`
/// beside a healthy tenant on rack 1. The tenant gets `expect`, the world
/// quiesces, and the healthy tenant's trace equals its solo run (IPC
/// jitter 0, the precondition of the tenant-independence relation in
/// `tests/relations.rs`).
fn assert_init_refused(world: Vec<GpuId>, inits: usize, expect: Vec<Result<(), ErrorCode>>) {
    let healthy = allreduce(
        "healthy",
        CommunicatorId(1),
        &[GpuId(4), GpuId(6)],
        Bytes::mib(8),
        3,
    );
    let mut s = testbed(19, vec![healthy]);
    s.config.ipc.jitter_frac = 0.0;
    let solo = s.run(Nanos::from_secs(5));
    let mut cluster = s.build();
    cluster.check_engine_contract();
    let answers = Arc::new(Mutex::new(Vec::new()));
    let bad = InitEach {
        world,
        inits,
        pending: None,
        answers: Arc::clone(&answers),
    };
    cluster.add_app(
        "bad",
        vec![(GpuId(1), Box::new(bad) as Box<dyn AppProgram>)],
    );
    let end = cluster.run_until_quiescent(Nanos::from_secs(5));
    assert_eq!(*answers.lock().unwrap(), expect);
    assert_eq!(Record::of(&cluster, end).traces[0], solo.traces[0]);
}

#[test]
fn comm_init_naming_a_gpu_outside_the_cluster_is_refused() {
    assert_init_refused(
        vec![GpuId(1), GpuId(99)],
        1,
        vec![Err(ErrorCode::InvalidArgument)],
    );
}

#[test]
fn comm_init_naming_a_gpu_twice_is_refused() {
    assert_init_refused(
        vec![GpuId(1), GpuId(1)],
        1,
        vec![Err(ErrorCode::InvalidArgument)],
    );
}

#[test]
fn a_second_comm_init_of_a_rank_is_refused() {
    assert_init_refused(
        vec![GpuId(1)],
        2,
        vec![Ok(()), Err(ErrorCode::InvalidUsage)],
    );
}

/// A rank whose `CommInit` is refused ends its script; its peer, whose
/// init is accepted, waits for it in its first collective forever.
fn split_world() -> Cluster {
    let comm = CommunicatorId(4);
    let script = |world: Vec<GpuId>, rank: usize| {
        let steps = vec![
            ScriptStep::Alloc {
                size: Bytes::mib(4),
                slot: 0,
            },
            ScriptStep::CommInit { comm, world, rank },
            ScriptStep::Collective {
                comm,
                op: all_reduce_sum(),
                size: Bytes::mib(4),
                send_slot: 0,
                recv_slot: 0,
            },
        ];
        Box::new(ScriptedProgram::new(format!("peer{rank}"), steps)) as Box<dyn AppProgram>
    };
    let mut cluster = Cluster::new(Arc::new(presets::testbed()), Default::default());
    cluster.check_engine_contract();
    cluster.add_app(
        "split",
        vec![
            // GPU 99 is not in the testbed: rank 0's init is refused.
            (GpuId(0), script(vec![GpuId(0), GpuId(99)], 0)),
            (GpuId(2), script(vec![GpuId(0), GpuId(2)], 1)),
        ],
    );
    cluster
}

/// The event queue of [`split_world`] empties with the peer live: a hang
/// naming it, not `Ok`.
#[test]
fn a_quiet_world_with_a_blocked_tenant_is_a_hang() {
    let mut cluster = split_world();
    let hang = cluster
        .try_run_until_quiescent(Nanos::from_secs(5))
        .expect_err("the peer waits forever");
    assert_eq!(hang.next_event, None, "nothing was left to happen");
    assert_eq!(hang.live_engines.len(), 1, "{:?}", hang.live_engines);
    assert!(
        hang.live_engines[0].contains("peer1"),
        "{:?}",
        hang.live_engines
    );
}

/// Waits for something nobody sends: blocked before it issues anything.
struct Stuck;

impl AppProgram for Stuck {
    fn poll(&mut self, _: &mut ShimApi<'_>) -> AppStatus {
        AppStatus::Blocked
    }
    fn name(&self) -> String {
        "stuck".to_owned()
    }
}

/// The explorer judges a quiet world like `try_run_until_quiescent`: a
/// tenant blocked before it issued anything is a hang naming it. (In
/// [`split_world`] the empty fault plan the explorer installs arms the
/// peer's liveness timer, which fails its collective cleanly: no hang.)
#[test]
fn the_explorer_reports_a_quiet_world_with_a_blocked_tenant_as_a_hang() {
    let cfg = ExplorerConfig {
        inject_prob: 0.0,
        ..ExplorerConfig::default()
    };
    let stuck = || {
        let mut cluster = Cluster::new(Arc::new(presets::testbed()), Default::default());
        cluster.check_engine_contract();
        cluster.add_app(
            "idle",
            vec![(GpuId(0), Box::new(Stuck) as Box<dyn AppProgram>)],
        );
        cluster
    };
    let report = Explorer::new(cfg, stuck).run_episode(1);
    assert!(report.trace.is_empty(), "no fault was injected");
    let Verdict::Hang {
        next_event,
        live_engines,
    } = report.verdict
    else {
        panic!("a blocked tenant is a hang: {:?}", report.verdict);
    };
    assert_eq!(next_event, None, "nothing was left to happen");
    assert_eq!(live_engines, ["app-rank(0, stuck)"]);
    let split = Explorer::new(cfg, split_world).run_episode(1).verdict;
    let failed = Verdict::Ok {
        completed: 0,
        failed: 1,
    };
    assert_eq!(split, failed, "liveness fails the stranded collective");
}
