//! End-to-end tests of the MCCS service: tenant programs talking through
//! the shim to frontends, proxies and transports over the simulated
//! testbed fabric.

use mccs_collectives::op::all_reduce_sum;
use mccs_collectives::{bandwidth, CollectiveOp, ReduceKind, RingOrder};
use mccs_core::config::RouteMap;
use mccs_core::{Cluster, ClusterConfig, ServiceConfig, TrafficWindows};
use mccs_ipc::CommunicatorId;
use mccs_shim::{ScriptStep, ScriptedProgram};
use mccs_sim::{Bytes, Nanos};
use mccs_topology::{presets, GpuId, RouteId};
use std::sync::Arc;

/// A rank program: alloc two buffers, init the communicator, run `iters`
/// collectives back to back.
#[allow(clippy::too_many_arguments)]
fn rank_program(
    name: &str,
    comm: CommunicatorId,
    world: &[GpuId],
    rank: usize,
    op: CollectiveOp,
    size: Bytes,
    iters: usize,
    start_at: Nanos,
) -> ScriptedProgram {
    assert!(iters >= 1);
    ScriptedProgram::new(
        format!("{name}/r{rank}"),
        vec![
            ScriptStep::Alloc { size, slot: 0 },
            ScriptStep::Alloc { size, slot: 1 },
            ScriptStep::CommInit {
                comm,
                world: world.to_vec(),
                rank,
            },
            ScriptStep::SleepUntil(start_at),
            ScriptStep::Collective {
                comm,
                op,
                size,
                send_slot: 0,
                recv_slot: 1,
            },
            ScriptStep::Repeat {
                from_step: 4,
                times: iters - 1,
            },
        ],
    )
}

fn testbed_cluster(seed: u64) -> Cluster {
    Cluster::new(Arc::new(presets::testbed()), ClusterConfig::with_seed(seed))
}

/// Launch one app over `gpus` running `iters` collectives of `size`.
fn spawn_app(
    cluster: &mut Cluster,
    name: &str,
    comm: CommunicatorId,
    gpus: &[GpuId],
    op: CollectiveOp,
    size: Bytes,
    iters: usize,
) -> mccs_ipc::AppId {
    spawn_app_at(cluster, name, comm, gpus, op, size, iters, Nanos::ZERO)
}

/// Like `spawn_app` but collectives begin only at `start_at`.
#[allow(clippy::too_many_arguments)]
fn spawn_app_at(
    cluster: &mut Cluster,
    name: &str,
    comm: CommunicatorId,
    gpus: &[GpuId],
    op: CollectiveOp,
    size: Bytes,
    iters: usize,
    start_at: Nanos,
) -> mccs_ipc::AppId {
    let ranks = gpus
        .iter()
        .enumerate()
        .map(|(rank, &gpu)| {
            let prog = rank_program(name, comm, gpus, rank, op, size, iters, start_at);
            (gpu, Box::new(prog) as Box<dyn mccs_shim::AppProgram>)
        })
        .collect();
    cluster.add_app(name, ranks)
}

#[test]
fn single_host_allreduce_uses_intra_host_channels_only() {
    let mut cluster = testbed_cluster(1);
    let comm = CommunicatorId(1);
    let gpus = [GpuId(0), GpuId(1)];
    spawn_app(
        &mut cluster,
        "local",
        comm,
        &gpus,
        all_reduce_sum(),
        Bytes::mib(16),
        1,
    );
    let end = cluster.run_until_quiescent(Nanos::from_secs(5));
    assert!(end > Nanos::ZERO);
    // no network flows at all
    assert_eq!(cluster.world.net.flow_count(), 0);
    let tl = cluster.mgmt().timeline(mccs_ipc::AppId(0));
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
    let mut cluster = testbed_cluster(2);
    let comm = CommunicatorId(7);
    // one GPU per host; world order follows hosts so the default
    // (NCCL-like) ring is already rack-contiguous.
    let gpus = [GpuId(0), GpuId(2), GpuId(4), GpuId(6)];
    let size = Bytes::mib(64);
    spawn_app(&mut cluster, "ar4", comm, &gpus, all_reduce_sum(), size, 3);
    cluster.run_until_quiescent(Nanos::from_secs(10));
    let tl = cluster.mgmt().timeline(mccs_ipc::AppId(0));
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
    let mut cluster = testbed_cluster(3);
    let comm = CommunicatorId(2);
    let gpus: Vec<GpuId> = (0..8).map(GpuId).collect();
    spawn_app(
        &mut cluster,
        "ar8",
        comm,
        &gpus,
        all_reduce_sum(),
        Bytes::mib(64),
        1,
    );
    cluster.run_until_quiescent(Nanos::from_secs(10));
    let info = cluster.mgmt().communicator(comm).expect("registered");
    assert_eq!(info.channels, 2, "2 GPUs/host -> 2 channels");
    assert_eq!(info.registered_ranks, 8);
    let tl = cluster.mgmt().timeline(mccs_ipc::AppId(0));
    assert_eq!(tl.len(), 1);
}

#[test]
fn allgather_latency_scales_with_op_factor() {
    // AllGather moves (n-1)/n*S per edge vs AllReduce's 2(n-1)/n*S:
    // same size should take about half the time.
    let size = Bytes::mib(128);
    let run = |op: CollectiveOp, seed: u64| -> Nanos {
        let mut cluster = testbed_cluster(seed);
        let comm = CommunicatorId(1);
        let gpus = [GpuId(0), GpuId(2), GpuId(4), GpuId(6)];
        spawn_app(&mut cluster, "x", comm, &gpus, op, size, 1);
        cluster.run_until_quiescent(Nanos::from_secs(20));
        cluster.mgmt().timeline(mccs_ipc::AppId(0))[0]
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
    let mut cluster = testbed_cluster(5);
    let comm = CommunicatorId(1);
    let gpus = [GpuId(0), GpuId(2)];
    let size = Bytes::mib(32);
    spawn_app(
        &mut cluster,
        "serial",
        comm,
        &gpus,
        all_reduce_sum(),
        size,
        4,
    );
    cluster.run_until_quiescent(Nanos::from_secs(30));
    let tl = cluster.mgmt().timeline(mccs_ipc::AppId(0));
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
    let mut cluster = testbed_cluster(6);
    let comm = CommunicatorId(3);
    let gpus = [GpuId(0), GpuId(2), GpuId(4), GpuId(6)];
    let size = Bytes::mib(32);
    let iters = 12;
    spawn_app(
        &mut cluster,
        "reconf",
        comm,
        &gpus,
        all_reduce_sum(),
        size,
        iters,
    );
    // Let a few collectives through, then reverse the ring at runtime.
    cluster.run_until(Nanos::from_millis(40));
    let info = cluster.mgmt().communicator(comm).expect("registered");
    assert_eq!(info.epoch, 0);
    let reversed: Vec<RingOrder> = info.rings.iter().map(RingOrder::reversed).collect();
    cluster.mgmt().reconfigure(comm, reversed, RouteMap::ecmp());
    cluster.run_until_quiescent(Nanos::from_secs(30));

    // All collectives completed.
    let tl = cluster.mgmt().timeline(mccs_ipc::AppId(0));
    assert_eq!(tl.len(), iters);
    // The epoch advanced.
    let info = cluster.mgmt().communicator(comm).expect("registered");
    assert_eq!(info.epoch, 1);
    // SAFETY PROPERTY: for every sequence number, all ranks executed it
    // under the same epoch.
    let records = cluster.mgmt().trace(mccs_ipc::AppId(0));
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

#[test]
fn reconfiguration_with_an_unroutable_pin_is_rejected() {
    // The testbed has two equal-cost routes between racks. A route map
    // pinning a third used to be accepted and panic the first flow started
    // under it; now every rank refuses the epoch and the job runs on.
    let mut cluster = testbed_cluster(6);
    let comm = CommunicatorId(3);
    let gpus = [GpuId(0), GpuId(2), GpuId(4), GpuId(6)];
    let iters = 6;
    spawn_app(
        &mut cluster,
        "badpin",
        comm,
        &gpus,
        all_reduce_sum(),
        Bytes::mib(32),
        iters,
    );
    cluster.run_until(Nanos::from_millis(40));
    let topo = Arc::clone(cluster.world.net.topology());
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

    let info = cluster.mgmt().communicator(comm).expect("registered");
    cluster.mgmt().reconfigure(comm, info.rings.clone(), routes);
    cluster.run_until_quiescent(Nanos::from_secs(30));

    assert_eq!(
        cluster.world.health.counters.reconfig_rejects,
        gpus.len() as u64,
        "one rejection per rank"
    );
    let info = cluster.mgmt().communicator(comm).expect("registered");
    assert_eq!(info.epoch, 0, "the bad epoch was never entered");
    assert_eq!(cluster.mgmt().timeline(mccs_ipc::AppId(0)).len(), iters);
    assert_epochs_agree(&mut cluster, mccs_ipc::AppId(0), gpus.len());
}

/// Check the Figure 4 safety property on a completed run: every sequence
/// number executed under one epoch on all `ranks` ranks.
fn assert_epochs_agree(cluster: &mut Cluster, app: mccs_ipc::AppId, ranks: usize) {
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
        let cfg = ClusterConfig {
            service: ServiceConfig {
                control_jitter_frac: 8.0,
                ..ServiceConfig::default()
            },
            ..ClusterConfig::with_seed(seed)
        };
        let mut cluster = Cluster::new(Arc::new(presets::testbed()), cfg);
        let comm = CommunicatorId(3);
        let gpus = [GpuId(0), GpuId(2), GpuId(4), GpuId(6)];
        let iters = 10;
        let app = spawn_app(
            &mut cluster,
            "skew",
            comm,
            &gpus,
            all_reduce_sum(),
            Bytes::mib(16),
            iters,
        );
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
    let cfg = ClusterConfig {
        service: ServiceConfig {
            control_jitter_frac: 8.0,
            ..ServiceConfig::default()
        },
        ..ClusterConfig::with_seed(17)
    };
    let mut cluster = Cluster::new(Arc::new(presets::testbed()), cfg);
    let comm = CommunicatorId(3);
    let gpus = [GpuId(0), GpuId(2), GpuId(4), GpuId(6)];
    let iters = 14;
    let app = spawn_app(
        &mut cluster,
        "twice",
        comm,
        &gpus,
        all_reduce_sum(),
        Bytes::mib(16),
        iters,
    );
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
    let mut cluster = testbed_cluster(41);
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
    let mut cluster = testbed_cluster(43);
    let comm = CommunicatorId(5);
    let gpus = [GpuId(0), GpuId(2), GpuId(4), GpuId(6)];
    let app = spawn_app(
        &mut cluster,
        "reconf",
        comm,
        &gpus,
        all_reduce_sum(),
        Bytes::mib(16),
        8,
    );
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
        let mut cluster = testbed_cluster(31);
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
    // must still trip the service-side validation.
    let size = Bytes::mib(1);
    let mut cluster = testbed_cluster(33);
    let comm = CommunicatorId(1);
    let gpus = [GpuId(0), GpuId(1)];
    let progs: Vec<(GpuId, Box<dyn mccs_shim::AppProgram>)> = gpus
        .iter()
        .enumerate()
        .map(|(rank, &gpu)| {
            let send_size = if rank == 0 { Bytes::kib(4) } else { size };
            let prog = ScriptedProgram::new(
                format!("badroot/r{rank}"),
                vec![
                    ScriptStep::Alloc {
                        size: send_size,
                        slot: 0,
                    },
                    ScriptStep::Alloc { size, slot: 1 },
                    ScriptStep::CommInit {
                        comm,
                        world: gpus.to_vec(),
                        rank,
                    },
                    ScriptStep::Collective {
                        comm,
                        op: CollectiveOp::Broadcast { root: 0 },
                        size,
                        send_slot: 0,
                        recv_slot: 1,
                    },
                ],
            );
            (gpu, Box::new(prog) as Box<dyn mccs_shim::AppProgram>)
        })
        .collect();
    cluster.add_app("badroot", progs);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        cluster.run_until_quiescent(Nanos::from_secs(5));
    }))
    .expect_err("root's undersized send buffer must be rejected");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("buffer validation failed"),
        "unexpected panic: {msg}"
    );
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
        let mut cluster = testbed_cluster(seed);
        let a = CommunicatorId(colliding_pair.0);
        let b = CommunicatorId(colliding_pair.1);
        let start = Nanos::from_millis(5);
        spawn_app_at(
            &mut cluster,
            "A",
            a,
            &gpus_a,
            all_reduce_sum(),
            size,
            2,
            start,
        );
        spawn_app_at(
            &mut cluster,
            "B",
            b,
            &gpus_b,
            all_reduce_sum(),
            size,
            2,
            start,
        );
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
        let t1 = cluster.mgmt().timeline(mccs_ipc::AppId(0));
        let t2 = cluster.mgmt().timeline(mccs_ipc::AppId(1));
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
    let mut cluster = testbed_cluster(8);
    let comm = CommunicatorId(1);
    let gpus = [GpuId(0), GpuId(4)];
    let size = Bytes::mib(64);
    let app = spawn_app(
        &mut cluster,
        "gated",
        comm,
        &gpus,
        all_reduce_sum(),
        size,
        2,
    );
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
    let mut free = testbed_cluster(8);
    spawn_app(&mut free, "free", comm, &gpus, all_reduce_sum(), size, 2);
    free.run_until_quiescent(Nanos::from_secs(60));
    let free_last = free
        .mgmt()
        .timeline(mccs_ipc::AppId(0))
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
    let mut cluster = testbed_cluster(8);
    let comm = CommunicatorId(1);
    let gpus = [GpuId(0), GpuId(4)];
    let app = spawn_app(
        &mut cluster,
        "tenant",
        comm,
        &gpus,
        all_reduce_sum(),
        Bytes::mib(4),
        2,
    );
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
    // the service's validation must reject it (error completion), and the
    // scripted program panics on the surfaced error.
    let mut cluster = testbed_cluster(9);
    let comm = CommunicatorId(1);
    let gpus = [GpuId(0), GpuId(1)];
    let progs: Vec<(GpuId, Box<dyn mccs_shim::AppProgram>)> = gpus
        .iter()
        .enumerate()
        .map(|(rank, &gpu)| {
            let prog = ScriptedProgram::new(
                format!("bad/r{rank}"),
                vec![
                    ScriptStep::Alloc {
                        size: Bytes::kib(4),
                        slot: 0,
                    },
                    ScriptStep::Alloc {
                        size: Bytes::kib(4),
                        slot: 1,
                    },
                    ScriptStep::CommInit {
                        comm,
                        world: gpus.to_vec(),
                        rank,
                    },
                    ScriptStep::Collective {
                        comm,
                        op: all_reduce_sum(),
                        size: Bytes::mib(1), // larger than the 4K buffers
                        send_slot: 0,
                        recv_slot: 1,
                    },
                ],
            );
            (gpu, Box::new(prog) as Box<dyn mccs_shim::AppProgram>)
        })
        .collect();
    cluster.add_app("bad", progs);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        cluster.run_until_quiescent(Nanos::from_secs(5));
    }))
    .expect_err("validation must fire");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("buffer validation failed"),
        "unexpected panic: {msg}"
    );
}

#[test]
fn management_sees_link_utilization() {
    let mut cluster = testbed_cluster(21);
    let comm = CommunicatorId(1);
    let gpus = [GpuId(0), GpuId(4)];
    spawn_app(
        &mut cluster,
        "util",
        comm,
        &gpus,
        all_reduce_sum(),
        Bytes::mib(256),
        1,
    );
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
    let mut cluster = testbed_cluster(22);
    let gpus = [GpuId(0), GpuId(4)];
    spawn_app(
        &mut cluster,
        "brownout",
        CommunicatorId(1),
        &gpus,
        all_reduce_sum(),
        Bytes::mib(256),
        1,
    );
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
        let mut cluster = testbed_cluster(42);
        let comm = CommunicatorId(1);
        let gpus = [GpuId(0), GpuId(2), GpuId(4), GpuId(6)];
        spawn_app(
            &mut cluster,
            "det",
            comm,
            &gpus,
            all_reduce_sum(),
            Bytes::mib(16),
            5,
        );
        cluster.run_until_quiescent(Nanos::from_secs(30));
        cluster
            .mgmt()
            .timeline(mccs_ipc::AppId(0))
            .iter()
            .map(|r| r.completed_at.expect("done"))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run(), "same seed must reproduce identical timings");
}
