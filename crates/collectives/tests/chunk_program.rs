//! A chunk-level model of the ring collectives: the oracle for the bytes
//! `CollectiveSchedule::ring` puts on each edge.
//!
//! A program runs on a ring of `n` positions whose buffers hold `n`
//! chunks; each step copies or reduces one chunk along one ring edge,
//! from position `p` to `p + 1`. A symbolic executor keeps, per position
//! and chunk, how many times each rank's contribution is held, and checks
//! the op's postcondition with every contribution counted exactly once.
//! The chunk transfers it counts on an edge, `t`, are that edge's load:
//! `round(t / n · share)` bytes of the channel's share.

use mccs_collectives::op::all_reduce_sum;
use mccs_collectives::{
    connections, CollectiveOp, CollectiveSchedule, EdgeTask, ReduceKind, RingOrder,
};
use mccs_sim::{Bandwidth, Bytes, Rng};
use mccs_topology::{presets, GpuId, Topology};

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    /// The receiver's chunk becomes the sender's.
    Copy,
    /// The sender's chunk is added into the receiver's.
    Reduce,
}

/// One chunk moved along the ring edge out of position `from`.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Step {
    from: usize,
    chunk: usize,
    kind: Kind,
}

/// The ring program of `op` over `n` positions; `root` is the position of
/// a rooted op's root.
fn program(op: CollectiveOp, n: usize, root: usize) -> Vec<Step> {
    // One ring phase: at step `s` every position `p` sends chunk
    // `p - s - lag`. With `lag = 1` (reduce-scatter) position `p` ends
    // holding chunk `p` reduced over all ranks; with `lag = 0`
    // (all-gather) it starts by passing on its own chunk `p`.
    let phase = move |kind, lag| {
        (0..n - 1).flat_map(move |s| {
            (0..n).map(move |p| Step {
                from: p,
                chunk: (p + 2 * n - s - lag) % n,
                kind,
            })
        })
    };
    // A pipelined chain of `n - 1` hops from `start`, one chunk at a time.
    let chain = move |kind, start| {
        (0..n).flat_map(move |chunk| {
            (0..n - 1).map(move |hop| Step {
                from: (start + hop) % n,
                chunk,
                kind,
            })
        })
    };
    match op {
        CollectiveOp::AllReduce(_) => phase(Kind::Reduce, 1).chain(phase(Kind::Copy, 0)).collect(),
        CollectiveOp::AllGather => phase(Kind::Copy, 0).collect(),
        CollectiveOp::ReduceScatter(_) => phase(Kind::Reduce, 1).collect(),
        CollectiveOp::Broadcast { .. } => chain(Kind::Copy, root).collect(),
        CollectiveOp::Reduce { .. } => chain(Kind::Reduce, root + 1).collect(),
    }
}

/// Execute `steps` as `op` over `n` positions with the root at `root`.
/// Returns the chunk transfers on each edge, indexed by the edge's source
/// position, or names the first rank and chunk whose contributions break
/// the op's postcondition.
fn execute(op: CollectiveOp, n: usize, root: usize, steps: &[Step]) -> Result<Vec<usize>, String> {
    let only = |r: usize| -> Vec<u32> { (0..n).map(|i| u32::from(i == r)).collect() };
    let none = vec![0; n];
    let all = vec![1; n];
    // held[p][c][r]: how many times rank r's contribution to chunk c sits
    // in position p's buffer.
    let mut held: Vec<Vec<Vec<u32>>> = (0..n)
        .map(|p| {
            (0..n)
                .map(|c| match op {
                    CollectiveOp::AllGather if c != p => none.clone(),
                    CollectiveOp::Broadcast { .. } if p != root => none.clone(),
                    CollectiveOp::Broadcast { .. } => only(root),
                    _ => only(p),
                })
                .collect()
        })
        .collect();
    let mut transfers = vec![0; n];
    for s in steps {
        let to = (s.from + 1) % n;
        let sent = held[s.from][s.chunk].clone();
        match s.kind {
            Kind::Copy => held[to][s.chunk] = sent,
            Kind::Reduce => {
                for (h, x) in held[to][s.chunk].iter_mut().zip(sent) {
                    *h += x;
                }
            }
        }
        transfers[s.from] += 1;
    }
    for (p, chunks) in held.iter().enumerate() {
        for (c, got) in chunks.iter().enumerate() {
            let want = match op {
                CollectiveOp::AllReduce(_) => Some(all.clone()),
                CollectiveOp::AllGather => Some(only(c)),
                CollectiveOp::ReduceScatter(_) => (c == p).then(|| all.clone()),
                CollectiveOp::Broadcast { .. } => Some(only(root)),
                CollectiveOp::Reduce { .. } => (p == root).then(|| all.clone()),
            };
            if let Some(want) = want.filter(|w| w != got) {
                return Err(format!(
                    "rank {p} chunk {c}: holds contributions {got:?}, want {want:?}"
                ));
            }
        }
    }
    Ok(transfers)
}

/// The edge a rooted op's chain leaves unused (by source position): the
/// one into the root for Broadcast, the one out of it for Reduce.
fn idle_edge(op: CollectiveOp, n: usize, root: usize) -> Option<usize> {
    match op {
        CollectiveOp::Broadcast { .. } => Some((root + n - 1) % n),
        CollectiveOp::Reduce { .. } => Some(root),
        _ => None,
    }
}

/// Check `CollectiveSchedule::ring(topo, op, size, rings)` against the
/// chunk program of `op`, channel by channel. `world` maps communicator
/// ranks to GPUs (a rooted op's root is a rank, found on each ring by its
/// GPU).
fn check_schedule(
    topo: &Topology,
    op: CollectiveOp,
    size: Bytes,
    world: &[GpuId],
    rings: &[RingOrder],
) {
    let n = world.len();
    let schedule = CollectiveSchedule::ring(topo, op, size, rings);
    assert_eq!(schedule.channels.len(), rings.len());
    for (ch, ring) in schedule.channels.iter().zip(rings) {
        let root = match op {
            CollectiveOp::Broadcast { root } | CollectiveOp::Reduce { root, .. } => ring
                .gpus()
                .iter()
                .position(|&g| g == world[root])
                .expect("the root's GPU is on every ring"),
            _ => 0,
        };
        let transfers = execute(op, n, root, &program(op, n, root))
            .unwrap_or_else(|e| panic!("{op:?} over {n} ranks: {e}"));
        let idle = idle_edge(op, n, root);
        for (p, &t) in transfers.iter().enumerate() {
            let want = match op {
                _ if idle == Some(p) => 0,
                CollectiveOp::AllReduce(_) => 2 * (n - 1),
                CollectiveOp::AllGather | CollectiveOp::ReduceScatter(_) => n - 1,
                CollectiveOp::Broadcast { .. } | CollectiveOp::Reduce { .. } => n,
            };
            assert_eq!(t, want, "{op:?} over {n} ranks: transfers on edge {p}");
        }
        let share = size.split(rings.len() as u64, ch.channel as u64);
        assert_eq!(ch.share, share, "channel {}", ch.channel);
        let load = |t: usize| Bytes::new((t as f64 / n as f64 * share.as_f64()).round() as u64);
        if transfers.iter().all(|&t| load(t) == Bytes::ZERO) {
            assert!(
                ch.tasks.is_empty(),
                "channel {} carries no bytes",
                ch.channel
            );
            continue;
        }
        assert_eq!(
            ch.tasks.len(),
            n,
            "channel {}: one task per edge",
            ch.channel
        );
        let gpus = ring.gpus();
        for (p, task) in ch.tasks.iter().enumerate() {
            let (EdgeTask::IntraHost { from, to, bytes }
            | EdgeTask::InterHost {
                from, to, bytes, ..
            }) = *task;
            assert_eq!((from, to), (gpus[p], gpus[(p + 1) % n]), "ring order");
            // The schedule models a rooted op's chain as the full ring:
            // its idle edge carries the share too, a <= 1/n overestimate.
            let want = if idle == Some(p) {
                share
            } else {
                load(transfers[p])
            };
            assert_eq!(
                bytes, want,
                "{op:?} over {n} ranks, channel {}, edge {p}",
                ch.channel
            );
        }
    }
}

/// Four spines, four leaves, four hosts of four GPUs per leaf: 64 GPUs.
fn spine_leaf_64() -> Topology {
    presets::spine_leaf(&presets::SpineLeafConfig {
        spines: 4,
        leaves: 4,
        hosts_per_leaf: 4,
        gpus_per_host: 4,
        nic_bandwidth: Bandwidth::gbps(100.0),
        leaf_spine_bandwidth: Bandwidth::gbps(100.0),
    })
}

/// Op `i` of the five, rooted at `root`.
fn op_of(i: usize, root: usize) -> CollectiveOp {
    [
        all_reduce_sum(),
        CollectiveOp::AllGather,
        CollectiveOp::ReduceScatter(ReduceKind::Sum),
        CollectiveOp::Broadcast { root },
        CollectiveOp::Reduce {
            root,
            kind: ReduceKind::Sum,
        },
    ][i]
}

/// `n` GPUs drawn from `topo` in rank order, and one ring per channel,
/// each an independent shuffle of them.
fn draw(topo: &Topology, n: usize, channels: usize, seed: u64) -> (Vec<GpuId>, Vec<RingOrder>) {
    let mut rng = Rng::seed_from(seed);
    let mut world: Vec<GpuId> = (0..topo.gpu_count() as u32).map(GpuId).collect();
    rng.shuffle(&mut world);
    world.truncate(n);
    let rings = (0..channels)
        .map(|_| {
            let mut order = world.clone();
            rng.shuffle(&mut order);
            RingOrder::new(order)
        })
        .collect();
    (world, rings)
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

    #[test]
    fn schedule_loads_are_the_chunk_programs_loads(
        op in 0usize..5,
        n in 2usize..=64,
        channels in 1usize..=8,
        size_bits in 0u32..=32,
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        let topo = spine_leaf_64();
        let (world, rings) = draw(&topo, n, channels, seed);
        let op = op_of(op, (seed >> 40) as usize % n);
        // Sizes from a few bytes (channels that carry nothing) to 4 GiB.
        let size = Bytes::new((seed >> 8) % (1u64 << size_bits) + 1);
        check_schedule(&topo, op, size, &world, &rings);
    }

    #[test]
    fn connections_are_the_inter_host_tasks_of_every_schedule(
        op in 0usize..5,
        n in 2usize..=64,
        channels in 1usize..=8,
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        let topo = spine_leaf_64();
        let (_, rings) = draw(&topo, n, channels, seed);
        let op = op_of(op, seed as usize % n);
        let schedule = CollectiveSchedule::ring(&topo, op, Bytes::mib(1), &rings);
        assert!(schedule.channels.iter().all(|c| !c.tasks.is_empty()));
        let inter_host: Vec<_> = schedule
            .tasks()
            .filter_map(|(c, t)| match t {
                EdgeTask::InterHost { src_nic, dst_nic, .. } => Some((c, src_nic, dst_nic)),
                EdgeTask::IntraHost { .. } => None,
            })
            .collect();
        assert_eq!(connections(&topo, &rings).collect::<Vec<_>>(), inter_host);
    }
}

/// Run a broken `steps` list as `op` over four ranks rooted at rank 0, and
/// return the executor's verdict.
fn reject(op: CollectiveOp, steps: &[Step]) -> String {
    execute(op, 4, 0, steps).expect_err("a broken program must be rejected")
}

#[test]
fn a_skipped_all_reduce_step_is_rejected() {
    let mut steps = program(all_reduce_sum(), 4, 0);
    // The first reduce-scatter step: position 0 adds its share of chunk 3
    // into position 1. Without it no rank's chunk 3 holds rank 0's data.
    let skipped = steps.remove(0);
    assert_eq!(
        skipped,
        Step {
            from: 0,
            chunk: 3,
            kind: Kind::Reduce
        }
    );
    let e = reject(all_reduce_sum(), &steps);
    assert!(
        e.starts_with("rank 0 chunk 3: holds contributions [0, 1, 1, 1]"),
        "{e}"
    );
}

#[test]
fn a_reduce_applied_twice_is_rejected() {
    let op = CollectiveOp::ReduceScatter(ReduceKind::Sum);
    let mut steps = program(op, 4, 0);
    // Position 0 adds into chunk 3 twice: rank 3 ends counting rank 0's
    // contribution twice — a count of 2 is as wrong as a count of 0.
    steps.insert(0, steps[0]);
    let e = reject(op, &steps);
    assert!(
        e.starts_with("rank 3 chunk 3: holds contributions [2, 1, 1, 1]"),
        "{e}"
    );
}

#[test]
fn a_broadcast_relayed_from_the_wrong_root_is_rejected() {
    let op = CollectiveOp::Broadcast { root: 0 };
    // The chain starts at position 1, which holds nothing, and its last
    // hop overwrites the root's own buffer with that nothing.
    let e = reject(op, &program(op, 4, 1));
    assert!(
        e.starts_with("rank 0 chunk 0: holds contributions [0, 0, 0, 0]"),
        "{e}"
    );
}
