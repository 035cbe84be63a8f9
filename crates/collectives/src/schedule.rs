//! Per-edge transfer schedules.
//!
//! A [`CollectiveSchedule`] is the concrete work a collective launches:
//! for each *channel* (parallel ring carrying a slice of the buffer, the
//! paper's "number of rings equal to the number of network multi-path
//! choices"), the set of edge transfers, split into intra-host channel
//! copies and inter-host network transfers with explicit NIC endpoints.
//!
//! ## NIC assignment
//!
//! Channel `c`'s inter-host edge out of host `H` uses the NIC affined to
//! the communicator's `c mod k`-th GPU on `H` (`k` = communicator GPUs on
//! `H`, counted in ring-traversal order). With 2 GPUs + 2 NICs per host
//! and 2 channels this engages both NICs — NCCL's per-channel ring
//! rotation, and the reason the paper's setup 3 tenant A ("2 GPUs and 2
//! NICs per host") deserves twice the inter-host bandwidth of tenants B/C
//! ("1 per host").
//!
//! ## One lowering
//!
//! One private walk turns channel rings into edges and NIC pairs.
//! [`CollectiveSchedule::ring`] adds bytes to it; [`connections`] lists
//! its inter-host edges for the policies that route them; and
//! [`ScheduleKey`] stores the same host grouping the NIC rule reads.

use crate::op::CollectiveOp;
use crate::ring::RingOrder;
use mccs_sim::Bytes;
use mccs_topology::{GpuId, HostId, NicId, Topology};

/// One edge's transfer work.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EdgeTask {
    /// Same-host GPU-to-GPU copy over the intra-host channel.
    IntraHost {
        /// Producing GPU.
        from: GpuId,
        /// Consuming GPU.
        to: GpuId,
        /// Bytes to move.
        bytes: Bytes,
    },
    /// Cross-host transfer: becomes a network flow.
    InterHost {
        /// Producing GPU.
        from: GpuId,
        /// Consuming GPU.
        to: GpuId,
        /// NIC the flow leaves from.
        src_nic: NicId,
        /// NIC the flow arrives at.
        dst_nic: NicId,
        /// Bytes to move.
        bytes: Bytes,
    },
}

/// One channel's ring and edge tasks.
#[derive(Clone, Debug)]
pub struct ChannelSchedule {
    /// Channel index.
    pub channel: usize,
    /// The slice of the collective buffer this channel carries.
    pub share: Bytes,
    /// Edge transfers, in ring order.
    pub tasks: Vec<EdgeTask>,
}

/// A fully resolved collective execution plan.
#[derive(Clone, Debug)]
pub struct CollectiveSchedule {
    /// Per-channel plans.
    pub channels: Vec<ChannelSchedule>,
}

impl CollectiveSchedule {
    /// Build a ring schedule: `size` split over `channel_rings.len()`
    /// channels, channel `c` following `channel_rings[c]`. A channel whose
    /// edge bytes round to zero gets no tasks.
    ///
    /// All rings must contain the same GPU set (they are usually the same
    /// order, or per-channel variants chosen by the provider).
    pub fn ring(
        topo: &Topology,
        op: CollectiveOp,
        size: Bytes,
        channel_rings: &[RingOrder],
    ) -> Self {
        assert!(!channel_rings.is_empty(), "need at least one channel");
        let n = channel_rings[0].len();
        assert!(
            channel_rings.iter().all(|r| r.len() == n),
            "channel rings over different GPU sets"
        );
        let k = channel_rings.len() as u64;
        let mut channels: Vec<ChannelSchedule> = (0..k)
            .map(|c| ChannelSchedule {
                channel: c as usize,
                share: size.split(k, c),
                tasks: Vec::new(),
            })
            .collect();
        for (c, from, to, nics) in walk(topo, channel_rings) {
            let ch = &mut channels[c];
            let bytes = op.ring_edge_bytes(ch.share, n);
            if bytes == Bytes::ZERO {
                continue;
            }
            ch.tasks.push(match nics {
                None => EdgeTask::IntraHost { from, to, bytes },
                Some((src_nic, dst_nic)) => EdgeTask::InterHost {
                    from,
                    to,
                    src_nic,
                    dst_nic,
                    bytes,
                },
            });
        }
        CollectiveSchedule { channels }
    }

    /// Every task with its channel, in channel then ring order.
    pub fn tasks(&self) -> impl Iterator<Item = (usize, EdgeTask)> + '_ {
        self.channels
            .iter()
            .flat_map(|c| c.tasks.iter().map(move |&t| (c.channel, t)))
    }

    /// All tasks whose producing GPU is `gpu` — the work one proxy engine
    /// owns.
    pub fn tasks_from_gpu(&self, gpu: GpuId) -> Vec<(usize, EdgeTask)> {
        self.tasks()
            .filter(|(_, t)| match *t {
                EdgeTask::IntraHost { from, .. } | EdgeTask::InterHost { from, .. } => from == gpu,
            })
            .collect()
    }

    /// Total task count.
    pub fn task_count(&self) -> usize {
        self.channels.iter().map(|c| c.tasks.len()).sum()
    }
}

/// The inter-host connections of `rings` as `(channel, src NIC, dst
/// NIC)`, in channel then ring order: the network flows
/// [`CollectiveSchedule::ring`] would start for any op and size whose
/// channels all carry bytes. What route policies pin and probe.
pub fn connections<'a>(
    topo: &'a Topology,
    rings: &'a [RingOrder],
) -> impl Iterator<Item = (usize, NicId, NicId)> + 'a {
    walk(topo, rings).filter_map(|(c, _, _, nics)| nics.map(|(src, dst)| (c, src, dst)))
}

/// Every ring edge of every channel, in channel then ring order, as
/// `(channel, from, to, nics)`: `nics` is the `(src, dst)` NIC pair of an
/// inter-host edge and `None` for an intra-host one.
fn walk<'a>(
    topo: &'a Topology,
    rings: &'a [RingOrder],
) -> impl Iterator<Item = (usize, GpuId, GpuId, Option<(NicId, NicId)>)> + 'a {
    rings.iter().enumerate().flat_map(move |(c, ring)| {
        let hosts = host_pairs(topo, ring);
        ring.edges().into_iter().map(move |(from, to)| {
            let nics = (!topo.same_host(from, to)).then(|| {
                (
                    channel_nic(topo, &hosts, from, c),
                    channel_nic(topo, &hosts, to, c),
                )
            });
            (c, from, to, nics)
        })
    })
}

/// Identity of a ring schedule for cross-communicator caching.
///
/// Two communicators whose launches map to equal keys derive schedules
/// that are interchangeable: [`CollectiveSchedule::ring`] is a pure
/// function of (topology, op, size, channel rings), and the key captures
/// every ring property the construction reads —
///
/// * the **cyclic order** (edge set), canonicalized by rotating each ring
///   so its smallest GPU comes first, making communicators that list the
///   same ring from different starting ranks share an entry;
/// * the **per-host traversal order**, which rotation does *not*
///   preserve when the seam splits a host's GPU run: the NIC rule picks
///   from each host's GPUs in ring-traversal order, so two rotations of
///   the same cyclic order can assign different NICs. The key stores the
///   very `host_pairs` vector the walk resolves NICs against, so a key
///   hit implies identical NIC assignment too.
///
/// Equal keys may still produce task lists in a rotated order, but
/// [`CollectiveSchedule::tasks_from_gpu`] — the only per-rank consumer —
/// returns at most one task per channel per GPU, so the extracted work is
/// identical. Chunking is covered by the channel count (ring list length)
/// plus `size`, which determine every channel's share.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ScheduleKey {
    op: CollectiveOp,
    size: Bytes,
    rings: Vec<RingKey>,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct RingKey {
    /// The ring rotated so its smallest GPU leads (cyclic canonical form).
    canonical: Vec<GpuId>,
    /// The ring's [`host_pairs`].
    host_pairs: Vec<(HostId, GpuId)>,
}

impl ScheduleKey {
    /// The cache key for the schedule `CollectiveSchedule::ring(topo, op,
    /// size, channel_rings)` would build.
    pub fn for_ring(
        topo: &Topology,
        op: CollectiveOp,
        size: Bytes,
        channel_rings: &[RingOrder],
    ) -> Self {
        let rings = channel_rings
            .iter()
            .map(|ring| {
                let gpus = ring.gpus();
                let min_at = gpus
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, g)| g)
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                let mut canonical = Vec::with_capacity(gpus.len());
                canonical.extend_from_slice(&gpus[min_at..]);
                canonical.extend_from_slice(&gpus[..min_at]);
                RingKey {
                    canonical,
                    host_pairs: host_pairs(topo, ring),
                }
            })
            .collect();
        ScheduleKey { op, size, rings }
    }
}

/// The ring's `(host, gpu)` pairs stable-sorted by host: one run per
/// host, its GPUs in ring-traversal order (flat, so building it costs one
/// allocation, not one per host).
fn host_pairs(topo: &Topology, ring: &RingOrder) -> Vec<(HostId, GpuId)> {
    let mut pairs: Vec<(HostId, GpuId)> = ring
        .gpus()
        .iter()
        .map(|&g| (topo.host_of_gpu(g), g))
        .collect();
    pairs.sort_by_key(|&(h, _)| h);
    pairs
}

/// The NIC channel `c` uses on `gpu`'s host: the NIC of the `c mod k`-th
/// GPU of that host's run in `host_pairs`.
fn channel_nic(topo: &Topology, host_pairs: &[(HostId, GpuId)], gpu: GpuId, c: usize) -> NicId {
    let host = topo.host_of_gpu(gpu);
    let start = host_pairs.partition_point(|&(h, _)| h < host);
    let run = host_pairs[start..].partition_point(|&(h, _)| h == host);
    topo.nic_of_gpu(host_pairs[start + c % run].1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{all_reduce_sum, ReduceKind};
    use mccs_topology::presets;

    fn topo() -> Topology {
        presets::testbed()
    }

    fn ring8(t: &Topology) -> RingOrder {
        // optimal order: H0 H1 H2 H3, GPUs contiguous
        let _ = t;
        RingOrder::new((0..8).map(GpuId).collect())
    }

    fn is_inter_host(t: &EdgeTask) -> bool {
        matches!(t, EdgeTask::InterHost { .. })
    }

    fn network_tasks(ch: &ChannelSchedule) -> impl Iterator<Item = &EdgeTask> {
        ch.tasks.iter().filter(|t| is_inter_host(t))
    }

    #[test]
    fn single_channel_four_ranks() {
        let t = topo();
        // one GPU per host: g0, g2, g4, g6
        let ring = RingOrder::new(vec![GpuId(0), GpuId(2), GpuId(4), GpuId(6)]);
        let s = CollectiveSchedule::ring(&t, all_reduce_sum(), Bytes::mib(8), &[ring]);
        assert_eq!(s.channels.len(), 1);
        let ch = &s.channels[0];
        assert_eq!(ch.tasks.len(), 4);
        // 2(n-1)/n * 8MiB = 12MiB per edge, every edge across hosts
        assert!(ch
            .tasks
            .iter()
            .all(|t| matches!(t, EdgeTask::InterHost { bytes, .. } if *bytes == Bytes::mib(12))));
        assert_eq!(s.task_count(), 4);
    }

    #[test]
    fn two_channels_split_bytes_and_nics() {
        let t = topo();
        let rings = [ring8(&t), ring8(&t)];
        let s = CollectiveSchedule::ring(&t, all_reduce_sum(), Bytes::mib(16), &rings);
        assert_eq!(s.channels.len(), 2);
        for ch in &s.channels {
            assert_eq!(ch.share, Bytes::mib(8));
            // 8 edges: 4 intra-host (within each host), 4 inter-host
            assert_eq!(ch.tasks.len(), 8);
            assert_eq!(network_tasks(ch).count(), 4);
        }
        // channel 0 and channel 1 use different NICs per host
        let nic_of = |ch: &ChannelSchedule| -> Vec<NicId> {
            network_tasks(ch)
                .map(|t| match *t {
                    EdgeTask::InterHost { src_nic, .. } => src_nic,
                    _ => unreachable!(),
                })
                .collect()
        };
        let n0 = nic_of(&s.channels[0]);
        let n1 = nic_of(&s.channels[1]);
        assert!(n0.iter().zip(&n1).all(|(a, b)| a != b));
    }

    #[test]
    fn intra_host_edges_stay_off_network() {
        let t = topo();
        // 2 GPUs on one host: no network tasks at all.
        let ring = RingOrder::new(vec![GpuId(0), GpuId(1)]);
        let s = CollectiveSchedule::ring(&t, all_reduce_sum(), Bytes::mib(4), &[ring]);
        assert_eq!(s.channels[0].tasks.len(), 2);
        assert_eq!(network_tasks(&s.channels[0]).count(), 0);
    }

    #[test]
    fn tasks_from_gpu_selects_proxy_work() {
        let t = topo();
        let rings = [ring8(&t), ring8(&t)];
        let s = CollectiveSchedule::ring(&t, all_reduce_sum(), Bytes::mib(16), &rings);
        // GPU 1 is the boundary GPU of H0 (edge g1 -> g2 crosses hosts):
        // one task per channel.
        let tasks = s.tasks_from_gpu(GpuId(1));
        assert_eq!(tasks.len(), 2);
        assert!(tasks.iter().all(|(_, t)| is_inter_host(t)));
        // GPU 0's edge g0->g1 is intra-host: one per channel.
        let tasks = s.tasks_from_gpu(GpuId(0));
        assert_eq!(tasks.len(), 2);
        assert!(tasks.iter().all(|(_, t)| !is_inter_host(t)));
    }

    #[test]
    fn odd_sizes_split_without_loss() {
        let t = topo();
        let rings = [ring8(&t), ring8(&t), ring8(&t)];
        let s = CollectiveSchedule::ring(&t, all_reduce_sum(), Bytes::new(10), &rings);
        let total: Bytes = s.channels.iter().map(|c| c.share).sum();
        assert_eq!(total, Bytes::new(10));
    }

    #[test]
    fn single_gpu_communicator_is_free() {
        let t = topo();
        let ring = RingOrder::new(vec![GpuId(3)]);
        let s = CollectiveSchedule::ring(&t, all_reduce_sum(), Bytes::mib(1), &[ring]);
        assert_eq!(s.task_count(), 0);
    }

    #[test]
    #[should_panic(expected = "different GPU sets")]
    fn mismatched_channel_rings_rejected() {
        let t = topo();
        let a = RingOrder::new(vec![GpuId(0), GpuId(2)]);
        let b = RingOrder::new(vec![GpuId(0), GpuId(2), GpuId(4)]);
        CollectiveSchedule::ring(&t, all_reduce_sum(), Bytes::mib(1), &[a, b]);
    }

    #[test]
    fn schedule_key_shares_rotations_that_preserve_host_order() {
        let t = topo();
        let op = all_reduce_sum();
        let size = Bytes::mib(8);
        let key = |gpus: Vec<u32>| {
            let ring = RingOrder::new(gpus.into_iter().map(GpuId).collect());
            ScheduleKey::for_ring(&t, op, size, &[ring])
        };
        // A rotation whose seam falls between host runs is the same
        // schedule: same edges, same per-host traversal order.
        assert_eq!(key(vec![0, 1, 4, 5]), key(vec![4, 5, 0, 1]));
        // A rotation that splits H0's run reverses its traversal order
        // ([1, 0] vs [0, 1]), which changes channel-NIC assignment — the
        // key must distinguish it even though the cyclic order is equal.
        assert_ne!(key(vec![0, 1, 4, 5]), key(vec![1, 4, 5, 0]));
        // Different cyclic orders never collide.
        assert_ne!(key(vec![0, 1, 4, 5]), key(vec![0, 4, 1, 5]));
        // Op, size and channel count are all part of the identity.
        let ring = RingOrder::new(vec![GpuId(0), GpuId(2)]);
        let base = ScheduleKey::for_ring(&t, op, size, std::slice::from_ref(&ring));
        assert_ne!(
            base,
            ScheduleKey::for_ring(
                &t,
                CollectiveOp::AllGather,
                size,
                std::slice::from_ref(&ring)
            )
        );
        assert_ne!(
            base,
            ScheduleKey::for_ring(&t, op, Bytes::mib(16), std::slice::from_ref(&ring))
        );
        assert_ne!(
            base,
            ScheduleKey::for_ring(&t, op, size, &[ring.clone(), ring])
        );
    }

    /// The world-wide schedule cache is transparent exactly when equal
    /// keys mean equal per-GPU work. Checks that over every rotation of
    /// `ring` and of its reversal, each used on all `channels` channels:
    /// for every pair with equal keys, every GPU's tasks are equal.
    /// Returns how many pairs of distinct rotations shared a key.
    fn assert_equal_keys_mean_equal_tasks(
        t: &Topology,
        op: CollectiveOp,
        size: Bytes,
        ring: &RingOrder,
        channels: usize,
    ) -> usize {
        let rotations: Vec<(ScheduleKey, CollectiveSchedule)> = [ring.clone(), ring.reversed()]
            .iter()
            .flat_map(|r| {
                (0..r.len()).map(move |i| {
                    let mut gpus = r.gpus().to_vec();
                    gpus.rotate_left(i);
                    vec![RingOrder::new(gpus); channels]
                })
            })
            .map(|rings| {
                (
                    ScheduleKey::for_ring(t, op, size, &rings),
                    CollectiveSchedule::ring(t, op, size, &rings),
                )
            })
            .collect();
        let mut shared = 0;
        for (i, (ka, sa)) in rotations.iter().enumerate() {
            for (kb, sb) in &rotations[i + 1..] {
                if ka != kb {
                    continue;
                }
                shared += 1;
                for &g in ring.gpus() {
                    assert_eq!(
                        sa.tasks_from_gpu(g),
                        sb.tasks_from_gpu(g),
                        "equal keys, different work for {g:?}: {ka:?}"
                    );
                }
            }
        }
        shared
    }

    #[test]
    fn equal_keys_mean_equal_per_gpu_tasks() {
        let t = topo();
        let op = all_reduce_sum();
        let size = Bytes::mib(8);
        let a = RingOrder::new(vec![GpuId(0), GpuId(1), GpuId(4), GpuId(5)]);
        let b = RingOrder::new(vec![GpuId(4), GpuId(5), GpuId(0), GpuId(1)]);
        assert_eq!(
            ScheduleKey::for_ring(&t, op, size, std::slice::from_ref(&a)),
            ScheduleKey::for_ring(&t, op, size, std::slice::from_ref(&b))
        );
        assert!(assert_equal_keys_mean_equal_tasks(&t, op, size, &a, 1) > 0);
    }

    /// Two spines, two leaves, two hosts of four GPUs per leaf: 16 GPUs.
    fn small_spine_leaf() -> Topology {
        presets::spine_leaf(&presets::SpineLeafConfig {
            spines: 2,
            leaves: 2,
            hosts_per_leaf: 2,
            gpus_per_host: 4,
            nic_bandwidth: mccs_sim::Bandwidth::gbps(100.0),
            leaf_spine_bandwidth: mccs_sim::Bandwidth::gbps(100.0),
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]

        #[test]
        fn equal_keys_mean_equal_per_gpu_tasks_on_random_rings(
            spine_leaf in proptest::arbitrary::any::<bool>(),
            n in 2usize..=16,
            channels in 1usize..=4,
            op in 0usize..5,
            chunks in 1u64..=1 << 20,
            seed in proptest::arbitrary::any::<u64>(),
        ) {
            let t = if spine_leaf { small_spine_leaf() } else { topo() };
            let n = n.min(t.gpu_count());
            let mut gpus: Vec<GpuId> = (0..t.gpu_count() as u32).map(GpuId).collect();
            mccs_sim::Rng::seed_from(seed).shuffle(&mut gpus);
            gpus.truncate(n);
            let root = seed as usize % n;
            let op = [
                all_reduce_sum(),
                CollectiveOp::AllGather,
                CollectiveOp::ReduceScatter(ReduceKind::Sum),
                CollectiveOp::Broadcast { root },
                CollectiveOp::Reduce { root, kind: ReduceKind::Sum },
            ][op];
            // A multiple of the channel count plus 0..channels-1 bytes.
            let remainder = (seed >> 32) % channels as u64;
            let size = Bytes::new(chunks * channels as u64 + remainder);
            assert_equal_keys_mean_equal_tasks(&t, op, size, &RingOrder::new(gpus), channels);
        }
    }

    #[test]
    fn one_nic_per_host_shares_nic_across_channels() {
        let t = topo();
        // 4-GPU setup: one GPU per host; 2 channels must both exit through
        // the single NIC each host contributes.
        let ring = RingOrder::new(vec![GpuId(0), GpuId(2), GpuId(4), GpuId(6)]);
        let s =
            CollectiveSchedule::ring(&t, all_reduce_sum(), Bytes::mib(8), &[ring.clone(), ring]);
        let nics: Vec<NicId> = s
            .channels
            .iter()
            .flat_map(network_tasks)
            .map(|t| match *t {
                EdgeTask::InterHost { src_nic, .. } => src_nic,
                _ => unreachable!(),
            })
            .collect();
        // channel 0 and 1 out of H0 both use g0's NIC.
        assert_eq!(nics[0], t.nic_of_gpu(GpuId(0)));
        assert!(nics.contains(&t.nic_of_gpu(GpuId(0))));
        let h0_nics: Vec<_> = nics
            .iter()
            .filter(|n| t.nic(**n).host == mccs_topology::HostId(0))
            .collect();
        assert_eq!(h0_nics.len(), 2);
        assert_eq!(h0_nics[0], h0_nics[1]);
    }
}
