//! The communicator table: every registered rank, keyed `(comm, gpu)`.
//!
//! Ranks live in stable boxed slots, so a proxy steps one by *lending*
//! it out of its slot and restoring it afterwards: two pointer moves,
//! with no copy of the rank and no tree operation. Two
//! indexes point into the slots and change only when a rank registers
//! or is destroyed: a per-GPU list sorted by communicator (what a proxy
//! walks every poll, and how any key is looked up) and an ordered map
//! that gives iteration the ascending `(comm, gpu)` order a
//! `BTreeMap<(CommunicatorId, GpuId), CommRank>` would.

use crate::proxy::CommRank;
use mccs_ipc::CommunicatorId;
use mccs_topology::GpuId;
use std::collections::BTreeMap;

/// Communicator ranks in stable slots, indexed by GPU and by key.
pub struct CommTable {
    /// `None` for a free slot and for a lent one.
    slots: Vec<Option<Box<CommRank>>>,
    /// Free slots, reused last-freed first.
    free: Vec<u32>,
    /// `gpu -> (comm, slot)` sorted by communicator.
    by_gpu: Vec<Vec<(CommunicatorId, u32)>>,
    /// `(comm, gpu) -> slot`, for ordered iteration.
    index: BTreeMap<(CommunicatorId, GpuId), u32>,
}

impl CommTable {
    /// An empty table for `gpus` GPUs.
    pub(crate) fn new(gpus: usize) -> Self {
        CommTable {
            slots: Vec::new(),
            free: Vec::new(),
            by_gpu: vec![Vec::new(); gpus],
            index: BTreeMap::new(),
        }
    }

    /// Register `rank` under `(rank.comm, rank.gpu)`. Panics if that key
    /// is already registered: callers check [`Self::contains`] first.
    pub(crate) fn insert(&mut self, rank: CommRank) {
        let key = (rank.comm, rank.gpu);
        let list = &mut self.by_gpu[key.1.index()];
        let pos = match list.binary_search_by_key(&key.0, |&(c, _)| c) {
            Ok(_) => panic!("{} already has a rank on {}", key.0, key.1),
            Err(pos) => pos,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(Box::new(rank));
                slot
            }
            None => {
                self.slots.push(Some(Box::new(rank)));
                (self.slots.len() - 1) as u32
            }
        };
        list.insert(pos, (key.0, slot));
        self.index.insert(key, slot);
    }

    /// Destroy the rank under `key`, freeing its slot for reuse.
    pub(crate) fn remove(&mut self, key: &(CommunicatorId, GpuId)) -> Option<Box<CommRank>> {
        let list = self.by_gpu.get_mut(key.1.index())?;
        let pos = list.binary_search_by_key(&key.0, |&(c, _)| c).ok()?;
        let (_, slot) = list.remove(pos);
        self.index.remove(key);
        self.free.push(slot);
        let rank = self.slots[slot as usize].take();
        assert!(
            rank.is_some(),
            "{} on {} destroyed while lent",
            key.0,
            key.1
        );
        rank
    }

    /// The slot of the rank under `key`, for [`Self::lend`].
    pub(crate) fn slot_of(&self, key: &(CommunicatorId, GpuId)) -> Option<u32> {
        let list = self.by_gpu.get(key.1.index())?;
        let pos = list.binary_search_by_key(&key.0, |&(c, _)| c).ok()?;
        Some(list[pos].1)
    }

    /// The rank under `key` (`None` while it is lent).
    pub(crate) fn get(&self, key: &(CommunicatorId, GpuId)) -> Option<&CommRank> {
        let slot = self.slot_of(key)?;
        self.slots[slot as usize].as_deref()
    }

    /// The rank under `key`, mutably (`None` while it is lent).
    pub(crate) fn get_mut(&mut self, key: &(CommunicatorId, GpuId)) -> Option<&mut CommRank> {
        let slot = self.slot_of(key)?;
        self.slots[slot as usize].as_deref_mut()
    }

    /// Whether a rank is registered (and not lent) under `key`.
    pub(crate) fn contains(&self, key: &(CommunicatorId, GpuId)) -> bool {
        self.get(key).is_some()
    }

    /// Every rank in ascending `(comm, gpu)` order, lent ones skipped.
    pub fn iter(&self) -> impl Iterator<Item = (&(CommunicatorId, GpuId), &CommRank)> {
        self.index
            .iter()
            .filter_map(|(key, &slot)| self.slots[slot as usize].as_deref().map(|r| (key, r)))
    }

    /// The keys of [`Self::iter`].
    pub fn keys(&self) -> impl Iterator<Item = &(CommunicatorId, GpuId)> {
        self.iter().map(|(key, _)| key)
    }

    /// The ranks of [`Self::iter`].
    pub fn values(&self) -> impl Iterator<Item = &CommRank> {
        self.iter().map(|(_, rank)| rank)
    }

    /// `(comm, slot)` of every rank on `gpu`, in ascending communicator
    /// order — the list a proxy walks each poll.
    pub(crate) fn on_gpu(&self, gpu: GpuId) -> &[(CommunicatorId, u32)] {
        &self.by_gpu[gpu.index()]
    }

    /// The rank in `slot` (a slot from [`Self::on_gpu`]).
    pub(crate) fn at(&self, slot: u32) -> &CommRank {
        self.slots[slot as usize]
            .as_deref()
            .unwrap_or_else(|| panic!("comm slot {slot} is free or lent"))
    }

    /// Take the rank out of `slot` for one step; [`Self::restore`] puts it
    /// back. While lent, the rank is invisible to every lookup.
    pub(crate) fn lend(&mut self, slot: u32) -> Box<CommRank> {
        self.slots[slot as usize]
            .take()
            .unwrap_or_else(|| panic!("comm slot {slot} is free or already lent"))
    }

    /// Return a lent rank to its slot. Panics if the slot is occupied.
    pub(crate) fn restore(&mut self, slot: u32, rank: Box<CommRank>) {
        let cell = &mut self.slots[slot as usize];
        assert!(
            cell.is_none(),
            "restoring {} on {} into occupied comm slot {slot}",
            rank.comm,
            rank.gpu
        );
        *cell = Some(rank);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CollectiveConfig, RouteMap};
    use crate::reconfig::Reconfig;
    use mccs_device::EventId;
    use mccs_ipc::AppId;
    use mccs_sim::Nanos;
    use std::collections::VecDeque;

    /// A rank whose `endpoint` carries `tag`, so the model can tell two
    /// registrations of one key apart.
    fn rank(comm: u64, gpu: u32, tag: usize) -> CommRank {
        CommRank {
            app: AppId(0),
            endpoint: tag,
            comm: CommunicatorId(comm),
            world_gpus: vec![GpuId(gpu)],
            rank: 0,
            gpu: GpuId(gpu),
            comm_event: EventId(0),
            streams: Vec::new(),
            config: CollectiveConfig {
                epoch: 0,
                channel_rings: Vec::new(),
                routes: RouteMap::ecmp(),
            },
            next_seq: 0,
            queue: VecDeque::new(),
            inflight: None,
            reconfig: Reconfig::new(0, 1, 0, Nanos::ZERO),
            resume_at: Nanos::ZERO,
            plan: Default::default(),
        }
    }

    const GPUS: u32 = 8;

    fn assert_matches(t: &CommTable, model: &BTreeMap<(CommunicatorId, GpuId), usize>) {
        let got: Vec<_> = t.iter().map(|(k, r)| (*k, r.endpoint)).collect();
        let want: Vec<_> = model.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, want);
        for c in 0..6 {
            for g in 0..GPUS {
                let key = (CommunicatorId(c), GpuId(g));
                assert_eq!(t.get(&key).map(|r| r.endpoint), model.get(&key).copied());
                assert_eq!(t.contains(&key), model.contains_key(&key));
            }
        }
        for g in 0..GPUS {
            let list: Vec<_> = t.on_gpu(GpuId(g)).iter().map(|&(c, _)| c).collect();
            let want: Vec<_> = model
                .keys()
                .filter(|k| k.1 == GpuId(g))
                .map(|k| k.0)
                .collect();
            assert_eq!(list, want, "on_gpu(gpu{g}) sorted and complete");
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Random register / destroy / lend-and-restore sequences keep
            /// the table equal to a keyed map, and a destroyed rank's slot
            /// is the next one registered.
            #[test]
            fn table_matches_a_keyed_map(
                ops in proptest::collection::vec((0u8..3, 0u64..6, 0u32..GPUS), 1..80)
            ) {
                let mut t = CommTable::new(GPUS as usize);
                let mut model = BTreeMap::new();
                for (tag, &(op, c, g)) in ops.iter().enumerate() {
                    let key = (CommunicatorId(c), GpuId(g));
                    match op {
                        0 if !model.contains_key(&key) => {
                            let reused = t.free.last().copied();
                            t.insert(rank(c, g, tag));
                            model.insert(key, tag);
                            if let Some(slot) = reused {
                                prop_assert_eq!(t.slot_of(&key), Some(slot));
                            }
                        }
                        0 => {}
                        1 => {
                            let got = t.remove(&key).map(|r| r.endpoint);
                            prop_assert_eq!(got, model.remove(&key));
                        }
                        _ => {
                            if let Some(&(_, slot)) =
                                t.on_gpu(key.1).iter().find(|&&(comm, _)| comm == key.0)
                            {
                                let mut r = t.lend(slot);
                                prop_assert!(t.get(&key).is_none(), "lent rank is invisible");
                                r.next_seq += 1;
                                t.restore(slot, r);
                                prop_assert_eq!(t.get(&key).map(|r| r.next_seq), Some(1));
                                t.get_mut(&key).expect("restored").next_seq = 0;
                            }
                        }
                    }
                    assert_matches(&t, &model);
                    prop_assert_eq!(t.slots.len() - t.free.len(), model.len());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "restoring comm1 on gpu2 into occupied comm slot 0")]
    fn restore_into_an_occupied_slot_panics() {
        let mut t = CommTable::new(4);
        t.insert(rank(1, 2, 0));
        let lent = t.lend(0);
        t.restore(0, Box::new(rank(1, 2, 1)));
        t.restore(0, lent);
    }
}
