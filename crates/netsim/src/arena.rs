//! Arena-indexed flow storage: dense slots behind sequential [`FlowId`]s.
//!
//! [`FlowId`]s stay globally unique and monotonically increasing — that is
//! what makes completion ordering, cross-run differential tests, and the
//! digest canonical — but the hot state no longer lives in a
//! `BTreeMap<FlowId, FlowState>`. Instead an id indexes an O(1) flat
//! translation table (`id_slot`) into a `Vec`-backed slot arena with a LIFO
//! free list. Slots are recycled, ids never are: a dead id translates to
//! `DEAD` forever, so nothing can reach a recycled slot through it.
//!
//! The map-backed representation is kept as a switchable oracle
//! ([`FlowStore::set_map_backed`]); both representations allocate identical
//! ids (the caller owns the sequential counter) and iterate in identical
//! id order, so every observable — trace digests included — must be
//! byte-identical between them. CI flips the toggle and checks.

use std::collections::BTreeMap;

use crate::flow::FlowId;

/// Sentinel in the id→slot table: id is dead (or was never born).
const DEAD: u32 = u32::MAX;

/// Dense slot arena with a free list.
#[derive(Debug)]
pub(crate) struct FlowArena<T> {
    /// Slot-indexed flow state.
    slots: Vec<Option<T>>,
    /// Recycled slot indices, LIFO.
    free: Vec<u32>,
    /// `id.0 -> slot` translation; `DEAD` for finished/cancelled ids.
    /// Ids are sequential, so this is a flat vector, not a map.
    id_slot: Vec<u32>,
    /// Ids below this are all dead — bounds ordered scans under churn.
    floor: usize,
    len: usize,
}

impl<T> Default for FlowArena<T> {
    fn default() -> Self {
        FlowArena {
            slots: Vec::new(),
            free: Vec::new(),
            id_slot: Vec::new(),
            floor: 0,
            len: 0,
        }
    }
}

impl<T> FlowArena<T> {
    fn slot_of(&self, id: FlowId) -> Option<u32> {
        let s = *self.id_slot.get(id.0 as usize)?;
        (s != DEAD).then_some(s)
    }

    fn insert(&mut self, id: FlowId, value: T) -> Option<T> {
        let idx = id.0 as usize;
        if idx >= self.id_slot.len() {
            self.id_slot.resize(idx + 1, DEAD);
        }
        if let Some(slot) = self.slot_of(id) {
            // Replacing a live id in place keeps the slot.
            return self.slots[slot as usize].replace(value);
        }
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(None);
                (self.slots.len() - 1) as u32
            }
        };
        self.slots[slot as usize] = Some(value);
        self.id_slot[idx] = slot;
        self.len += 1;
        None
    }

    fn remove(&mut self, id: FlowId) -> Option<T> {
        let slot = self.slot_of(id)?;
        self.id_slot[id.0 as usize] = DEAD;
        let out = self.slots[slot as usize].take();
        debug_assert!(out.is_some(), "live id pointed at an empty slot");
        self.free.push(slot);
        self.len -= 1;
        // Advance the dead-prefix watermark (amortized O(1)): ordered
        // scans then start at the oldest live id, so long-lived churn does
        // not degrade iteration to O(total ids ever).
        while self.floor < self.id_slot.len() && self.id_slot[self.floor] == DEAD {
            self.floor += 1;
        }
        out
    }

    /// Iterate live ids in ascending order (dead prefix skipped via the
    /// watermark maintained by `remove`).
    fn for_each_ordered(&self, mut f: impl FnMut(FlowId, &T)) {
        for idx in self.floor..self.id_slot.len() {
            let slot = self.id_slot[idx];
            if slot != DEAD {
                let v = self.slots[slot as usize]
                    .as_ref()
                    .expect("live id pointed at an empty slot");
                f(FlowId(idx as u64), v);
            }
        }
    }
}

/// Flow storage with two byte-equivalent representations: the dense arena
/// (default) and the `BTreeMap` oracle it replaced.
#[derive(Debug)]
pub(crate) enum FlowStore<T> {
    Arena(FlowArena<T>),
    Map(BTreeMap<FlowId, T>),
}

impl<T> Default for FlowStore<T> {
    fn default() -> Self {
        FlowStore::Arena(FlowArena::default())
    }
}

impl<T> FlowStore<T> {
    /// Map-backed oracle storage (for differential tests / env toggles).
    pub(crate) fn map_backed() -> Self {
        FlowStore::Map(BTreeMap::new())
    }

    pub(crate) fn is_map_backed(&self) -> bool {
        matches!(self, FlowStore::Map(_))
    }

    /// Switch representation in place, preserving every live flow. Slot
    /// assignments after a round-trip differ (ids re-enter in id order),
    /// which is fine: slots are never observable, only ids are.
    pub(crate) fn set_map_backed(&mut self, map: bool) {
        if map == self.is_map_backed() {
            return;
        }
        match self {
            FlowStore::Arena(a) => {
                let mut ids = Vec::with_capacity(a.len);
                a.for_each_ordered(|id, _| ids.push(id));
                let mut drained: Vec<(FlowId, T)> = Vec::with_capacity(ids.len());
                for id in ids {
                    let v = a.remove(id).expect("id listed as live");
                    drained.push((id, v));
                }
                *self = FlowStore::Map(drained.into_iter().collect());
            }
            FlowStore::Map(m) => {
                let mut a = FlowArena::default();
                for (id, v) in std::mem::take(m) {
                    a.insert(id, v);
                }
                *self = FlowStore::Arena(a);
            }
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            FlowStore::Arena(a) => a.len,
            FlowStore::Map(m) => m.len(),
        }
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn contains(&self, id: FlowId) -> bool {
        match self {
            FlowStore::Arena(a) => a.slot_of(id).is_some(),
            FlowStore::Map(m) => m.contains_key(&id),
        }
    }

    pub(crate) fn get(&self, id: FlowId) -> Option<&T> {
        match self {
            FlowStore::Arena(a) => {
                let slot = a.slot_of(id)?;
                a.slots[slot as usize].as_ref()
            }
            FlowStore::Map(m) => m.get(&id),
        }
    }

    pub(crate) fn get_mut(&mut self, id: FlowId) -> Option<&mut T> {
        match self {
            FlowStore::Arena(a) => {
                let slot = a.slot_of(id)?;
                a.slots[slot as usize].as_mut()
            }
            FlowStore::Map(m) => m.get_mut(&id),
        }
    }

    pub(crate) fn insert(&mut self, id: FlowId, value: T) -> Option<T> {
        match self {
            FlowStore::Arena(a) => a.insert(id, value),
            FlowStore::Map(m) => m.insert(id, value),
        }
    }

    pub(crate) fn remove(&mut self, id: FlowId) -> Option<T> {
        match self {
            FlowStore::Arena(a) => a.remove(id),
            FlowStore::Map(m) => m.remove(&id),
        }
    }

    /// Visit every live flow in ascending id order — the canonical order
    /// for anything digest- or float-visible. Identical across both
    /// representations by construction.
    pub(crate) fn for_each_ordered(&self, mut f: impl FnMut(FlowId, &T)) {
        match self {
            FlowStore::Arena(a) => a.for_each_ordered(f),
            FlowStore::Map(m) => {
                for (id, v) in m.iter() {
                    f(*id, v);
                }
            }
        }
    }

    /// Live ids in ascending order, collected into `out`.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn ids_ordered(&self, out: &mut Vec<FlowId>) {
        out.clear();
        self.for_each_ordered(|id, _| out.push(id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s: FlowStore<u32> = FlowStore::default();
        assert!(s.is_empty());
        s.insert(FlowId(0), 10);
        s.insert(FlowId(1), 11);
        s.insert(FlowId(2), 12);
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(FlowId(1)), Some(&11));
        *s.get_mut(FlowId(1)).unwrap() = 21;
        assert_eq!(s.remove(FlowId(1)), Some(21));
        assert!(!s.contains(FlowId(1)));
        assert_eq!(s.get(FlowId(1)), None);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn recycled_slot_is_unreachable_through_the_dead_id() {
        let mut s: FlowStore<u32> = FlowStore::default();
        s.insert(FlowId(0), 10);
        s.remove(FlowId(0));
        // Lands on the slot id 0 just freed.
        s.insert(FlowId(1), 11);
        assert_eq!(s.get(FlowId(0)), None);
        assert!(!s.contains(FlowId(0)));
        assert_eq!(s.remove(FlowId(0)), None);
        assert_eq!(s.get(FlowId(1)), Some(&11));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn ordered_iteration_matches_map_oracle() {
        let mut arena: FlowStore<u64> = FlowStore::default();
        let mut map: FlowStore<u64> = FlowStore::map_backed();
        let mut next = 0u64;
        // Deterministic churn: interleaved inserts and removes.
        for round in 0..50u64 {
            for _ in 0..3 {
                let id = FlowId(next);
                next += 1;
                arena.insert(id, id.0 * 7);
                map.insert(id, id.0 * 7);
            }
            let victim = FlowId((round * 13) % next);
            assert_eq!(arena.remove(victim), map.remove(victim));
        }
        let (mut a_ids, mut m_ids) = (Vec::new(), Vec::new());
        arena.ids_ordered(&mut a_ids);
        map.ids_ordered(&mut m_ids);
        assert_eq!(a_ids, m_ids);
        assert!(a_ids.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
        for id in a_ids {
            assert_eq!(arena.get(id), map.get(id));
        }
    }

    #[test]
    fn representation_switch_preserves_contents() {
        let mut s: FlowStore<u64> = FlowStore::default();
        for i in 0..10 {
            s.insert(FlowId(i), i + 100);
        }
        s.remove(FlowId(3));
        s.remove(FlowId(7));
        s.set_map_backed(true);
        assert!(s.is_map_backed());
        assert_eq!(s.len(), 8);
        s.set_map_backed(false);
        assert_eq!(s.len(), 8);
        assert_eq!(s.get(FlowId(4)), Some(&104));
        assert!(!s.contains(FlowId(3)));
    }
}
