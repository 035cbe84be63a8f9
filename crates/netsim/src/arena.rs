//! Arena-indexed flow storage: dense slots behind sequential [`FlowId`]s.
//!
//! [`FlowId`]s stay globally unique and monotonically increasing — that is
//! what makes completion ordering, cross-run differential tests, and the
//! digest canonical — but the hot state lives in no ordered map. An id
//! indexes an O(1) flat translation table (`id_slot`) into a `Vec`-backed
//! slot arena with a LIFO free list. Slots are recycled, ids never are: a
//! dead id translates to `DEAD` forever, so nothing can reach a recycled
//! slot through it.

use crate::flow::FlowId;

/// Sentinel in the id→slot table: id is dead (or was never born).
const DEAD: u32 = u32::MAX;

/// Dense slot arena with a free list.
#[derive(Debug)]
pub(crate) struct FlowStore<T> {
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

impl<T> Default for FlowStore<T> {
    fn default() -> Self {
        FlowStore {
            slots: Vec::new(),
            free: Vec::new(),
            id_slot: Vec::new(),
            floor: 0,
            len: 0,
        }
    }
}

impl<T> FlowStore<T> {
    fn slot_of(&self, id: FlowId) -> Option<u32> {
        let s = *self.id_slot.get(id.0 as usize)?;
        (s != DEAD).then_some(s)
    }

    pub(crate) fn insert(&mut self, id: FlowId, value: T) -> Option<T> {
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

    pub(crate) fn remove(&mut self, id: FlowId) -> Option<T> {
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

    /// Visit every live flow in ascending id order — the canonical order
    /// for anything digest- or float-visible (dead prefix skipped via the
    /// watermark maintained by `remove`).
    pub(crate) fn for_each_ordered(&self, mut f: impl FnMut(FlowId, &T)) {
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

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub(crate) fn contains(&self, id: FlowId) -> bool {
        self.slot_of(id).is_some()
    }

    pub(crate) fn get(&self, id: FlowId) -> Option<&T> {
        let slot = self.slot_of(id)?;
        self.slots[slot as usize].as_ref()
    }

    pub(crate) fn get_mut(&mut self, id: FlowId) -> Option<&mut T> {
        let slot = self.slot_of(id)?;
        self.slots[slot as usize].as_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

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
        let mut map: BTreeMap<FlowId, u64> = BTreeMap::new();
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
            assert_eq!(arena.remove(victim), map.remove(&victim));
        }
        let mut seen = Vec::new();
        arena.for_each_ordered(|id, &v| seen.push((id, v)));
        assert_eq!(seen, map.into_iter().collect::<Vec<_>>());
        assert_eq!(arena.len(), seen.len());
    }
}
