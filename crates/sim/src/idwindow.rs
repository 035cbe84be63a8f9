//! A map over ids handed out by a counter.
//!
//! Flow ids, task tokens, request and sequence numbers are issued in
//! order, so the live keys sit in a narrow band just behind the counter.
//! [`IdWindow`] keeps a deque of slots over that band, indexed by
//! `key - base`: no hashing and no search.

use std::collections::VecDeque;

/// A map over `u64` keys stored as a window of slots from the oldest
/// live key (`base`) to the newest. Removing the oldest entries reclaims
/// the slots in front, so memory follows the live-key *span*, not the
/// number of keys ever inserted; a key below `base` grows the window at
/// the front. A key that is never removed pins the window's front, so
/// this suits tables whose entries all retire.
#[derive(Debug)]
pub struct IdWindow<T> {
    base: u64,
    slots: VecDeque<Option<T>>,
}

impl<T> Default for IdWindow<T> {
    fn default() -> Self {
        IdWindow {
            base: 0,
            slots: VecDeque::new(),
        }
    }
}

impl<T> IdWindow<T> {
    /// Insert, returning the previous value for `id` if any.
    pub fn insert(&mut self, id: u64, value: T) -> Option<T> {
        if self.slots.is_empty() {
            self.base = id;
        } else if id < self.base {
            for _ in id..self.base {
                self.slots.push_front(None);
            }
            self.base = id;
        }
        let idx = (id - self.base) as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        self.slots[idx].replace(value)
    }

    /// Remove and return `id`'s value.
    pub fn remove(&mut self, id: u64) -> Option<T> {
        let idx = self.index(id)?;
        let out = self.slots.get_mut(idx)?.take();
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.base += 1;
        }
        // A window emptied from the back leaves trailing holes: drop them.
        while matches!(self.slots.back(), Some(None)) {
            self.slots.pop_back();
        }
        out
    }

    /// Shared access to `id`'s value.
    pub fn get(&self, id: u64) -> Option<&T> {
        self.slots.get(self.index(id)?)?.as_ref()
    }

    /// Number of entries (O(window)).
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Whether no entry is live.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Slots the window spans, holes included: what it costs in memory.
    pub fn span(&self) -> usize {
        self.slots.len()
    }

    fn index(&self, id: u64) -> Option<usize> {
        usize::try_from(id.checked_sub(self.base)?).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    proptest! {
        /// Random inserts, overwrites and removes over a drifting key
        /// band — keys below the current base included — agree with a
        /// `BTreeMap`, and the window never spans more than the live
        /// keys do.
        #[test]
        fn window_matches_a_keyed_map(
            ops in proptest::collection::vec((0u8..3, 0u64..48), 1..200)
        ) {
            let mut w: IdWindow<usize> = IdWindow::default();
            let mut model = BTreeMap::new();
            for (step, &(op, k)) in ops.iter().enumerate() {
                // The band drifts upward like a counter's live keys.
                let id = k + step as u64 / 4;
                if op == 0 {
                    prop_assert_eq!(w.remove(id), model.remove(&id));
                } else {
                    prop_assert_eq!(w.insert(id, step), model.insert(id, step));
                }
                prop_assert_eq!(w.get(id), model.get(&id));
                prop_assert_eq!(w.len(), model.len());
                prop_assert_eq!(w.is_empty(), model.is_empty());
                match (model.first_key_value(), model.last_key_value()) {
                    (Some((&lo, _)), Some((&hi, _))) => {
                        prop_assert_eq!(w.base, lo, "front trimmed to the oldest live key");
                        prop_assert_eq!(w.span() as u64, hi - lo + 1, "back trimmed too");
                    }
                    _ => prop_assert_eq!(w.span(), 0),
                }
            }
            for (&id, v) in &model {
                prop_assert_eq!(w.get(id), Some(v));
            }
        }
    }
}
