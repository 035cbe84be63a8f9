//! Poll-based engines and cooperative runtimes.
//!
//! The paper (§5, "Internal engine scheduling") describes the MCCS service as
//! a set of *engines* — "designed similar to asynchronous futures in Rust" —
//! executed by a pool of *runtimes*, each corresponding to a kernel thread.
//! This module reproduces that structure in virtual time: an [`Engine`] is a
//! state machine advanced by [`Engine::progress`], and a [`RuntimePool`]
//! drives its engines until the whole pool is quiescent, exactly like a set
//! of executor threads draining ready futures before parking.
//!
//! The pool is wake-driven: engines that return [`Poll::Idle`] — or
//! [`Poll::Drained`], work done and nothing left — declare the resources
//! they wait on and are parked until one of them is signalled, so a
//! scheduler call costs O(ready work), not O(live engines). The pool has
//! no clock: a timed wait is a resource the embedder signals when its time
//! comes. Within one call the pool runs rounds in slot order: an engine
//! woken by a lower-indexed engine still runs in the same round, one woken
//! by a higher-indexed engine in the next.
//!
//! This rests on the engine contract: an `Idle` poll has no observable
//! effect, a `Drained` engine would answer `Idle` if polled again at once,
//! and every idle→ready transition is covered by a signal on a declared
//! resource. Debug builds check the second on every `Drained` answer;
//! [`RuntimePool::check_contract`] checks the first and the third in place.
//!
//! The context type `Cx` is chosen by the embedder (the MCCS service uses a
//! `World` holding the simulated network, devices and IPC queues); this
//! crate stays agnostic of what engines act upon.

use crate::slotset::SlotSet;
use crate::waker::{ResourceId, WakeSource};
use std::collections::BTreeMap;
use std::fmt;

/// Identifies an engine within a [`RuntimePool`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EngineId(pub u32);

impl fmt::Display for EngineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "engine#{}", self.0)
    }
}

/// Outcome of one `progress` call, mirroring future polling.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Poll {
    /// The engine did some work; poll it again before sleeping.
    Progressed,
    /// The engine did some work, and a poll now would answer
    /// [`Poll::Idle`]: it is drained until one of the resources it waits
    /// on is signalled. The wake-driven pool parks it at once instead of
    /// re-polling it only to hear `Idle` (a future that returns `Pending`
    /// has registered its waker).
    Drained,
    /// Nothing to do right now; the engine is waiting on external input.
    Idle,
    /// The engine has completed and can be dropped from its runtime.
    Finished,
}

/// An asynchronously progressing component of the system.
///
/// `progress` must be non-blocking: do at most a bounded amount of work and
/// return. Engines communicate only through the shared context (mailboxes,
/// queues, simulated fabrics), never by direct reference to each other —
/// the same discipline the paper's service uses between its frontend, proxy
/// and transport engines.
///
/// An engine returning [`Poll::Idle`] must have had no observable effect in
/// that call: the pool relies on idle polls being pure so it can skip them
/// entirely. An engine returning [`Poll::Drained`] promises that a poll
/// right after it would answer `Idle`; it is parked before the signals its
/// own poll raised are delivered, so those still wake it. Debug builds of
/// the pool check the promise by polling once more.
pub trait Engine<Cx: ?Sized> {
    /// Advance the engine's state machine as far as currently possible.
    fn progress(&mut self, cx: &mut Cx) -> Poll;

    /// What must be signalled for this engine to be worth polling again,
    /// asked immediately after `progress` returns [`Poll::Idle`] or
    /// [`Poll::Drained`]: push every resource to wait on into `on`
    /// (handed over empty). A signal on any of them readies the engine;
    /// an empty list parks it forever.
    fn wake_when(&self, cx: &Cx, on: &mut Vec<ResourceId>);

    /// Diagnostic label.
    fn name(&self) -> String {
        "engine".to_owned()
    }
}

struct Slot<Cx: ?Sized> {
    id: EngineId,
    /// `None` once finished (the engine is dropped; the slot stays so
    /// indices held by the wake bookkeeping remain stable).
    engine: Option<Box<dyn Engine<Cx>>>,
    finished: bool,
    /// Parked under `gen`: waiter entries stamped `gen` stand for this
    /// wait, and the wake that clears the flag turns them all stale.
    parked: bool,
    /// Bumped by every park. A wrap (2³² parks of one engine) can at worst
    /// let a stale entry ready the slot once more: one idle, pure poll.
    gen: u32,
    /// Spin-guard bookkeeping: polls issued during the current scheduler
    /// call (reset lazily via the call stamp).
    call_stamp: u64,
    call_polls: u32,
}

impl<Cx: ?Sized> Slot<Cx> {
    /// Whether a waiter entry stamped `gen` still stands for this slot.
    fn waits_as(&self, gen: u32) -> bool {
        self.parked && self.gen == gen
    }
}

/// Polls one engine may receive within a single scheduler call before the
/// pool declares it (or its progress-reporting peers) stuck in a spin.
const SPIN_LIMIT: u32 = 100_000;

/// Per-kind dense waiter tables cover resource indices below this bound;
/// anything above spills into a map. Resource indices are engine/queue
/// ordinals in practice, so even a 10k-GPU world stays far under it.
const DENSE_WAITER_LIMIT: usize = 1 << 20;

/// A waiter entry `(slot, generation)`: stale unless the slot is parked
/// under that generation.
type Waiter = (u32, u32);

/// `resource id → waiter entries`, arena-flattened. A [`ResourceId`] packs
/// a 32-bit kind with a 32-bit index; the handful of kinds each get a dense
/// `Vec` of waiter lists indexed by the index half (O(1) signal fan-out, no
/// hashing on the hot path), with a spill map for pathological indices.
/// A wake removes nothing: stale entries go when their list is signalled,
/// or when a push finds it full, drops them and, if live entries still
/// fill over half of it, grows it to twice their number. So a push costs
/// amortised O(1) and a list stays within twice its peak live waiters.
#[derive(Default)]
struct WaiterTable {
    /// `(kind, index → waiter list)` in first-use order; scanned linearly
    /// (kind cardinality is tiny and fixed by the embedder).
    kinds: Vec<(u32, Vec<Vec<Waiter>>)>,
    /// Fallback for indices ≥ [`DENSE_WAITER_LIMIT`].
    spill: BTreeMap<u64, Vec<Waiter>>,
}

impl WaiterTable {
    /// Append `w` to `r`'s list; `live` tells which entries still stand.
    fn push(&mut self, r: ResourceId, w: Waiter, live: impl Fn(Waiter) -> bool) {
        let index = r.index() as usize;
        let list = if index >= DENSE_WAITER_LIMIT {
            self.spill.entry(r.0).or_default()
        } else {
            let pos = self.kinds.iter().position(|(k, _)| *k == r.kind());
            let pos = pos.unwrap_or_else(|| {
                self.kinds.push((r.kind(), Vec::new()));
                self.kinds.len() - 1
            });
            let lists = &mut self.kinds[pos].1;
            if index >= lists.len() {
                lists.resize_with(index + 1, Vec::new);
            }
            &mut lists[index]
        };
        if list.len() == list.capacity() {
            list.retain(|&e| live(e));
            list.reserve_exact(list.len());
        }
        list.push(w);
    }

    /// Move the whole waiter list of a signalled resource into `out`
    /// (nothing if nobody registered). The list keeps its capacity for
    /// the next parks, so a signal-and-repark cycle allocates nothing.
    fn take_into(&mut self, r: ResourceId, out: &mut Vec<Waiter>) {
        let index = r.index() as usize;
        if index >= DENSE_WAITER_LIMIT {
            if let Some(mut list) = self.spill.remove(&r.0) {
                out.append(&mut list);
            }
            return;
        }
        if let Some((_, lists)) = self.kinds.iter_mut().find(|(k, _)| *k == r.kind()) {
            if let Some(list) = lists.get_mut(index) {
                out.append(list);
            }
        }
    }

    /// The resources whose lists hold an entry `live` accepts.
    fn resources_of(&self, live: impl Fn(Waiter) -> bool) -> Vec<ResourceId> {
        let holds = |list: &Vec<Waiter>| list.iter().any(|&e| live(e));
        let dense = self.kinds.iter().flat_map(|(kind, lists)| {
            let on = lists.iter().enumerate().filter(|(_, l)| holds(l));
            on.map(|(i, _)| ResourceId::new(*kind, i as u32))
        });
        let spill = self.spill.iter().filter(|(_, l)| holds(l));
        dense.chain(spill.map(|(&r, _)| ResourceId(r))).collect()
    }
}

/// A pool of runtimes executing engines cooperatively.
///
/// In the paper each runtime is a kernel thread and engines may share or
/// dedicate runtimes; under virtual time the pool is a deterministic
/// single-threaded wake-driven scheduler.
pub struct RuntimePool<Cx: ?Sized> {
    slots: Vec<Slot<Cx>>,
    next_id: u32,
    /// Cached count of non-finished engines (kept in sync on spawn/finish
    /// so `live()` is O(1) — it sits in run-loop conditions).
    live: usize,
    /// The engine contract is checked around every poll
    /// ([`RuntimePool::check_contract`]).
    checked: bool,
    /// Total number of `progress` calls issued.
    polls: u64,
    /// `progress` calls that returned [`Poll::Idle`] (pure scheduler
    /// overhead).
    wasted_polls: u64,
    /// Parked→ready transitions.
    wakes: u64,
    /// Monotone scheduler-call stamp (lazily resets per-slot spin guards).
    call_seq: u64,
    /// Engines to poll in the next round/call, in ascending slot order.
    ready: SlotSet,
    /// The set a round sweeps, swapped with `ready` at each round's
    /// start and left empty at its end, so no round allocates.
    round: SlotSet,
    /// resource id → `(slot, generation)` entries of the engines parked on it.
    waiters: WaiterTable,
    /// Scratch for draining context signals without reallocating.
    signal_scratch: Vec<ResourceId>,
    /// Scratch holding one signalled resource's waiter entries.
    woken_scratch: Vec<Waiter>,
    /// Scratch `wake_when` fills on every park.
    wait_scratch: Vec<ResourceId>,
    /// Slots that returned [`Poll::Progressed`] in the current round
    /// (diagnostics for the spin panic).
    round_progressed: Vec<usize>,
}

impl<Cx: ?Sized> Default for RuntimePool<Cx> {
    fn default() -> Self {
        Self::new()
    }
}

impl<Cx: ?Sized> RuntimePool<Cx> {
    /// An empty pool.
    pub fn new() -> Self {
        RuntimePool {
            slots: Vec::new(),
            next_id: 0,
            live: 0,
            checked: false,
            polls: 0,
            wasted_polls: 0,
            wakes: 0,
            call_seq: 0,
            ready: SlotSet::new(),
            round: SlotSet::new(),
            waiters: WaiterTable::default(),
            signal_scratch: Vec::new(),
            woken_scratch: Vec::new(),
            wait_scratch: Vec::new(),
            round_progressed: Vec::new(),
        }
    }

    /// Check the engine contract from now on; there is no way back. Before
    /// every poll the pool takes the context's
    /// [`fingerprint`](WakeSource::fingerprint) and panics when a poll
    /// answering [`Poll::Idle`] changed it. At the end of every scheduler
    /// call it polls each parked engine once more and panics ("missed
    /// wake") unless it answers `Idle` and leaves the fingerprint as it
    /// was. Neither check counts its polls: the run and its counters are
    /// those of an unchecked pool.
    pub fn check_contract(&mut self) {
        self.checked = true;
    }

    /// Add an engine; returns its id. The engine is polled starting with
    /// the next scheduler call.
    pub fn spawn(&mut self, engine: Box<dyn Engine<Cx>>) -> EngineId {
        let id = EngineId(self.next_id);
        self.next_id += 1;
        let index = self.slots.len();
        debug_assert_eq!(index, id.0 as usize, "slot index tracks engine id");
        self.slots.push(Slot {
            id,
            engine: Some(engine),
            finished: false,
            parked: false,
            gen: 0,
            call_stamp: 0,
            call_polls: 0,
        });
        self.live += 1;
        self.ready.insert(index);
        id
    }

    /// Number of live (non-finished) engines. O(1).
    pub fn live(&self) -> usize {
        self.live
    }

    /// Cumulative number of `progress` calls.
    pub fn poll_count(&self) -> u64 {
        self.polls
    }

    /// Cumulative `progress` calls that returned [`Poll::Idle`].
    pub fn wasted_poll_count(&self) -> u64 {
        self.wasted_polls
    }

    /// Cumulative parked→ready transitions.
    pub fn wake_count(&self) -> u64 {
        self.wakes
    }

    /// Drive the pool until it is quiescent. Returns the number of engines
    /// that finished during this call.
    pub fn poll(&mut self, cx: &mut Cx) -> usize
    where
        Cx: WakeSource,
    {
        let finished = self.poll_ready(cx);
        if self.checked {
            self.sweep_parked(cx);
        }
        finished
    }

    /// Poll only engines that are ready — newly spawned or signalled since
    /// they parked — in rounds, until a round makes no progress. Returns
    /// the number of engines that finished during this call.
    fn poll_ready(&mut self, cx: &mut Cx) -> usize
    where
        Cx: WakeSource,
    {
        self.call_seq += 1;
        // Absorb signals raised since the last scheduler call.
        self.absorb_signals(cx, None, None);

        let mut finished_now = 0;
        loop {
            if self.ready.is_empty() {
                break;
            }
            let mut round = std::mem::take(&mut self.round);
            std::mem::swap(&mut round, &mut self.ready);
            let mut progressed_any = false;
            self.round_progressed.clear();
            // Sweep in slot order with a monotone cursor. Engines woken
            // during the sweep join this round if their slot is still
            // ahead of the cursor, otherwise the next one.
            while let Some(idx) = round.pop_first() {
                let cursor = Some(idx);
                if self.slots[idx].finished {
                    continue;
                }
                {
                    let slot = &mut self.slots[idx];
                    debug_assert!(!slot.parked, "a ready slot is not parked");
                    if slot.call_stamp != self.call_seq {
                        slot.call_stamp = self.call_seq;
                        slot.call_polls = 0;
                    }
                    slot.call_polls += 1;
                }
                let over_limit = self.slots[idx].call_polls > SPIN_LIMIT;
                self.polls += 1;
                let before = self.checked.then(|| cx.fingerprint());
                let engine = self.slots[idx].engine.as_mut().expect("live engine");
                match engine.progress(cx) {
                    Poll::Progressed => {
                        progressed_any = true;
                        self.round_progressed.push(idx);
                        // Its effects may ready parked peers.
                        self.absorb_signals(cx, cursor, Some(&mut round));
                        // A progressing engine is re-polled next round.
                        self.ready.insert(idx);
                    }
                    Poll::Drained => {
                        progressed_any = true;
                        self.round_progressed.push(idx);
                        #[cfg(debug_assertions)]
                        self.check_drained(idx, cx);
                        // Parked before its own signals are delivered, so
                        // a signal it raised on a resource it waits on
                        // readies it like a progressing engine.
                        self.park(idx, cx);
                        self.absorb_signals(cx, cursor, Some(&mut round));
                    }
                    Poll::Idle => {
                        if let Some(before) = before {
                            self.assert_pure(idx, cx, Poll::Idle, before, "impure idle: ");
                        }
                        self.wasted_polls += 1;
                        self.park(idx, cx);
                    }
                    Poll::Finished => {
                        progressed_any = true;
                        let slot = &mut self.slots[idx];
                        slot.finished = true;
                        slot.engine = None;
                        self.live -= 1;
                        finished_now += 1;
                        self.absorb_signals(cx, cursor, Some(&mut round));
                    }
                }
                if over_limit {
                    panic!(
                        "engine pool failed to quiesce after {SPIN_LIMIT} polls of one \
                         engine in a single scheduler call (slot {idx}); \
                         an engine is spinning (always reporting progress); \
                         recent progress from: {:?}",
                        self.spinner_names()
                    );
                }
            }
            // Swept empty: it is the next round's spare.
            self.round = round;
            if !progressed_any {
                // A full round of pure idles. Engines left in `ready` keep
                // their slot for the next call.
                break;
            }
        }
        finished_now
    }

    /// Labels of the slots that progressed in the current round, for the
    /// spin panics.
    fn spinner_names(&self) -> Vec<String> {
        self.round_progressed
            .iter()
            .map(|&i| {
                let s = &self.slots[i];
                match &s.engine {
                    Some(e) => format!("{} {}", s.id, e.name()),
                    None => format!("{} <finished>", s.id),
                }
            })
            .collect()
    }

    /// The [`Poll::Drained`] contract, checked: poll `idx` once more and
    /// panic, naming it, unless it answers [`Poll::Idle`]. The check poll
    /// is not counted; an `Idle` answer has no effect, so the run goes on
    /// exactly as in a release build.
    #[cfg(debug_assertions)]
    fn check_drained(&mut self, idx: usize, cx: &mut Cx) {
        let slot = &mut self.slots[idx];
        let engine = slot.engine.as_mut().expect("live engine");
        let answer = engine.progress(cx);
        assert!(
            answer == Poll::Idle,
            "{} {} answered Drained at poll {} but a poll right after it answered {answer:?}",
            slot.id,
            engine.name(),
            self.polls
        );
    }

    /// The checked mode's end-of-call sweep: with every signal delivered,
    /// an engine still parked waits on nothing that is there, so a poll
    /// now must answer [`Poll::Idle`] and change nothing.
    fn sweep_parked(&mut self, cx: &mut Cx)
    where
        Cx: WakeSource,
    {
        // A pure poll leaves the fingerprint as it found it.
        let before = cx.fingerprint();
        for idx in 0..self.slots.len() {
            if !self.slots[idx].parked {
                continue;
            }
            let engine = self.slots[idx].engine.as_mut().expect("live engine");
            let answer = engine.progress(cx);
            self.assert_pure(idx, cx, answer, before, "missed wake: ");
        }
    }

    /// Panic, naming engine `idx`, the poll number and, if it is parked,
    /// what on, unless its poll answered [`Poll::Idle`] and left the
    /// context's fingerprint at `before`.
    fn assert_pure(&self, idx: usize, cx: &Cx, answer: Poll, before: u64, what: &str)
    where
        Cx: WakeSource,
    {
        let changed = cx.fingerprint() != before;
        if answer == Poll::Idle && !changed {
            return;
        }
        let slot = &self.slots[idx];
        let on = (self.waiters).resources_of(|(s, gen)| s as usize == idx && slot.waits_as(gen));
        let on: Vec<_> = on.iter().map(|r| (r.kind(), r.index())).collect();
        let name = slot.engine.as_ref().map_or_else(String::new, |e| e.name());
        let changed = if changed {
            " and changed the context"
        } else {
            ""
        };
        let parked = if slot.parked {
            format!("; parked on (kind, index) {on:?}")
        } else {
            String::new()
        };
        panic!(
            "{what}{} {name} answered {answer:?} at poll {}{changed}{parked}",
            slot.id, self.polls
        );
    }

    /// Park `idx` under a fresh generation on the resources it declares.
    fn park(&mut self, idx: usize, cx: &Cx) {
        let on = &mut self.wait_scratch;
        on.clear();
        let slot = &mut self.slots[idx];
        slot.engine.as_ref().expect("live engine").wake_when(cx, on);
        slot.gen = slot.gen.wrapping_add(1);
        slot.parked = true;
        let entry = (idx as u32, slot.gen);
        let slots = &self.slots;
        for &r in on.iter() {
            self.waiters
                .push(r, entry, |(s, gen)| slots[s as usize].waits_as(gen));
        }
    }

    /// Drain the context's signals and ready every engine parked on them.
    /// `cursor`/`round` place woken engines into the in-flight round when
    /// the sweep has not passed their slot yet; outside a round both are
    /// `None` and wakes land in `self.ready`.
    fn absorb_signals(
        &mut self,
        cx: &mut Cx,
        cursor: Option<usize>,
        mut round: Option<&mut SlotSet>,
    ) where
        Cx: WakeSource,
    {
        let mut sigs = std::mem::take(&mut self.signal_scratch);
        let mut woken = std::mem::take(&mut self.woken_scratch);
        sigs.clear();
        cx.drain_signals(&mut sigs);
        for r in &sigs {
            woken.clear();
            self.waiters.take_into(*r, &mut woken);
            for &(idx, gen) in &woken {
                let slot = &mut self.slots[idx as usize];
                // Stale: woken since (and maybe re-parked under a new gen).
                if !slot.waits_as(gen) {
                    continue;
                }
                // Parked → ready; its entries on other lists go stale.
                slot.parked = false;
                self.wakes += 1;
                let idx = idx as usize;
                match (cursor, round.as_deref_mut()) {
                    (Some(c), Some(round)) if idx > c => round.insert(idx),
                    _ => self.ready.insert(idx),
                };
            }
        }
        self.signal_scratch = sigs;
        self.woken_scratch = woken;
    }

    /// The label of engine `id` while it is live.
    pub fn live_name(&self, id: EngineId) -> Option<String> {
        let slot = self.slots.get(id.0 as usize)?;
        slot.engine.as_ref().map(|e| e.name())
    }

    /// Names of live engines, for debugging deadlocks.
    pub fn live_names(&self) -> Vec<(EngineId, String)> {
        self.slots
            .iter()
            .filter(|s| !s.finished)
            .map(|s| (s.id, s.engine.as_ref().expect("live engine").name()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<Cx: ?Sized> RuntimePool<Cx> {
        /// Poll every live engine round-robin until a full pass makes no
        /// progress (every engine returns [`Poll::Idle`]). Returns the number
        /// of engines that finished during this call.
        ///
        /// The paper's round-robin runtime, kept as the reference the pool's
        /// round ordering and poll counts are tested against: O(live engines)
        /// per pass no matter how little happened. It never parks, so it
        /// treats [`Poll::Drained`] as [`Poll::Progressed`].
        ///
        /// Termination: each pass either observes progress (bounded by the
        /// engines' own state machines, which are driven by finite queues and
        /// a finite event horizon) or exits. A runaway engine that always
        /// claims progress trips the `pass_limit` safety valve with a panic
        /// naming the engines still reporting progress, which in practice
        /// catches engine bugs immediately in tests.
        fn poll_until_quiescent(&mut self, cx: &mut Cx) -> usize {
            let pass_limit = SPIN_LIMIT;
            let mut passes = 0;
            let mut finished_now = 0;
            loop {
                let mut any_progress = false;
                self.round_progressed.clear();
                for (i, slot) in self.slots.iter_mut().enumerate() {
                    if slot.finished {
                        continue;
                    }
                    self.polls += 1;
                    match slot.engine.as_mut().expect("live engine").progress(cx) {
                        Poll::Progressed | Poll::Drained => {
                            any_progress = true;
                            self.round_progressed.push(i);
                        }
                        Poll::Idle => self.wasted_polls += 1,
                        Poll::Finished => {
                            slot.finished = true;
                            slot.engine = None;
                            self.live -= 1;
                            finished_now += 1;
                            any_progress = true;
                        }
                    }
                }
                if !any_progress {
                    break;
                }
                passes += 1;
                if passes >= pass_limit {
                    panic!(
                        "engine pool failed to quiesce after {pass_limit} passes; \
                         an engine is spinning (always reporting progress); \
                         engines that progressed in the final pass: {:?}",
                        self.spinner_names()
                    );
                }
            }
            finished_now
        }
    }

    /// Counts down; progresses once per poll until it finishes.
    struct Countdown {
        left: u32,
    }

    impl Engine<u32> for Countdown {
        fn progress(&mut self, total: &mut u32) -> Poll {
            if self.left == 0 {
                return Poll::Finished;
            }
            self.left -= 1;
            *total += 1;
            Poll::Progressed
        }
        fn wake_when(&self, _: &u32, _: &mut Vec<ResourceId>) {}
        fn name(&self) -> String {
            format!("countdown({})", self.left)
        }
    }

    /// Waits until the shared counter reaches a threshold, then finishes —
    /// exercises inter-engine progress dependencies.
    struct WaitFor {
        threshold: u32,
    }

    impl Engine<u32> for WaitFor {
        fn progress(&mut self, total: &mut u32) -> Poll {
            if *total >= self.threshold {
                Poll::Finished
            } else {
                Poll::Idle
            }
        }
        fn wake_when(&self, _: &u32, _: &mut Vec<ResourceId>) {}
    }

    #[test]
    fn pool_runs_engines_to_completion() {
        let mut pool: RuntimePool<u32> = RuntimePool::new();
        pool.spawn(Box::new(Countdown { left: 5 }));
        pool.spawn(Box::new(Countdown { left: 3 }));
        let mut total = 0;
        let finished = pool.poll_until_quiescent(&mut total);
        assert_eq!(finished, 2);
        assert_eq!(total, 8);
        assert_eq!(pool.live(), 0);
    }

    #[test]
    fn idle_engines_wake_when_dependency_progresses() {
        let mut pool: RuntimePool<u32> = RuntimePool::new();
        // The waiter is spawned FIRST so a naive single pass would see it
        // idle before the countdown runs; quiescence polling must re-poll it.
        pool.spawn(Box::new(WaitFor { threshold: 4 }));
        pool.spawn(Box::new(Countdown { left: 4 }));
        let mut total = 0;
        let finished = pool.poll_until_quiescent(&mut total);
        assert_eq!(finished, 2);
    }

    #[test]
    fn waiter_stays_live_without_input() {
        let mut pool: RuntimePool<u32> = RuntimePool::new();
        pool.spawn(Box::new(WaitFor { threshold: 1 }));
        let mut total = 0;
        assert_eq!(pool.poll_until_quiescent(&mut total), 0);
        assert_eq!(pool.live(), 1);
        // External input arrives; the pool picks it up on the next poll.
        total = 1;
        assert_eq!(pool.poll_until_quiescent(&mut total), 1);
        assert_eq!(pool.live(), 0);
    }

    #[test]
    fn ids_are_unique_and_names_reported() {
        let mut pool: RuntimePool<u32> = RuntimePool::new();
        let a = pool.spawn(Box::new(Countdown { left: 1 }));
        let b = pool.spawn(Box::new(Countdown { left: 1 }));
        assert_ne!(a, b);
        let names = pool.live_names();
        assert_eq!(names.len(), 2);
        assert!(names[0].1.starts_with("countdown"));
    }

    #[test]
    #[should_panic(expected = "spinning")]
    fn spinning_engine_is_detected() {
        struct Spin;
        impl Engine<u32> for Spin {
            fn progress(&mut self, _: &mut u32) -> Poll {
                Poll::Progressed
            }
            fn wake_when(&self, _: &u32, _: &mut Vec<ResourceId>) {}
        }
        let mut pool: RuntimePool<u32> = RuntimePool::new();
        pool.spawn(Box::new(Spin));
        pool.poll_until_quiescent(&mut 0);
    }

    #[test]
    fn spin_panic_names_the_offender() {
        struct Spin;
        impl Engine<u32> for Spin {
            fn progress(&mut self, _: &mut u32) -> Poll {
                Poll::Progressed
            }
            fn wake_when(&self, _: &u32, _: &mut Vec<ResourceId>) {}
            fn name(&self) -> String {
                "spinner-under-test".to_owned()
            }
        }
        let mut pool: RuntimePool<u32> = RuntimePool::new();
        pool.spawn(Box::new(WaitFor {
            threshold: u32::MAX,
        }));
        pool.spawn(Box::new(Spin));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.poll_until_quiescent(&mut 0);
        }))
        .expect_err("must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("spinner-under-test"), "panic was: {msg}");
        assert!(
            !msg.contains("engine#0"),
            "idle waiter must not be blamed: {msg}"
        );
    }

    // ---- wake-driven scheduler ---------------------------------------------

    /// Minimal context for wake-driven tests: a signal buffer, a shared
    /// scratch counter engines communicate through, and armed timers.
    #[derive(Default)]
    struct TestCx {
        signals: Vec<ResourceId>,
        total: u32,
        timers: u32,
    }

    impl WakeSource for TestCx {
        fn drain_signals(&mut self, into: &mut Vec<ResourceId>) {
            into.append(&mut self.signals);
        }
        fn fingerprint(&self) -> u64 {
            let (signals, total, timers) = (self.signals.len() as u64, self.total, self.timers);
            signals ^ u64::from(total) << 20 ^ u64::from(timers) << 40
        }
    }

    /// One scheduler call: the round-robin reference when `naive`, else
    /// the pool.
    fn call(pool: &mut RuntimePool<TestCx>, cx: &mut TestCx, naive: bool) -> usize {
        if naive {
            pool.poll_until_quiescent(cx)
        } else {
            pool.poll(cx)
        }
    }

    const RES_A: ResourceId = ResourceId::new(1, 0);

    /// Counts down, signalling RES_A on every step.
    struct SignallingCountdown {
        left: u32,
    }

    impl Engine<TestCx> for SignallingCountdown {
        fn progress(&mut self, cx: &mut TestCx) -> Poll {
            if self.left == 0 {
                return Poll::Finished;
            }
            self.left -= 1;
            cx.total += 1;
            cx.signals.push(RES_A);
            Poll::Progressed
        }
        fn wake_when(&self, _: &TestCx, _: &mut Vec<ResourceId>) {}
    }

    /// Finishes once the counter reaches a threshold; parks on a resource.
    struct ResourceWaiter {
        threshold: u32,
        resource: ResourceId,
        polls: std::rc::Rc<std::cell::Cell<u32>>,
    }

    impl ResourceWaiter {
        fn on_a(threshold: u32, polls: std::rc::Rc<std::cell::Cell<u32>>) -> Self {
            ResourceWaiter {
                threshold,
                resource: RES_A,
                polls,
            }
        }
    }

    impl Engine<TestCx> for ResourceWaiter {
        fn progress(&mut self, cx: &mut TestCx) -> Poll {
            self.polls.set(self.polls.get() + 1);
            if cx.total >= self.threshold {
                Poll::Finished
            } else {
                Poll::Idle
            }
        }
        fn wake_when(&self, _: &TestCx, on: &mut Vec<ResourceId>) {
            on.push(self.resource);
        }
    }

    #[test]
    fn wake_driven_runs_signalled_waiters() {
        let mut pool: RuntimePool<TestCx> = RuntimePool::new();
        let polls = std::rc::Rc::new(std::cell::Cell::new(0));
        pool.spawn(Box::new(ResourceWaiter::on_a(3, polls.clone())));
        pool.spawn(Box::new(SignallingCountdown { left: 3 }));
        let mut cx = TestCx::default();
        let finished = pool.poll_ready(&mut cx);
        assert_eq!(finished, 2);
        assert_eq!(cx.total, 3);
        assert_eq!(pool.live(), 0);
    }

    #[test]
    fn parked_engine_is_not_re_polled_without_its_resource() {
        let mut pool: RuntimePool<TestCx> = RuntimePool::new();
        let polls = std::rc::Rc::new(std::cell::Cell::new(0));
        pool.spawn(Box::new(ResourceWaiter::on_a(100, polls.clone())));
        let mut cx = TestCx::default();
        pool.poll_ready(&mut cx);
        let after_first = polls.get();
        assert_eq!(after_first, 1, "polled once then parked");
        // Scheduler calls without the resource signal must skip it.
        for _ in 0..10 {
            pool.poll_ready(&mut cx);
        }
        assert_eq!(polls.get(), after_first, "no polls while parked");
        // Signal arrives: exactly one wake.
        cx.signals.push(RES_A);
        pool.poll_ready(&mut cx);
        assert_eq!(polls.get(), after_first + 1);
        assert_eq!(pool.wake_count(), 1);
    }

    #[test]
    fn spill_indexed_resources_still_wake() {
        // Resource indices past the dense-table bound take the spill-map
        // path through WaiterTable; semantics must be identical.
        let big = ResourceId::new(7, u32::MAX);
        assert!(big.index() as usize >= DENSE_WAITER_LIMIT);
        let mut pool: RuntimePool<TestCx> = RuntimePool::new();
        let polls = std::rc::Rc::new(std::cell::Cell::new(0));
        pool.spawn(Box::new(ResourceWaiter {
            threshold: 1,
            resource: big,
            polls: polls.clone(),
        }));
        let mut cx = TestCx::default();
        pool.poll_ready(&mut cx);
        assert_eq!(polls.get(), 1, "polled once then parked on spill index");
        for _ in 0..5 {
            pool.poll_ready(&mut cx);
        }
        assert_eq!(polls.get(), 1, "no wake without the signal");
        cx.total = 1;
        cx.signals.push(big);
        assert_eq!(pool.poll_ready(&mut cx), 1);
        assert_eq!(polls.get(), 2);
        assert_eq!(pool.live(), 0);
    }

    #[test]
    fn wake_driven_skips_idle_engines_that_naive_repolls() {
        // 1 worker + N parked waiters: the naive scheduler pays N wasted
        // polls per pass, the wake-driven one only the initial park.
        let n = 50;
        let steps = 20;
        let run = |naive: bool| -> u64 {
            let mut pool: RuntimePool<TestCx> = RuntimePool::new();
            for _ in 0..n {
                // Watch a resource nothing ever signals: these engines are
                // pure idle ballast the wake-driven scheduler must skip.
                pool.spawn(Box::new(ResourceWaiter {
                    threshold: u32::MAX,
                    resource: ResourceId::new(9, 9),
                    polls: std::rc::Rc::new(std::cell::Cell::new(0)),
                }));
            }
            pool.spawn(Box::new(SignallingCountdown { left: steps }));
            call(&mut pool, &mut TestCx::default(), naive);
            pool.wasted_poll_count()
        };
        let naive_wasted = run(true);
        let wake_wasted = run(false);
        assert!(
            wake_wasted * 10 <= naive_wasted,
            "wake-driven wasted {wake_wasted}, naive wasted {naive_wasted}"
        );
    }

    #[test]
    fn live_count_stays_cached_and_correct() {
        let mut pool: RuntimePool<u32> = RuntimePool::new();
        assert_eq!(pool.live(), 0);
        pool.spawn(Box::new(Countdown { left: 2 }));
        pool.spawn(Box::new(WaitFor { threshold: 10 }));
        assert_eq!(pool.live(), 2);
        let mut total = 0;
        pool.poll_until_quiescent(&mut total);
        assert_eq!(pool.live(), 1, "countdown finished, waiter parked");
        total = 10;
        pool.poll_until_quiescent(&mut total);
        assert_eq!(pool.live(), 0);
    }

    #[test]
    #[should_panic(expected = "spinning")]
    fn wake_driven_detects_spinning_engine() {
        struct Spin;
        impl Engine<TestCx> for Spin {
            fn progress(&mut self, _: &mut TestCx) -> Poll {
                Poll::Progressed
            }
            fn wake_when(&self, _: &TestCx, _: &mut Vec<ResourceId>) {}
        }
        let mut pool: RuntimePool<TestCx> = RuntimePool::new();
        pool.spawn(Box::new(Spin));
        pool.poll_ready(&mut TestCx::default());
    }

    /// Run the interleaved waiter/countdown workload under one scheduler
    /// and return everything observable plus the scheduler counters.
    fn run_interleaved(naive: bool) -> (u32, u64, u64, u64) {
        let mut pool: RuntimePool<TestCx> = RuntimePool::new();
        for t in [2, 5, 1, 4, 3] {
            pool.spawn(Box::new(ResourceWaiter::on_a(
                t,
                std::rc::Rc::new(std::cell::Cell::new(0)),
            )));
        }
        pool.spawn(Box::new(SignallingCountdown { left: 5 }));
        let mut cx = TestCx::default();
        call(&mut pool, &mut cx, naive);
        assert_eq!(pool.live(), 0, "naive={naive}");
        (
            cx.total,
            pool.poll_count(),
            pool.wasted_poll_count(),
            pool.wake_count(),
        )
    }

    #[test]
    fn schedulers_agree_on_interleaved_workload() {
        // A chain of resource waiters released one by one by a countdown:
        // both schedulers must finish everything with the same final state,
        // the same useful polls, and the wake-driven one wasting no more.
        let (naive_total, naive_polls, naive_wasted, naive_wakes) = run_interleaved(true);
        let (total, polls, wasted, wakes) = run_interleaved(false);
        assert_eq!(naive_total, total);
        assert_eq!(naive_polls - naive_wasted, polls - wasted, "useful polls");
        assert!(
            wasted <= naive_wasted,
            "wake {wasted} vs naive {naive_wasted}"
        );
        assert_eq!(naive_wakes, 0, "the oracle never parks");
        assert!(wakes > 0);
    }

    // ---- drained answers ---------------------------------------------------

    /// Does `work` steps, one per poll, signalling `RES_A` on each, and
    /// answers `Drained` on the last (`Progressed` before it); then idles
    /// until `RES_A`, when it finds `work` more steps to do. `lie` makes
    /// it answer `Drained` with a step still left.
    struct Batches {
        work: u32,
        left: u32,
        batches: u32,
        lie: bool,
        polls: Rc<Cell<u32>>,
    }

    impl Engine<TestCx> for Batches {
        fn progress(&mut self, cx: &mut TestCx) -> Poll {
            self.polls.set(self.polls.get() + 1);
            if self.left == 0 {
                if self.batches == 0 || cx.total == 0 {
                    return Poll::Idle;
                }
                cx.total -= 1;
                self.batches -= 1;
                self.left = self.work;
            }
            self.left -= 1;
            if self.left == 0 || (self.lie && self.left == 1) {
                Poll::Drained
            } else {
                Poll::Progressed
            }
        }
        fn wake_when(&self, _: &TestCx, on: &mut Vec<ResourceId>) {
            on.push(RES_A);
        }
        fn name(&self) -> String {
            "batches".to_owned()
        }
    }

    /// `(polls, wasted, wakes, engine polls)` after running three batches
    /// of three steps, released one at a time through `cx.total`.
    fn run_batches(naive: bool) -> (u64, u64, u64, u32) {
        let mut pool: RuntimePool<TestCx> = RuntimePool::new();
        let polls = Rc::new(Cell::new(0));
        pool.spawn(Box::new(Batches {
            work: 3,
            left: 0,
            batches: 3,
            lie: false,
            polls: Rc::clone(&polls),
        }));
        let mut cx = TestCx::default();
        for _ in 0..3 {
            cx.total = 1;
            cx.signals.push(RES_A);
            call(&mut pool, &mut cx, naive);
        }
        let (p, w) = (pool.poll_count(), pool.wasted_poll_count());
        (p, w, pool.wake_count(), polls.get())
    }

    #[test]
    fn a_drained_engine_parks_without_a_trailing_idle_poll() {
        let (polls, wasted, wakes, seen) = run_batches(false);
        // Three batches of three useful polls and no idle one: the first
        // batch runs as soon as the engine is spawned, each later one
        // through a wake.
        assert_eq!((polls, wasted), (9, 0));
        assert_eq!(wakes, 2);
        // The debug-build check polls once more after each Drained; that
        // poll is not counted by the pool.
        let checks = if cfg!(debug_assertions) { 3 } else { 0 };
        assert_eq!(u64::from(seen), polls + checks);
    }

    #[test]
    fn the_naive_oracle_treats_drained_as_progressed() {
        let (polls, wasted, wakes, _) = run_batches(true);
        let (wake_polls, wake_wasted, _, _) = run_batches(false);
        assert_eq!(polls - wasted, wake_polls - wake_wasted, "useful polls");
        // The oracle pays an idle poll after every batch.
        assert_eq!(wasted, 3);
        assert_eq!(wakes, 0);
    }

    #[test]
    fn a_drained_engine_is_woken_by_its_own_signal() {
        // Works once, raising RES_A, which it also waits on. It is parked
        // before that signal is delivered, so the signal still wakes it
        // (to an idle poll here); delivered first, it would be lost.
        struct OneShot {
            done: bool,
            polls: Rc<Cell<u32>>,
        }
        impl Engine<TestCx> for OneShot {
            fn progress(&mut self, cx: &mut TestCx) -> Poll {
                self.polls.set(self.polls.get() + 1);
                if self.done {
                    return Poll::Idle;
                }
                self.done = true;
                cx.signals.push(RES_A);
                Poll::Drained
            }
            fn wake_when(&self, _: &TestCx, on: &mut Vec<ResourceId>) {
                on.push(RES_A);
            }
        }
        let mut pool: RuntimePool<TestCx> = RuntimePool::new();
        pool.spawn(Box::new(OneShot {
            done: false,
            polls: Rc::default(),
        }));
        pool.poll(&mut TestCx::default());
        assert_eq!(pool.wake_count(), 1);
        assert_eq!((pool.poll_count(), pool.wasted_poll_count()), (2, 1));
    }

    #[cfg(debug_assertions)]
    #[test]
    fn a_drained_answer_with_work_left_panics_naming_the_engine() {
        let mut pool: RuntimePool<TestCx> = RuntimePool::new();
        pool.spawn(Box::new(Batches {
            work: 3,
            left: 0,
            batches: 1,
            lie: true,
            polls: Rc::default(),
        }));
        let mut cx = TestCx {
            total: 1,
            ..TestCx::default()
        };
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.poll(&mut cx)))
            .expect_err("the contract check must fire");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("engine#0 batches answered Drained at poll 2 but a poll right after"),
            "panic was: {msg}"
        );
    }

    // ---- checked mode ------------------------------------------------------

    /// The panic message of running `f`, which must panic.
    fn panic_of(f: impl FnOnce()) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the contract check must fire");
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn the_checks_change_no_count() {
        let run = |checked: bool| {
            let mut pool: RuntimePool<TestCx> = RuntimePool::new();
            if checked {
                pool.check_contract();
            }
            for t in [2, 5, 1, 4, 3] {
                pool.spawn(Box::new(ResourceWaiter::on_a(t, Rc::default())));
            }
            pool.spawn(Box::new(SignallingCountdown { left: 5 }));
            let mut cx = TestCx::default();
            pool.poll(&mut cx);
            let counts = (pool.poll_count(), pool.wasted_poll_count());
            (cx.total, counts, pool.wake_count(), pool.live())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn an_idle_poll_that_arms_a_timer_panics_naming_the_engine() {
        struct EagerTimer;
        impl Engine<TestCx> for EagerTimer {
            fn progress(&mut self, cx: &mut TestCx) -> Poll {
                cx.timers += 1;
                Poll::Idle
            }
            fn wake_when(&self, _: &TestCx, on: &mut Vec<ResourceId>) {
                on.push(RES_A);
            }
            fn name(&self) -> String {
                "eager-timer".to_owned()
            }
        }
        let mut pool: RuntimePool<TestCx> = RuntimePool::new();
        pool.spawn(Box::new(SignallingCountdown { left: 1 }));
        pool.spawn(Box::new(EagerTimer));
        // Unchecked, the effect goes unseen.
        pool.poll(&mut TestCx::default());
        let mut pool: RuntimePool<TestCx> = RuntimePool::new();
        pool.check_contract();
        pool.spawn(Box::new(SignallingCountdown { left: 1 }));
        pool.spawn(Box::new(EagerTimer));
        let msg = panic_of(|| {
            pool.poll(&mut TestCx::default());
        });
        assert!(
            msg.contains("impure idle: engine#1 eager-timer answered Idle at poll 2 and changed"),
            "panic was: {msg}"
        );
    }

    #[test]
    fn a_wait_list_missing_its_input_panics_as_a_missed_wake() {
        // Consumes what the countdown adds to `total`, whose steps signal
        // RES_A, but waits on RES_B: the countdown's steps never wake it.
        struct Deaf {
            seen: u32,
        }
        impl Engine<TestCx> for Deaf {
            fn progress(&mut self, cx: &mut TestCx) -> Poll {
                if cx.total == self.seen {
                    return Poll::Idle;
                }
                self.seen = cx.total;
                Poll::Progressed
            }
            fn wake_when(&self, _: &TestCx, on: &mut Vec<ResourceId>) {
                on.push(ResourceId::new(2, 7));
            }
            fn name(&self) -> String {
                "deaf".to_owned()
            }
        }
        let run = |checked: bool| {
            let mut pool: RuntimePool<TestCx> = RuntimePool::new();
            if checked {
                pool.check_contract();
            }
            pool.spawn(Box::new(Deaf { seen: 0 }));
            pool.spawn(Box::new(SignallingCountdown { left: 2 }));
            pool.poll(&mut TestCx::default());
            pool.live()
        };
        assert_eq!(run(false), 1, "unchecked, the deaf engine sleeps on");
        let msg = panic_of(|| {
            run(true);
        });
        assert!(
            msg.contains("missed wake: engine#0 deaf answered Progressed at poll 4"),
            "panic was: {msg}"
        );
        assert!(msg.contains("parked on (kind, index) [(2, 7)]"), "{msg}");
    }

    // ---- waiter table ------------------------------------------------------

    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    /// Never finishes; counts its polls and parks on whatever `on` holds
    /// (shared, so a test can change what the next park declares).
    struct Parker {
        on: Rc<RefCell<Vec<ResourceId>>>,
        polls: Rc<Cell<u32>>,
    }

    impl Engine<TestCx> for Parker {
        fn progress(&mut self, _: &mut TestCx) -> Poll {
            self.polls.set(self.polls.get() + 1);
            Poll::Idle
        }
        fn wake_when(&self, _: &TestCx, on: &mut Vec<ResourceId>) {
            on.extend(self.on.borrow().iter().copied());
        }
    }

    /// Spawn a [`Parker`] on `on`; returns its wait list and poll counter.
    fn spawn_parker(
        pool: &mut RuntimePool<TestCx>,
        on: &[ResourceId],
    ) -> (Rc<RefCell<Vec<ResourceId>>>, Rc<Cell<u32>>) {
        let (on, polls) = (Rc::new(RefCell::new(on.to_vec())), Rc::default());
        pool.spawn(Box::new(Parker {
            on: Rc::clone(&on),
            polls: Rc::clone(&polls),
        }));
        (on, polls)
    }

    /// Entries, stale ones included, on `r`'s waiter list.
    fn list_len(pool: &RuntimePool<TestCx>, r: ResourceId) -> usize {
        let t = &pool.waiters;
        if r.index() as usize >= DENSE_WAITER_LIMIT {
            return t.spill.get(&r.0).map_or(0, Vec::len);
        }
        t.kinds
            .iter()
            .find(|(k, _)| *k == r.kind())
            .and_then(|(_, lists)| lists.get(r.index() as usize))
            .map_or(0, Vec::len)
    }

    /// An engine parked on `a` and `b` and woken through one of them keeps
    /// a stale entry on the other; no stale entry ever readies it.
    fn stale_entry_never_wakes(a: ResourceId, b: ResourceId) {
        let mut pool: RuntimePool<TestCx> = RuntimePool::new();
        let (on, polls) = spawn_parker(&mut pool, &[a, b]);
        let mut cx = TestCx::default();
        pool.poll_ready(&mut cx);
        // Signal `r`; then (polls, wakes, entries on `a`).
        let mut signal = |r: ResourceId| {
            cx.signals.push(r);
            pool.poll_ready(&mut cx);
            (polls.get(), pool.wake_count(), list_len(&pool, a))
        };
        // Woken by `a`, re-parked on `b` only: `a` stays quiet.
        *on.borrow_mut() = vec![b];
        assert_eq!(signal(a), (2, 1, 0));
        assert_eq!(signal(a), (2, 1, 0), "a second signal on a is nothing");
        // `b` holds the stale entry and the live one: one wake, not two.
        assert_eq!(signal(b), (3, 2, 0));
        // Park on both again, get woken by `b`, re-park on `b` only: the
        // entry left on `a` is stale (nothing is removed on wake), and
        // signalling it drops it without a poll.
        *on.borrow_mut() = vec![a, b];
        assert_eq!(signal(b), (4, 3, 1));
        *on.borrow_mut() = vec![b];
        assert_eq!(signal(b), (5, 4, 1));
        assert_eq!(signal(a), (5, 4, 0), "the stale entry on a never wakes");
        assert_eq!(signal(b), (6, 5, 0));
    }

    #[test]
    fn a_stale_entry_never_wakes() {
        stale_entry_never_wakes(ResourceId::new(1, 0), ResourceId::new(1, 1));
    }

    #[test]
    fn a_stale_spill_entry_never_wakes() {
        let (a, b) = (
            ResourceId::new(7, u32::MAX),
            ResourceId::new(7, u32::MAX - 1),
        );
        assert!(b.index() as usize >= DENSE_WAITER_LIMIT);
        stale_entry_never_wakes(a, b);
    }

    /// `parked` engines stay parked on `shared`, which is never signalled,
    /// while one more cycles park/wake `cycles` times through its own
    /// resource: the stale entries it leaves on `shared` are dropped before
    /// the list grows, so it never holds over twice its live waiters.
    fn never_signalled_list_stays_bounded(shared: ResourceId, parked: usize, cycles: u32) {
        let own = ResourceId::new(3, 0);
        let mut pool: RuntimePool<TestCx> = RuntimePool::new();
        let idle: Vec<_> = (0..parked)
            .map(|_| spawn_parker(&mut pool, &[shared]).1)
            .collect();
        let (_, polls) = spawn_parker(&mut pool, &[shared, own]);
        let mut cx = TestCx::default();
        pool.poll_ready(&mut cx);
        let bound = 2 * (parked + 1);
        for _ in 0..cycles {
            cx.signals.push(own);
            pool.poll_ready(&mut cx);
            assert!(
                list_len(&pool, shared) <= bound,
                "{}",
                list_len(&pool, shared)
            );
        }
        assert_eq!(polls.get(), cycles + 1);
        assert_eq!(pool.wake_count(), u64::from(cycles));
        assert!(idle.iter().all(|p| p.get() == 1), "bystanders never polled");
    }

    #[test]
    fn a_never_signalled_list_stays_within_twice_its_waiters() {
        never_signalled_list_stays_bounded(ResourceId::new(1, 0), 1_000, 100_000);
    }

    #[test]
    fn a_never_signalled_spill_list_stays_within_twice_its_waiters() {
        never_signalled_list_stays_bounded(ResourceId::new(7, u32::MAX), 100, 10_000);
    }

    #[test]
    fn a_resource_declared_twice_wakes_once() {
        let a = ResourceId::new(1, 0);
        let mut pool: RuntimePool<TestCx> = RuntimePool::new();
        let (_, polls) = spawn_parker(&mut pool, &[a, a]);
        let mut cx = TestCx::default();
        pool.poll_ready(&mut cx);
        cx.signals.push(a);
        pool.poll_ready(&mut cx);
        assert_eq!((polls.get(), pool.wake_count()), (2, 1));
    }
}
