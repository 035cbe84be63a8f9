//! Virtual-time flow lifecycle.
//!
//! [`Network`] owns the active flow set and advances it through virtual
//! time. Rates follow the max-min allocation of [`crate::maxmin`] and are
//! recomputed on every membership change (admission, completion,
//! cancellation, pause/resume, route re-pin) — between changes each flow
//! progresses linearly, so completions can be computed exactly rather than
//! by time-stepping.
//!
//! Recomputation is **incremental**: a membership change re-solves only
//! the flows that share a link — transitively — with the changed flow's
//! links. Connected components of the flow×link graph are independent
//! max-min problems, so the one rule is: *a flow is re-solved, accrued and
//! re-predicted exactly when an event touches its own sharing component*.
//! Disjoint flows keep their rates, their accrual anchors and their
//! predictions untouched. The from-scratch solve
//! ([`allocate_with_priority`](crate::maxmin::allocate_with_priority) over
//! every active flow) lives in this module's tests as the reference the
//! stored rates are checked against.
//!
//! Completion times are **indexed**: each rate assignment stores the
//! flow's predicted finish instant and pushes it onto a lazily-invalidated
//! min-heap, so [`next_completion_time`](Network::next_completion_time)
//! is O(log F) amortized instead of a scan of every flow, and per-flow
//! byte progress is accrued lazily — only when a flow's own rate is
//! re-solved or it is inspected — so advancing past K completions among F
//! flows costs O((K + changed) · log F) rather than O(K·F).

use crate::arena::FlowStore;
use crate::flow::{FlowCompletion, FlowId, FlowSpec, RouteChoice};
use crate::maxmin::{allocate_with_priority_into, FlowDemand, SolverScratch};
use mccs_sim::{Bandwidth, Nanos};
use mccs_topology::{LinkId, Route, RouteId, Topology};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

#[derive(Clone, Debug)]
struct FlowState {
    spec: FlowSpec,
    route: Route,
    /// Bytes moved as of `accrued_at` (progress between accruals is
    /// linear at `rate`, so it is materialized lazily).
    bytes_done: f64,
    /// Time up to which `bytes_done` is materialized.
    accrued_at: Nanos,
    rate: Bandwidth,
    paused: bool,
    started: Nanos,
    /// Predicted finish instant under the current rate (`None` for
    /// unbounded, paused, or zero-rate flows). Recomputed whenever the
    /// rate is assigned; between assignments progress is linear, so the
    /// prediction stays exact.
    predicted: Option<Nanos>,
    /// Bumped whenever `predicted` changes — completion-heap entries
    /// carry the generation they were pushed with, so stale entries are
    /// recognized and dropped lazily.
    gen: u64,
}

impl FlowState {
    /// Remaining bytes as of `accrued_at`.
    fn remaining(&self) -> Option<f64> {
        self.spec
            .bytes
            .map(|b| (b.as_f64() - self.bytes_done).max(0.0))
    }

    fn active(&self) -> bool {
        !self.paused
    }

    /// Materialize linear progress up to `to` (paused flows only advance
    /// their anchor).
    fn accrue_to(&mut self, to: Nanos) {
        let dt = to - self.accrued_at;
        if dt > Nanos::ZERO {
            if self.active() {
                self.bytes_done += self.rate.bytes_in(dt);
            }
            self.accrued_at = to;
        }
    }

    /// Predicted finish instant, anchored at `accrued_at` (where
    /// `bytes_done` is current). Call only right after `accrue_to`.
    fn predict(&self) -> Option<Nanos> {
        if !self.active() {
            return None;
        }
        let rem = self.remaining()?;
        if rem <= COMPLETION_EPSILON_BYTES {
            return Some(self.accrued_at);
        }
        if self.rate.as_bps() <= 0.0 {
            return None;
        }
        // Round UP to a whole nanosecond (and at least 1 ns): the flow
        // must be *finished* at the returned instant, or the advance loop
        // would spin on a sub-nanosecond residue.
        let ns = (rem / self.rate.as_bytes_per_sec() * 1e9).ceil().max(1.0);
        Some(self.accrued_at + Nanos::from_nanos(ns as u64))
    }
}

/// The flow-level network simulator.
pub struct Network {
    topo: Arc<Topology>,
    /// Arena-indexed flow state (dense slots).
    flows: FlowStore<FlowState>,
    next_id: u64,
    /// Time up to which every flow's progress has been accrued.
    clock: Nanos,
    /// Cached per-link capacities (indexed by link id).
    capacities: Vec<Bandwidth>,
    /// Capacity fraction lost on links shared by multiple tenants
    /// (uncoordinated congestion control; 0.0 = ideal fluid sharing).
    cross_tenant_penalty: f64,
    /// Link index -> active (unpaused) flows crossing it, sorted by id.
    /// Dense over link indices; paused flows hold no bandwidth and are
    /// kept out of the index entirely.
    link_flows: Vec<Vec<FlowId>>,
    /// Active (unpaused) flow count — kept in step with `link_flows` so
    /// the solve paths never scan the whole arena just to count.
    active_count: usize,
    /// Links whose flow set (or effective capacity) changed since the last
    /// rate solve, in marking order with repeats. The next solve covers
    /// exactly the connected components these links belong to.
    dirty_links: Vec<usize>,
    /// Min-heap of `(predicted finish, flow, generation)` — the
    /// completion index. Entries are invalidated lazily: a pushed entry
    /// goes stale when its flow leaves or its prediction is superseded
    /// (generation mismatch), and stale heads are popped on the next
    /// peek. `RefCell` because
    /// [`next_completion_time`](Network::next_completion_time) is a
    /// `&self` query that must be able to discard stale heads.
    completions: RefCell<BinaryHeap<Reverse<(Nanos, FlowId, u64)>>>,
    /// Per-link fault state. `None` (the default) means the whole fabric
    /// is healthy and no fault bookkeeping runs at all — the zero-overhead
    /// guarantee for fault-free simulations.
    link_faults: Option<LinkFaults>,
    /// Reusable problem-build and solver buffers. Taken out of `self`
    /// for the duration of a solve.
    solver: NetSolver,
    /// Reusable buffers of the component gather.
    gather: Gather,
    /// Reusable buffer of [`Self::reap`].
    due: Vec<FlowId>,
}

/// Scratch state of the solve: the demand/cap/rate buffers,
/// [`SolverScratch`] and the topology-link -> compact-link remap are
/// reused across solves, so a steady-state solve allocates nothing.
#[derive(Default)]
struct NetSolver {
    /// `demands[..ids.len()]` is the problem being solved; the entries
    /// beyond keep their link vectors for the next, larger component
    /// (sizes vary event to event now that a group is one component).
    demands: Vec<FlowDemand>,
    caps: Vec<Bandwidth>,
    rates: Vec<Bandwidth>,
    scratch: SolverScratch,
    /// Topology links already given a compact index in this build...
    mapped: EpochSet,
    /// ...and that index (valid only for members of `mapped`).
    compact: Vec<u32>,
    /// Per compact link: (first tenant seen, shared across tenants?).
    link_tenants: Vec<(u32, bool)>,
    /// Problems built — what the benchmark reports as remap misses.
    builds: u64,
}

/// A set over dense indices that empties in O(1): `i` is a member iff
/// `stamp[i]` equals the current epoch.
#[derive(Default)]
struct EpochSet {
    stamp: Vec<u32>,
    epoch: u32,
}

impl EpochSet {
    /// Empty the set and make room for indices below `n`.
    fn reset(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Add `i`; true if it was not yet a member.
    fn insert(&mut self, i: usize) -> bool {
        let new = self.stamp[i] != self.epoch;
        self.stamp[i] = self.epoch;
        new
    }
}

/// Buffers of the component gather ([`Network::affected_components`]),
/// reused so a gather allocates nothing once warm.
#[derive(Default)]
struct Gather {
    /// `groups[..len]` are this solve's components, each in ascending id
    /// order; the vectors beyond keep their capacity for the next solve.
    groups: Vec<Vec<FlowId>>,
    len: usize,
    /// Links already walked.
    seen: EpochSet,
    frontier: Vec<u32>,
}

impl Gather {
    /// The cleared vector the next component is collected into.
    fn open(&mut self) -> &mut Vec<FlowId> {
        if self.len == self.groups.len() {
            self.groups.push(Vec::new());
        }
        let group = &mut self.groups[self.len];
        group.clear();
        group
    }

    /// Put the open component in canonical (ascending id, repeat-free)
    /// order and keep it unless empty. Returns its size.
    fn close(&mut self) -> usize {
        let group = &mut self.groups[self.len];
        group.sort_unstable();
        group.dedup();
        if !group.is_empty() {
            self.len += 1;
        }
        group.len()
    }
}

/// Lazily-allocated per-link fault state (only once a fault is injected).
#[derive(Clone, Debug)]
struct LinkFaults {
    /// Whether each link (by index) is up.
    up: Vec<bool>,
    /// Remaining capacity fraction of each link (1.0 = healthy).
    degrade: Vec<f64>,
}

impl Network {
    /// A quiet network over `topo` at time zero.
    pub fn new(topo: Arc<Topology>) -> Self {
        let capacities = topo.links().iter().map(|l| l.bandwidth).collect();
        let link_count = topo.links().len();
        Network {
            topo,
            flows: FlowStore::default(),
            next_id: 0,
            clock: Nanos::ZERO,
            capacities,
            cross_tenant_penalty: DEFAULT_CROSS_TENANT_PENALTY,
            link_flows: vec![Vec::new(); link_count],
            active_count: 0,
            dirty_links: Vec::new(),
            completions: RefCell::new(BinaryHeap::new()),
            link_faults: None,
            solver: NetSolver::default(),
            gather: Gather::default(),
            due: Vec::new(),
        }
    }

    /// Override the cross-tenant sharing penalty (0.0 = fluid).
    pub fn set_cross_tenant_penalty(&mut self, penalty: f64) {
        assert!((0.0..1.0).contains(&penalty), "penalty must be in [0,1)");
        self.cross_tenant_penalty = penalty;
        // The effective capacity of every busy link may have changed.
        for (idx, flows) in self.link_flows.iter().enumerate() {
            if !flows.is_empty() {
                self.dirty_links.push(idx);
            }
        }
        self.recompute_rates();
    }

    /// The topology this network runs on.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// Time up to which progress has been accrued.
    pub fn now(&self) -> Nanos {
        self.clock
    }

    /// Number of flows currently in the system (including paused).
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Number of flows ever started.
    pub fn flows_started(&self) -> u64 {
        self.next_id
    }

    // ---- lifecycle --------------------------------------------------------

    /// Admit a flow at time `now`. Resolves the route (ECMP hash or pinned
    /// id) immediately; rates are recomputed.
    ///
    /// # Panics
    /// Panics if `now` precedes already-accrued time, if src == dst, or if
    /// a pinned route id is out of range.
    pub fn start_flow(&mut self, now: Nanos, spec: FlowSpec) -> FlowId {
        assert_ne!(spec.src, spec.dst, "flow to self never reaches the fabric");
        self.catch_up(now);
        let route = match spec.routing {
            RouteChoice::Ecmp { hash } => self.topo.ecmp_route(spec.src, spec.dst, hash),
            RouteChoice::Pinned(id) => self.topo.pinned_route(spec.src, spec.dst, id),
        };
        let id = FlowId(self.next_id);
        self.next_id += 1;
        self.flows.insert(
            id,
            FlowState {
                spec,
                route,
                bytes_done: 0.0,
                accrued_at: now,
                rate: Bandwidth::ZERO,
                paused: false,
                started: now,
                predicted: None,
                gen: 0,
            },
        );
        self.index_insert(id);
        self.recompute_rates();
        id
    }

    /// Remove a flow regardless of progress (used for background flows and
    /// reconfiguration teardown). No completion record is produced.
    pub fn cancel_flow(&mut self, now: Nanos, id: FlowId) {
        self.catch_up(now);
        assert!(self.flows.contains(id), "cancel of unknown {id:?}");
        self.index_remove(id);
        self.flows.remove(id);
        self.recompute_rates();
    }

    /// Gate a flow (paused flows hold no bandwidth) — the mechanism behind
    /// time-window traffic scheduling.
    pub fn set_paused(&mut self, now: Nanos, id: FlowId, paused: bool) {
        self.catch_up(now);
        let was = self
            .flows
            .get(id)
            .unwrap_or_else(|| panic!("pause of unknown {id:?}"))
            .paused;
        if was != paused {
            if paused {
                self.index_remove(id);
                let clock = self.clock;
                let f = self.flows.get_mut(id).expect("checked above");
                // Freeze progress at the pause instant; the prediction is
                // void until resume re-solves a rate.
                f.accrue_to(clock);
                f.paused = true;
                f.rate = Bandwidth::ZERO;
                if f.predicted.is_some() {
                    f.predicted = None;
                    f.gen += 1;
                }
            } else {
                let clock = self.clock;
                let f = self.flows.get_mut(id).expect("checked above");
                // No progress while paused: restart the anchor here.
                f.accrued_at = clock;
                f.paused = false;
                self.index_insert(id);
            }
            self.recompute_rates();
        }
    }

    /// Move a flow onto a different equal-cost route at runtime.
    pub fn repin_flow(&mut self, now: Nanos, id: FlowId, route: RouteId) {
        self.catch_up(now);
        let (src, dst) = {
            let f = self
                .flows
                .get(id)
                .unwrap_or_else(|| panic!("repin of unknown {id:?}"));
            (f.spec.src, f.spec.dst)
        };
        let new_route = self.topo.pinned_route(src, dst, route);
        self.index_remove(id);
        let f = self.flows.get_mut(id).expect("checked above");
        f.route = new_route;
        f.spec.routing = RouteChoice::Pinned(route);
        self.index_insert(id);
        self.recompute_rates();
    }

    // ---- faults -----------------------------------------------------------

    /// Take a link down (`up = false`) or bring it back up. Down links have
    /// zero capacity: flows crossing them freeze at rate 0 but stay in the
    /// system (stalled, recoverable by re-pinning or repair).
    pub fn set_link_up(&mut self, now: Nanos, link: LinkId, up: bool) {
        self.catch_up(now);
        let idx = link.index();
        let faults = self.faults_mut();
        if faults.up[idx] != up {
            faults.up[idx] = up;
            self.dirty_links.push(idx);
            self.recompute_rates();
        }
    }

    /// Degrade a link to `fraction` of its capacity (1.0 restores it).
    pub fn set_link_degrade(&mut self, now: Nanos, link: LinkId, fraction: f64) {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "degrade fraction must be in [0,1]"
        );
        self.catch_up(now);
        let idx = link.index();
        let faults = self.faults_mut();
        if faults.degrade[idx] != fraction {
            faults.degrade[idx] = fraction;
            self.dirty_links.push(idx);
            self.recompute_rates();
        }
    }

    /// Whether a link is currently up (always true without faults).
    pub fn link_up(&self, link: LinkId) -> bool {
        self.link_faults.as_ref().is_none_or(|f| f.up[link.index()])
    }

    /// Whether every link of the identified pinned route is up.
    pub fn route_healthy(
        &self,
        src: mccs_topology::NicId,
        dst: mccs_topology::NicId,
        id: RouteId,
    ) -> bool {
        self.topo
            .route_set(src, dst)
            .links(id)
            .all(|l| self.link_up(l))
    }

    /// Remaining capacity fraction of a link: 1.0 healthy, 0.0 down, the
    /// degrade fraction in between. This is the routing weight a
    /// degradation-aware policy feeds on.
    pub fn link_weight(&self, link: LinkId) -> f64 {
        match &self.link_faults {
            None => 1.0,
            Some(f) if !f.up[link.index()] => 0.0,
            Some(f) => f.degrade[link.index()],
        }
    }

    /// Bottleneck weight of the identified pinned route: the minimum
    /// [`link_weight`](Network::link_weight) along it (1.0 for a fully
    /// healthy path, 0.0 if any link is down).
    pub fn route_weight(
        &self,
        src: mccs_topology::NicId,
        dst: mccs_topology::NicId,
        id: RouteId,
    ) -> f64 {
        if self.link_faults.is_none() {
            return 1.0;
        }
        self.topo
            .route_set(src, dst)
            .links(id)
            .map(|l| self.link_weight(l))
            .fold(1.0, f64::min)
    }

    /// Estimated max-min share a (new or moved) flow of `tenant` would
    /// get over the pinned route `id`, assuming every other flow stays
    /// put: per link, the effective capacity — cross-tenant-penalized if
    /// tenants would mix on it — split evenly over the flows the link
    /// would then carry; the route estimate is the bottleneck minimum.
    /// `exclude` discounts the querying flow itself wherever it currently
    /// runs. A cheap planning signal for degradation-aware rebalancing;
    /// authoritative rates still come from the max-min solve.
    pub fn estimate_route_share(
        &self,
        src: mccs_topology::NicId,
        dst: mccs_topology::NicId,
        id: RouteId,
        tenant: u32,
        exclude: Option<FlowId>,
    ) -> Bandwidth {
        let mut share = f64::INFINITY;
        for l in self.topo.route_set(src, dst).links(id) {
            let idx = l.index();
            let mut others = 0usize;
            let mut mixed = false;
            for &f in &self.link_flows[idx] {
                if Some(f) == exclude {
                    continue;
                }
                others += 1;
                mixed |= self.flow(f).spec.tenant != tenant;
            }
            let mut cap = self.effective_capacity(idx).as_bps();
            if mixed {
                cap *= 1.0 - self.cross_tenant_penalty;
            }
            share = share.min(cap / (others + 1) as f64);
        }
        Bandwidth::bps(share)
    }

    /// Abort every in-flight flow crossing `link`, returning the victims'
    /// ids and tags. No completion records are produced — the flows simply
    /// vanish, as after a switch reset.
    pub fn kill_flows_on_link(&mut self, now: Nanos, link: LinkId) -> Vec<(FlowId, u64)> {
        self.kill_matching(now, |f| f.route.links.contains(&link))
    }

    /// Abort every in-flight flow that starts or ends at `nic` (host crash:
    /// both directions die with the host). Returns the victims' ids/tags.
    pub fn kill_flows_touching_nic(
        &mut self,
        now: Nanos,
        nic: mccs_topology::NicId,
    ) -> Vec<(FlowId, u64)> {
        self.kill_matching(now, |f| f.spec.src == nic || f.spec.dst == nic)
    }

    fn kill_matching(
        &mut self,
        now: Nanos,
        pred: impl Fn(&FlowState) -> bool,
    ) -> Vec<(FlowId, u64)> {
        self.catch_up(now);
        let mut victims: Vec<(FlowId, u64)> = Vec::new();
        self.flows.for_each_ordered(|id, f| {
            if pred(f) {
                victims.push((id, f.spec.tag));
            }
        });
        for &(id, _) in &victims {
            self.index_remove(id);
            self.flows.remove(id);
        }
        if !victims.is_empty() {
            self.recompute_rates();
        }
        victims
    }

    fn faults_mut(&mut self) -> &mut LinkFaults {
        self.link_faults.get_or_insert_with(|| LinkFaults {
            up: vec![true; self.topo.links().len()],
            degrade: vec![1.0; self.topo.links().len()],
        })
    }

    fn effective_capacity(&self, idx: usize) -> Bandwidth {
        match &self.link_faults {
            None => self.capacities[idx],
            Some(f) if !f.up[idx] => Bandwidth::ZERO,
            Some(f) => self.capacities[idx] * f.degrade[idx],
        }
    }

    /// Advance to `target`, processing every intermediate completion at its
    /// exact time (each completion frees capacity and re-accelerates the
    /// survivors). Returns completions in time order.
    pub fn advance_to(&mut self, target: Nanos) -> Vec<FlowCompletion> {
        assert!(target >= self.clock, "time went backwards");
        let mut out = Vec::new();
        loop {
            match self.next_completion_time() {
                Some(t) if t <= target => {
                    self.catch_up(t);
                    self.reap(&mut out);
                    self.recompute_rates();
                }
                _ => {
                    self.catch_up(target);
                    // Flows can also land exactly on `target`.
                    let before = out.len();
                    self.reap(&mut out);
                    if out.len() != before {
                        self.recompute_rates();
                    }
                    return out;
                }
            }
        }
    }

    /// When the earliest bounded flow will finish at current rates.
    ///
    /// Peeks the completion heap, discarding stale heads (O(log F)
    /// amortized — each pushed entry is popped at most once).
    pub fn next_completion_time(&self) -> Option<Nanos> {
        let mut heap = self.completions.borrow_mut();
        while let Some(&Reverse((t, id, gen))) = heap.peek() {
            if self
                .flows
                .get(id)
                .is_some_and(|f| f.active() && f.gen == gen)
            {
                debug_assert_eq!(
                    self.flow(id).predicted,
                    Some(t),
                    "generation-current heap entry disagrees with its flow"
                );
                return Some(t);
            }
            heap.pop();
        }
        None
    }

    // ---- inspection --------------------------------------------------------

    /// Current allocated rate of a flow.
    pub fn flow_rate(&self, id: FlowId) -> Bandwidth {
        self.flows
            .get(id)
            .map(|f| f.rate)
            .unwrap_or(Bandwidth::ZERO)
    }

    /// The route a flow currently uses.
    pub fn flow_route(&self, id: FlowId) -> Option<&Route> {
        self.flows.get(id).map(|f| &f.route)
    }

    /// Whether a flow is still present.
    pub fn contains(&self, id: FlowId) -> bool {
        self.flows.contains(id)
    }

    /// Aggregate allocated rate over a link right now. Summation order is
    /// the canonical id order.
    pub fn link_load(&self, link: LinkId) -> Bandwidth {
        let mut total = 0.0f64;
        for &id in &self.link_flows[link.index()] {
            total += self.flow(id).rate.as_bps();
        }
        Bandwidth::bps(total)
    }

    /// Link load as a fraction of the capacity the link has right now
    /// (base bandwidth × degrade fraction, zero while down): a
    /// browned-out link that is full reads 1.0. A link without capacity
    /// (down, or degraded to nothing) carries nothing and reads 0.0.
    pub fn link_utilization(&self, link: LinkId) -> f64 {
        let capacity = self.effective_capacity(link.index()).as_bps();
        if capacity > 0.0 {
            self.link_load(link).as_bps() / capacity
        } else {
            0.0
        }
    }

    // ---- internals --------------------------------------------------------

    /// A known-live flow (panics on dangling ids — internal indices only
    /// ever hold live ones).
    fn flow(&self, id: FlowId) -> &FlowState {
        self.flows.get(id).expect("indexed flow is live")
    }

    /// Move the clock forward. Per-flow byte counters accrue lazily from
    /// each flow's own `accrued_at` anchor, so advancing time is O(1) —
    /// nothing per-flow happens here.
    fn catch_up(&mut self, now: Nanos) {
        assert!(
            now >= self.clock,
            "mutation in the past: {now} < {}",
            self.clock
        );
        self.clock = now;
    }

    fn reap(&mut self, out: &mut Vec<FlowCompletion>) {
        let clock = self.clock;
        let mut due = std::mem::take(&mut self.due);
        due.clear();
        // Pop every heap entry due by now; generation-stale entries are
        // discarded for free on the way. Cost is O(due · log F), not O(F).
        let flows = &self.flows;
        let heap = self.completions.get_mut();
        while let Some(&Reverse((t, id, gen))) = heap.peek() {
            if t > clock {
                break;
            }
            heap.pop();
            if flows.get(id).is_some_and(|f| f.active() && f.gen == gen) {
                due.push(id);
            }
        }
        // Heap order is (time, id), but completions in one reap batch share
        // `finished_at`, so id order is canonical.
        due.sort_unstable();
        for &id in &due {
            self.index_remove(id);
            let f = self.flows.remove(id).expect("listed above");
            out.push(FlowCompletion {
                id,
                tag: f.spec.tag,
                started_at: f.started,
                finished_at: self.clock,
                bytes: f.spec.bytes.expect("bounded"),
            });
        }
        self.due = due;
    }

    /// Add an active flow's links to the link index, marking them dirty.
    /// No-op for paused flows: they hold no bandwidth, so their links (and
    /// sharers) are unaffected until they resume.
    fn index_insert(&mut self, id: FlowId) {
        let f = self.flow(id);
        if !f.active() {
            return;
        }
        let links = Arc::clone(&f.route.links);
        for l in links.iter() {
            let idx = l.index();
            let list = &mut self.link_flows[idx];
            if let Err(pos) = list.binary_search(&id) {
                list.insert(pos, id);
            }
            self.dirty_links.push(idx);
        }
        self.active_count += 1;
    }

    /// Remove a flow from the link index, marking its links dirty.
    /// No-op for paused flows, which were never indexed.
    fn index_remove(&mut self, id: FlowId) {
        let f = self.flow(id);
        if !f.active() {
            return;
        }
        let links = Arc::clone(&f.route.links);
        for l in links.iter() {
            let idx = l.index();
            let list = &mut self.link_flows[idx];
            if let Ok(pos) = list.binary_search(&id) {
                list.remove(pos);
            }
            self.dirty_links.push(idx);
        }
        self.active_count -= 1;
    }

    /// The flows sharing a link — transitively — with any dirty link,
    /// grouped by connected component of the flow×link graph into
    /// `self.gather`. Each group is a closed component (flows outside keep
    /// valid rates) and the groups are disjoint, so they are independent
    /// max-min problems — solvable in any order or concurrently. Consumes
    /// the dirty set.
    fn affected_components(&mut self) {
        let g = &mut self.gather;
        g.len = 0;
        g.seen.reset(self.link_flows.len());
        self.dirty_links.sort_unstable();
        let mut grouped = 0usize;
        for &seed in &self.dirty_links {
            if !g.seen.insert(seed) {
                continue;
            }
            g.frontier.clear();
            g.frontier.push(seed as u32);
            g.open();
            while let Some(link) = g.frontier.pop() {
                for &id in &self.link_flows[link as usize] {
                    // A flow is met once per link it crosses; its repeats
                    // find their links seen and fall to `close`'s dedup.
                    g.groups[g.len].push(id);
                    let f = self.flows.get(id).expect("indexed flow is live");
                    for l in f.route.links.iter() {
                        if g.seen.insert(l.index()) {
                            g.frontier.push(l.index() as u32);
                        }
                    }
                }
            }
            grouped += g.close();
            // Every active flow is in some component already (a
            // mass-dirty event such as `set_cross_tenant_penalty`): no
            // remaining seed carries a flow these components lack.
            if grouped == self.active_count {
                break;
            }
        }
        self.dirty_links.clear();
    }

    fn recompute_rates(&mut self) {
        self.affected_components();
        if self.gather.len > 0 {
            // Each affected component is its own max-min problem.
            let groups = std::mem::take(&mut self.gather.groups);
            for ids in &groups[..self.gather.len] {
                self.solve_for(ids);
            }
            self.gather.groups = groups;
        }
    }

    /// Max-min solve restricted to `ids`, one connected component in
    /// ascending id order. Reuses the [`NetSolver`] scratch (demand /
    /// capacity / rate buffers, link remap, [`SolverScratch`]) so a
    /// steady-state solve allocates nothing.
    fn solve_for(&mut self, ids: &[FlowId]) {
        let mut s = std::mem::take(&mut self.solver);
        self.fill_problem(ids, &mut s);
        let demands = &s.demands[..ids.len()];
        allocate_with_priority_into(demands, &s.caps, &mut s.scratch, &mut s.rates);
        for (&id, &rate) in ids.iter().zip(&s.rates) {
            self.set_rate_and_predict(id, rate);
        }
        self.solver = s;
    }

    /// Assign a freshly solved rate to a flow: materialize its progress up
    /// to now (the old rate applied until this instant), store the rate,
    /// and refresh the completion prediction. If the prediction changed,
    /// the flow's generation is bumped — lazily invalidating any heap
    /// entry carrying the old one — and the new instant is pushed.
    fn set_rate_and_predict(&mut self, id: FlowId, rate: Bandwidth) {
        let clock = self.clock;
        let f = self.flows.get_mut(id).expect("listed above");
        f.accrue_to(clock);
        f.rate = rate;
        let p = f.predict();
        if p == f.predicted {
            return; // any existing heap entry is still exact
        }
        f.predicted = p;
        f.gen += 1;
        let gen = f.gen;
        if let Some(t) = p {
            self.completions.get_mut().push(Reverse((t, id, gen)));
        }
    }

    /// Fill `s.demands` / `s.caps` for `ids`, written into reused buffers.
    /// Topology links get compact indices in first-touch order through a
    /// dense remap, so the allocator's cost is proportional to the traffic
    /// touched by a change, not to the whole fabric; per-link capacities
    /// (fault state, sharing penalty) are read fresh on every build.
    fn fill_problem(&self, ids: &[FlowId], s: &mut NetSolver) {
        s.builds += 1;
        if s.demands.len() < ids.len() {
            s.demands
                .resize_with(ids.len(), || FlowDemand::fair(Vec::new(), None));
        }
        s.mapped.reset(self.link_flows.len());
        s.compact.resize(self.link_flows.len(), 0);
        s.caps.clear();
        s.link_tenants.clear();
        for (d, &id) in s.demands.iter_mut().zip(ids) {
            let f = self.flow(id);
            debug_assert!(f.active(), "solving for a paused flow");
            let tenant = f.spec.tenant;
            // Guaranteed (background) flows model aggregate external
            // traffic whose cost is already its bandwidth share; only
            // tenant collective flows trigger the cross-tenant penalty.
            let counts_for_sharing = !f.spec.guaranteed;
            d.links.clear();
            for l in f.route.links.iter() {
                let idx = l.index();
                if s.mapped.insert(idx) {
                    s.compact[idx] = s.caps.len() as u32;
                    s.caps.push(self.effective_capacity(idx));
                    s.link_tenants.push((u32::MAX, false));
                }
                let cl = s.compact[idx] as usize;
                d.links.push(cl);
                if counts_for_sharing {
                    match s.link_tenants[cl].0 {
                        u32::MAX => s.link_tenants[cl].0 = tenant,
                        t if t != tenant => s.link_tenants[cl].1 = true,
                        _ => {}
                    }
                }
            }
            d.cap = f.spec.rate_cap;
            d.guaranteed = f.spec.guaranteed;
        }
        if self.cross_tenant_penalty > 0.0 {
            for (cap, &(_, shared)) in s.caps.iter_mut().zip(&s.link_tenants) {
                if shared {
                    *cap = *cap * (1.0 - self.cross_tenant_penalty);
                }
            }
        }
    }

    /// `(0, problems built)`. The component remap cache these counted
    /// hits and misses of is gone — every solve builds its
    /// problem directly, which the benchmark's `netsim.remap_hits` /
    /// `netsim.remap_misses` rows keep reporting through this function.
    pub fn remap_cache_stats(&self) -> (u64, u64) {
        (0, self.solver.builds)
    }

    /// Always 0: retained for the benchmark's `netsim.remap_fast_hits`
    /// row (see [`Self::remap_cache_stats`]).
    pub fn remap_fast_hits(&self) -> u64 {
        0
    }
}

/// The from-scratch reference: no dirty set, no component gather, no
/// reused buffers, no completion heap.
#[cfg(test)]
impl Network {
    /// The allocation problem for `ids`, built the allocating way
    /// (map-based link remap) independently of [`Self::fill_problem`].
    fn build_problem(&self, ids: &[FlowId]) -> (Vec<FlowDemand>, Vec<Bandwidth>) {
        let mut compact: std::collections::BTreeMap<usize, usize> = Default::default();
        let mut compact_caps: Vec<Bandwidth> = Vec::new();
        // (first tenant seen, shared across tenants?) per compact link
        let mut link_tenants: Vec<(u32, bool)> = Vec::new();
        let mut demands = Vec::new();
        for &id in ids {
            let f = self.flow(id);
            let tenant = f.spec.tenant;
            let links: Vec<usize> = f
                .route
                .links
                .iter()
                .map(|l| {
                    let idx = l.index();
                    *compact.entry(idx).or_insert_with(|| {
                        compact_caps.push(self.effective_capacity(idx));
                        link_tenants.push((u32::MAX, false));
                        compact_caps.len() - 1
                    })
                })
                .collect();
            if !f.spec.guaranteed {
                for &cl in &links {
                    match link_tenants[cl].0 {
                        u32::MAX => link_tenants[cl].0 = tenant,
                        t if t != tenant => link_tenants[cl].1 = true,
                        _ => {}
                    }
                }
            }
            demands.push(FlowDemand {
                links,
                cap: f.spec.rate_cap,
                guaranteed: f.spec.guaranteed,
            });
        }
        if self.cross_tenant_penalty > 0.0 {
            for (cl, &(_, shared)) in link_tenants.iter().enumerate() {
                if shared {
                    compact_caps[cl] = compact_caps[cl] * (1.0 - self.cross_tenant_penalty);
                }
            }
        }
        (demands, compact_caps)
    }

    /// Check the incrementally maintained state against a from-scratch
    /// solve of every active flow at once: stored rates within 1e-9
    /// relative + 1e-3 bps of [`allocate_with_priority`]'s (a union of
    /// components water-fills to the per-component rates up to the last
    /// ulp) and valid by the max-min definition in their own right,
    /// paused flows at zero, and the completion heap's head equal to a
    /// linear scan of the stored predictions.
    fn assert_matches_reference(&self) {
        let mut ids = Vec::new();
        self.flows.for_each_ordered(|id, f| {
            if f.active() {
                ids.push(id);
            }
        });
        assert_eq!(ids.len(), self.active_count, "active count drifted");
        let (demands, caps) = self.build_problem(&ids);
        let stored: Vec<Bandwidth> = ids.iter().map(|&id| self.flow(id).rate).collect();
        let reference = crate::maxmin::allocate_with_priority(&demands, &caps);
        for ((&id, got), want) in ids.iter().zip(&stored).zip(reference) {
            let (got, want) = (got.as_bps(), want.as_bps());
            assert!(
                (got - want).abs() <= want.abs() * 1e-9 + 1e-3,
                "{id:?}: stored rate {got} vs from-scratch {want}"
            );
        }
        crate::maxmin::check_invariants_with_priority(&demands, &caps, &stored);
        let mut earliest: Option<Nanos> = None;
        self.flows.for_each_ordered(|id, f| {
            if !f.active() {
                assert_eq!(f.rate, Bandwidth::ZERO, "paused {id:?} holds bandwidth");
                assert_eq!(f.predicted, None, "paused {id:?} predicts a finish");
            } else {
                assert_eq!(f.predicted, f.predict(), "stale prediction on {id:?}");
                if let Some(t) = f.predicted {
                    earliest = Some(earliest.map_or(t, |m| m.min(t)));
                }
            }
        });
        assert_eq!(self.next_completion_time(), earliest, "completion heap");
    }
}

/// Flows within half a byte of done are done (floating-point slack).
const COMPLETION_EPSILON_BYTES: f64 = 0.5;

/// Default capacity loss on links shared across tenants: RoCE flows from
/// different tenants do not coordinate their congestion control, so a
/// collision costs goodput beyond the fluid fair share (the effect the
/// paper's PFA isolation avoids).
pub const DEFAULT_CROSS_TENANT_PENALTY: f64 = 0.3;

#[cfg(test)]
mod tests {
    use super::*;
    use mccs_sim::Bytes;
    use mccs_topology::{presets, NicId};

    fn testbed_net() -> Network {
        Network::new(Arc::new(presets::testbed()))
    }

    /// NICs 0..7, host h has NICs 2h, 2h+1. Hosts 0-1 rack 0, 2-3 rack 1.
    fn nic(n: u32) -> NicId {
        NicId(n)
    }

    #[test]
    fn single_flow_runs_at_line_rate_and_completes_exactly() {
        let mut net = testbed_net();
        // same-rack flow: bottleneck is the 50G NIC links.
        let id = net.start_flow(
            Nanos::ZERO,
            FlowSpec::ecmp(nic(0), nic(2), Bytes::mib(64), 0),
        );
        assert!((net.flow_rate(id).as_gbps() - 50.0).abs() < 1e-6);
        let expect = Bandwidth::gbps(50.0).transfer_time(Bytes::mib(64));
        let next = net.next_completion_time().expect("one flow");
        assert!(next.as_nanos().abs_diff(expect.as_nanos()) <= 1);
        let done = net.advance_to(Nanos::from_secs(1));
        assert_eq!(done.len(), 1);
        assert!(done[0].finished_at.as_nanos().abs_diff(expect.as_nanos()) <= 1);
        assert_eq!(net.flow_count(), 0);
    }

    #[test]
    fn sharing_then_speedup_after_completion() {
        let mut net = testbed_net();
        // Two same-rack flows sharing the destination NIC downlink.
        let a = net.start_flow(
            Nanos::ZERO,
            FlowSpec::ecmp(nic(0), nic(2), Bytes::mib(10), 0),
        );
        let b = net.start_flow(
            Nanos::ZERO,
            FlowSpec::ecmp(nic(1), nic(2), Bytes::mib(30), 1),
        );
        // wait: flows to the SAME nic share its 50G downlink -> 25G each
        assert!((net.flow_rate(a).as_gbps() - 25.0).abs() < 1e-6);
        assert!((net.flow_rate(b).as_gbps() - 25.0).abs() < 1e-6);
        let done = net.advance_to(Nanos::from_secs(10));
        assert_eq!(done.len(), 2);
        // A finishes 10MiB at 25G; B then accelerates to 50G.
        let t_a = Bandwidth::gbps(25.0).transfer_time(Bytes::mib(10));
        assert!(done[0].finished_at.as_nanos().abs_diff(t_a.as_nanos()) <= 1);
        let rem_t = Bandwidth::gbps(25.0)
            .transfer_time(Bytes::mib(10))
            .as_secs_f64()
            + Bandwidth::gbps(25.0)
                .transfer_time(Bytes::mib(10))
                .as_secs_f64()
            + Bandwidth::gbps(50.0)
                .transfer_time(Bytes::mib(10))
                .as_secs_f64();
        // B: 10MiB at 25G alongside A, then 20MiB at 50G.
        let expect_b = Nanos::from_secs_f64(
            Bandwidth::gbps(25.0)
                .transfer_time(Bytes::mib(10))
                .as_secs_f64()
                + Bandwidth::gbps(50.0)
                    .transfer_time(Bytes::mib(20))
                    .as_secs_f64(),
        );
        let got = done[1].finished_at;
        let diff = got.as_secs_f64() - expect_b.as_secs_f64();
        assert!(
            diff.abs() < 1e-6,
            "B finished at {got}, expected {expect_b} ({rem_t})"
        );
    }

    #[test]
    fn ecmp_collision_vs_pinned_routes() {
        let net_paths = |h1: u64, h2: u64| {
            let mut net = testbed_net();
            // two cross-rack flows host0 -> host2, one per NIC pair
            let a = net.start_flow(
                Nanos::ZERO,
                FlowSpec::ecmp(nic(0), nic(4), Bytes::mib(100), h1),
            );
            let b = net.start_flow(
                Nanos::ZERO,
                FlowSpec::ecmp(nic(1), nic(5), Bytes::mib(100), h2),
            );
            (net.flow_rate(a).as_gbps(), net.flow_rate(b).as_gbps())
        };
        // find hash pairs demonstrating collision and spread
        let mut saw_collision = false;
        let mut saw_spread = false;
        for h in 0..16u64 {
            let (ra, rb) = net_paths(h, h + 16);
            if (ra - 25.0).abs() < 1e-6 && (rb - 25.0).abs() < 1e-6 {
                saw_collision = true;
            }
            if (ra - 50.0).abs() < 1e-6 && (rb - 50.0).abs() < 1e-6 {
                saw_spread = true;
            }
        }
        assert!(saw_collision, "ECMP never collided in 16 draws");
        assert!(saw_spread, "ECMP never spread in 16 draws");

        // Pinned routes never collide.
        let mut net = testbed_net();
        let a = net.start_flow(
            Nanos::ZERO,
            FlowSpec::pinned(nic(0), nic(4), Bytes::mib(100), RouteId(0)),
        );
        let b = net.start_flow(
            Nanos::ZERO,
            FlowSpec::pinned(nic(1), nic(5), Bytes::mib(100), RouteId(1)),
        );
        assert!((net.flow_rate(a).as_gbps() - 50.0).abs() < 1e-6);
        assert!((net.flow_rate(b).as_gbps() - 50.0).abs() < 1e-6);
    }

    #[test]
    fn background_flow_steals_capacity() {
        let mut net = testbed_net();
        // Fixed 40G background flow on route 0 between racks.
        let bg = net.start_flow(
            Nanos::ZERO,
            FlowSpec {
                src: nic(0),
                dst: nic(4),
                bytes: None,
                routing: RouteChoice::Pinned(RouteId(0)),
                rate_cap: Some(Bandwidth::gbps(40.0)),
                tag: 0,
                guaranteed: true,
                tenant: u32::MAX,
            },
        );
        let f = net.start_flow(
            Nanos::ZERO,
            FlowSpec::pinned(nic(1), nic(5), Bytes::mib(100), RouteId(0)),
        );
        // The 50G spine link has 40G taken -> 10G left for the real flow.
        assert!((net.flow_rate(f).as_gbps() - 10.0).abs() < 1e-6);
        // Unbounded flows never produce completions.
        let done = net.advance_to(Nanos::from_millis(1));
        assert!(done.is_empty());
        assert!(net.contains(bg));
        // Cancel the background flow: the real flow accelerates to 50G.
        net.cancel_flow(net.now(), bg);
        assert!((net.flow_rate(f).as_gbps() - 50.0).abs() < 1e-6);
    }

    #[test]
    fn pause_resume_gates_bandwidth() {
        let mut net = testbed_net();
        let f = net.start_flow(
            Nanos::ZERO,
            FlowSpec::ecmp(nic(0), nic(2), Bytes::mib(50), 0),
        );
        net.set_paused(Nanos::from_millis(1), f, true);
        assert_eq!(net.flow_rate(f).as_bps(), 0.0);
        assert_eq!(net.next_completion_time(), None);
        let done = net.advance_to(Nanos::from_millis(5));
        assert!(done.is_empty());
        net.set_paused(Nanos::from_millis(5), f, false);
        assert!((net.flow_rate(f).as_gbps() - 50.0).abs() < 1e-6);
        // progress during the pause was zero: completion shifted by 4ms.
        let expect = Nanos::from_millis(1) // progress before pause was at 50G for 1ms
            .max(Nanos::ZERO);
        let _ = expect;
        let done = net.advance_to(Nanos::from_secs(1));
        assert_eq!(done.len(), 1);
        let t50 = Bandwidth::gbps(50.0).transfer_time(Bytes::mib(50));
        let expected_finish = t50 + Nanos::from_millis(4);
        let d = done[0].finished_at.as_secs_f64() - expected_finish.as_secs_f64();
        assert!(
            d.abs() < 1e-6,
            "finish {} vs {}",
            done[0].finished_at,
            expected_finish
        );
    }

    #[test]
    fn repin_moves_flow_off_congested_path() {
        let mut net = testbed_net();
        let a = net.start_flow(
            Nanos::ZERO,
            FlowSpec::pinned(nic(0), nic(4), Bytes::gib(1), RouteId(0)),
        );
        let b = net.start_flow(
            Nanos::ZERO,
            FlowSpec::pinned(nic(1), nic(5), Bytes::gib(1), RouteId(0)),
        );
        assert!((net.flow_rate(a).as_gbps() - 25.0).abs() < 1e-6);
        net.repin_flow(Nanos::from_millis(2), b, RouteId(1));
        assert!((net.flow_rate(a).as_gbps() - 50.0).abs() < 1e-6);
        assert!((net.flow_rate(b).as_gbps() - 50.0).abs() < 1e-6);
    }

    #[test]
    fn link_load_and_utilization() {
        let mut net = testbed_net();
        let f = net.start_flow(
            Nanos::ZERO,
            FlowSpec::ecmp(nic(0), nic(2), Bytes::mib(1), 0),
        );
        let route = net.flow_route(f).expect("present").clone();
        for &l in route.links.iter() {
            assert!((net.link_load(l).as_gbps() - 50.0).abs() < 1e-6);
            assert!((net.link_utilization(l) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn link_utilization_is_relative_to_faulted_capacity() {
        let mut net = testbed_net();
        let f = net.start_flow(
            Nanos::ZERO,
            FlowSpec::ecmp(nic(0), nic(2), Bytes::gib(1), 0),
        );
        let route = net.flow_route(f).expect("present").clone();
        let (first, last) = (route.links[0], *route.links.last().expect("non-empty"));
        // Browned out to 40 % and saturated: full, not 40 % busy.
        net.set_link_degrade(Nanos::ZERO, first, 0.4);
        assert!((net.flow_rate(f).as_gbps() - 20.0).abs() < 1e-6);
        assert!((net.link_utilization(first) - 1.0).abs() < 1e-9);
        assert!((net.link_utilization(last) - 0.4).abs() < 1e-9);
        // Down (or degraded to nothing): nothing flows, and 0/0 is 0.
        net.set_link_up(Nanos::ZERO, first, false);
        assert_eq!(net.link_utilization(first), 0.0);
        assert_eq!(net.link_utilization(last), 0.0);
        net.set_link_up(Nanos::ZERO, first, true);
        net.set_link_degrade(Nanos::ZERO, first, 0.0);
        assert_eq!(net.link_utilization(first), 0.0);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn rejects_time_reversal() {
        let mut net = testbed_net();
        net.start_flow(
            Nanos::from_secs(1),
            FlowSpec::ecmp(nic(0), nic(2), Bytes::mib(1), 0),
        );
        net.advance_to(Nanos::from_millis(1));
    }

    #[test]
    #[should_panic(expected = "flow to self")]
    fn rejects_self_flow() {
        let mut net = testbed_net();
        net.start_flow(
            Nanos::ZERO,
            FlowSpec::ecmp(nic(0), nic(0), Bytes::mib(1), 0),
        );
    }

    #[test]
    fn link_down_freezes_flows_and_repair_resumes_them() {
        let mut net = testbed_net();
        let f = net.start_flow(
            Nanos::ZERO,
            FlowSpec::ecmp(nic(0), nic(2), Bytes::mib(50), 0),
        );
        let link = net.flow_route(f).expect("present").links[0];
        net.set_link_up(Nanos::from_millis(1), link, false);
        assert!(!net.link_up(link));
        assert_eq!(net.flow_rate(f).as_bps(), 0.0);
        // A stalled flow emits no completion event.
        assert_eq!(net.next_completion_time(), None);
        assert!(net.advance_to(Nanos::from_millis(5)).is_empty());
        net.set_link_up(Nanos::from_millis(5), link, true);
        assert!((net.flow_rate(f).as_gbps() - 50.0).abs() < 1e-6);
        let done = net.advance_to(Nanos::from_secs(1));
        assert_eq!(done.len(), 1);
        // 1ms of progress, 4ms frozen, then the remainder at line rate.
        let t50 = Bandwidth::gbps(50.0).transfer_time(Bytes::mib(50));
        let expect = t50 + Nanos::from_millis(4);
        assert!(done[0].finished_at.as_nanos().abs_diff(expect.as_nanos()) <= 1);
    }

    #[test]
    fn degraded_link_slows_flows_proportionally() {
        let mut net = testbed_net();
        let f = net.start_flow(
            Nanos::ZERO,
            FlowSpec::ecmp(nic(0), nic(2), Bytes::mib(50), 0),
        );
        let link = net.flow_route(f).expect("present").links[0];
        net.set_link_degrade(Nanos::ZERO, link, 0.25);
        assert!((net.flow_rate(f).as_gbps() - 12.5).abs() < 1e-6);
        net.set_link_degrade(Nanos::ZERO, link, 1.0);
        assert!((net.flow_rate(f).as_gbps() - 50.0).abs() < 1e-6);
    }

    #[test]
    fn killed_flows_vanish_without_completions() {
        let mut net = testbed_net();
        let a = net.start_flow(
            Nanos::ZERO,
            FlowSpec::ecmp(nic(0), nic(4), Bytes::mib(100), 0).with_tag(7),
        );
        let b = net.start_flow(
            Nanos::ZERO,
            FlowSpec::ecmp(nic(2), nic(3), Bytes::mib(100), 0),
        );
        let link = net.flow_route(a).expect("present").links[1];
        let victims = net.kill_flows_on_link(Nanos::from_millis(1), link);
        assert_eq!(victims, vec![(a, 7)]);
        assert!(!net.contains(a));
        assert!(net.contains(b), "unrelated flow survives");
        // the survivor still completes normally
        let done = net.advance_to(Nanos::from_secs(60));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, b);
    }

    #[test]
    fn kill_flows_touching_nic_takes_both_directions() {
        let mut net = testbed_net();
        let out = net.start_flow(
            Nanos::ZERO,
            FlowSpec::ecmp(nic(0), nic(4), Bytes::mib(100), 0),
        );
        let inbound = net.start_flow(
            Nanos::ZERO,
            FlowSpec::ecmp(nic(5), nic(0), Bytes::mib(100), 0),
        );
        let other = net.start_flow(
            Nanos::ZERO,
            FlowSpec::ecmp(nic(2), nic(6), Bytes::mib(100), 0),
        );
        let victims = net.kill_flows_touching_nic(Nanos::ZERO, nic(0));
        let ids: Vec<FlowId> = victims.iter().map(|&(id, _)| id).collect();
        assert!(ids.contains(&out) && ids.contains(&inbound));
        assert!(!ids.contains(&other));
        assert!(net.contains(other));
    }

    #[test]
    fn route_healthy_tracks_link_state() {
        let mut net = testbed_net();
        let r0 = net.topo.pinned_route(nic(0), nic(4), RouteId(0));
        let spine = r0.links[1];
        assert!(net.route_healthy(nic(0), nic(4), RouteId(0)));
        net.set_link_up(Nanos::ZERO, spine, false);
        assert!(!net.route_healthy(nic(0), nic(4), RouteId(0)));
        assert!(
            net.route_healthy(nic(0), nic(4), RouteId(1)),
            "the other spine stays healthy"
        );
    }

    #[test]
    fn link_weight_and_route_weight_track_degrades() {
        let mut net = testbed_net();
        let r0 = net.topo.pinned_route(nic(0), nic(4), RouteId(0));
        let spine = r0.links[1];
        assert_eq!(net.link_weight(spine), 1.0);
        assert_eq!(net.route_weight(nic(0), nic(4), RouteId(0)), 1.0);
        net.set_link_degrade(Nanos::ZERO, spine, 0.5);
        assert_eq!(net.link_weight(spine), 0.5);
        assert_eq!(
            net.route_weight(nic(0), nic(4), RouteId(0)),
            0.5,
            "route weight is the bottleneck link weight"
        );
        assert_eq!(
            net.route_weight(nic(0), nic(4), RouteId(1)),
            1.0,
            "the other spine is unaffected"
        );
        let base = net.topo.link(spine).bandwidth;
        assert!(
            (net.effective_capacity(spine.index()).as_bps() - base.as_bps() * 0.5).abs() < 1e-6
        );
        net.set_link_up(Nanos::ZERO, spine, false);
        assert_eq!(net.link_weight(spine), 0.0);
        assert_eq!(net.route_weight(nic(0), nic(4), RouteId(0)), 0.0);
        assert_eq!(net.effective_capacity(spine.index()), Bandwidth::ZERO);
        net.set_link_up(Nanos::ZERO, spine, true);
        assert_eq!(
            net.link_weight(spine),
            0.5,
            "repair restores the degraded weight, not full"
        );
    }

    /// Two solves over the identical membership with a capacity change in
    /// between: nothing about the problem's shape changed, and the second
    /// solve must still see the new capacity — bit for bit what a fresh
    /// network that saw the degrade before its first solve computes.
    #[test]
    fn degrade_between_identical_memberships_is_seen_by_the_next_solve() {
        let specs = [
            FlowSpec::ecmp(nic(0), nic(2), Bytes::gib(1), 0),
            FlowSpec::ecmp(nic(1), nic(2), Bytes::gib(1), 1),
        ];
        let mut net = testbed_net();
        let ids = specs.map(|spec| net.start_flow(Nanos::ZERO, spec));
        let link = net.flow_route(ids[0]).expect("present").links[0];
        for (fraction, a_gbps) in [(0.5, 25.0), (0.25, 12.5), (1.0, 25.0)] {
            net.set_link_degrade(Nanos::ZERO, link, fraction);
            // a's uplink is 50G x fraction; it shares b's 50G downlink.
            assert!((net.flow_rate(ids[0]).as_gbps() - a_gbps).abs() < 1e-6);
            let mut fresh = testbed_net();
            fresh.set_link_degrade(Nanos::ZERO, link, fraction);
            let fresh_ids = specs.map(|spec| fresh.start_flow(Nanos::ZERO, spec));
            for (&id, &fresh_id) in ids.iter().zip(&fresh_ids) {
                assert_eq!(
                    net.flow_rate(id).as_bps().to_bits(),
                    fresh.flow_rate(fresh_id).as_bps().to_bits(),
                    "{id:?} at degrade {fraction}"
                );
            }
        }
    }

    /// Arena slots recycled by a host crash → restart → re-allocate cycle:
    /// the replacement flows land on the dead flows' slots with different
    /// routes and tenants, and every later solve must see the new
    /// occupants' links only — never the dead flows'.
    #[test]
    fn recycled_slot_never_inherits_the_dead_flows_links() {
        let mut net = testbed_net();
        // Two cross-rack flows from host 0 plus one bystander.
        let mut live = vec![
            net.start_flow(
                Nanos::ZERO,
                FlowSpec::ecmp(nic(0), nic(4), Bytes::gib(1), 3).with_tenant(0),
            ),
            net.start_flow(
                Nanos::ZERO,
                FlowSpec::ecmp(nic(1), nic(5), Bytes::gib(1), 4).with_tenant(0),
            ),
            net.start_flow(
                Nanos::ZERO,
                FlowSpec::ecmp(nic(2), nic(6), Bytes::gib(1), 5).with_tenant(1),
            ),
        ];
        // Host 0 crashes: both its NICs' flows die, freeing slots 0/1.
        for n in [0u32, 1] {
            net.kill_flows_touching_nic(Nanos::from_millis(1), nic(n));
        }
        live.retain(|&id| net.contains(id));
        // Restart re-allocates onto the recycled slots with different
        // routes and tenants than the slots' previous occupants.
        live.push(net.start_flow(
            Nanos::from_millis(2),
            FlowSpec::ecmp(nic(0), nic(2), Bytes::gib(1), 6).with_tenant(2),
        ));
        live.push(net.start_flow(
            Nanos::from_millis(2),
            FlowSpec::ecmp(nic(1), nic(3), Bytes::gib(1), 7).with_tenant(2),
        ));
        net.assert_matches_reference();
        // Nothing may be left on the links only the dead flows crossed.
        let dead_route = net.topo.ecmp_route(nic(0), nic(4), 3);
        for &l in dead_route.links.iter() {
            let crossed_by_live = live
                .iter()
                .any(|&id| net.flow_route(id).expect("present").links.contains(&l));
            if !crossed_by_live {
                assert_eq!(net.link_load(l).as_bps(), 0.0, "ghost load on {l:?}");
            }
        }
        // Degrade a recycled flow's first link: the re-solve must cover
        // exactly the slot's current occupant.
        let last = *live.last().expect("flows live");
        let link = net.flow_route(last).expect("present").links[0];
        net.set_link_degrade(Nanos::from_millis(3), link, 0.5);
        assert!((net.flow_rate(last).as_gbps() - 25.0).abs() < 1e-6);
        net.assert_matches_reference();
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut net = testbed_net();
        net.start_flow(Nanos::ZERO, FlowSpec::ecmp(nic(0), nic(2), Bytes::ZERO, 0));
        let done = net.advance_to(Nanos::ZERO);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].finished_at, Nanos::ZERO);
    }

    /// Component locality, the rule the re-solve follows: a flow is
    /// re-solved, accrued and re-predicted exactly when an event touches
    /// its own sharing component. Two flows sharing spine 0 go through
    /// start / degrade / finish / cancel; a cross-rack flow over spine 1
    /// and rack-local flows — sharing no link with them — churn alongside
    /// in one of the two runs. Rates and completion instants of the first
    /// component are bit-identical either way. Its sizes are multiples of
    /// 25 bytes, which finish on a whole nanosecond at 50, 25 and
    /// 12.5 Gbps — exactly where `predict`'s `ceil` turns the last-ulp
    /// noise of one extra accrual into a 1 ns shift.
    #[test]
    fn disjoint_components_are_invisible_to_each_other() {
        // Component-1 flows carry a non-zero tag.
        fn record(done: Vec<FlowCompletion>, finished: &mut Vec<u64>, log: &mut Vec<u64>) {
            for c in done.iter().filter(|c| c.tag != 0) {
                finished.push(c.tag);
                log.push(c.finished_at.as_nanos());
            }
        }
        // Odd multiples of 25 B (see above); a gather widened to every
        // active flow shifts their finish by 1 ns.
        let (a_bytes, b_bytes) = (Bytes::new(25_001_225), Bytes::new(4_002_275));
        let drive = |neighbours: bool| -> Vec<u64> {
            let us = Nanos::from_micros;
            let mut net = testbed_net();
            let (mut log, mut finished) = (Vec::new(), Vec::new());
            let a = net.start_flow(
                Nanos::ZERO,
                FlowSpec::pinned(nic(0), nic(4), a_bytes, RouteId(0)).with_tag(1),
            );
            let b = net.start_flow(
                Nanos::ZERO,
                FlowSpec::pinned(nic(2), nic(6), b_bytes, RouteId(0)).with_tag(2),
            );
            let spine0 = net.flow_route(a).expect("present").links[1];
            let x = neighbours.then(|| {
                net.start_flow(
                    Nanos::ZERO,
                    FlowSpec::pinned(nic(1), nic(5), Bytes::mib(7), RouteId(1)),
                )
            });
            let mut c = None;
            for step in 0..8u64 {
                let now = us(500 * step);
                record(net.advance_to(now), &mut finished, &mut log);
                match step {
                    1 => net.set_link_degrade(now, spine0, 0.5),
                    5 => net.set_link_degrade(now, spine0, 1.0),
                    6 => {
                        let spec = FlowSpec::pinned(nic(0), nic(6), Bytes::mib(64), RouteId(0));
                        c = Some(net.start_flow(now, spec.with_tag(3)));
                    }
                    7 => net.cancel_flow(now, c.take().expect("started at step 6")),
                    _ => {}
                }
                for id in [Some(a), Some(b), c].into_iter().flatten() {
                    log.push(net.flow_rate(id).as_bps().to_bits());
                }
                if let Some(x) = x {
                    let now = now + us(130);
                    record(net.advance_to(now), &mut finished, &mut log);
                    let spine1 = net.topo.pinned_route(nic(1), nic(5), RouteId(1)).links[1];
                    match step {
                        0 => net.set_link_degrade(now, spine1, 0.3),
                        2 => net.cancel_flow(now, x),
                        _ => {}
                    }
                    // Rack-local flows finishing at odd instants all
                    // through the step.
                    for k in 0..6u64 {
                        let bytes = Bytes::new(100_003 + 7_919 * (6 * step + k));
                        let (s, t) = [(3, 1), (5, 7)][(k % 2) as usize];
                        net.start_flow(now, FlowSpec::ecmp(nic(s), nic(t), bytes, k));
                    }
                }
                net.assert_matches_reference();
            }
            record(net.advance_to(Nanos::from_secs(1)), &mut finished, &mut log);
            assert_eq!(finished, [2, 1], "b finishes under the degrade, a last");
            assert_eq!(net.flow_count(), 0);
            log
        };
        assert_eq!(drive(false), drive(true));
    }

    mod proptests {
        use super::*;
        use mccs_topology::presets::{spine_leaf, SpineLeafConfig};
        use proptest::prelude::*;

        /// One network under random churn on racks 0 and 1 of a
        /// three-rack testbed (NICs 0..8; rack 2 holds NICs 8..12).
        struct Churn {
            net: Network,
            now: Nanos,
            /// (id, src, dst) of churn flows not yet finished or removed.
            live: Vec<(FlowId, u32, u32)>,
        }

        impl Default for Churn {
            fn default() -> Self {
                let topo = spine_leaf(&SpineLeafConfig {
                    spines: 2,
                    leaves: 3,
                    hosts_per_leaf: 2,
                    gpus_per_host: 2,
                    nic_bandwidth: Bandwidth::gbps(50.0),
                    leaf_spine_bandwidth: Bandwidth::gbps(50.0),
                });
                Churn {
                    net: Network::new(Arc::new(topo)),
                    now: Nanos::ZERO,
                    live: Vec::new(),
                }
            }
        }

        impl Churn {
            /// Apply the `i`-th operation (flows it starts are tagged
            /// `i`); returns `(tag, finish instant)` of what completed.
            fn apply(&mut self, i: usize, &(kind, a, b, c, d): &Op) -> Vec<(u64, Nanos)> {
                let (net, now) = (&mut self.net, self.now);
                let pick = (c as usize) % self.live.len().max(1);
                match kind {
                    0..=3 if a != b => {
                        let spec = if kind == 3 {
                            // capped, guaranteed background traffic
                            let rate = Bandwidth::gbps(5.0 + (c % 40) as f64);
                            FlowSpec::background(nic(a), nic(b), rate, d)
                        } else {
                            // Multiples of 25 B: whole-nanosecond finishes
                            // at 50/25/12.5 Gbps, where a stray accrual
                            // shows (see the locality test above).
                            let bytes = Bytes::new(1_000_025 * (1 + c % 64));
                            FlowSpec::ecmp(nic(a), nic(b), bytes, d).with_tenant(a % 3)
                        };
                        let id = net.start_flow(now, spec.with_tag(i as u64));
                        self.live.push((id, a, b));
                    }
                    4 if !self.live.is_empty() => {
                        net.cancel_flow(now, self.live.remove(pick).0);
                    }
                    5 if !self.live.is_empty() => {
                        net.set_paused(now, self.live[pick].0, d % 2 == 0);
                    }
                    6 => {
                        self.now += Nanos::from_micros(1 + c % 2000);
                        let done = net.advance_to(self.now);
                        self.live.retain(|&(id, _, _)| net.contains(id));
                        return done.iter().map(|x| (x.tag, x.finished_at)).collect();
                    }
                    7 if !self.live.is_empty() => {
                        // repin a cross-rack flow onto an explicit spine
                        let (id, s, t) = self.live[pick];
                        if (s < 4) != (t < 4) {
                            net.repin_flow(now, id, RouteId((d % 2) as u32));
                        }
                    }
                    8 => {
                        // Host crash: everything touching one NIC dies,
                        // freeing arena slots for the next starts.
                        net.kill_flows_touching_nic(now, nic(a));
                        self.live.retain(|&(id, _, _)| net.contains(id));
                    }
                    9 if !self.live.is_empty() => {
                        let links = &net.flow_route(self.live[pick].0).expect("live").links;
                        let link = links[(d >> 2) as usize % links.len()];
                        net.set_link_degrade(now, link, [0.0, 0.25, 0.5, 1.0][(d % 4) as usize]);
                    }
                    _ => {}
                }
                Vec::new()
            }

            /// Bit patterns of the churn flows' rates, in `live` order.
            fn rate_bits(&self) -> Vec<u64> {
                self.live
                    .iter()
                    .map(|&(id, _, _)| self.net.flow_rate(id).as_bps().to_bits())
                    .collect()
            }
        }

        /// `(kind, a, b, c, d)` — see [`Churn::apply`].
        type Op = (u8, u32, u32, u64, u64);

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Random flow soups always drain, conserve bytes, and never
            /// oversubscribe the destination NIC line rate in aggregate
            /// (completion throughput bound).
            #[test]
            fn flows_always_drain(
                seeds in proptest::collection::vec((0u32..8, 0u32..8, 1u64..64, any::<u64>()), 1..20)
            ) {
                let mut net = testbed_net();
                let mut expected = 0usize;
                for (i, &(s, d, mib, hash)) in seeds.iter().enumerate() {
                    if s == d { continue; }
                    expected += 1;
                    let start = Nanos::from_micros(i as u64 * 10);
                    net.start_flow(start, FlowSpec::ecmp(nic(s), nic(d), Bytes::mib(mib), hash));
                }
                let done = net.advance_to(Nanos::from_secs(60));
                prop_assert_eq!(done.len(), expected);
                prop_assert_eq!(net.flow_count(), 0);
                // each flow's mean rate can never beat the 50G NIC
                for c in &done {
                    prop_assert!(c.mean_rate().as_gbps() <= 50.0 + 1e-6);
                }
            }

            /// Incremental dirty-link recomputation matches the
            /// from-scratch reference over random flow-churn sequences
            /// (starts, cancels, pauses, repins, completions, NIC kills
            /// recycling arena slots, link degrades, tenants and capped
            /// background flows all mixed) and the max-min definition
            /// after every op. With `bystander` set, a
            /// second run gets an unrelated component injected before
            /// that op: the churn flows' rates and completion instants
            /// must not notice, bit for bit.
            #[test]
            fn incremental_matches_from_scratch_under_churn(
                ops in proptest::collection::vec(
                    (0u8..10, 0u32..8, 0u32..8, 0u64..64, any::<u64>()), 1..32),
                bystander in proptest::option::of(0usize..32),
            ) {
                let mut run = Churn::default();
                let mut twin = bystander.map(|_| Churn::default());
                for (i, op) in ops.iter().enumerate() {
                    let done = run.apply(i, op);
                    run.net.assert_matches_reference();

                    let Some(twin) = twin.as_mut() else { continue };
                    if bystander == Some(i) {
                        // Rack 2 (NICs 8..12) is out of every op's reach.
                        for (s, t) in [(8, 10), (9, 10), (11, 8)] {
                            let spec = FlowSpec::ecmp(nic(s), nic(t), Bytes::mib(2 + s as u64), 0);
                            twin.net.start_flow(twin.now, spec.with_tenant(s));
                        }
                    }
                    prop_assert_eq!(twin.apply(i, op), done);
                    prop_assert_eq!(twin.rate_bits(), run.rate_bits());
                }
            }

            /// Completions come out in time order.
            #[test]
            fn completions_time_ordered(
                seeds in proptest::collection::vec((0u32..4, 4u32..8, 1u64..32, any::<u64>()), 2..16)
            ) {
                let mut net = testbed_net();
                for &(s, d, mib, hash) in &seeds {
                    net.start_flow(Nanos::ZERO, FlowSpec::ecmp(nic(s), nic(d), Bytes::mib(mib), hash));
                }
                let done = net.advance_to(Nanos::from_secs(60));
                prop_assert!(done.windows(2).all(|w| w[0].finished_at <= w[1].finished_at));
            }
        }
    }
}
