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
//! max-min problems, so disjoint flows keep their rates untouched. The
//! from-scratch path ([`allocate_with_priority`] over every active flow)
//! remains available via [`Network::set_incremental`] as the oracle.
//!
//! Completion times are **indexed**: each rate assignment stores the
//! flow's predicted finish instant and (in incremental mode) pushes it
//! onto a lazily-invalidated min-heap, so
//! [`next_completion_time`](Network::next_completion_time) is O(log F)
//! amortized instead of a scan of every flow, and per-flow byte progress
//! is accrued lazily — only when a flow's own rate changes or it is
//! inspected — so advancing past K completions among F flows costs
//! O((K + changed) · log F) rather than O(K·F). The oracle path scans
//! the same stored predictions linearly, which keeps the two modes
//! byte-identical by construction.

use crate::arena::FlowStore;
use crate::flow::{FlowCompletion, FlowId, FlowSpec, RouteChoice};
use crate::maxmin::{
    allocate_with_priority, allocate_with_priority_into, FlowDemand, SolverScratch,
};
use mccs_sim::{Bandwidth, Bytes, Nanos};
use mccs_topology::{LinkId, Route, RouteId, Topology};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
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

    /// Bytes moved by time `at` (≥ `accrued_at`), without materializing.
    fn progress_at(&self, at: Nanos) -> f64 {
        if self.active() {
            self.bytes_done + self.rate.bytes_in(at - self.accrued_at)
        } else {
            self.bytes_done
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
    /// Arena-indexed flow state (dense slots); the `BTreeMap` oracle
    /// representation stays switchable for CI.
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
    /// When false, every solve is from scratch over all active flows (the
    /// oracle path for tests and benchmarks).
    incremental: bool,
    /// Rack-partitioned solve index: per-link rack buckets, per-bucket
    /// active flow lists, and the bucket coupling graph maintained by
    /// multi-rack flows (see [`Self::affected_flows_rack`]).
    racks: RackIndex,
    /// When true (the default), incremental re-solves find their flow set
    /// through the rack-bucket closure instead of the per-link BFS. The
    /// global BFS stays available via [`Self::set_hierarchical`] as the
    /// oracle CI compares against.
    hierarchical: bool,
    /// Min-heap of `(predicted finish, flow, generation)` — the
    /// completion index of the incremental path. Entries are invalidated
    /// lazily: a pushed entry goes stale when its flow leaves or its
    /// prediction is superseded (generation mismatch), and stale heads
    /// are popped on the next peek. `RefCell` because
    /// [`next_completion_time`](Network::next_completion_time) is a
    /// `&self` query that must be able to discard stale heads.
    completions: RefCell<BinaryHeap<Reverse<(Nanos, FlowId, u64)>>>,
    /// Per-link fault state. `None` (the default) means the whole fabric
    /// is healthy and no fault bookkeeping runs at all — the zero-overhead
    /// guarantee for fault-free simulations.
    link_faults: Option<LinkFaults>,
    /// Reusable problem-build and solver buffers for the incremental
    /// path. Taken out of `self` for the duration of a solve.
    solver: NetSolver,
    /// Reusable buffers of the component gather.
    gather: Gather,
    /// Reusable buffer of [`Self::reap`].
    due: Vec<FlowId>,
}

/// Scratch state for the incremental solve path: the demand/cap/rate
/// buffers, [`SolverScratch`] and the topology-link -> compact-link remap
/// are reused across solves, so a steady-state solve allocates nothing.
#[derive(Default)]
struct NetSolver {
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

/// Buffers of the component gather ([`Network::affected_components`] and
/// its rack variant), reused so a gather allocates nothing once warm.
#[derive(Default)]
struct Gather {
    /// `groups[..len]` are this solve's components, each in ascending id
    /// order; the vectors beyond keep their capacity for the next solve.
    groups: Vec<Vec<FlowId>>,
    len: usize,
    /// Links (global BFS) or rack buckets (rack closure) already walked.
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

/// The rack-partitioned solve index. Built once from the topology; the
/// per-bucket membership mirrors `link_flows` exactly (active flows only).
///
/// Soundness: every link belongs to exactly one bucket and a flow is
/// listed in every bucket its route touches, so two flows sharing a link
/// share a bucket. The transitive closure over `adj` (edges contributed by
/// multi-bucket flows) is therefore closed under the flow-coupling
/// relation — a union of true flow×link connected components, which the
/// water-filling solver treats identically to solving each component
/// alone.
struct RackIndex {
    /// Link index -> bucket (`0` = shared/global, `r + 1` = rack `r`).
    link_bucket: Vec<u32>,
    /// Bucket -> active flows with at least one link in it, sorted by id.
    flows: Vec<Vec<FlowId>>,
    /// Bucket coupling graph: neighbor bucket -> number of flows joining
    /// the pair. Edges disappear when their count drops to zero.
    adj: Vec<BTreeMap<u32, u32>>,
    /// Flows whose routes touch more distinct buckets than the inline
    /// bound tracks (never happens on leaf-spine fabrics). They couple
    /// everything: while any exist, bucket structure is ignored and the
    /// closure is the full active set — conservative, still sound.
    global: Vec<FlowId>,
}

/// Distinct buckets tracked per flow before falling back to the global
/// list. Leaf-spine routes touch at most two racks (plus bucket 0).
const MAX_FLOW_BUCKETS: usize = 8;

impl RackIndex {
    fn new(topo: &Topology) -> Self {
        let link_bucket = topo.link_rack_buckets();
        let buckets = link_bucket.iter().copied().max().unwrap_or(0) as usize + 1;
        RackIndex {
            link_bucket,
            flows: vec![Vec::new(); buckets],
            adj: vec![BTreeMap::new(); buckets],
            global: Vec::new(),
        }
    }

    /// The distinct buckets a route touches, in first-touch order.
    /// `None` signals inline-bound overflow (handled via `global`).
    fn route_buckets(&self, links: &[LinkId]) -> Option<([u32; MAX_FLOW_BUCKETS], usize)> {
        let mut set = [0u32; MAX_FLOW_BUCKETS];
        let mut n = 0usize;
        for l in links {
            let b = self.link_bucket[l.index()];
            if !set[..n].contains(&b) {
                if n == MAX_FLOW_BUCKETS {
                    return None;
                }
                set[n] = b;
                n += 1;
            }
        }
        Some((set, n))
    }

    /// Register an active flow's coupling (mirror of `index_insert`).
    fn couple(&mut self, id: FlowId, links: &[LinkId]) {
        let Some((set, n)) = self.route_buckets(links) else {
            let pos = self.global.binary_search(&id).unwrap_err();
            self.global.insert(pos, id);
            return;
        };
        for &b in &set[..n] {
            let list = &mut self.flows[b as usize];
            if let Err(pos) = list.binary_search(&id) {
                list.insert(pos, id);
            }
        }
        for i in 0..n {
            for j in (i + 1)..n {
                let (a, b) = (set[i], set[j]);
                *self.adj[a as usize].entry(b).or_insert(0) += 1;
                *self.adj[b as usize].entry(a).or_insert(0) += 1;
            }
        }
    }

    /// Unregister an active flow's coupling (mirror of `index_remove`).
    fn decouple(&mut self, id: FlowId, links: &[LinkId]) {
        let Some((set, n)) = self.route_buckets(links) else {
            if let Ok(pos) = self.global.binary_search(&id) {
                self.global.remove(pos);
            }
            return;
        };
        for &b in &set[..n] {
            let list = &mut self.flows[b as usize];
            if let Ok(pos) = list.binary_search(&id) {
                list.remove(pos);
            }
        }
        for i in 0..n {
            for j in (i + 1)..n {
                let (a, b) = (set[i], set[j]);
                for (x, y) in [(a, b), (b, a)] {
                    let m = &mut self.adj[x as usize];
                    if let Some(c) = m.get_mut(&y) {
                        *c -= 1;
                        if *c == 0 {
                            m.remove(&y);
                        }
                    }
                }
            }
        }
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
    ///
    /// Incremental rate recomputation is on by default; setting the
    /// `MCCS_NETSIM_ORACLE` environment variable flips the default to the
    /// from-scratch oracle solver (CI's oracle-equivalence job runs whole
    /// test suites that way without touching call sites). Explicit
    /// [`set_incremental`](Network::set_incremental) calls still win.
    /// Further oracle toggles: `MCCS_NETSIM_MAP_STORE` defaults flow
    /// storage to the map-backed representation, `MCCS_NETSIM_GLOBAL_SOLVE`
    /// defaults the incremental path to the global per-link BFS instead of
    /// the rack-bucket closure.
    pub fn new(topo: Arc<Topology>) -> Self {
        let capacities = topo.links().iter().map(|l| l.bandwidth).collect();
        let racks = RackIndex::new(&topo);
        let link_count = topo.links().len();
        let flows = if std::env::var_os("MCCS_NETSIM_MAP_STORE").is_some() {
            FlowStore::map_backed()
        } else {
            FlowStore::default()
        };
        Network {
            topo,
            flows,
            next_id: 0,
            clock: Nanos::ZERO,
            capacities,
            cross_tenant_penalty: DEFAULT_CROSS_TENANT_PENALTY,
            link_flows: vec![Vec::new(); link_count],
            active_count: 0,
            dirty_links: Vec::new(),
            incremental: std::env::var_os("MCCS_NETSIM_ORACLE").is_none(),
            racks,
            hierarchical: std::env::var_os("MCCS_NETSIM_GLOBAL_SOLVE").is_none(),
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

    /// Toggle incremental rate recomputation (on by default). With it off
    /// every membership change re-solves the full active flow set and
    /// completions come from a linear scan of the stored predictions —
    /// the oracle the incremental path (and its completion heap) is
    /// tested against.
    pub fn set_incremental(&mut self, enabled: bool) {
        if enabled && !self.incremental {
            // Rebuild the completion index from the current predictions
            // (no entries were pushed while the oracle path ran).
            let heap = self.completions.get_mut();
            heap.clear();
            self.flows.for_each_ordered(|id, f| {
                if let (true, Some(t)) = (f.active(), f.predicted) {
                    heap.push(Reverse((t, id, f.gen)));
                }
            });
        }
        self.incremental = enabled;
    }

    /// Toggle the rack-partitioned incremental solve (on by default).
    /// With it off, incremental re-solves fall back to the global
    /// per-link BFS — the oracle the bucket closure is compared against.
    /// The rack index is maintained either way, so this is free to flip
    /// mid-run.
    pub fn set_hierarchical(&mut self, enabled: bool) {
        self.hierarchical = enabled;
    }

    /// Whether the rack-partitioned incremental solve is in use.
    pub fn hierarchical(&self) -> bool {
        self.hierarchical
    }

    /// Switch flow storage between the dense arena (default, `false`) and
    /// the map-backed oracle representation (`true`). Every observable is
    /// byte-identical between the two; CI flips this and checks digests.
    pub fn set_map_storage(&mut self, map: bool) {
        self.flows.set_map_backed(map);
    }

    /// Whether the map-backed oracle storage is in use.
    pub fn map_storage(&self) -> bool {
        self.flows.is_map_backed()
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
        let route = self.topo.pinned_route(src, dst, id);
        route.links.iter().all(|&l| self.link_up(l))
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

    /// Effective capacity of a link: base bandwidth × degrade fraction,
    /// zero while the link is down.
    pub fn link_effective_capacity(&self, link: LinkId) -> Bandwidth {
        self.effective_capacity(link.index())
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
        let route = self.topo.pinned_route(src, dst, id);
        route
            .links
            .iter()
            .map(|&l| self.link_weight(l))
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
        let route = self.topo.pinned_route(src, dst, id);
        let mut share = f64::INFINITY;
        for &l in route.links.iter() {
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
    /// Incremental mode peeks the completion heap, discarding stale heads
    /// (O(log F) amortized — each pushed entry is popped at most once).
    /// Oracle mode scans the same stored predictions linearly, so the two
    /// modes agree byte-for-byte.
    pub fn next_completion_time(&self) -> Option<Nanos> {
        if !self.incremental {
            let mut min: Option<Nanos> = None;
            self.flows.for_each_ordered(|_, f| {
                if let (true, Some(t)) = (f.active(), f.predicted) {
                    min = Some(min.map_or(t, |m| m.min(t)));
                }
            });
            return min;
        }
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

    /// Bytes a flow has moved so far.
    pub fn flow_progress(&self, id: FlowId) -> Bytes {
        self.flows
            .get(id)
            .map(|f| Bytes::new(f.progress_at(self.clock) as u64))
            .unwrap_or(Bytes::ZERO)
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
    /// the canonical id order (identical across storage representations).
    pub fn link_load(&self, link: LinkId) -> Bandwidth {
        let mut total = 0.0f64;
        for &id in &self.link_flows[link.index()] {
            total += self.flow(id).rate.as_bps();
        }
        Bandwidth::bps(total)
    }

    /// Link load as a fraction of the capacity the link has right now
    /// ([`link_effective_capacity`](Network::link_effective_capacity)): a
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
        if self.incremental {
            // Pop every heap entry due by now; generation-stale entries
            // are discarded for free on the way. Cost is O(due · log F),
            // not O(F).
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
        } else {
            self.flows.for_each_ordered(|id, f| {
                if f.active() && f.predicted.is_some_and(|t| t <= clock) {
                    due.push(id);
                }
            });
        }
        // Heap order is (time, id); the oracle scans in id order. Completions
        // in one reap batch share `finished_at`, so id order is canonical.
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
        self.racks.couple(id, &links);
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
        self.racks.decouple(id, &links);
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

    /// Hierarchical variant of [`Self::affected_components`]: dirty links
    /// map to rack buckets, and each unseen dirty bucket seeds a
    /// fixed-point closure over the bucket coupling graph (edges =
    /// cross-rack flows stitching racks at their spine hops); each closed
    /// bucket set contributes one group — the union of its buckets' flow
    /// lists. A rack-local churn event thus re-solves its rack component
    /// plus whatever spine coupling exists — not a per-link BFS over the
    /// whole touched traffic. Each closure is a coarsening of the true
    /// flow×link components (see [`RackIndex`]), and distinct closures
    /// share no flow (a flow spanning two closures would couple them), so
    /// every group is a union of components and rates match the global
    /// path.
    fn affected_components_rack(&mut self) {
        let g = &mut self.gather;
        g.len = 0;
        if self.dirty_links.is_empty() {
            return;
        }
        if !self.racks.global.is_empty() {
            // A bucket-overflow flow couples every bucket it touches and
            // we stopped tracking which: collapse to the full active set.
            self.dirty_links.clear();
            let all = g.open();
            self.flows.for_each_ordered(|id, f| {
                if f.active() {
                    all.push(id);
                }
            });
            g.close();
            return;
        }
        g.seen.reset(self.racks.flows.len());
        self.dirty_links.sort_unstable();
        let mut grouped = 0usize;
        for &idx in &self.dirty_links {
            let b = self.racks.link_bucket[idx];
            if !g.seen.insert(b as usize) {
                continue;
            }
            g.frontier.clear();
            g.frontier.push(b);
            g.open();
            while let Some(b) = g.frontier.pop() {
                g.groups[g.len].extend_from_slice(&self.racks.flows[b as usize]);
                for &n in self.racks.adj[b as usize].keys() {
                    if g.seen.insert(n as usize) {
                        g.frontier.push(n);
                    }
                }
            }
            grouped += g.close();
            // Every active flow is in some group already: later seeds'
            // buckets hold only flows these groups have, by closure
            // disjointness.
            if grouped == self.active_count {
                break;
            }
        }
        self.dirty_links.clear();
    }

    fn recompute_rates(&mut self) {
        if self.incremental {
            if self.hierarchical {
                self.affected_components_rack();
            } else {
                self.affected_components();
            }
            if self.gather.len > 0 {
                // Each affected group is its own max-min problem.
                let groups = std::mem::take(&mut self.gather.groups);
                for ids in &groups[..self.gather.len] {
                    self.solve_for(ids);
                }
                self.gather.groups = groups;
            }
        } else {
            self.dirty_links.clear();
            let mut all = Vec::with_capacity(self.active_count);
            self.flows.for_each_ordered(|id, f| {
                if f.active() {
                    all.push(id);
                }
            });
            self.solve_for(&all);
        }
    }

    /// Max-min solve restricted to `ids` (which must be a union of
    /// connected components — or the full active set).
    ///
    /// The incremental path reuses the [`NetSolver`] scratch (demand /
    /// capacity / rate buffers, link remap, [`SolverScratch`]) so a
    /// steady-state solve allocates nothing. The from-scratch oracle path
    /// (`set_incremental(false)`) keeps the original allocating pipeline
    /// so equivalence tests compare genuinely independent code.
    fn solve_for(&mut self, ids: &[FlowId]) {
        if !self.incremental {
            let (demands, compact_caps) = self.build_problem(ids);
            let rates = allocate_with_priority(&demands, &compact_caps);
            for (&id, rate) in ids.iter().zip(rates) {
                self.set_rate_and_predict(id, rate);
            }
            return;
        }
        let mut s = std::mem::take(&mut self.solver);
        self.fill_problem(ids, &mut s);
        allocate_with_priority_into(&s.demands, &s.caps, &mut s.scratch, &mut s.rates);
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
        let indexed = self.incremental;
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
        if indexed {
            if let Some(t) = p {
                self.completions.get_mut().push(Reverse((t, id, gen)));
            }
        }
    }

    /// Fill `s.demands` / `s.caps` for `ids` — the same problem, link for
    /// link, as [`Self::build_problem`], written into reused buffers.
    /// Topology links get compact indices in first-touch order through a
    /// dense remap; per-link capacities (fault state, sharing penalty)
    /// are read fresh on every build.
    fn fill_problem(&self, ids: &[FlowId], s: &mut NetSolver) {
        s.builds += 1;
        s.demands
            .resize_with(ids.len(), || FlowDemand::fair(Vec::new(), None));
        s.mapped.reset(self.link_flows.len());
        s.compact.resize(self.link_flows.len(), 0);
        s.caps.clear();
        s.link_tenants.clear();
        for (d, &id) in s.demands.iter_mut().zip(ids) {
            let f = self.flow(id);
            debug_assert!(f.active(), "solving for a paused flow");
            let tenant = f.spec.tenant;
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
    /// hits and misses of is gone — every incremental solve builds its
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

    /// Build the allocation problem for `ids`. Remaps to the compact set
    /// of links those flows actually cross: the allocator's cost is then
    /// proportional to the traffic touched by a change, not to the whole
    /// fabric (the 768-GPU cluster has ~14k links but a few hundred busy
    /// ones at any instant).
    fn build_problem(&self, ids: &[FlowId]) -> (Vec<FlowDemand>, Vec<Bandwidth>) {
        let mut compact: HashMap<usize, usize> = HashMap::new();
        let mut compact_caps: Vec<Bandwidth> = Vec::new();
        // (first tenant seen, shared across tenants?) per compact link
        let mut link_tenants: Vec<(u32, bool)> = Vec::new();
        let mut demands = Vec::new();
        for &id in ids {
            let f = self.flow(id);
            debug_assert!(f.active(), "solving for a paused flow");
            let tenant = f.spec.tenant;
            // Guaranteed (background) flows model aggregate external
            // traffic whose cost is already its bandwidth share; only
            // tenant collective flows trigger the cross-tenant penalty.
            let counts_for_sharing = !f.spec.guaranteed;
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
            if counts_for_sharing {
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
        assert!((net.link_effective_capacity(spine).as_bps() - base.as_bps() * 0.5).abs() < 1e-6);
        net.set_link_up(Nanos::ZERO, spine, false);
        assert_eq!(net.link_weight(spine), 0.0);
        assert_eq!(net.route_weight(nic(0), nic(4), RouteId(0)), 0.0);
        assert_eq!(net.link_effective_capacity(spine), Bandwidth::ZERO);
        net.set_link_up(Nanos::ZERO, spine, true);
        assert_eq!(
            net.link_weight(spine),
            0.5,
            "repair restores the degraded weight, not full"
        );
    }

    /// Two solves over the identical membership with a capacity change in
    /// between: nothing about the problem's shape changed, and the second
    /// solve must still see the new capacity — bit for bit what a
    /// from-scratch network computes.
    #[test]
    fn degrade_between_identical_memberships_is_seen_by_the_next_solve() {
        let mut net = testbed_net();
        net.set_incremental(true);
        let mut oracle = testbed_net();
        oracle.set_incremental(false);
        let mut ids = Vec::new();
        for n in [&mut net, &mut oracle] {
            let a = n.start_flow(
                Nanos::ZERO,
                FlowSpec::ecmp(nic(0), nic(2), Bytes::gib(1), 0),
            );
            let b = n.start_flow(
                Nanos::ZERO,
                FlowSpec::ecmp(nic(1), nic(2), Bytes::gib(1), 1),
            );
            ids = vec![a, b];
        }
        let link = net.flow_route(ids[0]).expect("present").links[0];
        for (fraction, a_gbps) in [(0.5, 25.0), (0.25, 12.5), (1.0, 25.0)] {
            net.set_link_degrade(Nanos::ZERO, link, fraction);
            oracle.set_link_degrade(Nanos::ZERO, link, fraction);
            // a's uplink is 50G x fraction; it shares b's 50G downlink.
            assert!((net.flow_rate(ids[0]).as_gbps() - a_gbps).abs() < 1e-6);
            for &id in &ids {
                assert_eq!(
                    net.flow_rate(id).as_bps().to_bits(),
                    oracle.flow_rate(id).as_bps().to_bits(),
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
        net.set_incremental(true);
        net.set_map_storage(false);
        let mut oracle = testbed_net();
        oracle.set_incremental(false);
        oracle.set_map_storage(true);
        let drive = |net: &mut Network| -> Vec<FlowId> {
            let mut live = Vec::new();
            // Two cross-rack flows from host 0 plus one bystander.
            live.push(net.start_flow(
                Nanos::ZERO,
                FlowSpec::ecmp(nic(0), nic(4), Bytes::gib(1), 3).with_tenant(0),
            ));
            live.push(net.start_flow(
                Nanos::ZERO,
                FlowSpec::ecmp(nic(1), nic(5), Bytes::gib(1), 4).with_tenant(0),
            ));
            live.push(net.start_flow(
                Nanos::ZERO,
                FlowSpec::ecmp(nic(2), nic(6), Bytes::gib(1), 5).with_tenant(1),
            ));
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
            live
        };
        let live = drive(&mut net);
        let live_o = drive(&mut oracle);
        assert_eq!(live, live_o, "sequential ids are storage-independent");
        for &id in &live {
            let (r, ro) = (net.flow_rate(id).as_bps(), oracle.flow_rate(id).as_bps());
            assert!(
                (r - ro).abs() <= ro.abs() * 1e-9 + 1e-3,
                "stale slot data for {id:?}: arena {r} vs oracle {ro}"
            );
        }
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
        oracle.set_link_degrade(Nanos::from_millis(3), link, 0.5);
        let (r, ro) = (
            net.flow_rate(last).as_bps(),
            oracle.flow_rate(last).as_bps(),
        );
        assert!(
            (r - ro).abs() <= ro.abs() * 1e-9 + 1e-3,
            "post-degrade divergence on a recycled slot: {r} vs {ro}"
        );
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut net = testbed_net();
        net.start_flow(Nanos::ZERO, FlowSpec::ecmp(nic(0), nic(2), Bytes::ZERO, 0));
        let done = net.advance_to(Nanos::ZERO);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].finished_at, Nanos::ZERO);
    }

    /// The decomposition only changes how much is re-solved: rates and
    /// completion instants are bit-identical between the per-link-BFS and
    /// rack-partitioned gathers. Exercises multi-component churn (disjoint
    /// rack-local flows plus cross-rack couplers starting, finishing and
    /// dying) so one event genuinely re-solves more than one component.
    #[test]
    fn hierarchical_gather_is_invisible_in_rates() {
        let drive = |hierarchical: bool| -> Vec<(u64, u64)> {
            let mut net = testbed_net();
            net.set_hierarchical(hierarchical);
            let mut log: Vec<(u64, u64)> = Vec::new();
            let mut now = Nanos::ZERO;
            let mut live: Vec<FlowId> = Vec::new();
            for step in 0u64..40 {
                let (s, t) = ((step % 7) as u32, ((step * 3 + 1) % 8) as u32);
                if s != t {
                    let spec = FlowSpec::ecmp(nic(s), nic(t), Bytes::mib(1 + step % 16), step)
                        .with_tenant((step % 3) as u32);
                    live.push(net.start_flow(now, spec));
                }
                if step % 5 == 4 && !live.is_empty() {
                    let id = live.remove((step as usize * 7) % live.len());
                    if net.contains(id) {
                        net.cancel_flow(now, id);
                    }
                }
                now += Nanos::from_micros(200 + (step % 9) * 130);
                for c in net.advance_to(now) {
                    log.push((c.id.0, c.finished_at.as_nanos()));
                }
                live.retain(|&id| net.contains(id));
                for &id in &live {
                    // Exact bit pattern, not approximate equality.
                    log.push((id.0, net.flow_rate(id).as_bps().to_bits()));
                }
            }
            log
        };
        let global = drive(false);
        assert!(!global.is_empty());
        assert_eq!(global, drive(true));
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

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
            /// from-scratch oracle over random flow-churn sequences
            /// (starts, cancels, pauses, repins, completions, tenants and
            /// capped background flows all mixed), and the incremental
            /// net's rates satisfy the max-min invariants after every op.
            #[test]
            fn incremental_matches_from_scratch_under_churn(
                ops in proptest::collection::vec(
                    (0u8..8, 0u32..8, 0u32..8, 0u64..64, any::<u64>()), 1..32)
            ) {
                let mut inc = testbed_net();
                inc.set_incremental(true);
                let mut full = testbed_net();
                full.set_incremental(false);
                let mut now = Nanos::ZERO;
                // (id, src, dst) of flows not yet finished or cancelled
                let mut live: Vec<(FlowId, u32, u32)> = Vec::new();
                for &(kind, a, b, c, d) in &ops {
                    match kind {
                        0..=2 => {
                            let (s, t) = (a % 8, b % 8);
                            if s == t { continue; }
                            let spec = FlowSpec::ecmp(nic(s), nic(t), Bytes::mib(1 + c % 64), d)
                                .with_tenant(a % 3);
                            let i1 = inc.start_flow(now, spec);
                            let i2 = full.start_flow(now, spec);
                            prop_assert_eq!(i1, i2);
                            live.push((i1, s, t));
                        }
                        3 => {
                            // capped, guaranteed background traffic
                            let (s, t) = (a % 8, b % 8);
                            if s == t { continue; }
                            let rate = Bandwidth::gbps(5.0 + (c % 40) as f64);
                            let spec = FlowSpec::background(nic(s), nic(t), rate, d);
                            let i1 = inc.start_flow(now, spec);
                            let i2 = full.start_flow(now, spec);
                            prop_assert_eq!(i1, i2);
                            live.push((i1, s, t));
                        }
                        4 => {
                            if live.is_empty() { continue; }
                            let (id, _, _) = live.remove((c as usize) % live.len());
                            inc.cancel_flow(now, id);
                            full.cancel_flow(now, id);
                        }
                        5 => {
                            if live.is_empty() { continue; }
                            let (id, _, _) = live[(c as usize) % live.len()];
                            let paused = d % 2 == 0;
                            inc.set_paused(now, id, paused);
                            full.set_paused(now, id, paused);
                        }
                        6 => {
                            now += Nanos::from_micros(1 + c % 2000);
                            let done_inc = inc.advance_to(now);
                            let done_full = full.advance_to(now);
                            let t_inc: BTreeMap<FlowId, Nanos> =
                                done_inc.iter().map(|x| (x.id, x.finished_at)).collect();
                            let t_full: BTreeMap<FlowId, Nanos> =
                                done_full.iter().map(|x| (x.id, x.finished_at)).collect();
                            prop_assert_eq!(
                                t_inc.keys().collect::<Vec<_>>(),
                                t_full.keys().collect::<Vec<_>>()
                            );
                            for (id, ti) in &t_inc {
                                let tf = t_full[id];
                                prop_assert!(
                                    ti.as_nanos().abs_diff(tf.as_nanos()) <= 1,
                                    "completion time diverged for {:?}: {} vs {}", id, ti, tf
                                );
                            }
                            live.retain(|(id, _, _)| inc.contains(*id));
                        }
                        _ => {
                            // repin a cross-rack flow onto an explicit spine
                            if live.is_empty() { continue; }
                            let (id, s, t) = live[(c as usize) % live.len()];
                            if (s < 4) == (t < 4) { continue; }
                            let route = RouteId((d % 2) as u32);
                            inc.repin_flow(now, id, route);
                            full.repin_flow(now, id, route);
                        }
                    }
                    // 1. Every live flow's rate matches the oracle.
                    for &(id, _, _) in &live {
                        let ri = inc.flow_rate(id).as_bps();
                        let rf = full.flow_rate(id).as_bps();
                        prop_assert!(
                            (ri - rf).abs() <= rf.abs() * 1e-9 + 1e-3,
                            "rate diverged for {:?}: incremental {} vs full {}", id, ri, rf
                        );
                    }
                    // 2. The incremental rates are a valid max-min
                    // allocation in their own right.
                    let mut ids: Vec<FlowId> = Vec::new();
                    inc.flows.for_each_ordered(|i, f| {
                        if f.active() {
                            ids.push(i);
                        }
                    });
                    let (demands, caps) = inc.build_problem(&ids);
                    let rates: Vec<Bandwidth> =
                        ids.iter().map(|&i| inc.flow_rate(i)).collect();
                    crate::maxmin::check_invariants_with_priority(&demands, &caps, &rates);
                }
            }

            /// Storage representation (arena vs map) and solver scope
            /// (rack-hierarchical vs global dirty-link BFS vs full
            /// from-scratch) are interchangeable: identical flow ids,
            /// rates and completion times over random churn, including
            /// crash-driven slot recycling (`kill_flows_touching_nic`).
            #[test]
            fn storage_and_solver_modes_match_under_churn(
                ops in proptest::collection::vec(
                    (0u8..8, 0u32..8, 0u32..8, 0u64..64, any::<u64>()), 1..24)
            ) {
                // The default fast path: dense arenas + rack-partitioned solve.
                let mut fast = testbed_net();
                fast.set_incremental(true);
                fast.set_map_storage(false);
                fast.set_hierarchical(true);
                // Map-backed storage with the global dirty-link BFS.
                let mut mapg = testbed_net();
                mapg.set_incremental(true);
                mapg.set_map_storage(true);
                mapg.set_hierarchical(false);
                // The from-scratch oracle.
                let mut full = testbed_net();
                full.set_incremental(false);
                let mut now = Nanos::ZERO;
                let mut live: Vec<(FlowId, u32, u32)> = Vec::new();
                for &(kind, a, b, c, d) in &ops {
                    match kind {
                        0..=3 => {
                            let (s, t) = (a % 8, b % 8);
                            if s == t { continue; }
                            let spec = FlowSpec::ecmp(nic(s), nic(t), Bytes::mib(1 + c % 64), d)
                                .with_tenant(a % 3);
                            let mut ids = Vec::new();
                            for n in [&mut fast, &mut mapg, &mut full] {
                                ids.push(n.start_flow(now, spec));
                            }
                            prop_assert!(ids.windows(2).all(|w| w[0] == w[1]),
                                "ids diverged across modes: {:?}", ids);
                            live.push((ids[0], s, t));
                        }
                        4 => {
                            if live.is_empty() { continue; }
                            let (id, _, _) = live.remove((c as usize) % live.len());
                            for n in [&mut fast, &mut mapg, &mut full] {
                                n.cancel_flow(now, id);
                            }
                        }
                        5 => {
                            // Host crash: everything touching one NIC dies,
                            // freeing arena slots for the next starts.
                            let victim = nic(a % 8);
                            for n in [&mut fast, &mut mapg, &mut full] {
                                n.kill_flows_touching_nic(now, victim);
                            }
                            live.retain(|(id, _, _)| fast.contains(*id));
                        }
                        6 => {
                            now += Nanos::from_micros(1 + c % 2000);
                            let mut done: Vec<Vec<(FlowId, Nanos)>> = Vec::new();
                            for n in [&mut fast, &mut mapg, &mut full] {
                                done.push(
                                    n.advance_to(now).iter()
                                        .map(|x| (x.id, x.finished_at)).collect(),
                                );
                            }
                            prop_assert_eq!(
                                done[0].iter().map(|x| x.0).collect::<Vec<_>>(),
                                done[1].iter().map(|x| x.0).collect::<Vec<_>>()
                            );
                            for (i, &(id, t0)) in done[0].iter().enumerate() {
                                let t1 = done[1][i].1;
                                prop_assert!(
                                    t0.as_nanos().abs_diff(t1.as_nanos()) <= 1,
                                    "completion diverged for {:?}: {} vs {}", id, t0, t1
                                );
                            }
                            // Oracle completions may reorder within a tick
                            // relative to the incremental nets only through
                            // ±1ns rounding; compare as sets.
                            let k2: BTreeMap<FlowId, Nanos> = done[2].iter().copied().collect();
                            for &(id, t0) in &done[0] {
                                let t2 = k2.get(&id).copied();
                                prop_assert!(t2.is_some(), "oracle missed completion {:?}", id);
                                prop_assert!(
                                    t0.as_nanos().abs_diff(t2.unwrap().as_nanos()) <= 1,
                                    "oracle completion diverged for {:?}", id
                                );
                            }
                            live.retain(|(id, _, _)| fast.contains(*id));
                        }
                        _ => {
                            if live.is_empty() { continue; }
                            let (id, s, t) = live[(c as usize) % live.len()];
                            if (s < 4) == (t < 4) { continue; }
                            let route = RouteId((d % 2) as u32);
                            for n in [&mut fast, &mut mapg, &mut full] {
                                n.repin_flow(now, id, route);
                            }
                        }
                    }
                    for &(id, _, _) in &live {
                        let r0 = fast.flow_rate(id).as_bps();
                        let r1 = mapg.flow_rate(id).as_bps();
                        let r2 = full.flow_rate(id).as_bps();
                        prop_assert!(
                            (r0 - r1).abs() <= r1.abs() * 1e-9 + 1e-3,
                            "rate diverged for {:?}: hier {} vs global {}", id, r0, r1
                        );
                        prop_assert!(
                            (r0 - r2).abs() <= r2.abs() * 1e-9 + 1e-3,
                            "rate diverged for {:?}: hier {} vs oracle {}", id, r0, r2
                        );
                    }
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
