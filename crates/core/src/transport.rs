//! The transport engine — one per NIC.
//!
//! Turns inter-host edge tasks into network flows, applying the
//! provider's route choice (the explicit pinning behind FFA/PFA) and the
//! time-window traffic schedules behind TS: a gated application's sends
//! are admitted only while its window is open, and its in-flight flows are
//! paused outside windows.
//!
//! With a fault plan installed the transport also watches its flows for
//! stalls (rate pinned at zero past `FLOW_TIMEOUT`) and for
//! fault-injected kills, retrying each with exponential backoff on an
//! alternate route, and cleanly failing the owning collective once
//! `FLOW_MAX_RETRIES` are spent. Route selection is degradation-aware: each equal-cost route
//! is weighted by its bottleneck effective capacity and picked
//! proportionally under the configured
//! [`DegradationPolicy`](crate::config::DegradationPolicy), so a
//! half-capacity link keeps half its share instead of being abandoned,
//! and the same sweep that detects stalls rebalances in-flight flows off
//! browned-out routes (with hysteresis, keeping their progress). Without
//! a plan none of this machinery runs: no timers, no per-flow checks,
//! byte-identical traces.

use crate::flat::FlatMap;
use crate::health::FailureEvent;
use crate::messages::{EdgeSend, TransportMsg};
use crate::qos::TrafficWindows;
use crate::world::{resources, World};
use mccs_ipc::{AppId, CommunicatorId};
use mccs_netsim::{FlowId, FlowSpec, RouteChoice};
use mccs_sim::{Bandwidth, Bytes, Engine, Nanos, Poll, ResourceId};
use mccs_topology::{NicId, RouteId};
use std::collections::{BTreeMap, VecDeque};

/// How long a flow may make no progress before the transport retries it
/// on another route; also the period of the stall sweep and the base of
/// the retry backoff. Armed only under a fault plan.
const FLOW_TIMEOUT: Nanos = Nanos::from_millis(2);

/// Retries per flow (with exponential backoff) before the owning
/// collective is cleanly failed back to the tenant.
const FLOW_MAX_RETRIES: u32 = 4;

/// The invariant behind a completion or kill notice: the world routes one
/// only to the NIC that `start_flow` registered as the flow's owner, and
/// the owner entry goes exactly when the flow leaves `active` (a
/// completion, a kill notice, or a cancel in the stall sweep).
const OWNED_FLOW: &str = "a flow notice reaches only the transport that started the flow, \
                          once: the world's owner table names it and is cleared with the flow";

#[derive(Debug)]
struct ActiveFlow {
    app: AppId,
    token: u64,
    paused: bool,
    comm: CommunicatorId,
    seq: u64,
    dst_nic: NicId,
    bytes: Bytes,
    /// Completed start attempts (0 = original send, never retried).
    attempts: u32,
    /// When this flow was first observed making no progress (plan-gated).
    stalled_since: Option<Nanos>,
}

/// A flow awaiting its backoff-delayed restart.
#[derive(Debug)]
struct RetryEntry {
    app: AppId,
    token: u64,
    comm: CommunicatorId,
    seq: u64,
    dst_nic: NicId,
    bytes: Bytes,
    /// The attempt number this restart will be (1-based).
    attempts: u32,
    /// The route the previous attempt died on. Route weights only
    /// reflect observed link state, so a nominally-fine route that just
    /// timed out would otherwise be eligible again; its weight is zeroed
    /// in the selection whenever an alternative has capacity left.
    exclude: Option<RouteId>,
}

impl RetryEntry {
    /// The next attempt of `f`, which just died on `exclude`.
    fn after(f: &ActiveFlow, exclude: Option<RouteId>) -> Self {
        RetryEntry {
            app: f.app,
            token: f.token,
            comm: f.comm,
            seq: f.seq,
            dst_nic: f.dst_nic,
            bytes: f.bytes,
            attempts: f.attempts + 1,
            exclude,
        }
    }
}

/// The per-NIC transport engine.
pub struct TransportEngine {
    nic: NicId,
    /// Ordered so sweeps visit flows in `FlowId` order — iteration order
    /// is observable through retry/rebalance event ordering, and digests
    /// must match across processes. Flat-sorted: per-NIC tables are small
    /// but there are O(NICs) of them, swept every poll.
    active: FlatMap<FlowId, ActiveFlow>,
    windows: BTreeMap<AppId, TrafficWindows>,
    /// Sends of gated applications waiting for their window to open.
    pending: VecDeque<EdgeSend>,
    /// The window boundary last armed: the earliest next boundary across
    /// every gated application, so two schedules on one NIC share one
    /// timer.
    scheduled_wake: Option<Nanos>,
    /// Backoff-delayed restarts, as `(due, entry)`.
    retries: Vec<(Nanos, RetryEntry)>,
    /// Next stall-sweep instant already armed (plan-gated machinery).
    next_stall_check: Option<Nanos>,
}

impl TransportEngine {
    /// The transport for `nic`.
    pub fn new(nic: NicId) -> Self {
        TransportEngine {
            nic,
            active: FlatMap::new(),
            windows: BTreeMap::new(),
            pending: VecDeque::new(),
            scheduled_wake: None,
            retries: Vec::new(),
            next_stall_check: None,
        }
    }

    /// What this transport's own timers signal: its inbox, always watched.
    fn doorbell(&self) -> ResourceId {
        resources::transport_inbox(self.nic.index() as u32)
    }

    fn app_open(&self, app: AppId, now: Nanos) -> bool {
        self.windows.get(&app).is_none_or(|w| w.is_open(now))
    }

    /// Arm a wake at the earliest next boundary of any gated application,
    /// unless that instant is already armed.
    fn arm_next_boundary(&mut self, w: &mut World) {
        let Some(b) = self
            .windows
            .values()
            .map(|win| win.next_boundary(w.clock))
            .min()
        else {
            return;
        };
        if self.scheduled_wake != Some(b) {
            w.signal_at(b, self.doorbell());
            self.scheduled_wake = Some(b);
        }
    }

    fn start_send(&mut self, w: &mut World, send: EdgeSend) {
        self.start_flow(
            w,
            ActiveFlow {
                app: send.app,
                token: send.token,
                paused: false,
                comm: send.comm,
                seq: send.seq,
                dst_nic: send.dst_nic,
                bytes: send.bytes,
                attempts: 0,
                stalled_since: None,
            },
            send.route,
        );
    }

    fn start_flow(&mut self, w: &mut World, flow: ActiveFlow, route: RouteChoice) {
        let spec = FlowSpec {
            src: self.nic,
            dst: flow.dst_nic,
            bytes: Some(flow.bytes),
            routing: route,
            rate_cap: None,
            tag: flow.token,
            guaranteed: false,
            tenant: flow.app.0,
        };
        let now = w.clock;
        let id = w.net.start_flow(now, spec);
        w.flow_owner_nic
            .insert(id.0, crate::world::FlowOwner::Transport(self.nic.index()));
        self.active.insert(id, flow);
    }

    /// Queue a restart for a dead flow on `retries`, or fail its
    /// collective when the retry budget is spent. `attempts` is the count
    /// of starts already consumed; a delayed restart signals `doorbell`.
    fn schedule_retry(
        w: &mut World,
        doorbell: ResourceId,
        retries: &mut Vec<(Nanos, RetryEntry)>,
        entry: RetryEntry,
    ) {
        if entry.attempts > FLOW_MAX_RETRIES {
            let (comm, seq) = w.fail_token(entry.token);
            w.health.counters.flow_failures += 1;
            w.health.record(FailureEvent::FlowExhausted {
                comm,
                seq,
                at: w.clock,
            });
            return;
        }
        // First retry is immediate (the kill/stall already cost a
        // detection delay); later ones back off exponentially.
        let due = if entry.attempts <= 1 {
            w.clock
        } else {
            let backoff = FLOW_TIMEOUT.mul_f64(f64::from(1u32 << (entry.attempts - 2).min(16)));
            w.clock + backoff
        };
        if due > w.clock {
            w.signal_at(due, doorbell);
        }
        // A retry due *now* needs no wake: this poll round keeps polling
        // until every engine idles, and `run_due_retries` picks it up on
        // the next pass. A same-instant Wake would linger in the event
        // queue (everything due has already been drained) as a stale head.
        retries.push((due, entry));
    }

    /// Restart retries whose backoff elapsed, re-pinning each by weighted
    /// selection over the surviving routes' bottleneck capacities.
    fn run_due_retries(&mut self, w: &mut World) -> bool {
        let now = w.clock;
        let mut progressed = false;
        let due: Vec<RetryEntry> = {
            let mut rest = Vec::new();
            let mut due = Vec::new();
            for (t, e) in self.retries.drain(..) {
                if t <= now {
                    due.push(e);
                } else {
                    rest.push((t, e));
                }
            }
            self.retries = rest;
            due
        };
        for entry in due {
            let policy = w.svc.degradation;
            let mut weights = route_weights(w, self.nic, entry.dst_nic);
            // Never re-pin straight back onto the route that just failed
            // this flow — unless it is the only one left with capacity.
            if let Some(bad) = entry.exclude {
                let others = weights
                    .iter()
                    .enumerate()
                    .any(|(i, &x)| i != bad.0 as usize && x > 0.0);
                if others {
                    weights[bad.0 as usize] = 0.0;
                }
            }
            let key = selection_key(entry.token, entry.attempts);
            let Some(idx) = policy.select(&weights, key) else {
                // Nowhere to go right now: burn an attempt and try again
                // later (the cap guarantees termination).
                Self::schedule_retry(
                    w,
                    self.doorbell(),
                    &mut self.retries,
                    RetryEntry {
                        attempts: entry.attempts + 1,
                        ..entry
                    },
                );
                continue;
            };
            let route = RouteId(idx as u32);
            w.health.counters.flow_retries += 1;
            if weights.iter().any(|&x| policy.usable_weight(x) <= 0.0) {
                // We actively detoured around a dead, excluded, or
                // below-threshold route.
                w.health.counters.flow_repins += 1;
            }
            w.health.record(FailureEvent::FlowRetried {
                comm: entry.comm,
                seq: entry.seq,
                attempt: entry.attempts,
                at: now,
            });
            self.start_flow(
                w,
                ActiveFlow {
                    app: entry.app,
                    token: entry.token,
                    paused: false,
                    comm: entry.comm,
                    seq: entry.seq,
                    dst_nic: entry.dst_nic,
                    bytes: entry.bytes,
                    attempts: entry.attempts,
                    stalled_since: None,
                },
                RouteChoice::Pinned(route),
            );
            progressed = true;
        }
        progressed
    }

    /// Detect flows pinned at zero rate (a dead link on their path) and
    /// cancel-and-retry those stalled past the timeout; rebalance moving
    /// flows off browned-out routes per the degradation policy.
    /// Plan-gated.
    fn sweep_stalls(&mut self, w: &mut World) -> bool {
        let now = w.clock;
        if self.next_stall_check.is_some_and(|t| now < t) {
            // Keep the armed wake; nothing to do yet.
            return false;
        }
        let mut progressed = false;
        let (nic, doorbell, retries) = (self.nic, self.doorbell(), &mut self.retries);
        // One pass in `FlowId` order; a flow stalled past the timeout
        // leaves `active` where it stands.
        self.active.retain(|&id, f| {
            if f.paused {
                f.stalled_since = None;
                return true;
            }
            if w.net.flow_rate(id) > Bandwidth::ZERO {
                f.stalled_since = None;
                progressed |= maybe_rebalance(w, nic, id, f.app, f.comm, f.seq);
                return true;
            }
            match f.stalled_since {
                None => {
                    f.stalled_since = Some(now);
                    true
                }
                Some(since) if now - since >= FLOW_TIMEOUT => {
                    // Remember which route starved the flow before we
                    // tear it down, so the retry avoids it.
                    let failing_route = w.net.flow_route(id).map(|r| r.id);
                    w.net.cancel_flow(now, id);
                    w.flow_owner_nic.remove(id.0);
                    Self::schedule_retry(w, doorbell, retries, RetryEntry::after(f, failing_route));
                    progressed = true;
                    false
                }
                Some(_) => true,
            }
        });
        if !self.active.is_empty() || !self.retries.is_empty() {
            let next = now + FLOW_TIMEOUT;
            w.signal_at(next, self.doorbell());
            self.next_stall_check = Some(next);
        } else {
            self.next_stall_check = None;
        }
        progressed
    }

    fn handle_msg(&mut self, w: &mut World, msg: TransportMsg) {
        match msg {
            TransportMsg::Send(send) => {
                if self.app_open(send.app, w.clock) {
                    self.start_send(w, send);
                } else {
                    self.pending.push_back(send);
                    self.arm_next_boundary(w);
                }
            }
            TransportMsg::SetWindows { app, windows } => {
                self.scheduled_wake = None;
                match windows {
                    Some(win) => {
                        self.windows.insert(app, win);
                        self.arm_next_boundary(w);
                    }
                    None => {
                        self.windows.remove(&app);
                    }
                }
            }
        }
    }

    /// Whether a poll now would be idle, after one that ran every stage:
    /// notices and the inbox are drained and window state is applied
    /// with its next boundary armed. Under a fault plan a retry may be
    /// due now (a stall found by this poll's sweep retries at once), and
    /// a flow started after the sweep has no sweep armed for it yet.
    fn drained(&self, w: &World) -> bool {
        if w.fault_plan.is_none() {
            return true;
        }
        let watched =
            self.next_stall_check.is_some() || (self.active.is_empty() && self.retries.is_empty());
        watched && self.retries.iter().all(|&(due, _)| due > w.clock)
    }

    /// Apply window state to in-flight flows and pending sends.
    fn enforce_windows(&mut self, w: &mut World) -> bool {
        let now = w.clock;
        let mut progressed = false;
        // Pause / resume active flows of gated apps.
        for (&id, f) in self.active.iter_mut() {
            let open = self.windows.get(&f.app).is_none_or(|win| win.is_open(now));
            if f.paused == open {
                // state mismatch: paused && open -> resume; !paused && !open -> pause
                w.net.set_paused(now, id, !open);
                f.paused = !open;
                progressed = true;
            }
        }
        // Admit pending sends whose window opened.
        for send in std::mem::take(&mut self.pending) {
            if self.app_open(send.app, now) {
                self.start_send(w, send);
                progressed = true;
            } else {
                self.pending.push_back(send);
            }
        }
        // Keep a wake-up armed while anything is gated.
        if !self.active.is_empty() || !self.pending.is_empty() {
            self.arm_next_boundary(w);
        }
        progressed
    }
}

/// Bottleneck weight of every equal-cost route from `src` to `dst`,
/// indexed by `RouteId`.
fn route_weights(w: &World, src: NicId, dst: NicId) -> Vec<f64> {
    let diversity = w.topo.path_diversity(src, dst);
    (0..diversity)
        .map(|i| w.net.route_weight(src, dst, RouteId(i as u32)))
        .collect()
}

/// Stable per-flow selection key: FNV-1a over the flow token and attempt
/// number, so repeated sweeps agree on where a flow belongs while
/// distinct flows spread proportionally across the weight line.
fn selection_key(token: u64, attempt: u32) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in token
        .to_le_bytes()
        .into_iter()
        .chain(u64::from(attempt).to_le_bytes())
    {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Move one in-flight flow toward the route with the best estimated
/// max-min share when the degradation policy says so, keeping its
/// progress (a repin, not a retry). Estimated shares fold together the
/// bottleneck effective capacity, the flows already on each path, and
/// the cross-tenant sharing penalty — so under a brownout, flows split
/// between the degraded and healthy spines proportionally to what each
/// can actually deliver instead of piling onto the survivor. Returns
/// whether the flow moved.
fn maybe_rebalance(
    w: &mut World,
    nic: NicId,
    id: FlowId,
    app: AppId,
    comm: CommunicatorId,
    seq: u64,
) -> bool {
    let Some(route) = w.net.flow_route(id) else {
        return false;
    };
    let current = route.id.0 as usize;
    let dst = route.dst;
    let policy = w.svc.degradation;
    let weights = route_weights(w, nic, dst);
    if weights.iter().all(|&x| x >= 1.0) {
        // Fully healthy fabric between this pair (the common case):
        // nothing to rebalance around.
        return false;
    }
    let line = w.topo.nic(nic).bandwidth.as_bps();
    let score = |i: usize| -> f64 {
        w.net
            .estimate_route_share(nic, dst, RouteId(i as u32), app.0, Some(id))
            .as_bps()
            / line
    };
    // Best usable route by estimated share; ties keep the lowest id.
    let mut best: Option<(usize, f64)> = None;
    for (i, &wt) in weights.iter().enumerate() {
        if policy.usable_weight(wt) <= 0.0 {
            continue;
        }
        let s = score(i);
        if best.is_none_or(|(_, bs)| s > bs) {
            best = Some((i, s));
        }
    }
    let Some((idx, best_score)) = best else {
        return false;
    };
    if idx == current {
        return false;
    }
    // A flow on a usable route only moves when the alternative clears the
    // hysteresis band; one on an unusable route moves unconditionally.
    if policy.usable_weight(weights[current]) > 0.0
        && best_score - score(current) <= policy.rebalance_hysteresis
    {
        return false;
    }
    w.net.repin_flow(w.clock, id, RouteId(idx as u32));
    w.health.counters.flow_rebalances += 1;
    w.health.record(FailureEvent::FlowRebalanced {
        comm,
        seq,
        at: w.clock,
    });
    true
}

impl Engine<World> for TransportEngine {
    fn progress(&mut self, w: &mut World) -> Poll {
        // A crashed host freezes its transports (plan-gated; no check at
        // all on the fault-free path).
        if w.fault_plan.is_some() && w.health.is_host_down(w.topo.nics()[self.nic.index()].host) {
            return Poll::Idle;
        }
        let mut progressed = false;
        // Flow completions routed to us by the world.
        let completions = std::mem::take(&mut w.transport_flow_events[self.nic.index()]);
        for c in completions {
            let f = self.active.remove(&c.id).expect(OWNED_FLOW);
            w.complete_token(f.token, c.finished_at);
            progressed = true;
        }
        // Fault-killed flows routed to us by the world: retry immediately.
        // (Only ever populated by an installed fault plan.)
        let failures = std::mem::take(&mut w.transport_flow_failures[self.nic.index()]);
        for id in failures {
            let f = self.active.remove(&id).expect(OWNED_FLOW);
            // The net may still know the killed flow's route; if so, steer
            // the retry away from it.
            let failing_route = w.net.flow_route(id).map(|r| r.id);
            Self::schedule_retry(
                w,
                self.doorbell(),
                &mut self.retries,
                RetryEntry::after(&f, failing_route),
            );
            progressed = true;
        }
        // New commands.
        loop {
            let now = w.clock;
            let Some(msg) = w.transport_inbox[self.nic.index()].pop(now) else {
                break;
            };
            self.handle_msg(w, msg);
            progressed = true;
        }
        // Failure machinery (plan-gated: inert on production runs).
        if w.fault_plan.is_some() {
            progressed |= self.run_due_retries(w);
            progressed |= self.sweep_stalls(w);
        }
        // QoS window enforcement.
        progressed |= self.enforce_windows(w);
        match (progressed, self.drained(w)) {
            (false, _) => Poll::Idle,
            (true, true) => Poll::Drained,
            (true, false) => Poll::Progressed,
        }
    }

    fn wake_when(&self, w: &World, on: &mut Vec<ResourceId>) {
        let plan = w.fault_plan.is_some();
        // Frozen on a crashed host: only a health event (HostUp) matters.
        if plan && w.health.is_host_down(w.topo.nics()[self.nic.index()].host) {
            on.push(resources::health_channel());
            return;
        }
        // Commands from proxies and this transport's own timers, and flow
        // completions / kill notices routed to this NIC by the world.
        on.push(self.doorbell());
        on.push(resources::transport_flow(self.nic.index() as u32));
        if !plan {
            // Installing a plan arms the retry/stall timers.
            on.push(resources::fault_plan_installed());
        }
    }

    fn name(&self) -> String {
        format!("transport({})", self.nic)
    }
}
