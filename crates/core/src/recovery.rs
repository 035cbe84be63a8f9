//! Failure-driven reconfiguration: the service-side recovery loop.
//!
//! The [`RecoveryEngine`] subscribes to the world's bounded
//! [`HealthChannel`](crate::health::HealthChannel) (it is the first
//! consumer of the push path — no polling of the event log) and turns
//! deliveries into corrective [`CollectiveConfig`]s, re-entering the
//! Figure 4 reconfiguration protocol with a strategy rebuilt around the
//! failure. Concurrent failures are **coalesced**: every event in one
//! delivery batch is folded into a single set of affected communicators,
//! and each gets at most one corrective drain per batch — two links
//! dying in the same instant cost one reconfiguration, not serial
//! re-drains. The config itself comes from a pluggable
//! [`RecoveryPolicy`]; the built-in [`DetourPolicy`] re-pins inter-host
//! connections onto the best-weighted surviving routes and drops whole
//! channels only when a connection has no route left, degrading
//! bandwidth gracefully instead of deadlocking.
//!
//! The engine is inert without a fault plan installed: it polls `Idle`
//! immediately, adding zero overhead to fault-free runs.
//!
//! ## Crash tolerance
//!
//! The engine is the compute half of a crashable controller whose durable
//! state lives in the world ([`crate::world::ControllerState`]): in-flight drain
//! obligations, the detoured set, fail-back baselines, and the health
//! cursor. That state is checkpointed opportunistically (at most every
//! [`controller_checkpoint_interval`](crate::config::ServiceConfig)).
//! While the controller is down the engine freezes — the cursor stops,
//! events pile into the bounded channel, and a long outage exercises the
//! overflow→snapshot resync for real. The first poll after a restart runs
//! a reconciliation pass: re-drive unobserved drains (deduped by
//! `(comm, epoch)` so a completed drain is retired without sending a
//! byte), re-mark pinned communicators as fail-back candidates, and
//! resume (or resync) the health cursor from the checkpoint.

use crate::config::{CollectiveConfig, RouteMap};
use crate::flat::FlatMap;
use crate::health::{FailureEvent, HealthDelivery, HealthSubscription};
use crate::world::{resources, DrainObligation, World};
use mccs_collectives::{connections, RingOrder};
use mccs_ipc::CommunicatorId;
use mccs_netsim::RouteChoice;
use mccs_sim::{Engine, Poll, ResourceId};
use mccs_topology::{GpuId, NicId, RouteId};
use std::collections::BTreeSet;

/// A controller policy that proposes a corrective strategy for a
/// communicator after a failure. Returning `None` means no healthy
/// strategy exists (the recovery engine then lets the per-collective
/// attempt cap fail the stalled work to the tenants).
pub trait RecoveryPolicy: Send {
    /// Propose `(channel_rings, routes)` for `comm` given the current
    /// (failed-under) configuration. Implementations read link health from
    /// `w.net` / `w.health`.
    fn plan(
        &self,
        w: &World,
        comm: CommunicatorId,
        current: &CollectiveConfig,
        world_gpus: &[GpuId],
    ) -> Option<(Vec<RingOrder>, RouteMap)>;
}

/// The built-in policy: keep the current rings, pin every inter-host
/// connection to its best-weighted usable route (under the service's
/// [`DegradationPolicy`](crate::config::DegradationPolicy); a degraded
/// route is kept only when nothing better survives), and drop a
/// channel's ring entirely when one of its connections has no route with
/// capacity at all. Dropping a ring shifts the channel-to-NIC assignment
/// of the remaining channels, so the schedule is recomputed after every
/// removal.
#[derive(Debug, Default, Clone, Copy)]
pub struct DetourPolicy;

impl DetourPolicy {
    /// Best surviving route id for a NIC pair, if any: highest usable
    /// weight, lowest id on ties (so a fully healthy fabric pins the
    /// first route, as before degradation awareness); falls back to the
    /// least-degraded route when everything usable is gone.
    fn best_route(w: &World, src: NicId, dst: NicId) -> Option<RouteId> {
        let policy = w.svc.degradation;
        let mut best: Option<(RouteId, f64)> = None;
        let mut fallback: Option<(RouteId, f64)> = None;
        for i in 0..w.topo.path_diversity(src, dst) {
            let r = RouteId(i as u32);
            let weight = w.net.route_weight(src, dst, r);
            let usable = policy.usable_weight(weight);
            if usable > 0.0 && best.as_ref().is_none_or(|&(_, bw)| usable > bw) {
                best = Some((r, usable));
            }
            if weight > 0.0 && fallback.as_ref().is_none_or(|&(_, fw)| weight > fw) {
                fallback = Some((r, weight));
            }
        }
        best.or(fallback).map(|(r, _)| r)
    }
}

impl RecoveryPolicy for DetourPolicy {
    fn plan(
        &self,
        w: &World,
        _comm: CommunicatorId,
        current: &CollectiveConfig,
        _world_gpus: &[GpuId],
    ) -> Option<(Vec<RingOrder>, RouteMap)> {
        let mut rings = current.channel_rings.clone();
        loop {
            if rings.is_empty() {
                return None;
            }
            let mut routes = RouteMap::ecmp();
            let dead = connections(&w.topo, &rings).find_map(|(channel, src_nic, dst_nic)| {
                match Self::best_route(w, src_nic, dst_nic) {
                    Some(r) => {
                        routes.pin(channel, src_nic, dst_nic, r);
                        None
                    }
                    None => Some(channel),
                }
            });
            let Some(channel) = dead else {
                return Some((rings, routes));
            };
            // No path at all between this pair: the channel cannot
            // run. Drop its ring and rebuild — the channel-to-NIC
            // mapping of the survivors shifts.
            rings.remove(channel);
        }
    }
}

/// The failure-monitoring engine (one per cluster). Subscribes to the
/// health push channel, issues corrective reconfigurations (coalescing a
/// batch of concurrent failures into one drain per communicator), and
/// aborts collectives whose recovery attempts are exhausted.
///
/// Durable working state (issued obligations, detours, baselines) lives
/// in [`World::controller`], not here: the engine is the crashable
/// process, the world-resident [`crate::world::ControllerState`] is what checkpoints
/// preserve across its death. Only the stall-attempt counters stay
/// engine-local — losing them on a crash merely lets a stuck collective
/// earn a fresh round of attempts from the recurring liveness timers.
pub struct RecoveryEngine {
    /// Cursor into the world's health push channel.
    sub: HealthSubscription,
    /// Recovery attempts per stalled collective, in a dense sorted-vec
    /// table (the live set is tiny; see [`crate::flat`]). Deliberately
    /// volatile: wiped by a controller restart.
    attempts: FlatMap<(CommunicatorId, u64), u32>,
    /// Communicators whose fail-back evaluation was deferred because a
    /// repair edge arrived while their drain was still in flight (ranks
    /// non-uniform, no new barrier possible). The retirement sweep runs
    /// the check when the drain completes. Volatile like `attempts`: a
    /// restarted controller's first poll re-observes the repair (replay
    /// or resync) and re-defers.
    deferred_failback: BTreeSet<CommunicatorId>,
}

/// Minimum bottleneck route weight across `comm`'s current inter-host
/// connections (pinned or ECMP-resolved): 1.0 for a healthy or
/// fully-intra-host communicator, 0.0 when some connection crosses a
/// dead link. Shared with the controller's health monitor.
pub fn comm_min_route_weight(w: &World, comm: CommunicatorId) -> f64 {
    let Some(rank) = w
        .comms
        .iter()
        .find(|((c, _), _)| *c == comm)
        .map(|(_, r)| r)
    else {
        return 1.0;
    };
    let cfg = &rank.config;
    let mut min = 1.0f64;
    for (channel, src_nic, dst_nic) in connections(&w.topo, &cfg.channel_rings) {
        let paths = w.topo.route_set(src_nic, dst_nic);
        let id = match cfg.route_choice(comm, channel, src_nic, dst_nic) {
            RouteChoice::Pinned(id) => id,
            RouteChoice::Ecmp { hash } => paths.ecmp_id(hash),
        };
        for l in paths.links(id) {
            min = min.min(w.net.link_weight(l));
        }
    }
    min
}

impl RecoveryEngine {
    /// A fresh engine, subscribed from the start of the health stream.
    pub fn new() -> Self {
        RecoveryEngine {
            sub: HealthSubscription::from_start(),
            attempts: FlatMap::new(),
            deferred_failback: BTreeSet::new(),
        }
    }

    /// Whether every rank of `comm` sits in `Normal` at or past `target`
    /// — the observable definition of "this drain completed". False for
    /// an unknown or partially-registered communicator.
    fn drain_complete(w: &World, comm: CommunicatorId, target: u64) -> bool {
        let mut world_size = None;
        let mut seen = 0usize;
        for ((c, _), r) in w.comms.iter() {
            if *c != comm {
                continue;
            }
            seen += 1;
            world_size = Some(r.world_gpus.len());
            if !(r.reconfig.is_settled() && r.config.epoch >= target) {
                return false;
            }
        }
        world_size.is_some_and(|n| seen == n)
    }

    /// Whether `comm`'s current configuration routes over a link the
    /// degradation policy deems unusable (dead, or browned out below the
    /// route-around threshold).
    fn comm_needs_reroute(w: &World, comm: CommunicatorId) -> bool {
        w.svc
            .degradation
            .usable_weight(comm_min_route_weight(w, comm))
            <= 0.0
    }

    /// Issue a corrective reconfiguration for `comm` if its ranks are in a
    /// state that can accept one and the policy finds a healthy strategy.
    fn try_recover(&mut self, w: &mut World, comm: CommunicatorId) {
        let ranks: Vec<_> = w
            .comms
            .iter()
            .filter(|((c, _), _)| *c == comm)
            .map(|(_, r)| r)
            .collect();
        let Some(first) = ranks.first() else {
            return;
        };
        let world_gpus = first.world_gpus.clone();
        // Only a fully registered, quiescent-protocol communicator can
        // enter a new barrier; otherwise wait for the next stall report.
        if ranks.len() != world_gpus.len() {
            return;
        }
        let epoch = first.config.epoch;
        let uniform = ranks
            .iter()
            .all(|r| r.reconfig.is_settled() && r.config.epoch == epoch);
        let current = first.config.clone();
        drop(ranks);
        if !uniform {
            return;
        }
        let target = epoch + 1;
        // Rate-limit: a corrective Req for this epoch may still be in
        // flight (control latency); duplicates are idempotent at the
        // proxies but cost messages.
        if let Some(ob) = w.controller.live.issued.get(&comm) {
            if ob.config.epoch >= target && w.clock < ob.issued_at + w.svc.liveness_timeout {
                return;
            }
        }
        let policy = w.recovery_policy.take();
        let proposal = match &policy {
            Some(p) => p.plan(w, comm, &current, &world_gpus),
            None => DetourPolicy.plan(w, comm, &current, &world_gpus),
        };
        w.recovery_policy = policy;
        let Some((rings, routes)) = proposal else {
            // Nothing healthy to switch to; the attempt cap will fail the
            // stalled collectives to their tenants.
            return;
        };
        let config = CollectiveConfig {
            epoch: target,
            channel_rings: rings,
            routes,
        };
        let incarnation = w.controller.incarnation;
        for &gpu in &world_gpus {
            w.send_control(
                gpu,
                crate::messages::ProxyMsg::Reconfigure {
                    comm,
                    incarnation,
                    config: config.clone(),
                },
            );
        }
        w.controller.live.issued.insert(
            comm,
            DrainObligation {
                config,
                issued_at: w.clock,
                restorative: false,
            },
        );
        // Remember what "healthy" looked like so a later repair can
        // restore it; only the first detour snapshots the baseline.
        w.controller
            .live
            .baselines
            .entry(comm)
            .or_insert_with(|| current.channel_rings.clone());
        w.controller.live.detoured.insert(comm);
        w.health.counters.recoveries += 1;
        w.health.record(FailureEvent::RecoveryIssued {
            comm,
            epoch: target,
            at: w.clock,
        });
    }

    /// After a repair, roll a previously-detoured communicator back
    /// toward the policy's healthy-fabric choice. The proposal is
    /// recomputed from the baseline rings captured before the first
    /// detour (so channels dropped during the outage return), and is
    /// issued only when it differs from the current configuration — a
    /// detour that already matches the healthy plan retires for free.
    fn try_failback(&mut self, w: &mut World, comm: CommunicatorId) {
        let ranks: Vec<_> = w
            .comms
            .iter()
            .filter(|((c, _), _)| *c == comm)
            .map(|(_, r)| r)
            .collect();
        let Some(first) = ranks.first() else {
            // The communicator is gone; forget its detour state.
            drop(ranks);
            w.controller.live.detoured.remove(&comm);
            w.controller.live.baselines.remove(&comm);
            w.controller.live.issued.remove(&comm);
            return;
        };
        let world_gpus = first.world_gpus.clone();
        if ranks.len() != world_gpus.len() {
            return;
        }
        let epoch = first.config.epoch;
        let uniform = ranks
            .iter()
            .all(|r| r.reconfig.is_settled() && r.config.epoch == epoch);
        let current = first.config.clone();
        drop(ranks);
        if !uniform {
            return;
        }
        let baseline_rings = w
            .controller
            .live
            .baselines
            .get(&comm)
            .cloned()
            .unwrap_or_else(|| current.channel_rings.clone());
        let from = CollectiveConfig {
            epoch,
            channel_rings: baseline_rings,
            routes: current.routes.clone(),
        };
        let policy = w.recovery_policy.take();
        let proposal = match &policy {
            Some(p) => p.plan(w, comm, &from, &world_gpus),
            None => DetourPolicy.plan(w, comm, &from, &world_gpus),
        };
        w.recovery_policy = policy;
        let Some((rings, routes)) = proposal else {
            return;
        };
        if rings == current.channel_rings && routes == current.routes {
            // Already on the healthy-fabric choice — detour retired.
            w.controller.live.detoured.remove(&comm);
            w.controller.live.baselines.remove(&comm);
            return;
        }
        let target = epoch + 1;
        if let Some(ob) = w.controller.live.issued.get(&comm) {
            if ob.config.epoch >= target && w.clock < ob.issued_at + w.svc.liveness_timeout {
                return;
            }
        }
        let config = CollectiveConfig {
            epoch: target,
            channel_rings: rings,
            routes,
        };
        let incarnation = w.controller.incarnation;
        for &gpu in &world_gpus {
            w.send_control(
                gpu,
                crate::messages::ProxyMsg::Reconfigure {
                    comm,
                    incarnation,
                    config: config.clone(),
                },
            );
        }
        w.controller.live.issued.insert(
            comm,
            DrainObligation {
                config,
                issued_at: w.clock,
                restorative: true,
            },
        );
        // Stays in `detoured`: the next repair-quiet pass retires it once
        // the applied config matches the healthy plan (partial repairs
        // may take several steps back to baseline).
        w.health.counters.failbacks += 1;
        w.health.record(FailureEvent::FailbackIssued {
            comm,
            epoch: target,
            at: w.clock,
        });
    }

    /// Fold one delivery batch into the set of communicators needing a
    /// corrective drain. Topology events (link down/degrade) are
    /// evaluated once against every communicator after the whole batch
    /// is applied — N simultaneous failures on one communicator coalesce
    /// into a single recovery — and stall reports are folded into the
    /// same set after their attempt accounting.
    fn handle_batch(&mut self, w: &mut World, events: &[(u64, FailureEvent)], resync: bool) {
        let retired = self.sweep_controller_state(w);
        let mut topo_changed = resync;
        // A repair is a topology change too: it makes *better* routes
        // exist, so previously-detoured communicators get a fail-back
        // pass. On resync we cannot tell what was missed, so assume one.
        let mut repaired = resync;
        let mut to_recover: BTreeSet<CommunicatorId> = BTreeSet::new();
        for &(_, ev) in events {
            match ev {
                FailureEvent::LinkDown { .. } => {
                    topo_changed = true;
                }
                FailureEvent::LinkDegraded { milli, .. } => {
                    topo_changed = true;
                    // milli == 1000 is a brownout clearing — a repair.
                    repaired |= milli == 1000;
                }
                FailureEvent::LinkUp { .. } | FailureEvent::HostUp { .. } => {
                    repaired = true;
                }
                FailureEvent::CollectiveStalled { comm, seq, .. } => {
                    // A stall report can outlive its collective — channel
                    // latency, or a restarted controller replaying the
                    // stream from its checkpointed cursor. Acting on one
                    // would issue a spurious corrective drain, so consult
                    // current progress first.
                    let finished = w
                        .progress
                        .get(&(comm, seq))
                        .is_some_and(|p| p.completed_at.is_some() || p.failed);
                    if finished {
                        continue;
                    }
                    let a = self.attempts.get_or_insert((comm, seq), 0);
                    if *a >= w.svc.recovery_max_attempts {
                        w.abort_collective(comm, seq);
                    } else {
                        *a += 1;
                        to_recover.insert(comm);
                    }
                }
                // Drain completions were already consumed by the sweep
                // above; informational events need no corrective action.
                FailureEvent::ReconfigApplied { .. }
                | FailureEvent::HostDown { .. }
                | FailureEvent::FlowRetried { .. }
                | FailureEvent::FlowRebalanced { .. }
                | FailureEvent::FlowExhausted { .. }
                | FailureEvent::RecoveryIssued { .. }
                | FailureEvent::ReconfigRejected { .. }
                | FailureEvent::FailbackIssued { .. } => {}
            }
        }
        if topo_changed {
            let comms: Vec<CommunicatorId> = {
                let mut v: Vec<CommunicatorId> = w.comms.keys().map(|(c, _)| *c).collect();
                v.dedup();
                v
            };
            for comm in comms {
                if Self::comm_needs_reroute(w, comm) {
                    to_recover.insert(comm);
                }
            }
        }
        for comm in to_recover {
            self.try_recover(w, comm);
        }
        // Corrective work first, restorative second: a communicator that
        // is still broken was just re-issued above and the rate limiter
        // keeps fail-back from double-sending. A repair edge re-evaluates
        // every detour; a completed drain owed a check gets its
        // retirement pass (silent when the config already matches the
        // healthy plan, another step toward baseline after a partial
        // repair).
        let mut failback_pass: BTreeSet<CommunicatorId> = retired.into_iter().collect();
        if repaired {
            failback_pass.extend(w.controller.live.detoured.iter().copied());
            // A detoured communicator mid-drain cannot enter a new
            // barrier now; its fail-back evaluation runs when the drain
            // retires (the repair edge itself is consumed this batch).
            self.deferred_failback
                .extend(w.controller.live.issued.keys().copied());
        }
        for comm in failback_pass {
            self.try_failback(w, comm);
        }
    }

    /// Drop controller state for communicators that no longer exist and
    /// retire drain obligations whose completion has been observed (the
    /// ranks' `ReconfigApplied` reports wake this pass). This is the fix
    /// for unbounded detour-baseline growth: a destroyed communicator
    /// used to pin its remembered pre-failure rings (and attempt
    /// counters) forever. Returns the communicators owing a fail-back
    /// check: every completed *restorative* drain, plus any completed
    /// drain whose fail-back evaluation a repair edge deferred while it
    /// was in flight.
    fn sweep_controller_state(&mut self, w: &mut World) -> Vec<CommunicatorId> {
        let completed: Vec<(CommunicatorId, bool)> = w
            .controller
            .live
            .issued
            .iter()
            .filter(|&(&c, ob)| Self::drain_complete(w, c, ob.config.epoch))
            .map(|(&c, ob)| (c, ob.restorative))
            .collect();
        let mut needs_check = Vec::new();
        for (c, restorative) in completed {
            w.controller.live.issued.remove(&c);
            let deferred = self.deferred_failback.remove(&c);
            if restorative || deferred {
                needs_check.push(c);
            }
        }
        let existing: BTreeSet<CommunicatorId> = w.comms.keys().map(|(c, _)| *c).collect();
        let live = &mut w.controller.live;
        live.issued.retain(|c, _| existing.contains(c));
        live.detoured.retain(|c| existing.contains(c));
        live.baselines.retain(|c, _| existing.contains(c));
        self.attempts.retain(|(c, _), _| existing.contains(c));
        self.deferred_failback.retain(|c| existing.contains(c));
        needs_check.retain(|c| existing.contains(c));
        needs_check
    }

    /// Take a checkpoint of the controller's working state if the
    /// configured interval has elapsed. Opportunistic — called from polls
    /// the engine receives anyway, never waking for it: the state only
    /// changes when the engine runs, so an idle gap has nothing new to
    /// save, and quiescence detection stays untouched.
    fn maybe_checkpoint(&mut self, w: &mut World) {
        let due = match w.controller.last_checkpoint_at {
            None => true,
            Some(t) => w.clock >= t + w.svc.controller_checkpoint_interval,
        };
        if !due {
            return;
        }
        let mut snap = w.controller.live.clone();
        snap.channel_seq = self.sub.next_seq();
        w.controller.checkpoint = Some(snap);
        w.controller.last_checkpoint_at = Some(w.clock);
        w.controller.stats.checkpoints += 1;
    }

    /// Post-restart reconciliation: rebuild a coherent controller from
    /// the checkpoint the restart restored, in a fixed order — (1) wipe
    /// the volatile stall-attempt memory, (2) resume the health cursor at
    /// the checkpointed sequence (a long outage overflowed the ring and
    /// the next poll resyncs instead), (3) re-drive every drain whose
    /// completion was never observed, (4) conservatively re-mark
    /// route-pinned communicators as fail-back candidates so detours the
    /// dead incarnation issued after the checkpoint still retire once the
    /// fabric heals.
    fn reconcile(&mut self, w: &mut World) {
        w.controller.pending_restart = false;
        self.attempts.clear();
        self.sub = HealthSubscription::at(w.controller.live.channel_seq);
        let issued: Vec<(CommunicatorId, DrainObligation)> = w
            .controller
            .live
            .issued
            .iter()
            .map(|(&c, ob)| (c, ob.clone()))
            .collect();
        for (comm, ob) in issued {
            self.redrive(w, comm, &ob);
        }
        // Pinned routes are the recovery path's signature (default
        // configurations are ECMP): treat every pinned communicator as
        // possibly-detoured. A repair edge replans it from its baseline
        // and the mark retires for free when it already matches the
        // healthy plan — the false positives cost nothing observable.
        let pinned: Vec<(CommunicatorId, Vec<RingOrder>)> = {
            let mut seen = BTreeSet::new();
            w.comms
                .iter()
                .filter(|((c, _), r)| !r.config.routes.is_empty() && seen.insert(*c))
                .map(|((c, _), r)| (*c, r.config.channel_rings.clone()))
                .collect()
        };
        for (comm, rings) in pinned {
            w.controller.live.detoured.insert(comm);
            w.controller.live.baselines.entry(comm).or_insert(rings);
        }
        w.controller.stats.reconciliations += 1;
    }

    /// Re-drive one checkpointed drain obligation after a restart,
    /// deduped by `(comm, epoch)`: when the drain visibly completed
    /// before the crash the obligation is retired **without sending
    /// anything** — control sends draw RNG jitter, so even a duplicate
    /// the ranks would drop must not leave the controller. This is what
    /// makes re-driving an already-converged drain observably a no-op.
    /// Otherwise the *same* checkpointed config is resent under the new
    /// incarnation: ranks that applied it drop the duplicate epoch, ranks
    /// that missed it enter the barrier.
    fn redrive(&mut self, w: &mut World, comm: CommunicatorId, ob: &DrainObligation) {
        let ranks: Vec<_> = w
            .comms
            .iter()
            .filter(|((c, _), _)| *c == comm)
            .map(|(_, r)| r)
            .collect();
        let Some(first) = ranks.first() else {
            // Destroyed while we were dead; nothing left to drain.
            w.controller.live.issued.remove(&comm);
            return;
        };
        let world_gpus = first.world_gpus.clone();
        if ranks.len() != world_gpus.len() {
            // Mid-teardown; the sweep retires the obligation when the
            // last rank goes.
            return;
        }
        drop(ranks);
        if Self::drain_complete(w, comm, ob.config.epoch) {
            w.controller.live.issued.remove(&comm);
            if ob.restorative {
                // The fail-back finished while we were dead; run the
                // retirement check its completion report would have
                // triggered (silent when already on the healthy plan).
                self.try_failback(w, comm);
            }
            return;
        }
        let incarnation = w.controller.incarnation;
        for &gpu in &world_gpus {
            w.send_control(
                gpu,
                crate::messages::ProxyMsg::Reconfigure {
                    comm,
                    incarnation,
                    config: ob.config.clone(),
                },
            );
        }
        w.controller.live.issued.insert(
            comm,
            DrainObligation {
                config: ob.config.clone(),
                issued_at: w.clock,
                restorative: ob.restorative,
            },
        );
        w.controller.live.detoured.insert(comm);
    }
}

impl Default for RecoveryEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine<World> for RecoveryEngine {
    fn progress(&mut self, w: &mut World) -> Poll {
        // Inert without a fault plan: zero work on production runs.
        if w.fault_plan.is_none() {
            return Poll::Idle;
        }
        if w.controller.down {
            // The controller process is dead: the cursor freezes (events
            // pile into the bounded channel for the restart to drain or
            // resync over) and no recovery runs.
            return Poll::Idle;
        }
        let reconciled = if w.controller.pending_restart {
            self.reconcile(w);
            true
        } else {
            false
        };
        let outcome = match w.health.poll(&mut self.sub) {
            HealthDelivery::Events(events) if events.is_empty() => {
                if reconciled {
                    Poll::Progressed
                } else {
                    Poll::Idle
                }
            }
            HealthDelivery::Events(events) => {
                self.handle_batch(w, &events, false);
                if !reconciled && !events.iter().any(|(_, e)| e.wakes_subscribers()) {
                    // Purely-informational batch (e.g. our own
                    // `RecoveryIssued` read back under a polling
                    // scheduler): `handle_batch` was a no-op by
                    // construction, so report it honestly as idle.
                    Poll::Idle
                } else {
                    Poll::Progressed
                }
            }
            HealthDelivery::Resync(_) => {
                // Events were lost to channel overflow: conservatively
                // re-check every communicator against current link state.
                // Missed stall reports re-arrive from the proxies'
                // recurring liveness timers.
                self.handle_batch(w, &[], true);
                Poll::Progressed
            }
        };
        // Checkpoint *after* the batch so obligations issued this poll
        // are already durable — the freshest state a restart can restore.
        self.maybe_checkpoint(w);
        outcome
    }

    fn wake_when(&self, w: &World, on: &mut Vec<ResourceId>) {
        if w.fault_plan.is_none() {
            // Inert until a plan arrives; `install_fault_plan` signals.
            on.push(resources::fault_plan_installed());
        } else if w.controller.down {
            // Parked until the restart signal.
            on.push(resources::controller_status());
        } else {
            // Driven by health-channel pushes; controller status is
            // watched too so a same-instant crash+restart pair still
            // triggers the reconciliation poll.
            on.push(resources::health_channel());
            on.push(resources::controller_status());
        }
    }

    fn name(&self) -> String {
        "recovery".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServiceConfig;
    use mccs_device::DeviceConfig;
    use mccs_ipc::IpcConfig;
    use mccs_topology::presets;
    use std::sync::Arc;

    fn world() -> World {
        World::new(
            Arc::new(presets::testbed()),
            DeviceConfig::default(),
            IpcConfig::default(),
            ServiceConfig::default(),
            7,
        )
    }

    #[test]
    fn detour_pins_healthy_routes() {
        let w = world();
        let world_gpus: Vec<GpuId> = (0..4).map(GpuId).collect();
        let current = CollectiveConfig::default_for(&w.topo, &world_gpus);
        let (rings, routes) = DetourPolicy
            .plan(&w, CommunicatorId(0), &current, &world_gpus)
            .expect("healthy fabric must yield a plan");
        assert_eq!(rings.len(), current.channel_rings.len());
        // Every pinned route must be healthy (trivially, with no faults).
        for (&(_, src, dst), &r) in routes.iter() {
            assert!(w.net.route_healthy(src, dst, r));
        }
    }

    #[test]
    fn detour_avoids_dead_links() {
        let mut w = world();
        let world_gpus: Vec<GpuId> = (0..4).map(GpuId).collect();
        let current = CollectiveConfig::default_for(&w.topo, &world_gpus);
        // Kill one inter-switch link; with two spines an alternate exists.
        let spine = w
            .topo
            .links()
            .iter()
            .find(|l| {
                use mccs_topology::graph::Endpoint;
                matches!(l.from, Endpoint::Switch(_)) && matches!(l.to, Endpoint::Switch(_))
            })
            .map(|l| l.id)
            .expect("testbed has switch-to-switch links");
        w.net.set_link_up(mccs_sim::Nanos::ZERO, spine, false);
        let (_, routes) = DetourPolicy
            .plan(&w, CommunicatorId(0), &current, &world_gpus)
            .expect("an alternate spine remains");
        for (&(_, src, dst), &r) in routes.iter() {
            let route = w.topo.pinned_route(src, dst, r);
            assert!(
                !route.links.contains(&spine),
                "detour pinned a route over the dead link"
            );
            assert!(w.net.route_healthy(src, dst, r));
        }
    }
}
