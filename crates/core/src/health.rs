//! Failure observability — the health half of the management plane.
//!
//! The service records every fault it observes (links and hosts going
//! down, up, or degrading, flow retries, stalled collectives) and every
//! corrective action it takes (re-pins, rebalances, recoveries, clean
//! failures) in a single [`HealthRegistry`] on the world. Every recorded
//! event is also published on a bounded, sequence-numbered
//! [`HealthChannel`]: subscribers ([`RecoveryEngine`], the controller's
//! health monitor) consume per-event deliveries instead of polling, and
//! a subscriber that falls behind the ring gets a snapshot-resync marker
//! rather than silently missing events. The read accessors
//! (`links_down()`, `hosts_down()`, `events()`, the counters) are the
//! state itself as `Management`, the observable digest and the explorer
//! read it; the channel is how a reacting subscriber learns what changed.
//! With no fault plan installed nothing ever writes here, so an
//! all-default registry doubles as the zero-overhead regression check.
//!
//! [`RecoveryEngine`]: crate::recovery::RecoveryEngine

use mccs_ipc::CommunicatorId;
use mccs_sim::Nanos;
use mccs_topology::{GpuId, HostId, LinkId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One observed failure or recovery action, timestamped in virtual time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureEvent {
    /// A link lost all capacity.
    LinkDown {
        /// The failed link.
        link: LinkId,
        /// When it went down.
        at: Nanos,
    },
    /// A link came back.
    LinkUp {
        /// The repaired link.
        link: LinkId,
        /// When it came back.
        at: Nanos,
    },
    /// A host crashed (its service engines froze).
    HostDown {
        /// The crashed host.
        host: HostId,
        /// When it crashed.
        at: Nanos,
    },
    /// A crashed host warm-restarted.
    HostUp {
        /// The restarted host.
        host: HostId,
        /// When it restarted.
        at: Nanos,
    },
    /// A link degraded to a fraction of line rate (or recovered back to
    /// it — `milli == 1000` clears the degradation).
    LinkDegraded {
        /// The degraded link.
        link: LinkId,
        /// Remaining capacity in thousandths of line rate (integer so the
        /// event stays `Copy`/`Eq`; 1000 = restored to full rate).
        milli: u32,
        /// When the degradation was observed.
        at: Nanos,
    },
    /// A transport moved an in-flight flow to a better-weighted route
    /// under the degradation policy (progress kept, no retry burned).
    FlowRebalanced {
        /// Owning communicator.
        comm: CommunicatorId,
        /// The collective the flow belongs to.
        seq: u64,
        /// When the flow was re-pinned.
        at: Nanos,
    },
    /// A transport retried a stalled or killed flow.
    FlowRetried {
        /// Owning communicator.
        comm: CommunicatorId,
        /// The collective the flow belongs to.
        seq: u64,
        /// Retry attempt number (1-based).
        attempt: u32,
        /// When the retry fired.
        at: Nanos,
    },
    /// A transport gave up on a flow after exhausting its retries.
    FlowExhausted {
        /// Owning communicator.
        comm: CommunicatorId,
        /// The collective the flow belonged to.
        seq: u64,
        /// When retries ran out.
        at: Nanos,
    },
    /// A rank finished draining and applied a new configuration epoch —
    /// the per-rank completion notification of the Figure 4 protocol.
    /// The controller retires a drain obligation once every rank of the
    /// communicator has reported (and runs its fail-back retirement
    /// check when the drain was restorative). Only recorded under a
    /// fault plan, like the rest of the liveness machinery.
    ReconfigApplied {
        /// The communicator.
        comm: CommunicatorId,
        /// The reporting rank's GPU.
        gpu: GpuId,
        /// The epoch now in effect on this rank.
        epoch: u64,
        /// When the drain completed.
        at: Nanos,
    },
    /// A proxy's liveness timer fired on an in-flight collective.
    CollectiveStalled {
        /// The communicator.
        comm: CommunicatorId,
        /// The stalled collective.
        seq: u64,
        /// When the timer fired.
        at: Nanos,
    },
    /// The recovery engine issued a corrective reconfiguration.
    RecoveryIssued {
        /// The communicator being re-formed.
        comm: CommunicatorId,
        /// The target epoch of the corrective configuration.
        epoch: u64,
        /// When it was issued.
        at: Nanos,
    },
    /// A proxy rejected a reconfiguration request (unknown communicator,
    /// wrong epoch, mid-barrier, or a route pin no route answers to)
    /// instead of panicking.
    ReconfigRejected {
        /// The communicator named by the request.
        comm: CommunicatorId,
        /// When it was rejected.
        at: Nanos,
    },
    /// The recovery engine issued a *restorative* reconfiguration after a
    /// repair: the communicator's detour pins / dropped rings were rolled
    /// back toward the policy's healthy-fabric choice.
    FailbackIssued {
        /// The communicator being restored.
        comm: CommunicatorId,
        /// The target epoch of the restorative configuration.
        epoch: u64,
        /// When it was issued.
        at: Nanos,
    },
}

impl FailureEvent {
    /// Whether publishing this event should raise the health-channel wake
    /// edge. Topology transitions and stall reports demand subscriber
    /// action (the recovery engine reroutes; crashed-host engines park on
    /// the channel waiting for their `HostUp`). The service's own action
    /// reports — retries, rebalances, issued recoveries/fail-backs,
    /// rejections — are informational: every engine that cares is the one
    /// that just recorded them, so waking subscribers for them is a
    /// guaranteed wasted poll (the recovery engine re-readied by its own
    /// `RecoveryIssued`). They still reach subscribers on the next
    /// genuine wake — the channel cursor, not the edge, carries the data.
    pub fn wakes_subscribers(&self) -> bool {
        match self {
            FailureEvent::LinkDown { .. }
            | FailureEvent::LinkUp { .. }
            | FailureEvent::HostDown { .. }
            | FailureEvent::HostUp { .. }
            | FailureEvent::LinkDegraded { .. }
            | FailureEvent::ReconfigApplied { .. }
            | FailureEvent::CollectiveStalled { .. } => true,
            FailureEvent::FlowRebalanced { .. }
            | FailureEvent::FlowRetried { .. }
            | FailureEvent::FlowExhausted { .. }
            | FailureEvent::RecoveryIssued { .. }
            | FailureEvent::ReconfigRejected { .. }
            | FailureEvent::FailbackIssued { .. } => false,
        }
    }
}

/// Monotonic recovery counters the management API exposes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HealthCounters {
    /// Flows restarted after a stall or kill.
    pub flow_retries: u64,
    /// Retries that moved the flow to a different equal-cost route.
    pub flow_repins: u64,
    /// In-flight flows moved to a better-weighted route by the
    /// degradation sweep (progress kept, no retry burned).
    pub flow_rebalances: u64,
    /// Gauge: links currently running below line rate (brownouts, as
    /// opposed to the `links_down` blackout set).
    pub links_degraded: u64,
    /// Flows abandoned after exhausting retries.
    pub flow_failures: u64,
    /// `CollectiveFailed` completions delivered to tenant ranks.
    pub collectives_failed: u64,
    /// Corrective reconfigurations issued by the recovery engine.
    pub recoveries: u64,
    /// Barrier gossip resends after suspected control-message loss.
    pub gossip_resends: u64,
    /// Reconfiguration requests rejected instead of applied.
    pub reconfig_rejects: u64,
    /// Restorative reconfigurations issued after a repair returned the
    /// fabric to health (detour pins rolled back).
    pub failbacks: u64,
}

/// Engine-scheduler efficiency counters, synced from the runtime pool
/// after every run loop. Kept separate from [`HealthCounters`]: scheduler
/// choice is not observable behaviour, so these must stay out of the
/// trace digest and the [`HealthRegistry::is_quiet`] invariant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Engine polls issued by the pool.
    pub polls: u64,
    /// Polls that returned `Idle` (no work done).
    pub wasted_polls: u64,
    /// Parked engines readied by a resource signal or deadline.
    pub wakes: u64,
}

/// Default capacity of the bounded health push channel.
pub const DEFAULT_HEALTH_CHANNEL_CAPACITY: usize = 256;

/// Bounded, sequence-numbered ring of published [`FailureEvent`]s.
///
/// Every event gets an absolute sequence number (0-based, never reused).
/// When the ring is full the oldest event is dropped and `base_seq`
/// advances — a subscriber whose cursor falls below `base_seq` missed
/// events and is handed a snapshot resync instead of a gapped stream.
#[derive(Debug)]
pub struct HealthChannel {
    buf: VecDeque<FailureEvent>,
    /// Sequence number of `buf[0]`.
    base_seq: u64,
    capacity: usize,
}

impl Default for HealthChannel {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_HEALTH_CHANNEL_CAPACITY)
    }
}

impl HealthChannel {
    /// An empty channel holding at most `capacity` undelivered events.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "health channel needs room for one event");
        HealthChannel {
            buf: VecDeque::with_capacity(capacity.min(64)),
            base_seq: 0,
            capacity,
        }
    }

    /// Sequence number the next published event will get.
    pub fn next_seq(&self) -> u64 {
        self.base_seq + self.buf.len() as u64
    }

    fn publish(&mut self, event: FailureEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.base_seq += 1;
        }
        self.buf.push_back(event);
    }
}

/// A subscriber's cursor into the [`HealthChannel`].
#[derive(Clone, Copy, Debug)]
pub struct HealthSubscription {
    /// Next sequence number this subscriber has not yet seen.
    next_seq: u64,
}

impl HealthSubscription {
    /// A cursor at sequence zero: the subscriber sees every event ever
    /// published (or a resync if the ring already rolled past zero).
    pub fn from_start() -> Self {
        HealthSubscription { next_seq: 0 }
    }

    /// A cursor at an explicit sequence number — used to resume a
    /// checkpointed subscription after a controller restart. If the ring
    /// has already rolled past `seq`, the next poll resyncs.
    pub fn at(seq: u64) -> Self {
        HealthSubscription { next_seq: seq }
    }

    /// The next sequence number this subscription expects.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

/// What one [`HealthRegistry::poll`] hands a subscriber.
#[derive(Clone, Debug)]
pub enum HealthDelivery {
    /// In-order events with their absolute sequence numbers (empty when
    /// the subscriber is caught up).
    Events(Vec<(u64, FailureEvent)>),
    /// The subscriber fell behind the bounded ring and lost events; the
    /// snapshot re-establishes current status and the cursor resumes at
    /// the ring's oldest retained event.
    Resync(HealthSnapshot),
}

/// Current health status, handed out on channel overflow resync.
#[derive(Clone, Debug)]
pub struct HealthSnapshot {
    /// Links currently down.
    pub links_down: Vec<LinkId>,
    /// Hosts currently crashed.
    pub hosts_down: Vec<HostId>,
    /// Links currently degraded, with remaining milli-capacity.
    pub links_degraded: Vec<(LinkId, u32)>,
    /// Counter values at snapshot time.
    pub counters: HealthCounters,
    /// How many events this subscriber missed.
    pub lost: u64,
    /// Sequence number the subscription resumes at.
    pub resumed_at_seq: u64,
}

/// Per-link/host status plus the failure event log, push channel, and
/// counters.
#[derive(Debug, Default)]
pub struct HealthRegistry {
    links_down: BTreeSet<LinkId>,
    hosts_down: BTreeSet<HostId>,
    /// Degraded links with remaining milli-capacity (1..=999).
    links_degraded: BTreeMap<LinkId, u32>,
    events: Vec<FailureEvent>,
    channel: HealthChannel,
    /// Monotonic counters (public: hot paths bump them directly).
    pub counters: HealthCounters,
    /// Scheduler efficiency counters (not observable behaviour: excluded
    /// from the digest and from [`Self::is_quiet`]).
    pub scheduler: SchedulerStats,
    /// Edge flag: an event was published since the last `take_signal`.
    /// The world's wake plumbing drains this into the health-channel
    /// resource so subscribed engines are readied.
    signal: bool,
}

impl HealthRegistry {
    /// A fresh, all-healthy registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh registry whose push channel retains at most `capacity`
    /// events (older ones roll off into a resync snapshot).
    pub fn with_channel_capacity(capacity: usize) -> Self {
        HealthRegistry {
            channel: HealthChannel::with_capacity(capacity),
            ..Self::default()
        }
    }

    /// Record a link going down.
    pub fn link_down(&mut self, link: LinkId, at: Nanos) {
        if self.links_down.insert(link) {
            self.push(FailureEvent::LinkDown { link, at });
        }
    }

    /// Record a link repair.
    pub fn link_up(&mut self, link: LinkId, at: Nanos) {
        if self.links_down.remove(&link) {
            self.push(FailureEvent::LinkUp { link, at });
        }
    }

    /// Record a link degrading to `milli`/1000 of line rate; 1000 clears
    /// the degradation. Duplicates (same link, same fraction) are not
    /// re-logged, mirroring the down/up dedup.
    pub fn link_degraded(&mut self, link: LinkId, milli: u32, at: Nanos) {
        let milli = milli.min(1000);
        let changed = if milli >= 1000 {
            self.links_degraded.remove(&link).is_some()
        } else {
            self.links_degraded.insert(link, milli) != Some(milli)
        };
        if changed {
            self.counters.links_degraded = self.links_degraded.len() as u64;
            self.push(FailureEvent::LinkDegraded { link, milli, at });
        }
    }

    /// Record a host crash.
    pub fn host_down(&mut self, host: HostId, at: Nanos) {
        if self.hosts_down.insert(host) {
            self.push(FailureEvent::HostDown { host, at });
        }
    }

    /// Record a host restart.
    pub fn host_up(&mut self, host: HostId, at: Nanos) {
        if self.hosts_down.remove(&host) {
            self.push(FailureEvent::HostUp { host, at });
        }
    }

    /// Append a non-topology failure event.
    pub fn record(&mut self, event: FailureEvent) {
        self.push(event);
    }

    fn push(&mut self, event: FailureEvent) {
        self.channel.publish(event);
        self.events.push(event);
        self.signal |= event.wakes_subscribers();
    }

    /// Consume the edge flag raised by any publication since the last
    /// call (wake plumbing; see the `signal` field).
    pub fn take_signal(&mut self) -> bool {
        std::mem::take(&mut self.signal)
    }

    /// Whether this host is currently crashed.
    pub fn is_host_down(&self, host: HostId) -> bool {
        self.hosts_down.contains(&host)
    }

    /// Links currently down.
    pub fn links_down(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.links_down.iter().copied()
    }

    /// Hosts currently down.
    pub fn hosts_down(&self) -> impl Iterator<Item = HostId> + '_ {
        self.hosts_down.iter().copied()
    }

    /// Links currently degraded, with remaining milli-capacity.
    pub fn links_degraded(&self) -> impl Iterator<Item = (LinkId, u32)> + '_ {
        self.links_degraded.iter().map(|(&l, &m)| (l, m))
    }

    /// The full failure event log, in observation order.
    pub fn events(&self) -> &[FailureEvent] {
        &self.events
    }

    // ---- push channel -----------------------------------------------------

    /// Subscribe from the current channel tail: the subscription sees
    /// only events published after this call.
    pub fn subscribe(&self) -> HealthSubscription {
        HealthSubscription {
            next_seq: self.channel.next_seq(),
        }
    }

    /// Drain everything published since the subscription's cursor. If the
    /// cursor fell behind the bounded ring the delivery is a
    /// [`HealthDelivery::Resync`] carrying a status snapshot, and the
    /// cursor jumps to the ring's oldest retained event.
    pub fn poll(&self, sub: &mut HealthSubscription) -> HealthDelivery {
        let ch = &self.channel;
        if sub.next_seq < ch.base_seq {
            let lost = ch.base_seq - sub.next_seq;
            sub.next_seq = ch.base_seq;
            return HealthDelivery::Resync(HealthSnapshot {
                links_down: self.links_down.iter().copied().collect(),
                hosts_down: self.hosts_down.iter().copied().collect(),
                links_degraded: self.links_degraded.iter().map(|(&l, &m)| (l, m)).collect(),
                counters: self.counters,
                lost,
                resumed_at_seq: ch.base_seq,
            });
        }
        let skip = (sub.next_seq - ch.base_seq) as usize;
        let out: Vec<(u64, FailureEvent)> = ch
            .buf
            .iter()
            .enumerate()
            .skip(skip)
            .map(|(i, &ev)| (ch.base_seq + i as u64, ev))
            .collect();
        sub.next_seq = ch.next_seq();
        HealthDelivery::Events(out)
    }

    /// True when nothing was ever recorded — the invariant a run without
    /// a fault plan must preserve.
    pub fn is_quiet(&self) -> bool {
        self.events.is_empty()
            && self.links_down.is_empty()
            && self.hosts_down.is_empty()
            && self.links_degraded.is_empty()
            && self.counters == HealthCounters::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_sets_dedupe_and_log_everything() {
        let mut h = HealthRegistry::new();
        assert!(h.is_quiet());
        h.link_down(LinkId(3), Nanos::from_micros(1));
        h.link_down(LinkId(3), Nanos::from_micros(2));
        assert!(h.links_down().eq([LinkId(3)]));
        assert_eq!(h.events().len(), 1, "duplicate down not re-logged");
        h.link_up(LinkId(3), Nanos::from_micros(5));
        assert_eq!(h.links_down().count(), 0);
        h.host_down(HostId(1), Nanos::from_micros(6));
        assert!(h.is_host_down(HostId(1)));
        assert_eq!(h.events().len(), 3);
        assert!(!h.is_quiet());
    }

    #[test]
    fn counters_break_quiet() {
        let mut h = HealthRegistry::new();
        h.counters.flow_retries += 1;
        assert!(!h.is_quiet());
    }

    #[test]
    fn degraded_links_gauge_and_dedup() {
        let mut h = HealthRegistry::new();
        h.link_degraded(LinkId(2), 500, Nanos::from_micros(1));
        h.link_degraded(LinkId(2), 500, Nanos::from_micros(2));
        assert_eq!(h.events().len(), 1, "same fraction not re-logged");
        assert!(h.links_degraded().eq([(LinkId(2), 500)]));
        assert_eq!(h.counters.links_degraded, 1);
        h.link_degraded(LinkId(2), 250, Nanos::from_micros(3));
        assert_eq!(h.events().len(), 2, "deeper degrade is news");
        assert_eq!(h.counters.links_degraded, 1);
        h.link_degraded(LinkId(2), 1000, Nanos::from_micros(4));
        assert_eq!(h.counters.links_degraded, 0);
        assert_eq!(h.links_degraded().count(), 0);
        assert!(!h.is_quiet(), "the event log remembers the brownout");
    }

    #[test]
    fn channel_delivers_in_order_with_seq_numbers() {
        let mut h = HealthRegistry::new();
        let mut sub = h.subscribe();
        h.link_down(LinkId(1), Nanos::from_micros(1));
        h.link_degraded(LinkId(2), 500, Nanos::from_micros(2));
        match h.poll(&mut sub) {
            HealthDelivery::Events(evs) => {
                assert_eq!(evs.len(), 2);
                assert_eq!(evs[0].0, 0);
                assert_eq!(evs[1].0, 1);
                assert!(matches!(evs[0].1, FailureEvent::LinkDown { .. }));
                assert!(matches!(
                    evs[1].1,
                    FailureEvent::LinkDegraded { milli: 500, .. }
                ));
            }
            d => panic!("expected events, got {d:?}"),
        }
        // Caught up: next poll is empty, and a late subscriber sees only
        // what comes after its subscribe().
        assert!(matches!(h.poll(&mut sub), HealthDelivery::Events(e) if e.is_empty()));
        let mut late = h.subscribe();
        h.host_down(HostId(1), Nanos::from_micros(3));
        match h.poll(&mut late) {
            HealthDelivery::Events(evs) => {
                assert_eq!(evs.len(), 1);
                assert_eq!(evs[0].0, 2);
            }
            d => panic!("expected events, got {d:?}"),
        }
    }

    #[test]
    fn channel_overflow_resyncs_with_snapshot() {
        let mut h = HealthRegistry::new();
        let mut sub = HealthSubscription::from_start();
        // Blow well past the ring capacity with alternating degrades.
        for i in 0..(DEFAULT_HEALTH_CHANNEL_CAPACITY as u32 + 50) {
            let milli = 100 + (i % 2) * 100;
            h.link_degraded(LinkId(3), milli, Nanos::from_micros(u64::from(i)));
        }
        h.link_down(LinkId(7), Nanos::from_secs(1));
        match h.poll(&mut sub) {
            HealthDelivery::Resync(snap) => {
                assert_eq!(snap.lost, 51);
                assert_eq!(snap.resumed_at_seq, sub.next_seq());
                assert_eq!(snap.links_down, vec![LinkId(7)]);
                assert_eq!(snap.links_degraded.len(), 1);
                assert_eq!(snap.counters.links_degraded, 1);
            }
            d => panic!("expected resync, got {d:?}"),
        }
        // After the resync the subscriber streams normally again.
        match h.poll(&mut sub) {
            HealthDelivery::Events(evs) => {
                assert_eq!(evs.len(), DEFAULT_HEALTH_CHANNEL_CAPACITY);
                assert!(matches!(
                    evs.last().unwrap().1,
                    FailureEvent::LinkDown { .. }
                ));
            }
            d => panic!("expected events, got {d:?}"),
        }
    }
}
