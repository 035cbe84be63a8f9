//! Deterministic fault schedules over virtual time.
//!
//! A [`FaultPlan`] is a turmoil-style script: a sorted timeline of
//! [`FaultEvent`]s the harness replays at exact virtual instants, plus
//! per-message directives for the control ring ([`ControlFault`], keyed by
//! the message's send ordinal). Everything is data — no randomness lives
//! here, so a plan derived from a seeded RNG replays identically, and a
//! simulation with **no plan installed** performs no fault work at all.

use mccs_sim::Nanos;
use mccs_topology::{HostId, LinkId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One scripted fault (or repair) at a point in virtual time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// Take a link down: capacity drops to zero, flows crossing it freeze.
    LinkDown(LinkId),
    /// Bring a link back to full capacity.
    LinkUp(LinkId),
    /// Degrade a link to `milli`/1000 of its capacity (integer so event
    /// timelines stay `Eq`/hashable; 1000 = healthy).
    LinkDegrade {
        /// The degraded link.
        link: LinkId,
        /// Remaining capacity in thousandths of line rate.
        milli: u32,
    },
    /// Degrade several links at once to the same fraction — the correlated
    /// brownout signature of a shared optic bundle or a flapping switch
    /// ASIC, where one physical fault dims a whole group of logical links.
    CorrelatedDegrade {
        /// The degraded link group (shared so the event stays cheap to
        /// clone through the timeline).
        links: Arc<[LinkId]>,
        /// Remaining capacity in thousandths of line rate, applied to
        /// every link in the group.
        milli: u32,
    },
    /// Abort every in-flight flow currently crossing a link (the flows
    /// vanish from the fabric; their owners see a failure, not a stall).
    AbortFlowsOn(LinkId),
    /// Crash a host: its service engines freeze and every flow touching
    /// its NICs is killed.
    CrashHost(HostId),
    /// Warm-restart a crashed host: engines resume with state intact.
    RestartHost(HostId),
    /// Crash the central controller process: health monitoring and
    /// recovery stop running, and health events accumulate in the bounded
    /// push channel until a restart. The data plane keeps moving.
    CrashController,
    /// Restart the crashed controller: it rebuilds its working state from
    /// the last checkpoint and reconciles against the live fabric.
    RestartController,
}

/// What to do to one control-ring message, identified by send ordinal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ControlFault {
    /// The message is lost.
    Drop,
    /// The message is delivered late by this much.
    Delay(Nanos),
}

/// A deterministic, virtual-time fault schedule.
///
/// Build with [`FaultPlan::new`] + [`at`](FaultPlan::at) /
/// [`drop_control`](FaultPlan::drop_control) /
/// [`delay_control`](FaultPlan::delay_control); the harness consumes the
/// timeline in order via [`next_time`](FaultPlan::next_time) and
/// [`pop_due`](FaultPlan::pop_due).
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Time-sorted script (stable under equal times: insertion order).
    timeline: Vec<(Nanos, FaultEvent)>,
    /// Next unconsumed timeline entry.
    cursor: usize,
    /// Control-message directives by send ordinal (0-based, cluster-wide).
    control: BTreeMap<u64, ControlFault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing until populated).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `event` at absolute virtual time `at`.
    pub fn at(mut self, at: Nanos, event: FaultEvent) -> Self {
        self.push_at(at, event);
        self
    }

    /// Schedule `event` at `at` on a plan that is already installed and
    /// partially consumed — the live-injection path of the chaos driver.
    /// `at` must not precede an event that already fired; injecting "at
    /// now" is always safe.
    pub fn push_at(&mut self, at: Nanos, event: FaultEvent) {
        // Stable insert keeps same-instant events in authoring order.
        let pos = self.timeline.partition_point(|(t, _)| *t <= at);
        assert!(
            pos >= self.cursor,
            "cannot schedule a fault at {at} before already-fired events"
        );
        self.timeline.insert(pos, (at, event));
    }

    /// Clamp every unfired event scripted strictly before `now` up to
    /// `now`, preserving authoring order, and return how many were
    /// clamped. Mid-run installs call this so a past-dated script fires
    /// once at install time instead of bursting a fictitious history
    /// (the events still fire — rejecting them would silently drop
    /// faults a test asked for — but their observed times are honest).
    pub fn clamp_before(&mut self, now: Nanos) -> usize {
        let mut clamped = 0;
        for (t, _) in self.timeline[self.cursor..].iter_mut() {
            if *t >= now {
                break;
            }
            *t = now;
            clamped += 1;
        }
        clamped
    }

    /// Schedule a correlated multi-link degrade at `at`: every link in
    /// `links` drops to `milli`/1000 of line rate in the same instant.
    pub fn degrade_group(self, at: Nanos, links: &[LinkId], milli: u32) -> Self {
        self.at(
            at,
            FaultEvent::CorrelatedDegrade {
                links: Arc::from(links),
                milli,
            },
        )
    }

    /// Drop the `ordinal`-th control message sent cluster-wide.
    pub fn drop_control(mut self, ordinal: u64) -> Self {
        self.control.insert(ordinal, ControlFault::Drop);
        self
    }

    /// Delay the `ordinal`-th control message by `by`.
    pub fn delay_control(mut self, ordinal: u64, by: Nanos) -> Self {
        self.control.insert(ordinal, ControlFault::Delay(by));
        self
    }

    /// Whether the scripted timeline is exhausted. Control directives are
    /// *conditional* — they fire only if the matching ordinal is ever
    /// sent — so they do not keep a plan "non-empty" forever.
    pub fn is_empty(&self) -> bool {
        self.cursor >= self.timeline.len()
    }

    /// Time of the next unconsumed scripted event.
    pub fn next_time(&self) -> Option<Nanos> {
        self.timeline.get(self.cursor).map(|(t, _)| *t)
    }

    /// Consume and return every scripted event due at or before `now`,
    /// in time (then authoring) order.
    pub fn pop_due(&mut self, now: Nanos) -> Vec<FaultEvent> {
        let mut out = Vec::new();
        while let Some((t, ev)) = self.timeline.get(self.cursor) {
            if *t > now {
                break;
            }
            out.push(ev.clone());
            self.cursor += 1;
        }
        out
    }

    /// The directive (if any) for the control message with this send
    /// ordinal. Each directive fires once.
    pub fn control_fault(&mut self, ordinal: u64) -> Option<ControlFault> {
        self.control.remove(&ordinal)
    }

    /// Peek at the full remaining timeline (tests, reporting).
    pub fn remaining(&self) -> &[(Nanos, FaultEvent)] {
        &self.timeline[self.cursor.min(self.timeline.len())..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_pops_in_time_then_authoring_order() {
        let mut plan = FaultPlan::new()
            .at(Nanos::from_millis(5), FaultEvent::LinkDown(LinkId(3)))
            .at(Nanos::from_millis(1), FaultEvent::LinkDown(LinkId(1)))
            .at(Nanos::from_millis(5), FaultEvent::LinkUp(LinkId(1)));
        assert_eq!(plan.next_time(), Some(Nanos::from_millis(1)));
        assert_eq!(
            plan.pop_due(Nanos::from_millis(1)),
            vec![FaultEvent::LinkDown(LinkId(1))]
        );
        assert_eq!(plan.next_time(), Some(Nanos::from_millis(5)));
        // same-instant events come out in authoring order
        assert_eq!(
            plan.pop_due(Nanos::from_millis(10)),
            vec![
                FaultEvent::LinkDown(LinkId(3)),
                FaultEvent::LinkUp(LinkId(1))
            ]
        );
        assert_eq!(plan.next_time(), None);
        assert!(plan.is_empty());
    }

    #[test]
    fn control_directives_fire_once() {
        let mut plan = FaultPlan::new()
            .drop_control(2)
            .delay_control(5, Nanos::from_micros(100));
        // Conditional directives never block timeline emptiness: a plan
        // whose ordinals are never sent must still read as drained.
        assert!(plan.is_empty());
        assert_eq!(plan.control.len(), 2);
        assert_eq!(plan.control_fault(0), None);
        assert_eq!(plan.control_fault(2), Some(ControlFault::Drop));
        assert_eq!(plan.control_fault(2), None, "directives are one-shot");
        assert_eq!(
            plan.control_fault(5),
            Some(ControlFault::Delay(Nanos::from_micros(100)))
        );
        assert!(plan.control.is_empty());
        assert!(plan.is_empty());
    }

    #[test]
    fn push_at_inserts_after_consumed_prefix() {
        let mut plan = FaultPlan::new()
            .at(Nanos::from_millis(1), FaultEvent::LinkDown(LinkId(1)))
            .at(Nanos::from_millis(9), FaultEvent::LinkUp(LinkId(1)));
        assert_eq!(plan.pop_due(Nanos::from_millis(1)).len(), 1);
        // Live injection at "now" lands between the consumed prefix and
        // the future script.
        plan.push_at(Nanos::from_millis(4), FaultEvent::LinkDown(LinkId(2)));
        assert_eq!(plan.next_time(), Some(Nanos::from_millis(4)));
        assert_eq!(
            plan.pop_due(Nanos::from_millis(4)),
            vec![FaultEvent::LinkDown(LinkId(2))]
        );
        assert_eq!(plan.next_time(), Some(Nanos::from_millis(9)));
    }

    #[test]
    #[should_panic(expected = "before already-fired events")]
    fn push_at_rejects_rewriting_history() {
        let mut plan = FaultPlan::new().at(Nanos::from_millis(5), FaultEvent::LinkDown(LinkId(1)));
        plan.pop_due(Nanos::from_millis(5));
        plan.push_at(Nanos::from_millis(2), FaultEvent::LinkUp(LinkId(1)));
    }

    #[test]
    fn clamp_before_raises_past_events_in_order() {
        let mut plan = FaultPlan::new()
            .at(Nanos::from_millis(1), FaultEvent::LinkDown(LinkId(1)))
            .at(Nanos::from_millis(2), FaultEvent::LinkDown(LinkId(2)))
            .at(Nanos::from_millis(8), FaultEvent::LinkUp(LinkId(1)));
        assert_eq!(plan.clamp_before(Nanos::from_millis(5)), 2);
        assert_eq!(plan.next_time(), Some(Nanos::from_millis(5)));
        // Authoring order survives the clamp; the future event is intact.
        assert_eq!(
            plan.pop_due(Nanos::from_millis(5)),
            vec![
                FaultEvent::LinkDown(LinkId(1)),
                FaultEvent::LinkDown(LinkId(2))
            ]
        );
        assert_eq!(plan.next_time(), Some(Nanos::from_millis(8)));
        assert_eq!(plan.clamp_before(Nanos::from_millis(6)), 0);
    }

    #[test]
    fn degrade_group_pops_as_one_event() {
        let links = [LinkId(4), LinkId(7)];
        let mut plan = FaultPlan::new().degrade_group(Nanos::from_millis(2), &links, 500);
        let due = plan.pop_due(Nanos::from_millis(2));
        assert_eq!(
            due,
            vec![FaultEvent::CorrelatedDegrade {
                links: Arc::from(&links[..]),
                milli: 500,
            }]
        );
        assert!(plan.is_empty());
    }

    #[test]
    fn empty_plan_is_inert() {
        let mut plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert_eq!(plan.next_time(), None);
        assert!(plan.pop_due(Nanos::from_secs(1)).is_empty());
    }
}
