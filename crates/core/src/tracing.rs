//! Collective tracing (the management-plane observability of §4.3).
//!
//! The service records, per rank, when each collective was issued (reached
//! the proxy), launched (its transfers started) and completed. The
//! controller's TS policy consumes these records to find a prioritized
//! application's idle cycles; experiments use them for JCT and bandwidth
//! accounting.

use mccs_collectives::CollectiveOp;
use mccs_ipc::{AppId, CommunicatorId};
use mccs_sim::{Bytes, Nanos};
use std::collections::HashMap;

/// One rank's view of one collective.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceRecord {
    /// Owning application.
    pub app: AppId,
    /// Communicator.
    pub comm: CommunicatorId,
    /// Rank within the communicator.
    pub rank: usize,
    /// Sequence number.
    pub seq: u64,
    /// Operation.
    pub op: CollectiveOp,
    /// Buffer size.
    pub size: Bytes,
    /// Configuration epoch the collective executed under.
    pub epoch: u64,
    /// When the proxy sequenced it.
    pub issued_at: Nanos,
    /// When its transfers were launched.
    pub launched_at: Option<Nanos>,
    /// When it completed.
    pub completed_at: Option<Nanos>,
    /// When the service cleanly failed it to the tenant (recovery
    /// exhausted); mutually exclusive with `completed_at`.
    pub failed_at: Option<Nanos>,
}

impl TraceRecord {
    /// Issue-to-completion latency, if complete.
    pub fn latency(&self) -> Option<Nanos> {
        self.completed_at.map(|c| c - self.issued_at)
    }
}

/// Append-mostly store of trace records, indexed for updates.
#[derive(Default, Debug)]
pub struct TraceCollector {
    records: Vec<TraceRecord>,
    index: HashMap<(CommunicatorId, usize, u64), usize>,
}

impl TraceCollector {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a newly sequenced collective.
    #[allow(clippy::too_many_arguments)]
    pub fn issued(
        &mut self,
        app: AppId,
        comm: CommunicatorId,
        rank: usize,
        seq: u64,
        op: CollectiveOp,
        size: Bytes,
        at: Nanos,
    ) {
        let key = (comm, rank, seq);
        assert!(
            !self.index.contains_key(&key),
            "duplicate trace issue for {comm} rank {rank} seq {seq}"
        );
        self.index.insert(key, self.records.len());
        self.records.push(TraceRecord {
            app,
            comm,
            rank,
            seq,
            op,
            size,
            epoch: 0,
            issued_at: at,
            launched_at: None,
            completed_at: None,
            failed_at: None,
        });
    }

    /// Record a launch (and the epoch it executed under).
    pub fn launched(&mut self, comm: CommunicatorId, rank: usize, seq: u64, epoch: u64, at: Nanos) {
        let r = self.get_mut(comm, rank, seq);
        r.epoch = epoch;
        r.launched_at = Some(at);
    }

    /// Record a completion.
    pub fn completed(&mut self, comm: CommunicatorId, rank: usize, seq: u64, at: Nanos) {
        let r = self.get_mut(comm, rank, seq);
        debug_assert!(r.launched_at.is_some(), "completed before launch");
        debug_assert!(r.failed_at.is_none(), "completed after clean failure");
        r.completed_at = Some(at);
    }

    /// Record a clean failure (the collective may or may not have launched
    /// on this rank — a rank can fail a queued collective another rank's
    /// transport already gave up on).
    pub fn failed(&mut self, comm: CommunicatorId, rank: usize, seq: u64, at: Nanos) {
        let r = self.get_mut(comm, rank, seq);
        debug_assert!(r.completed_at.is_none(), "failed after completion");
        r.failed_at = Some(at);
    }

    fn get_mut(&mut self, comm: CommunicatorId, rank: usize, seq: u64) -> &mut TraceRecord {
        let idx = *self
            .index
            .get(&(comm, rank, seq))
            .unwrap_or_else(|| panic!("no trace record for {comm} rank {rank} seq {seq}"));
        &mut self.records[idx]
    }

    /// All records.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Records of one application.
    pub fn for_app(&self, app: AppId) -> Vec<&TraceRecord> {
        self.records.iter().filter(|r| r.app == app).collect()
    }

    /// Completed rank-0 records of one application, time-ordered — the
    /// canonical per-job collective timeline (rank 0 avoids counting each
    /// collective once per rank).
    pub fn timeline(&self, app: AppId) -> Vec<&TraceRecord> {
        let mut v: Vec<&TraceRecord> = self
            .records
            .iter()
            .filter(|r| r.app == app && r.rank == 0 && r.completed_at.is_some())
            .collect();
        v.sort_by_key(|r| r.issued_at);
        v
    }

    /// The gaps between consecutive completed collectives of an app's
    /// rank-0 timeline: `(gap_start, gap_len)` — the "idle cycles" TS
    /// schedules around.
    pub fn idle_gaps(&self, app: AppId) -> Vec<(Nanos, Nanos)> {
        let tl = self.timeline(app);
        let mut gaps = Vec::new();
        for pair in tl.windows(2) {
            let end = pair[0].completed_at.expect("filtered complete");
            let next = pair[1].issued_at;
            if next > end {
                gaps.push((end, next - end));
            }
        }
        gaps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccs_collectives::op::all_reduce_sum;

    fn collector_with(records: &[(u64, u64, u64)]) -> TraceCollector {
        // (seq, issued_us, completed_us)
        let mut t = TraceCollector::new();
        for &(seq, iss, comp) in records {
            t.issued(
                AppId(0),
                CommunicatorId(0),
                0,
                seq,
                all_reduce_sum(),
                Bytes::mib(1),
                Nanos::from_micros(iss),
            );
            t.launched(CommunicatorId(0), 0, seq, 0, Nanos::from_micros(iss));
            t.completed(CommunicatorId(0), 0, seq, Nanos::from_micros(comp));
        }
        t
    }

    #[test]
    fn lifecycle_updates() {
        let t = collector_with(&[(0, 10, 50)]);
        let r = &t.records()[0];
        assert_eq!(r.latency(), Some(Nanos::from_micros(40)));
        assert_eq!(r.failed_at, None);
        assert_eq!(r.epoch, 0);
    }

    #[test]
    fn failed_collectives_record_their_failure() {
        let mut t = TraceCollector::new();
        t.issued(
            AppId(0),
            CommunicatorId(0),
            0,
            0,
            all_reduce_sum(),
            Bytes::mib(1),
            Nanos::from_micros(10),
        );
        t.failed(CommunicatorId(0), 0, 0, Nanos::from_micros(70));
        let r = &t.records()[0];
        assert_eq!(r.latency(), None, "failed is not completed");
        assert_eq!(r.failed_at, Some(Nanos::from_micros(70)));
    }

    #[test]
    #[should_panic(expected = "duplicate trace issue")]
    fn duplicate_issue_rejected() {
        let mut t = TraceCollector::new();
        for _ in 0..2 {
            t.issued(
                AppId(0),
                CommunicatorId(0),
                0,
                0,
                all_reduce_sum(),
                Bytes::mib(1),
                Nanos::ZERO,
            );
        }
    }

    #[test]
    fn idle_gaps_found() {
        // completions at 50 and issue of next at 150 -> gap (50, 100)
        let t = collector_with(&[(0, 10, 50), (1, 150, 200), (2, 200, 260)]);
        let gaps = t.idle_gaps(AppId(0));
        assert_eq!(
            gaps,
            vec![(Nanos::from_micros(50), Nanos::from_micros(100))]
        );
    }

    #[test]
    fn per_app_filtering() {
        let mut t = TraceCollector::new();
        t.issued(
            AppId(0),
            CommunicatorId(0),
            0,
            0,
            all_reduce_sum(),
            Bytes::mib(1),
            Nanos::ZERO,
        );
        t.issued(
            AppId(1),
            CommunicatorId(1),
            0,
            0,
            all_reduce_sum(),
            Bytes::mib(1),
            Nanos::ZERO,
        );
        assert_eq!(t.for_app(AppId(0)).len(), 1);
        assert_eq!(t.timeline(AppId(1)).len(), 0, "incomplete records excluded");
    }
}
