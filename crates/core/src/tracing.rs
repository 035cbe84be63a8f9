//! Collective tracing (the management-plane observability of §4.3).
//!
//! The service records, per rank, when each collective was issued (reached
//! the proxy), launched (its transfers started) and completed. The
//! controller's TS policy consumes these records to find a prioritized
//! application's idle cycles; experiments use them for JCT and bandwidth
//! accounting.
//!
//! [`TraceCollector::issued`] returns the new record's index, and the
//! launcher (a proxy's queued collective, a library job's in-flight one)
//! keeps it, so the later updates index the record directly.

use crate::flat::FlatMap;
use mccs_collectives::CollectiveOp;
use mccs_ipc::{AppId, CommunicatorId};
use mccs_sim::{Bytes, Nanos};

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

/// Append-mostly store of trace records, updated by record index.
#[derive(Default, Debug)]
pub struct TraceCollector {
    records: Vec<TraceRecord>,
    /// `(comm, rank) -> last seq issued`: a rank sequences its
    /// collectives in increasing order, so a seq at or below it is a
    /// duplicate.
    last_seq: FlatMap<(CommunicatorId, usize), u64>,
}

impl TraceCollector {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a newly sequenced collective; returns its record index,
    /// which the later updates take.
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
    ) -> usize {
        match self.last_seq.get_mut(&(comm, rank)) {
            Some(last) => {
                assert!(
                    *last < seq,
                    "duplicate trace issue for {comm} rank {rank} seq {seq}"
                );
                *last = seq;
            }
            None => {
                self.last_seq.insert((comm, rank), seq);
            }
        }
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
        self.records.len() - 1
    }

    /// Record the launch of record `idx` (and the epoch it executed
    /// under).
    pub fn launched(&mut self, idx: usize, epoch: u64, at: Nanos) {
        let r = &mut self.records[idx];
        r.epoch = epoch;
        r.launched_at = Some(at);
    }

    /// Record the completion of record `idx`.
    pub fn completed(&mut self, idx: usize, at: Nanos) {
        let r = &mut self.records[idx];
        debug_assert!(r.launched_at.is_some(), "completed before launch");
        debug_assert!(r.failed_at.is_none(), "completed after clean failure");
        r.completed_at = Some(at);
    }

    /// Record a clean failure (the collective may or may not have launched
    /// on this rank — a rank can fail a queued collective another rank's
    /// transport already gave up on) of record `idx`.
    pub fn failed(&mut self, idx: usize, at: Nanos) {
        let r = &mut self.records[idx];
        debug_assert!(r.completed_at.is_none(), "failed after completion");
        r.failed_at = Some(at);
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
            let idx = t.issued(
                AppId(0),
                CommunicatorId(0),
                0,
                seq,
                all_reduce_sum(),
                Bytes::mib(1),
                Nanos::from_micros(iss),
            );
            t.launched(idx, 0, Nanos::from_micros(iss));
            t.completed(idx, Nanos::from_micros(comp));
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
        let idx = t.issued(
            AppId(0),
            CommunicatorId(0),
            0,
            0,
            all_reduce_sum(),
            Bytes::mib(1),
            Nanos::from_micros(10),
        );
        t.failed(idx, Nanos::from_micros(70));
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

    #[test]
    #[should_panic(expected = "duplicate trace issue for comm3 rank 1 seq 4")]
    fn a_seq_at_or_below_the_last_is_a_duplicate() {
        let mut t = TraceCollector::new();
        for seq in [2, 5, 4] {
            t.issued(
                AppId(0),
                CommunicatorId(3),
                1,
                seq,
                all_reduce_sum(),
                Bytes::mib(1),
                Nanos::ZERO,
            );
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        proptest! {
            /// Random issues (each rank's seqs increasing, ranks
            /// interleaved), launches, completions and failures through
            /// the returned indices leave every record equal to a model
            /// keyed `(comm, rank, seq)` — the index the collector used
            /// to keep.
            #[test]
            fn records_match_a_keyed_map(
                ops in proptest::collection::vec((0u8..4, 0u64..3, 0usize..3, 0usize..8), 1..120)
            ) {
                let mut t = TraceCollector::new();
                let mut model: BTreeMap<(CommunicatorId, usize, u64), TraceRecord> = BTreeMap::new();
                let mut handles: Vec<((CommunicatorId, usize, u64), usize)> = Vec::new();
                let mut next_seq: BTreeMap<(CommunicatorId, usize), u64> = BTreeMap::new();
                for (step, &(op, comm, rank, pick)) in ops.iter().enumerate() {
                    let at = Nanos::from_micros(step as u64);
                    let comm = CommunicatorId(comm);
                    if op == 0 || handles.is_empty() {
                        let seq = next_seq.entry((comm, rank)).or_insert(0);
                        *seq += pick as u64 % 2;
                        let key = (comm, rank, *seq);
                        *seq += 1;
                        let idx = t.issued(AppId(0), comm, rank, key.2, all_reduce_sum(), Bytes::mib(1), at);
                        handles.push((key, idx));
                        model.insert(key, TraceRecord {
                            app: AppId(0),
                            comm,
                            rank,
                            seq: key.2,
                            op: all_reduce_sum(),
                            size: Bytes::mib(1),
                            epoch: 0,
                            issued_at: at,
                            launched_at: None,
                            completed_at: None,
                            failed_at: None,
                        });
                    } else {
                        let (key, idx) = handles[pick % handles.len()];
                        let r = model.get_mut(&key).expect("issued");
                        match op {
                            1 if r.launched_at.is_none() => {
                                t.launched(idx, step as u64, at);
                                r.epoch = step as u64;
                                r.launched_at = Some(at);
                            }
                            2 if r.launched_at.is_some() && r.completed_at.is_none() && r.failed_at.is_none() => {
                                t.completed(idx, at);
                                r.completed_at = Some(at);
                            }
                            3 if r.completed_at.is_none() && r.failed_at.is_none() => {
                                t.failed(idx, at);
                                r.failed_at = Some(at);
                            }
                            _ => {}
                        }
                    }
                    let mut got: Vec<&TraceRecord> = t.records().iter().collect();
                    got.sort_by_key(|r| (r.comm, r.rank, r.seq));
                    let want: Vec<&TraceRecord> = model.values().collect();
                    prop_assert_eq!(got, want);
                }
            }
        }
    }
}
