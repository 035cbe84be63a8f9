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
//!
//! One record is kept per rank-collective for the whole run, so the
//! collector stores a 48-byte row — the `(app, comm, rank)` lane and
//! the `(op, size)` shape interned to `u32` indices, one end instant —
//! and builds the public [`TraceRecord`] only when something reads it.

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

/// How a row's collective ended on its rank.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum End {
    /// Not yet.
    Open,
    /// Completed at the row's `end`.
    Completed,
    /// Cleanly failed at the row's `end`.
    Failed,
}

/// One stored rank-collective (48 B; a [`TraceRecord`] is 120).
#[derive(Clone, Copy, Debug)]
struct Row {
    /// Index into [`TraceCollector::lanes`]: `(app, comm, rank)`.
    lane: u32,
    /// Index into [`TraceCollector::shapes`]: `(op, size)`.
    shape: u32,
    /// Configuration epoch of the launch (0 until launched).
    epoch: u32,
    end_kind: End,
    seq: u64,
    issued: Nanos,
    /// `Nanos::MAX` until launched.
    launched: Nanos,
    /// Meaningful unless `end_kind` is `Open`.
    end: Nanos,
}

/// A launch instant no launch can have: the row's "never launched".
const NEVER: Nanos = Nanos::MAX;

/// Per-`(comm, rank)` issue state: the duplicate check's last seq, the
/// rank's lane and the shape its last collective had.
#[derive(Debug)]
struct LaneState {
    last_seq: u64,
    lane: u32,
    shape: u32,
}

/// Append-mostly store of trace rows, updated by record index.
#[derive(Default, Debug)]
pub struct TraceCollector {
    rows: Vec<Row>,
    /// `(comm, rank) -> issue state`: a rank sequences its collectives in
    /// increasing order, so a seq at or below the last is a duplicate.
    ranks: FlatMap<(CommunicatorId, usize), LaneState>,
    /// Interned `(app, comm, rank)`, one per communicator rank.
    lanes: Vec<(AppId, CommunicatorId, usize)>,
    /// Interned `(op, size)` and its reverse index, consulted only when a
    /// rank issues a shape other than its last.
    shapes: Vec<(CollectiveOp, Bytes)>,
    shape_ids: FlatMap<(CollectiveOp, Bytes), u32>,
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
        let state = match self.ranks.get_mut(&(comm, rank)) {
            Some(state) => {
                assert!(
                    state.last_seq < seq,
                    "duplicate trace issue for {comm} rank {rank} seq {seq}"
                );
                assert_eq!(
                    self.lanes[state.lane as usize].0, app,
                    "{comm} changed owner"
                );
                state.last_seq = seq;
                state
            }
            None => {
                let lane = intern_index(self.lanes.len());
                self.lanes.push((app, comm, rank));
                let shape = intern_shape(&mut self.shapes, &mut self.shape_ids, op, size);
                self.ranks.get_or_insert(
                    (comm, rank),
                    LaneState {
                        last_seq: seq,
                        lane,
                        shape,
                    },
                )
            }
        };
        if self.shapes[state.shape as usize] != (op, size) {
            state.shape = intern_shape(&mut self.shapes, &mut self.shape_ids, op, size);
        }
        self.rows.push(Row {
            lane: state.lane,
            shape: state.shape,
            epoch: 0,
            end_kind: End::Open,
            seq,
            issued: at,
            launched: NEVER,
            end: Nanos::ZERO,
        });
        self.rows.len() - 1
    }

    /// Record the launch of record `idx` (and the epoch it executed
    /// under).
    pub fn launched(&mut self, idx: usize, epoch: u64, at: Nanos) {
        assert!(at != NEVER, "launch at the end of time");
        let r = &mut self.rows[idx];
        r.epoch = u32::try_from(epoch).expect("configuration epoch exceeds u32");
        r.launched = at;
    }

    /// Record the completion of record `idx`.
    pub fn completed(&mut self, idx: usize, at: Nanos) {
        let r = &mut self.rows[idx];
        debug_assert!(r.launched != NEVER, "completed before launch");
        assert!(r.end_kind != End::Failed, "completed after clean failure");
        r.end_kind = End::Completed;
        r.end = at;
    }

    /// Record a clean failure (the collective may or may not have launched
    /// on this rank — a rank can fail a queued collective another rank's
    /// transport already gave up on) of record `idx`.
    pub fn failed(&mut self, idx: usize, at: Nanos) {
        let r = &mut self.rows[idx];
        assert!(r.end_kind != End::Completed, "failed after completion");
        r.end_kind = End::Failed;
        r.end = at;
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no collective was recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All records, in issue order.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.iter().collect()
    }

    /// All records, in issue order, built one at a time.
    pub fn iter(&self) -> impl Iterator<Item = TraceRecord> + '_ {
        self.rows.iter().map(|r| self.record(r))
    }

    /// Records of one application.
    pub fn for_app(&self, app: AppId) -> Vec<TraceRecord> {
        self.select(|&(a, _, _)| a == app, |_| true)
    }

    /// Completed rank-0 records of one application, time-ordered — the
    /// canonical per-job collective timeline (rank 0 avoids counting each
    /// collective once per rank).
    pub fn timeline(&self, app: AppId) -> Vec<TraceRecord> {
        let mut v = self.select(
            |&(a, _, rank)| a == app && rank == 0,
            |r| r.end_kind == End::Completed,
        );
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

    /// Records, in issue order, of the rows whose lane passes `lane` and
    /// which pass `row`.
    fn select(
        &self,
        lane: impl Fn(&(AppId, CommunicatorId, usize)) -> bool,
        row: impl Fn(&Row) -> bool,
    ) -> Vec<TraceRecord> {
        let keep: Vec<bool> = self.lanes.iter().map(lane).collect();
        self.rows
            .iter()
            .filter(|r| keep[r.lane as usize] && row(r))
            .map(|r| self.record(r))
            .collect()
    }

    fn record(&self, r: &Row) -> TraceRecord {
        let (app, comm, rank) = self.lanes[r.lane as usize];
        let (op, size) = self.shapes[r.shape as usize];
        let ended = |kind: End| (r.end_kind == kind).then_some(r.end);
        TraceRecord {
            app,
            comm,
            rank,
            seq: r.seq,
            op,
            size,
            epoch: u64::from(r.epoch),
            issued_at: r.issued,
            launched_at: (r.launched != NEVER).then_some(r.launched),
            completed_at: ended(End::Completed),
            failed_at: ended(End::Failed),
        }
    }
}

/// The next interned index, checked to fit the row's `u32`.
fn intern_index(len: usize) -> u32 {
    u32::try_from(len).expect("more than u32::MAX interned trace keys")
}

/// The index of `(op, size)` in `shapes`, appending it if new.
fn intern_shape(
    shapes: &mut Vec<(CollectiveOp, Bytes)>,
    ids: &mut FlatMap<(CollectiveOp, Bytes), u32>,
    op: CollectiveOp,
    size: Bytes,
) -> u32 {
    let next = intern_index(shapes.len());
    let id = *ids.get_or_insert((op, size), next);
    if id == next {
        shapes.push((op, size));
    }
    id
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
    fn a_row_is_48_bytes() {
        assert_eq!(std::mem::size_of::<Row>(), 48);
        assert_eq!(std::mem::size_of::<TraceRecord>(), 120, "what a row saves");
    }

    /// Issue, launch, completion and failure read back as the records the
    /// collector used to store: two ranks of one communicator, a second
    /// communicator of another app with another shape, a failure before
    /// launch and a failure under a later epoch.
    #[test]
    fn rows_read_back_as_the_records_they_replace() {
        let mut t = TraceCollector::new();
        let big = Bytes::mib(64);
        let (a, b) = (CommunicatorId(7), CommunicatorId(9));
        let i0 = t.issued(AppId(1), a, 0, 0, all_reduce_sum(), big, Nanos(10));
        let i1 = t.issued(AppId(1), a, 1, 0, all_reduce_sum(), big, Nanos(11));
        let j0 = t.issued(
            AppId(2),
            b,
            0,
            3,
            CollectiveOp::AllGather,
            Bytes::kib(4),
            Nanos(12),
        );
        t.launched(i0, 0, Nanos(20));
        t.launched(i1, 0, Nanos(21));
        t.completed(i0, Nanos(30));
        t.failed(j0, Nanos(31)); // never launched
        t.launched(i1, 5, Nanos(40)); // relaunched under a new epoch
        t.failed(i1, Nanos(50));
        let k0 = t.issued(
            AppId(1),
            a,
            0,
            1,
            all_reduce_sum(),
            Bytes::mib(1),
            Nanos(60),
        );
        let record = |app, comm, rank, seq, op, size, epoch, issued: u64| TraceRecord {
            app: AppId(app),
            comm,
            rank,
            seq,
            op,
            size,
            epoch,
            issued_at: Nanos(issued),
            launched_at: None,
            completed_at: None,
            failed_at: None,
        };
        let want = vec![
            TraceRecord {
                launched_at: Some(Nanos(20)),
                completed_at: Some(Nanos(30)),
                ..record(1, a, 0, 0, all_reduce_sum(), big, 0, 10)
            },
            TraceRecord {
                launched_at: Some(Nanos(40)),
                failed_at: Some(Nanos(50)),
                ..record(1, a, 1, 0, all_reduce_sum(), big, 5, 11)
            },
            TraceRecord {
                failed_at: Some(Nanos(31)),
                ..record(2, b, 0, 3, CollectiveOp::AllGather, Bytes::kib(4), 0, 12)
            },
            record(1, a, 0, 1, all_reduce_sum(), Bytes::mib(1), 0, 60),
        ];
        assert_eq!(k0, 3);
        assert_eq!(t.records(), want);
        assert_eq!(t.iter().collect::<Vec<_>>(), want);
        assert_eq!(t.len(), 4);
        assert_eq!(t.for_app(AppId(2)), want[2..3]);
        assert_eq!(t.timeline(AppId(1)), want[..1]);
        assert_eq!(
            format!("{:?}", t.records()),
            format!("{want:?}"),
            "the digest's text"
        );
    }

    #[test]
    #[should_panic(expected = "completed after clean failure")]
    fn a_failed_collective_cannot_complete() {
        let mut t = TraceCollector::new();
        let i = t.issued(
            AppId(0),
            CommunicatorId(0),
            0,
            0,
            all_reduce_sum(),
            Bytes::mib(1),
            Nanos::ZERO,
        );
        t.launched(i, 0, Nanos(1));
        t.failed(i, Nanos(2));
        t.completed(i, Nanos(3));
    }

    #[test]
    #[should_panic(expected = "failed after completion")]
    fn a_completed_collective_cannot_fail() {
        let mut t = TraceCollector::new();
        let i = t.issued(
            AppId(0),
            CommunicatorId(0),
            0,
            0,
            all_reduce_sum(),
            Bytes::mib(1),
            Nanos::ZERO,
        );
        t.launched(i, 0, Nanos(1));
        t.completed(i, Nanos(2));
        t.failed(i, Nanos(3));
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
                    let mut got = t.records();
                    got.sort_by_key(|r| (r.comm, r.rank, r.seq));
                    let want: Vec<TraceRecord> = model.values().cloned().collect();
                    prop_assert_eq!(got, want);
                }
            }
        }
    }
}
