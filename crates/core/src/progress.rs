//! Cluster-wide collective progress, in dense tables.
//!
//! Each collective `(comm, seq)` has one [`CollectiveProgress`] entry that
//! every rank's launch registers with and every task token of those
//! launches counts down — the flow-level shortcut standing in for per-rank
//! kernel completion plumbing (the paper's §6.5 simulator makes the same
//! approximation). Entries live in one arena and are named by a
//! [`ProgressId`]: a launcher keeps the handle its launch returned and
//! polls the entry through it, and a task token maps to it through the
//! world's token window, so the per-poll and per-task paths index a
//! `Vec`. Only a launch (once per rank and collective) and the rare
//! lookups by key (a stall report, an abort) resolve `(comm, seq)`: a
//! binary search over communicators, then the communicator's entries
//! indexed by `seq`, which each rank hands out from 0.

use crate::flat::FlatMap;
use mccs_ipc::CommunicatorId;
use mccs_sim::Nanos;

/// Handle of one collective's progress entry (its index in the arena).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ProgressId(u32);

/// Completion tracking for one collective, shared by all its ranks.
#[derive(Debug)]
pub struct CollectiveProgress {
    /// The communicator.
    pub comm: CommunicatorId,
    /// Collective sequence number.
    pub seq: u64,
    /// Ranks expected to launch.
    pub expected_ranks: usize,
    /// Ranks that have launched their local tasks.
    pub launched_ranks: usize,
    /// Edge tasks still moving data.
    pub outstanding_tasks: usize,
    /// Configuration epoch of the first launch; every later launch must
    /// agree (the exactly-once-under-one-epoch oracle).
    pub epoch: u64,
    /// First launch time.
    pub first_launch_at: Nanos,
    /// Set when every rank launched and every task finished.
    pub completed_at: Option<Nanos>,
    /// Set when recovery was exhausted: the collective will never
    /// complete; every rank cleanly fails it to its tenant instead.
    pub failed: bool,
}

impl CollectiveProgress {
    /// Mark complete if all ranks launched, nothing is outstanding, and
    /// the collective was not failed.
    pub(crate) fn maybe_complete(&mut self, now: Nanos) {
        if self.completed_at.is_none()
            && !self.failed
            && self.launched_ranks == self.expected_ranks
            && self.outstanding_tasks == 0
        {
            self.completed_at = Some(now);
        }
    }
}

/// Every collective's progress entry, by handle and by `(comm, seq)`.
/// Entries are never dropped: a late stall report or a slow rank may ask
/// about a collective long after it finished.
#[derive(Debug, Default)]
pub struct ProgressTable {
    entries: Vec<CollectiveProgress>,
    /// Per communicator, entry handles indexed by `seq` (`None` for a seq
    /// no rank launched, e.g. one failed while still queued).
    by_comm: FlatMap<CommunicatorId, Vec<Option<ProgressId>>>,
}

impl ProgressTable {
    /// The entry of `(comm, seq)`, if any rank launched it.
    pub fn find(&self, comm: CommunicatorId, seq: u64) -> Option<ProgressId> {
        let seqs = self.by_comm.get(&comm)?;
        *seqs.get(usize::try_from(seq).ok()?)?
    }

    /// The entry of `(comm, seq)`, created by `new` on the first launch.
    pub(crate) fn find_or_insert(
        &mut self,
        comm: CommunicatorId,
        seq: u64,
        new: impl FnOnce() -> CollectiveProgress,
    ) -> ProgressId {
        let seqs = self.by_comm.get_or_insert(comm, Vec::new());
        let idx = usize::try_from(seq).expect("sequence number fits in usize");
        if idx >= seqs.len() {
            seqs.resize(idx + 1, None);
        }
        *seqs[idx].get_or_insert_with(|| {
            let id =
                ProgressId(u32::try_from(self.entries.len()).expect("fewer than 2^32 collectives"));
            self.entries.push(new());
            id
        })
    }

    /// The entry behind a handle.
    pub fn get(&self, id: ProgressId) -> &CollectiveProgress {
        &self.entries[id.0 as usize]
    }

    /// The entry behind a handle, mutably.
    pub(crate) fn get_mut(&mut self, id: ProgressId) -> &mut CollectiveProgress {
        &mut self.entries[id.0 as usize]
    }

    /// The entry of `(comm, seq)`, if any rank launched it.
    pub fn lookup(&self, comm: CommunicatorId, seq: u64) -> Option<&CollectiveProgress> {
        self.find(comm, seq).map(|id| self.get(id))
    }
}
