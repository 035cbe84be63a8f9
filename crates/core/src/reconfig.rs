//! The paper's Figure 4 reconfiguration protocol, one rank's side, as a
//! state machine with its I/O taken out.
//!
//! On a `Req` a rank stops launching and contributes its *last launched*
//! sequence number to an AllGather around the control ring (the
//! barrier). With every rank's entry gathered it **drains**: launches
//! exactly the collectives up to the maximum under the old configuration,
//! then switches, and the proxy re-establishes connections and resumes.
//!
//! A [`Reconfig`] reads no clock, draws no RNG and sends nothing: the
//! proxy feeds it inputs and carries out the [`Action`]s it pushes, in
//! order. Time enters only as `now`, where a deadline is formed. Every
//! input carries `lossy` (a fault plan is installed): only then does a
//! rank arm re-send timers, enter a barrier from gossip when its own
//! `Req` was lost, and answer a peer stuck on an incomplete view.

use mccs_sim::Nanos;
use std::collections::BTreeMap;

/// A barrier view: rank -> last launched sequence number (`None` = none).
pub type Entries = BTreeMap<usize, Option<u64>>;

/// A configuration the protocol can carry: all it reads is the epoch.
pub trait Epoched: Clone + PartialEq {
    /// The configuration's epoch.
    fn epoch(&self) -> u64;
}

/// One control-ring AllGather message, always sent to the next rank.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Gossip<C> {
    /// The reconfiguration it gathers for.
    pub epoch: u64,
    /// That epoch's configuration (enough to enter its barrier).
    pub config: C,
    /// The sender's view.
    pub entries: Entries,
    /// Hops left around the ring.
    pub hops: usize,
}

/// What the machine asks its proxy to do.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Action<C> {
    /// Send gossip to the next rank on the control ring.
    Send(Gossip<C>),
    /// Wake this rank at the instant given (a re-send deadline).
    Arm(Nanos),
    /// The drain (up to the barrier maximum given) is over: apply the
    /// configuration and resume launching.
    Switch(C, Option<u64>),
    /// A request was refused (overlapping, epoch-skipping or invalid).
    Reject,
    /// A request from an older controller incarnation was dropped.
    Fenced,
    /// A stalled barrier's view is being re-sent.
    ResendCounted,
}

/// Where a rank is in the protocol. Ranks are many and reconfigurations
/// rare, so the two reconfiguring phases are boxed.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum ReconfigState<C> {
    /// No reconfiguration in flight: the fast path.
    Normal,
    /// Gathering every rank's entry.
    Barrier(Box<Gather<C>>),
    /// View complete: launching up to the barrier maximum (`None`: no
    /// rank had launched anything) under the old configuration.
    Draining(Box<(C, Option<u64>)>),
}

/// A barrier in progress: the view so far (always holding this rank's own
/// entry) for `config`. Under loss it re-sends the view at `due`; `armed`
/// is the deadline a wake-up is pending for (armed once, not per poll).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Gather<C> {
    config: C,
    entries: Entries,
    due: Nanos,
    armed: Option<Nanos>,
}

/// One communicator rank's reconfiguration protocol.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Reconfig<C> {
    /// This rank and the communicator size (narrow, as ranks are many).
    rank: u32,
    size: u32,
    /// A lossy barrier's re-send interval.
    retry: Nanos,
    /// The epoch of the configuration this rank runs.
    epoch: u64,
    state: ReconfigState<C>,
    /// Gossip for a later epoch than this rank runs or gathers.
    held: Vec<Gossip<C>>,
    /// `(epoch, view)` of the last barrier this rank finished, to answer
    /// a peer that lost its last hop and re-sends an incomplete view.
    last_barrier: Option<(u64, Entries)>,
    /// Highest controller incarnation heard from: older ones' requests
    /// (a dead controller's, still in flight) are dropped.
    fence: u64,
    /// The last sequence number this rank committed to launch.
    last_launched: Option<u64>,
}

impl<C: Epoched> Reconfig<C> {
    /// Rank `rank` of `size`, running `epoch`, whose lossy barriers
    /// re-send every `retry`.
    pub fn new(rank: usize, size: usize, epoch: u64, retry: Nanos) -> Self {
        Reconfig {
            rank: rank as u32,
            size: size as u32,
            retry,
            epoch,
            state: ReconfigState::Normal,
            held: Vec::new(),
            last_barrier: None,
            fence: 0,
            last_launched: None,
        }
    }

    /// No reconfiguration in flight on this rank.
    pub fn is_settled(&self) -> bool {
        matches!(self.state, ReconfigState::Normal)
    }

    /// Barrier complete, old-configuration collectives still draining.
    pub fn is_draining(&self) -> bool {
        matches!(self.state, ReconfigState::Draining(_))
    }

    /// Whether collective `seq` may launch: always when settled, never
    /// while gathering, up to the barrier maximum while draining.
    pub fn may_launch(&self, seq: u64) -> bool {
        match &self.state {
            ReconfigState::Normal => true,
            ReconfigState::Barrier(_) => false,
            ReconfigState::Draining(d) => Some(seq) <= d.1,
        }
    }

    /// Collective `seq`, the next in sequence order, is committed to the
    /// current configuration: it is what this rank contributes to its
    /// next barrier.
    pub fn launched(&mut self, seq: u64) {
        self.last_launched = Some(seq);
    }

    /// A `Req` for `config` from controller incarnation `incarnation`;
    /// `valid` is whether `config` fits the communicator.
    pub fn on_req(
        &mut self,
        lossy: bool,
        now: Nanos,
        incarnation: u64,
        config: C,
        valid: bool,
        out: &mut Vec<Action<C>>,
    ) {
        if incarnation < self.fence {
            return out.push(Action::Fenced);
        }
        // A newer incarnation raises the fence even if refused below.
        self.fence = incarnation;
        let epoch = config.epoch();
        match &self.state {
            ReconfigState::Normal if epoch == self.epoch + 1 && valid => {
                self.enter(lossy, now, config, Entries::new(), out)
            }
            // A duplicate of a barrier already entered (e.g. from gossip).
            ReconfigState::Barrier(b) if b.config.epoch() == epoch => {}
            ReconfigState::Draining(d) if d.0.epoch() == epoch => {}
            // Overlapping, epoch-skipping or invalid (every rank sees the
            // same config, so all refuse it together): drop and count.
            _ => out.push(Action::Reject),
        }
    }

    /// Gossip from the previous rank on the control ring.
    pub fn on_gossip(&mut self, lossy: bool, now: Nanos, g: Gossip<C>, out: &mut Vec<Action<C>>) {
        if self.implicit(lossy, g.epoch) {
            return self.enter(lossy, now, g.config, g.entries, out);
        }
        // A peer re-sending an incomplete view of a barrier this rank
        // finished lost its last hop: answer with the complete view, all
        // the way round. Complete views are never answered, so answers
        // terminate.
        let answer = self.last_barrier.as_ref().filter(|(e, _)| *e == g.epoch);
        if let Some((_, full)) = answer.filter(|_| lossy && g.entries.len() < self.size as usize) {
            let full = full.clone();
            return self.send_around(out, g.epoch, g.config, full);
        }
        // Hold a copy once: a stalled peer's re-sends repeat it.
        if self.holds(g.epoch) {
            if !self.held.contains(&g) {
                self.held.push(g);
            }
            return;
        }
        match &mut self.state {
            ReconfigState::Barrier(b) if b.config.epoch() == g.epoch => {
                b.entries.extend(&g.entries);
                // Forward the merged view, a superset of the one received:
                // one message can then fill several barriers downstream.
                let merged = (g.hops > 1).then(|| b.entries.clone());
                forward(
                    out,
                    Gossip {
                        entries: merged.unwrap_or_default(),
                        ..g
                    },
                );
                self.maybe_finish();
            }
            _ => forward(out, g),
        }
    }

    /// A lossy barrier's re-send timer is due: send the view again
    /// (merging is idempotent, so a re-send is always safe).
    pub fn retry_due(&mut self, now: Nanos, out: &mut Vec<Action<C>>) {
        if let ReconfigState::Barrier(b) = &mut self.state {
            let next = now + self.retry;
            (b.due, b.armed) = (next, Some(next));
            let (epoch, config, entries) = (b.config.epoch(), b.config.clone(), b.entries.clone());
            out.push(Action::ResendCounted);
            self.send_around(out, epoch, config, entries);
            out.push(Action::Arm(next));
        }
    }

    /// The proxy's per-step check (`idle`: nothing in flight on this
    /// rank): switch once the drain is over, re-send a stalled lossy
    /// barrier's view when due, and enter a barrier from held gossip whose
    /// `Req` was lost. Returns whether anything changed.
    pub fn poll(&mut self, lossy: bool, now: Nanos, idle: bool, out: &mut Vec<Action<C>>) -> bool {
        let mut progressed = false;
        if let ReconfigState::Draining(d) = &self.state {
            // Our own entry is in the maximum, so `last_launched` is
            // `None` only when the maximum is too.
            let caught_up =
                d.1.is_none_or(|m| self.last_launched.is_some_and(|l| l >= m));
            if idle && caught_up {
                let state = std::mem::replace(&mut self.state, ReconfigState::Normal);
                if let ReconfigState::Draining(d) = state {
                    let (config, max_seq) = *d;
                    self.epoch = config.epoch();
                    out.push(Action::Switch(config, max_seq));
                    progressed = true;
                }
            }
        }
        if let (true, ReconfigState::Barrier(b)) = (lossy, &mut self.state) {
            if now >= b.due {
                self.retry_due(now, out);
                progressed = true;
            } else if b.armed != Some(b.due) {
                out.push(Action::Arm(b.due));
                b.armed = Some(b.due);
            }
        }
        if let Some(i) = self.held.iter().position(|g| self.implicit(lossy, g.epoch)) {
            let g = self.held.remove(i);
            self.enter(lossy, now, g.config, g.entries, out);
            progressed = true;
        }
        progressed
    }

    /// The implicit request: under loss our own `Req` may be lost, and
    /// gossip for exactly the next epoch carries its configuration, so a
    /// settled rank enters that barrier from it (holding it forever would
    /// deadlock the ring).
    fn implicit(&self, lossy: bool, epoch: u64) -> bool {
        lossy && self.is_settled() && epoch == self.epoch + 1
    }

    /// Whether gossip for `epoch` is held for a later barrier: it is for a
    /// later epoch than this rank runs or gathers. A draining rank holds
    /// nothing and only forwards. A later epoch's gossip reaches it only
    /// when requests overlap, that is under loss, where a stalled barrier
    /// re-sends its view anyway; the exhaustive search and the fault
    /// battery pass with or without a hold here, so none is added.
    fn holds(&self, epoch: u64) -> bool {
        match &self.state {
            ReconfigState::Normal => epoch > self.epoch,
            ReconfigState::Barrier(b) => epoch > b.config.epoch(),
            ReconfigState::Draining(_) => false,
        }
    }

    /// Enter the barrier for `config` from the view `seed` gathered
    /// elsewhere, adding this rank's entry and the held gossip of its
    /// epoch; the merged view goes the whole way round, so held messages
    /// need no forwarding of their own.
    fn enter(
        &mut self,
        lossy: bool,
        now: Nanos,
        config: C,
        seed: Entries,
        out: &mut Vec<Action<C>>,
    ) {
        let epoch = config.epoch();
        let mut entries = seed;
        entries.insert(self.rank as usize, self.last_launched);
        for g in std::mem::take(&mut self.held) {
            assert!(
                g.epoch >= epoch,
                "invariant `held gossip never goes stale` broken: rank {} held epoch {} \
                 gossip into the barrier for epoch {epoch}",
                self.rank,
                g.epoch
            );
            if g.epoch == epoch {
                entries.extend(&g.entries);
            } else {
                self.held.push(g);
            }
        }
        let due = now + self.retry;
        let armed = lossy.then_some(due);
        out.extend(armed.map(Action::Arm));
        self.send_around(out, epoch, config.clone(), entries.clone());
        let gather = Gather {
            config,
            entries,
            due,
            armed,
        };
        self.state = ReconfigState::Barrier(Box::new(gather));
        self.maybe_finish();
    }

    /// Send a view the whole way round the ring.
    fn send_around(&self, out: &mut Vec<Action<C>>, epoch: u64, config: C, entries: Entries) {
        let hops = self.size as usize;
        forward(
            out,
            Gossip {
                epoch,
                config,
                entries,
                hops,
            },
        );
    }

    /// Start draining once the view holds every rank.
    fn maybe_finish(&mut self) {
        let size = self.size as usize;
        if !matches!(&self.state, ReconfigState::Barrier(b) if b.entries.len() >= size) {
            return;
        }
        let state = std::mem::replace(&mut self.state, ReconfigState::Normal);
        if let ReconfigState::Barrier(b) = state {
            let (config, entries) = (b.config, b.entries);
            let max_seq = entries.values().flatten().max().copied();
            self.last_barrier = Some((config.epoch(), entries));
            self.state = ReconfigState::Draining(Box::new((config, max_seq)));
        }
    }
}

/// The one send rule: pass gossip on unless this was its last hop
/// (ranks downstream may still be gathering).
fn forward<C>(out: &mut Vec<Action<C>>, g: Gossip<C>) {
    if g.hops > 1 {
        out.push(Action::Send(Gossip {
            hops: g.hops - 1,
            ..g
        }));
    }
}
