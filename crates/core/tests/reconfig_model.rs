//! Exhaustive breadth-first search of the Figure 4 reconfiguration
//! machine (`mccs_core::reconfig`), run alone over 2–4 ranks.
//!
//! The machine is I/O-free, so the search plays the proxy and the
//! network around it. From the initial state it explores every
//! interleaving of:
//!
//! * the controller issuing up to two requests (a `Req` to every rank);
//! * each rank launching its next queued collective whenever the machine
//!   lets it (`may_launch`; a launch here is the proxy's admission, the
//!   point it commits to a configuration), and finishing the one in
//!   flight;
//! * delivering any in-flight control message: the network is a
//!   multiset, so every delivery order is explored, and any two messages
//!   to one rank may be handled together, as a proxy drains all the
//!   messages visible at one instant before it steps its ranks;
//! * under loss, a re-send timer firing whenever one is armed (a rank in
//!   a lossy barrier), dropping any message and duplicating any message,
//!   each within a budget.
//!
//! After each event at a rank the search steps it as its proxy would:
//! `poll` until nothing changes. Configurations are only an epoch and
//! time is abstract: every input sees the same `now`, and a timer fires
//! when the search chooses. A warm host crash needs no action of its
//! own: a crashed proxy keeps its inbox and its state and resumes where
//! it stopped, so a crash is a delay, and the search already delivers
//! messages in every order.
//!
//! Invariants, checked on every transition:
//! * every rank that switches to epoch `e` computed the same barrier
//!   maximum;
//! * no sequence number launches under two epochs;
//! * a rank switches having launched exactly the sequence numbers up to
//!   the maximum (so those ran under the old configuration, and later
//!   ones run under the new);
//! * held gossip never goes stale (the machine asserts it; a panic is a
//!   violation);
//! * without loss, no timer is armed and nothing is re-sent (an absent
//!   fault plan adds zero overhead);
//! * every quiescent state (nothing enabled: nothing in flight, no timer
//!   armed, nothing left to launch) has every rank settled at one epoch
//!   with every collective done;
//! * under loss, from every state with nothing in flight, a fault-free
//!   continuation settles (timers fire only once nothing else can
//!   happen, every armed one in turn: the re-send interval is long).
//!
//! A violation is reported with the shortest trace that reaches it, as a
//! numbered list of steps.

use mccs_core::reconfig::{Action, Entries, Epoched, Gossip, Reconfig};
use mccs_sim::Nanos;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// A configuration that is only its epoch.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Cfg(u64);

impl Epoched for Cfg {
    fn epoch(&self) -> u64 {
        self.0
    }
}

/// A control message in flight.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Msg {
    Req {
        to: usize,
        epoch: u64,
    },
    Gossip {
        to: usize,
        epoch: u64,
        entries: Entries,
        hops: usize,
    },
}

/// One rank: the machine plus what the proxy around it knows.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Rank {
    m: Reconfig<Cfg>,
    /// Collectives launched so far (the next sequence number).
    next: u64,
    inflight: bool,
    /// The epoch this rank runs (its last `Switch`).
    epoch: u64,
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct State {
    ranks: Vec<Rank>,
    /// In-flight control messages, sorted (a multiset).
    net: Vec<Msg>,
    /// Requests issued so far.
    issued: u64,
    /// Per sequence number, the epoch it first launched under.
    launched_under: Vec<Option<u64>>,
    /// Per epoch `e` (index `e - 1`), the barrier maximum of the first
    /// rank to switch to it.
    maxes: Vec<Option<Option<u64>>>,
    drops: u8,
    dups: u8,
    retries: u8,
}

/// One transition, small enough to keep one per explored state.
#[derive(Clone, Copy, Debug)]
enum Step {
    Issue,
    Launch(u8),
    Finish(u8),
    Retry(u8),
    Deliver(u8),
    /// Two messages to one rank, handled before its next step.
    Batch(u8, u8),
    Drop(u8),
    Dup(u8),
}

/// What a scope explores.
#[derive(Clone, Copy, Debug)]
struct Scope {
    ranks: usize,
    collectives: u64,
    requests: u64,
    lossy: bool,
    /// Whether a request may be issued before every rank applied the
    /// previous one.
    overlap: bool,
    drops: u8,
    dups: u8,
    retries: u8,
    /// Strip each sender's own entry from the gossip it emits.
    strip_own: bool,
}

impl Scope {
    /// `ranks` ranks, `collectives` queued on each, `requests` issued one
    /// after another (each once every rank applied the previous one).
    fn lossless(ranks: usize, collectives: u64, requests: u64) -> Self {
        Scope {
            ranks,
            collectives,
            requests,
            lossy: false,
            overlap: false,
            drops: 0,
            dups: 0,
            retries: 0,
            strip_own: false,
        }
    }

    /// The same under loss: requests may overlap, and up to `drops`
    /// messages are lost, `dups` duplicated and `retries` re-sends fire.
    fn lossy(ranks: usize, collectives: u64, requests: u64, faults: [u8; 3]) -> Self {
        let [drops, dups, retries] = faults;
        Scope {
            lossy: true,
            overlap: true,
            drops,
            dups,
            retries,
            ..Scope::lossless(ranks, collectives, requests)
        }
    }
}

/// Which invariant a state breaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Broken {
    MaxDisagrees,
    TwoEpochs,
    LaunchBound,
    MachinePanicked,
    Overhead,
    Unsettled,
    NoSettle,
}

type Violation = (Broken, String);

fn initial(s: &Scope) -> State {
    State {
        ranks: (0..s.ranks)
            .map(|r| Rank {
                m: Reconfig::new(r, s.ranks, 0, Nanos(1)),
                next: 0,
                inflight: false,
                epoch: 0,
            })
            .collect(),
        net: Vec::new(),
        issued: 0,
        launched_under: vec![None; s.collectives as usize],
        maxes: vec![None; s.requests as usize],
        drops: 0,
        dups: 0,
        retries: 0,
    }
}

fn in_barrier(r: &Rank) -> bool {
    !r.m.is_settled() && !r.m.is_draining()
}

/// Every step the scope allows from `st` (some may turn out no-ops).
fn steps(st: &State, s: &Scope) -> Vec<Step> {
    let mut out = Vec::new();
    let applied = st
        .ranks
        .iter()
        .all(|r| r.m.is_settled() && r.epoch == st.issued);
    if st.issued < s.requests && (s.overlap || applied) {
        out.push(Step::Issue);
    }
    for (i, r) in st.ranks.iter().enumerate() {
        let i = i as u8;
        if !r.inflight && r.next < s.collectives && r.m.may_launch(r.next) {
            out.push(Step::Launch(i));
        }
        if r.inflight {
            out.push(Step::Finish(i));
        }
        if s.lossy && in_barrier(r) && st.retries < s.retries {
            out.push(Step::Retry(i));
        }
    }
    for (i, m) in st.net.iter().enumerate() {
        if i > 0 && st.net[i - 1] == *m {
            continue; // identical messages: one choice
        }
        let i = i as u8;
        out.push(Step::Deliver(i));
        if s.lossy && st.drops < s.drops {
            out.push(Step::Drop(i));
        }
        if s.lossy && st.dups < s.dups {
            out.push(Step::Dup(i));
        }
        for (j, n) in st.net.iter().enumerate() {
            let first = st.net[..j].last() != Some(n);
            if j != i as usize && first && to(m) == to(n) {
                out.push(Step::Batch(i, j as u8));
            }
        }
    }
    out
}

fn to(m: &Msg) -> usize {
    match m {
        Msg::Req { to, .. } | Msg::Gossip { to, .. } => *to,
    }
}

fn insert(net: &mut Vec<Msg>, m: Msg) {
    let at = net.partition_point(|x| *x <= m);
    net.insert(at, m);
}

/// Carry out what rank `r`'s machine asked for, checking as we go.
fn carry_out(
    st: &mut State,
    s: &Scope,
    r: usize,
    actions: Vec<Action<Cfg>>,
) -> Result<(), Violation> {
    for a in actions {
        match a {
            Action::Send(mut g) => {
                if s.strip_own {
                    g.entries.remove(&r);
                }
                let to = (r + 1) % s.ranks;
                let (epoch, entries, hops) = (g.epoch, g.entries, g.hops);
                insert(
                    &mut st.net,
                    Msg::Gossip {
                        to,
                        epoch,
                        entries,
                        hops,
                    },
                );
            }
            Action::Arm(_) | Action::ResendCounted if !s.lossy => {
                return Err((
                    Broken::Overhead,
                    format!("rank {r} emitted {a:?} without loss"),
                ));
            }
            Action::Arm(_) | Action::ResendCounted | Action::Fenced | Action::Reject => {}
            Action::Switch(config, max_seq) => {
                let rank = &mut st.ranks[r];
                let want = max_seq.map_or(0, |m| m + 1);
                if rank.next != want {
                    return Err((
                        Broken::LaunchBound,
                        format!(
                            "rank {r} switches to epoch {} having launched {} collectives, \
                             barrier maximum {max_seq:?}",
                            config.0, rank.next
                        ),
                    ));
                }
                rank.epoch = config.0;
                let seen = &mut st.maxes[config.0 as usize - 1];
                match seen {
                    Some(m) if *m != max_seq => {
                        return Err((
                            Broken::MaxDisagrees,
                            format!(
                                "rank {r} drained epoch {} to {max_seq:?}, another rank to {m:?}",
                                config.0
                            ),
                        ));
                    }
                    _ => *seen = Some(max_seq),
                }
            }
        }
    }
    Ok(())
}

/// Hand message `m` to its rank's machine.
fn deliver(st: &mut State, s: &Scope, m: Msg, out: &mut Vec<Action<Cfg>>) {
    let (zero, lossy) = (Nanos::ZERO, s.lossy);
    match m {
        Msg::Req { to, epoch } => st.ranks[to].m.on_req(lossy, zero, 0, Cfg(epoch), true, out),
        Msg::Gossip {
            to,
            epoch,
            entries,
            hops,
        } => {
            let config = Cfg(epoch);
            let g = Gossip {
                epoch,
                config,
                entries,
                hops,
            };
            st.ranks[to].m.on_gossip(lossy, zero, g, out)
        }
    }
}

/// Apply `step` to `st`, then step the rank it touched as its proxy
/// would (polls until nothing changes). `None` when nothing changes.
fn apply(st: &State, s: &Scope, step: Step) -> Option<Result<State, Violation>> {
    let mut next = st.clone();
    let run = catch_unwind(AssertUnwindSafe(|| -> Result<(), Violation> {
        let mut out = Vec::new();
        let rank = match step {
            Step::Issue => {
                next.issued += 1;
                for to in 0..s.ranks {
                    let epoch = next.issued;
                    insert(&mut next.net, Msg::Req { to, epoch });
                }
                return Ok(());
            }
            Step::Drop(i) => {
                next.drops += 1;
                next.net.remove(i as usize);
                return Ok(());
            }
            Step::Dup(i) => {
                next.dups += 1;
                let m = next.net[i as usize].clone();
                insert(&mut next.net, m);
                return Ok(());
            }
            Step::Launch(r) => {
                let rank = &mut next.ranks[r as usize];
                let seq = rank.next as usize;
                rank.m.launched(rank.next);
                rank.next += 1;
                rank.inflight = true;
                match next.launched_under[seq] {
                    Some(e) if e != rank.epoch => {
                        return Err((
                            Broken::TwoEpochs,
                            format!(
                                "seq {seq} launches under epoch {} on rank {r}, {e} elsewhere",
                                rank.epoch
                            ),
                        ));
                    }
                    _ => next.launched_under[seq] = Some(rank.epoch),
                }
                r as usize
            }
            Step::Finish(r) => {
                next.ranks[r as usize].inflight = false;
                r as usize
            }
            Step::Retry(r) => {
                next.retries += 1;
                next.ranks[r as usize].m.retry_due(Nanos::ZERO, &mut out);
                r as usize
            }
            Step::Deliver(i) => {
                let m = next.net.remove(i as usize);
                let r = to(&m);
                deliver(&mut next, s, m, &mut out);
                r
            }
            Step::Batch(i, j) => {
                let (a, b) = (next.net[i as usize].clone(), next.net[j as usize].clone());
                next.net.remove(i.max(j) as usize);
                next.net.remove(i.min(j) as usize);
                let r = to(&a);
                deliver(&mut next, s, a, &mut out);
                carry_out(&mut next, s, r, std::mem::take(&mut out))?;
                deliver(&mut next, s, b, &mut out);
                r
            }
        };
        carry_out(&mut next, s, rank, std::mem::take(&mut out))?;
        loop {
            let idle = !next.ranks[rank].inflight;
            let more = next.ranks[rank]
                .m
                .poll(s.lossy, Nanos::ZERO, idle, &mut out);
            carry_out(&mut next, s, rank, std::mem::take(&mut out))?;
            if !more {
                return Ok(());
            }
        }
    }));
    match run {
        Ok(Ok(())) => (next != *st).then_some(Ok(next)),
        Ok(Err(v)) => Some(Err(v)),
        Err(e) => {
            let msg = e
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|m| m.to_string()))
                .unwrap_or_default();
            Some(Err((Broken::MachinePanicked, msg)))
        }
    }
}

/// Whether a quiescent state is settled: every rank in `Normal` at one
/// epoch, every collective launched and finished.
fn settled(st: &State, s: &Scope) -> Result<(), Violation> {
    let epoch = st.ranks[0].epoch;
    let ok = st
        .ranks
        .iter()
        .all(|r| r.m.is_settled() && r.epoch == epoch && r.next == s.collectives && !r.inflight);
    if ok {
        return Ok(());
    }
    let view: Vec<String> = st
        .ranks
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let phase = if r.m.is_settled() {
                "settled"
            } else if r.m.is_draining() {
                "draining"
            } else {
                "in barrier"
            };
            format!("rank {i} {phase} at epoch {}, launched {}", r.epoch, r.next)
        })
        .collect();
    Err((
        Broken::Unsettled,
        format!("quiescent but {}", view.join("; ")),
    ))
}

/// Under loss: a fault-free continuation from `st` (deliver in order,
/// launch and finish eagerly, fire timers only on a quiet network)
/// settles.
fn settles(st: &State, s: &Scope) -> Result<(), Violation> {
    let fair = Scope {
        drops: 0,
        dups: 0,
        ..*s
    };
    let mut cur = st.clone();
    for _ in 0..10_000 {
        cur.retries = 0; // the budget bounds the search, not this run
        let next = steps(&cur, &fair)
            .into_iter()
            .filter(|st| !matches!(st, Step::Retry(_)))
            .find_map(|step| apply(&cur, &fair, step));
        match next {
            Some(Ok(n)) => cur = n,
            Some(Err(v)) => return Err(v),
            // Quiet: every armed timer fires, one after the other.
            None if cur.ranks.iter().any(in_barrier) => {
                for r in 0..s.ranks {
                    if in_barrier(&cur.ranks[r]) {
                        match apply(&cur, &fair, Step::Retry(r as u8)) {
                            Some(Ok(n)) => cur = n,
                            Some(Err(v)) => return Err(v),
                            None => {}
                        }
                    }
                }
            }
            None => {
                return settled(&cur, s)
                    .map_err(|(_, why)| (Broken::NoSettle, format!("fault-free run ends {why}")));
            }
        }
    }
    Err((Broken::NoSettle, "fault-free run does not end".into()))
}

fn fingerprint(st: &State) -> u128 {
    let mut a = DefaultHasher::new();
    let mut b = DefaultHasher::new();
    b.write_u64(0x9e37_79b9_7f4a_7c15);
    st.hash(&mut a);
    st.hash(&mut b);
    (u128::from(a.finish()) << 64) | u128::from(b.finish())
}

struct Report {
    states: usize,
    depth: usize,
    secs: f64,
    violation: Option<(Broken, String, Vec<String>)>,
}

impl Report {
    fn print(&self, name: &str) {
        println!(
            "{name}: {} states, max depth {}, {:.2} s, {:.0} states/s",
            self.states,
            self.depth,
            self.secs,
            self.states as f64 / self.secs.max(1e-9)
        );
        if let Some((broken, why, trace)) = &self.violation {
            println!("  {broken:?}: {why}");
            for (i, line) in trace.iter().enumerate() {
                println!("  {:>3}. {line}", i + 1);
            }
        }
    }
}

/// Replay `path` from the initial state, naming each step.
fn describe(s: &Scope, path: &[Step]) -> Vec<String> {
    let mut st = initial(s);
    let mut lines = Vec::new();
    for &step in path {
        let line = match step {
            Step::Issue => format!("controller issues request {}", st.issued + 1),
            Step::Launch(r) => format!("rank {r} launches seq {}", st.ranks[r as usize].next),
            Step::Finish(r) => format!("rank {r} finishes its collective"),
            Step::Retry(r) => format!("rank {r}'s re-send timer fires"),
            Step::Deliver(i) => format!("deliver {:?}", st.net[i as usize]),
            Step::Batch(i, j) => format!(
                "deliver {:?}, then {:?} before that rank's next step",
                st.net[i as usize], st.net[j as usize]
            ),
            Step::Drop(i) => format!("drop {:?}", st.net[i as usize]),
            Step::Dup(i) => format!("duplicate {:?}", st.net[i as usize]),
        };
        lines.push(line);
        match apply(&st, s, step) {
            Some(Ok(n)) => st = n,
            _ => break,
        }
    }
    lines
}

/// Breadth-first search of `s`, stopping at the first violation.
fn explore(s: &Scope) -> Report {
    let start = Instant::now();
    let init = initial(s);
    let mut seen = HashSet::new();
    seen.insert(fingerprint(&init));
    // Per discovered state: its parent and the step that reached it.
    let mut trail: Vec<(u32, Step)> = vec![(u32::MAX, Step::Issue)];
    let mut frontier = VecDeque::from([(0u32, 0usize, init)]);
    let mut depth = 0;
    let path_to = |trail: &[(u32, Step)], mut at: u32| {
        let mut path = Vec::new();
        while trail[at as usize].0 != u32::MAX {
            path.push(trail[at as usize].1);
            at = trail[at as usize].0;
        }
        path.reverse();
        path
    };
    let mut violation = None;
    'search: while let Some((idx, d, st)) = frontier.pop_front() {
        depth = depth.max(d);
        let mut moved = false;
        for step in steps(&st, s) {
            let next = match apply(&st, s, step) {
                None => continue,
                Some(Ok(next)) => next,
                Some(Err((broken, why))) => {
                    let mut path = path_to(&trail, idx);
                    path.push(step);
                    violation = Some((broken, why, describe(s, &path)));
                    break 'search;
                }
            };
            moved = true;
            if seen.insert(fingerprint(&next)) {
                trail.push((idx, step));
                frontier.push_back(((trail.len() - 1) as u32, d + 1, next));
            }
        }
        // A rank in a lossy barrier has a timer armed: not quiescent,
        // whatever the retry budget says.
        let armed = s.lossy && st.ranks.iter().any(in_barrier);
        let check = if s.lossy && st.net.is_empty() {
            settles(&st, s)
        } else if !moved && !armed {
            settled(&st, s)
        } else {
            Ok(())
        };
        if let Err((broken, why)) = check {
            violation = Some((broken, why, describe(s, &path_to(&trail, idx))));
            break;
        }
    }
    Report {
        states: seen.len(),
        depth,
        secs: start.elapsed().as_secs_f64(),
        violation,
    }
}

fn assert_holds(name: &str, s: &Scope) {
    let report = explore(s);
    report.print(name);
    assert!(report.violation.is_none(), "{name}: invariant broken");
}

/// The release scope, or the smaller `debug` one in a debug build (which
/// searches about ten times slower; CI's chaos job runs release).
fn sized(release: Scope, debug: Scope) -> Scope {
    if cfg!(debug_assertions) {
        debug
    } else {
        release
    }
}

#[test]
fn three_ranks_lossless() {
    let s = sized(Scope::lossless(3, 2, 2), Scope::lossless(3, 1, 2));
    assert_holds("3 ranks, lossless", &s);
}

#[test]
fn two_ranks_three_collectives_lossless() {
    assert_holds(
        "2 ranks, lossless, 3 collectives",
        &Scope::lossless(2, 3, 2),
    );
}

#[test]
fn three_ranks_lossy() {
    let full = Scope::lossy(3, 1, 1, [1, 0, 1]);
    assert_holds(
        "3 ranks, lossy",
        &sized(full, Scope::lossy(3, 1, 1, [1, 0, 0])),
    );
}

#[test]
fn two_ranks_lossy_overlapping() {
    let full = Scope::lossy(2, 1, 2, [1, 1, 1]);
    assert_holds(
        "2 ranks, lossy",
        &sized(full, Scope::lossy(2, 1, 2, [1, 0, 1])),
    );
}

#[test]
#[ignore = "about two minutes and a few GB; run with --ignored"]
fn larger_scopes() {
    assert_holds("4 ranks, lossless", &Scope::lossless(4, 1, 1));
    assert_holds("4 ranks, lossy", &Scope::lossy(4, 1, 1, [0, 0, 0]));
    let three = Scope::lossy(2, 3, 2, [1, 0, 1]);
    assert_holds("2 ranks, lossy, 3 collectives", &three);
}

/// Overlapping requests without loss break the contract the controller
/// keeps (one reconfiguration at a time per communicator): a rank that
/// refuses the second request while still in the first leaves the others
/// waiting in its barrier. Reported, not asserted.
#[test]
fn overlapping_requests_without_loss_are_reported() {
    let s = Scope {
        overlap: true,
        ..sized(Scope::lossless(3, 1, 2), Scope::lossless(2, 1, 2))
    };
    explore(&s).print("lossless, overlapping requests");
}

/// The permanent live break: a sender that strips its own entry from the
/// gossip it emits means no other rank ever learns it, so no barrier
/// fills. The search must find the stuck quiescent state by the shortest
/// trace: the request, then five deliveries (three of them two messages
/// to one rank), until every view has made its last hop.
#[test]
fn a_barrier_missing_a_sender_is_found_stuck() {
    let s = Scope {
        strip_own: true,
        ..Scope::lossless(3, 1, 2)
    };
    let report = explore(&s);
    report.print("3 ranks, lossless, own entries stripped");
    let (broken, _, trace) = report.violation.expect("the break goes unnoticed");
    assert_eq!(broken, Broken::Unsettled);
    assert_eq!(trace.len(), 6, "{trace:#?}");
}
