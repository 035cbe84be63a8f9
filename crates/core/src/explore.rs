//! Seeded fault-interleaving exploration over the chaos driver.
//!
//! Pre-scripted `FaultPlan`s only reach interleavings someone thought to
//! author. The [`Explorer`] instead *searches*: it steps a cluster one
//! scheduler event at a time through a [`ChaosDriver`], and at every
//! decision point (the brink between two steps) a seeded RNG decides
//! whether to inject a fault and which — a partition mid-drain, a crash
//! racing recovery, a repair racing a detour. Each applied action is
//! recorded as a [`Decision`] `(index, time, action)`; because the
//! simulation is deterministic, replaying the decision trace — **without
//! the RNG** — reproduces the episode byte-for-byte (same
//! [`observable_digest`](crate::Cluster::observable_digest)), so any
//! interleaving the search finds is a permanent regression test.
//!
//! Every episode is judged by three oracles:
//! - **completed-xor-failed**: each `(communicator, seq)` must finish the
//!   same way on every rank, and nothing issued may be left unfinished
//!   at quiescence;
//! - **quiescence**: the run must go quiet before the configured
//!   deadline with no tenant left waiting, else it is reported as a
//!   [`Verdict::Hang`] with the live engines (or the waiting tenants)
//!   named;
//! - **post-restart pin convergence**: when the fabric ends healthy with
//!   the controller up, every communicator the recovery engine ever
//!   steered must sit on the policy's healthy-fabric plan — a controller
//!   crash must not strand a detour.
//!
//! Faults that would make the oracles unsatisfiable by construction are
//! paired with *obligations*: a crashed host (or controller) is always
//! restarted a few decision points later, a control hold is always
//! released. (A permanently dead link needs no obligation — the
//! service's clean failure path is exactly what is under test.) If an
//! episode quiesces with obligations outstanding, they are force-applied
//! and the run continues.

use crate::chaos::ChaosDriver;
use crate::cluster::Cluster;
use mccs_ipc::CommunicatorId;
use mccs_sim::{Nanos, Rng};
use mccs_topology::{graph, HostId, LinkId, RackId};
use std::collections::BTreeMap;

/// One fault action the explorer (or a test) can take at a decision
/// point, in terms of the [`ChaosDriver`] verbs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChaosAction {
    /// Take a link down.
    LinkDown(LinkId),
    /// Repair a link.
    LinkUp(LinkId),
    /// Degrade a link to `milli`/1000 of line rate.
    Degrade {
        /// The degraded link.
        link: LinkId,
        /// Remaining capacity in thousandths (1000 = repair).
        milli: u32,
    },
    /// Crash a host (always paired with a `RestartHost` obligation).
    CrashHost(HostId),
    /// Warm-restart a crashed host.
    RestartHost(HostId),
    /// Cut a rack's leaf off from the spines.
    PartitionRack(RackId),
    /// Undo a rack partition.
    RepairRack(RackId),
    /// Park all control-ring traffic (paired with a release obligation).
    HoldControl,
    /// Release parked control-ring traffic.
    ReleaseControl,
    /// Crash the controller (always paired with a `RestartController`
    /// obligation — a dead controller can never recover stalled work, so
    /// quiescence would be unsatisfiable).
    CrashController,
    /// Restart the crashed controller (checkpoint restore + reconcile).
    RestartController,
}

impl ChaosAction {
    /// Apply this action through the driver at the current instant.
    pub fn apply(&self, driver: &mut ChaosDriver<'_>) {
        match *self {
            ChaosAction::LinkDown(l) => driver.link_down(l),
            ChaosAction::LinkUp(l) => driver.link_up(l),
            ChaosAction::Degrade { link, milli } => driver.degrade(link, milli),
            ChaosAction::CrashHost(h) => driver.crash_host(h),
            ChaosAction::RestartHost(h) => driver.restart_host(h),
            ChaosAction::PartitionRack(r) => {
                driver.partition_rack(r);
            }
            ChaosAction::RepairRack(r) => {
                driver.repair_rack(r);
            }
            ChaosAction::HoldControl => driver.hold_control(),
            ChaosAction::ReleaseControl => driver.release_control(),
            ChaosAction::CrashController => driver.crash_controller(),
            ChaosAction::RestartController => driver.restart_controller(),
        }
    }
}

/// One recorded choice: at decision point `index` (the count of
/// [`ChaosDriver::step`] returns so far), with the clock at `at`, the
/// explorer applied `action`. The trace of these is the episode's full
/// replay script.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decision {
    /// The decision-point ordinal the action was taken at.
    pub index: u64,
    /// The virtual clock at that point (recorded for humans; replay is
    /// driven by `index`).
    pub at: Nanos,
    /// What was done.
    pub action: ChaosAction,
}

/// Search knobs.
#[derive(Clone, Copy, Debug)]
pub struct ExplorerConfig {
    /// Master seed; episode `i` derives its own stream from it.
    pub seed: u64,
    /// Episodes per [`Explorer::run`].
    pub episodes: u32,
    /// Probability of injecting a fault at each decision point (within
    /// the horizon, below the action cap).
    pub inject_prob: f64,
    /// Maximum RNG-chosen actions per episode (obligations don't count).
    pub max_actions: usize,
    /// No new faults after this virtual time — the tail of the episode
    /// exercises recovery, fail-back, and clean failure to quiescence.
    pub horizon: Nanos,
    /// Hang detector: an episode still active past this is a
    /// [`Verdict::Hang`].
    pub deadline: Nanos,
}

impl Default for ExplorerConfig {
    fn default() -> Self {
        ExplorerConfig {
            seed: 0x4d43_4353, // "MCCS"
            episodes: 6,
            inject_prob: 0.05,
            max_actions: 4,
            horizon: Nanos::from_millis(40),
            deadline: Nanos::from_secs(30),
        }
    }
}

/// How an episode ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Quiesced with the completed-xor-failed oracle satisfied.
    Ok {
        /// `(comm, seq)` groups that completed on every rank.
        completed: usize,
        /// `(comm, seq)` groups that failed cleanly on every rank.
        failed: usize,
    },
    /// Still active at the deadline, or quiet with tenants still waiting.
    Hang {
        /// The next scheduled event past the deadline; `None` when nothing
        /// was left to happen while tenants were still live.
        next_event: Option<Nanos>,
        /// Engines still live at the deadline, or the tenant engines left
        /// waiting in a quiet world.
        live_engines: Vec<String>,
    },
    /// The completed-xor-failed oracle was violated.
    Violation {
        /// Human-readable description of the violated invariant.
        detail: String,
    },
}

impl Verdict {
    /// Whether the episode passed both oracles.
    pub fn is_ok(&self) -> bool {
        matches!(self, Verdict::Ok { .. })
    }
}

/// The outcome of one episode (or one replay).
#[derive(Clone, Debug)]
pub struct EpisodeReport {
    /// The episode's seed (echoed into replays for reporting).
    pub seed: u64,
    /// Every action taken, in order — the replay script.
    pub trace: Vec<Decision>,
    /// [`observable_digest`](crate::Cluster::observable_digest) of the
    /// final state. Replaying `trace` must reproduce this exactly.
    pub digest: u64,
    /// How the episode ended.
    pub verdict: Verdict,
    /// Total decision points encountered.
    pub decisions_seen: u64,
}

/// Derive episode `i`'s seed from the master seed (splitmix-style odd
/// multiplier so nearby episodes get unrelated streams).
pub fn episode_seed(master: u64, i: u32) -> u64 {
    master ^ (u64::from(i) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A seeded random searcher over fault interleavings. `build` must
/// produce a fresh, identically-configured cluster per call — episode
/// determinism (and therefore replay) hinges on it.
pub struct Explorer<F: FnMut() -> Cluster> {
    cfg: ExplorerConfig,
    build: F,
}

impl<F: FnMut() -> Cluster> Explorer<F> {
    /// A new explorer over `build` with the given knobs.
    pub fn new(cfg: ExplorerConfig, build: F) -> Self {
        Explorer { cfg, build }
    }

    /// Run `cfg.episodes` seeded episodes and return their reports.
    pub fn run(&mut self) -> Vec<EpisodeReport> {
        (0..self.cfg.episodes)
            .map(|i| self.run_episode(episode_seed(self.cfg.seed, i)))
            .collect()
    }

    /// Run one seeded episode: the RNG explores, every action is
    /// recorded. Same seed, same build → same report (digest included).
    pub fn run_episode(&mut self, seed: u64) -> EpisodeReport {
        self.drive(seed, None)
    }

    /// Deterministically replay a recorded decision trace: the RNG is
    /// never consulted — actions are applied by decision-point index.
    /// Must reproduce the recording's digest byte-for-byte.
    pub fn replay(&mut self, seed: u64, trace: &[Decision]) -> EpisodeReport {
        self.drive(seed, Some(trace))
    }

    fn drive(&mut self, seed: u64, script: Option<&[Decision]>) -> EpisodeReport {
        let cfg = self.cfg;
        let mut cluster = (self.build)();
        let mut driver = ChaosDriver::new(&mut cluster);
        let mut rng = Rng::seed_from(seed);
        let mut trace: Vec<Decision> = Vec::new();
        // Outstanding forced follow-ups: `(due decision index, action)`.
        let mut obligations: Vec<(u64, ChaosAction)> = Vec::new();
        let mut injected = 0usize;
        let mut index: u64 = 0;
        let verdict = loop {
            let stepped = driver.step();
            index += 1;
            let now = driver.now();
            let actions: Vec<ChaosAction> = match script {
                Some(s) => s
                    .iter()
                    .filter(|d| d.index == index)
                    .map(|d| d.action.clone())
                    .collect(),
                None => match stepped {
                    Some(_) => decide(
                        &cfg,
                        &mut rng,
                        &driver,
                        index,
                        now,
                        &mut obligations,
                        &mut injected,
                    ),
                    // Quiesced with obligations outstanding: force them
                    // all now so the oracles stay satisfiable.
                    None => obligations.drain(..).map(|(_, a)| a).collect(),
                },
            };
            if let Some(t) = stepped {
                if t > cfg.deadline {
                    break Verdict::Hang {
                        next_event: Some(t),
                        live_engines: driver.cluster().live_engine_names(),
                    };
                }
            } else if actions.is_empty() {
                let waiting = driver.cluster().live_tenant_names();
                if !waiting.is_empty() {
                    break Verdict::Hang {
                        next_event: None,
                        live_engines: waiting,
                    };
                }
                break oracle(driver.cluster());
            }
            for a in actions {
                a.apply(&mut driver);
                trace.push(Decision {
                    index,
                    at: now,
                    action: a,
                });
            }
        };
        let digest = cluster.observable_digest();
        EpisodeReport {
            seed,
            trace,
            digest,
            verdict,
            decisions_seen: index,
        }
    }
}

/// The exploration policy at one decision point: due obligations first,
/// then (within horizon and budget) maybe one sampled fault.
fn decide(
    cfg: &ExplorerConfig,
    rng: &mut Rng,
    driver: &ChaosDriver<'_>,
    index: u64,
    now: Nanos,
    obligations: &mut Vec<(u64, ChaosAction)>,
    injected: &mut usize,
) -> Vec<ChaosAction> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < obligations.len() {
        if obligations[i].0 <= index {
            out.push(obligations.remove(i).1);
        } else {
            i += 1;
        }
    }
    if now <= cfg.horizon && *injected < cfg.max_actions && rng.chance(cfg.inject_prob) {
        if let Some((action, obligation)) = sample(rng, driver, index) {
            *injected += 1;
            if let Some(ob) = obligation {
                obligations.push(ob);
            }
            out.push(action);
        }
    }
    out
}

/// Sample one applicable fault from the current world state, with its
/// obligation when the fault would otherwise make the oracles
/// unsatisfiable.
#[allow(clippy::type_complexity)]
fn sample(
    rng: &mut Rng,
    driver: &ChaosDriver<'_>,
    index: u64,
) -> Option<(ChaosAction, Option<(u64, ChaosAction)>)> {
    let w = &driver.cluster().world;
    let fabric_up: Vec<LinkId> = w
        .topo
        .links()
        .iter()
        .filter(|l| {
            matches!(l.from, graph::Endpoint::Switch(_))
                && matches!(l.to, graph::Endpoint::Switch(_))
                && w.net.link_up(l.id)
        })
        .map(|l| l.id)
        .collect();
    let down: Vec<LinkId> = w
        .topo
        .links()
        .iter()
        .map(|l| l.id)
        .filter(|&l| !w.net.link_up(l))
        .collect();
    let hosts_up: Vec<HostId> = w
        .topo
        .hosts()
        .iter()
        .map(|h| h.id)
        .filter(|&h| !w.health.is_host_down(h))
        .collect();
    let racks: Vec<RackId> = {
        let mut r: Vec<RackId> = w.topo.hosts().iter().map(|h| h.rack).collect();
        r.sort_unstable();
        r.dedup();
        r
    };
    let mut menu: Vec<u8> = Vec::new();
    if !fabric_up.is_empty() {
        menu.push(0); // LinkDown
        menu.push(1); // Degrade
    }
    if !down.is_empty() {
        menu.push(2); // LinkUp
    }
    if !hosts_up.is_empty() {
        menu.push(3); // CrashHost
    }
    if !racks.is_empty() {
        menu.push(4); // PartitionRack
    }
    if !driver.is_control_held() {
        menu.push(5); // HoldControl
    }
    if !driver.is_controller_down() {
        menu.push(6); // CrashController
    }
    if menu.is_empty() {
        return None;
    }
    match *rng.choose(&menu) {
        0 => Some((ChaosAction::LinkDown(*rng.choose(&fabric_up)), None)),
        1 => {
            let milli = [250u32, 500, 750][rng.index(3)];
            Some((
                ChaosAction::Degrade {
                    link: *rng.choose(&fabric_up),
                    milli,
                },
                None,
            ))
        }
        2 => Some((ChaosAction::LinkUp(*rng.choose(&down)), None)),
        3 => {
            let h = *rng.choose(&hosts_up);
            Some((
                ChaosAction::CrashHost(h),
                Some((index + rng.range(5, 60), ChaosAction::RestartHost(h))),
            ))
        }
        4 => Some((ChaosAction::PartitionRack(*rng.choose(&racks)), None)),
        5 => Some((
            ChaosAction::HoldControl,
            Some((index + rng.range(3, 30), ChaosAction::ReleaseControl)),
        )),
        6 => Some((
            ChaosAction::CrashController,
            Some((index + rng.range(5, 60), ChaosAction::RestartController)),
        )),
        _ => unreachable!(),
    }
}

/// The completed-xor-failed oracle over the tenant log at quiescence.
fn oracle(cluster: &Cluster) -> Verdict {
    let log = &cluster.world.tenant_log;
    let unfinished = log.unfinished();
    if unfinished > 0 {
        return Verdict::Violation {
            detail: format!("{unfinished} collectives issued but never finished"),
        };
    }
    let mut groups: BTreeMap<(CommunicatorId, u64), (usize, usize)> = BTreeMap::new();
    for r in log.records() {
        let e = groups.entry((r.comm, r.seq)).or_insert((0, 0));
        if r.failed {
            e.1 += 1;
        } else {
            e.0 += 1;
        }
    }
    let mut completed = 0;
    let mut failed = 0;
    for ((comm, seq), (c, f)) in &groups {
        if *c > 0 && *f > 0 {
            return Verdict::Violation {
                detail: format!(
                    "collective {comm:?} seq {seq} completed on {c} ranks but failed on {f}"
                ),
            };
        }
        if *c > 0 {
            completed += 1;
        } else {
            failed += 1;
        }
    }
    if let Some(detail) = pin_divergence(cluster) {
        return Verdict::Violation { detail };
    }
    Verdict::Ok { completed, failed }
}

/// The post-restart convergence oracle: with the controller up and the
/// fabric fully healthy at quiescence, every communicator the recovery
/// engine ever steered (a `RecoveryIssued` or `FailbackIssued` in the
/// event log) must sit on a fixed point of the recovery policy — the
/// plan re-derived from its current configuration changes nothing. This
/// is what "the restarted controller converged" means observably: after
/// `repair_all` + restart, pins equal the healthy-fabric plan. Returns a
/// violation description, or `None` when converged (or the precondition
/// doesn't hold — a permanently broken fabric legitimately keeps its
/// detours).
fn pin_divergence(cluster: &Cluster) -> Option<String> {
    let w = &cluster.world;
    let healthy = !w.controller.down
        && w.health.links_down().next().is_none()
        && w.health.hosts_down().next().is_none()
        && w.health.links_degraded().next().is_none();
    if !healthy {
        return None;
    }
    let mut steered: Vec<CommunicatorId> = w
        .health
        .events()
        .iter()
        .filter_map(|e| match *e {
            crate::health::FailureEvent::RecoveryIssued { comm, .. }
            | crate::health::FailureEvent::FailbackIssued { comm, .. } => Some(comm),
            _ => None,
        })
        .collect();
    steered.sort_unstable();
    steered.dedup();
    for comm in steered {
        let ranks: Vec<_> = w
            .comms
            .iter()
            .filter(|((c, _), _)| *c == comm)
            .map(|(_, r)| r)
            .collect();
        let Some(first) = ranks.first() else {
            continue; // destroyed — nothing left to converge
        };
        if ranks.len() != first.world_gpus.len() {
            continue;
        }
        let current = &first.config;
        let Some((rings, routes)) = crate::recovery::DetourPolicy::plan(w, current) else {
            continue;
        };
        if rings != current.channel_rings || routes != current.routes {
            return Some(format!(
                "{comm:?} pins diverge from the healthy-fabric plan at quiescence \
                 (epoch {}): recovery state was lost across a controller restart",
                current.epoch
            ));
        }
    }
    None
}
