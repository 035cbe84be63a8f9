//! The untraced measurement of one `(workload, seed)`: repeat the same
//! episode — set-up, then run to quiescence — for the requested number
//! of seconds and report medians. Every repetition must reproduce the
//! first one's digest, counts and virtual-time results exactly.

use crate::run::{self, Outcome};
use crate::spec::Workload;
use crate::trace::NoTrace;
use crate::{alloc, procfs, stats};
use std::time::Instant;

/// Repetitions measured even when one alone outlasts the time budget:
/// a median needs at least three.
pub const MIN_REPS: usize = 3;

/// Set-up is a millisecond or less on most worlds, far too short for
/// one timing per repetition to mean much. So every repetition is
/// followed by a burst of further set-ups (built and dropped), up to
/// this many or for this long (`lib_churn_10k`, at 0.1 s a time, stops
/// on the budget), and one sample is the best of [`SETUP_BATCH`]
/// consecutive ones: what slows a set-up of a fifth of a millisecond —
/// a cold cache after the episode, an interrupt — only ever adds time.
/// `setup_s` is the median of those samples, which span the run like
/// `wall_s`'s and see the same drift of the machine.
const SETUP_BURST: usize = 30;
const SETUP_BURST_BUDGET_S: f64 = 0.2;
const SETUP_BATCH: usize = 5;

/// Host-side readings of one repetition.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub setup_s: f64,
    pub wall_s: f64,
    /// Absent where `/proc` is.
    pub cpu_s: Option<f64>,
    pub runq_wait_s: Option<f64>,
    pub peak_heap_mib: f64,
}

pub struct Measured {
    pub outcome: Outcome,
    pub samples: Vec<Sample>,
    /// Set-up seconds: best-of-batch samples from the burst of set-ups
    /// that follows each repetition (see [`SETUP_BATCH`]).
    pub setup_s: Vec<f64>,
    /// Correctness violations; empty when the run is correct.
    pub problems: Vec<String>,
}

impl Measured {
    pub fn values(&self, f: impl Fn(&Sample) -> f64) -> Vec<f64> {
        self.samples.iter().map(f).collect()
    }

    /// Median CPU seconds, when every repetition could read it.
    pub fn cpu_values(&self) -> Option<Vec<f64>> {
        self.samples.iter().map(|s| s.cpu_s).collect()
    }

    pub fn runq_values(&self) -> Option<Vec<f64>> {
        self.samples.iter().map(|s| s.runq_wait_s).collect()
    }

    pub fn wall_median(&self) -> f64 {
        stats::median(&self.values(|s| s.wall_s))
    }
}

/// One episode: returns its host readings and its outcome.
pub fn episode(w: Workload, seed: u64, quick: bool) -> (Sample, Outcome, Vec<String>) {
    let (mut sc, setup_s) = run::set_up(w, seed, quick, &mut NoTrace);
    alloc::reset_peak();
    let cpu0 = procfs::cpu_s();
    let wait0 = procfs::runq_wait_s();
    let t0 = Instant::now();
    let drive = run::drive(&mut sc, &mut NoTrace);
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = procfs::cpu_s().zip(cpu0).map(|(a, b)| a - b);
    let runq_wait_s = procfs::runq_wait_s().zip(wait0).map(|(a, b)| a - b);
    let peak_heap_mib = alloc::peak_mib();
    let (outcome, problems) = run::outcome(&sc, drive);
    (
        Sample {
            setup_s,
            wall_s,
            cpu_s,
            runq_wait_s,
            peak_heap_mib,
        },
        outcome,
        problems,
    )
}

/// Measure `(w, seed)` for about `seconds` of run time. There is no
/// separate warm-up: a first repetition slowed by page faults is one
/// outlier, which the median of three or more ignores.
pub fn measure(w: Workload, seed: u64, seconds: f64, quick: bool) -> Measured {
    let [m] = measure_sets(w, seed, seconds, quick);
    m
}

/// `N` measurements of `(w, seed)` at once, of about `seconds` of run
/// time each, taking turns episode by episode. This sandbox's speed
/// drifts by a fifth over a minute: measurements made one after the
/// other can differ by that much with nothing changed, measurements
/// that alternate see the same drift.
pub fn measure_sets<const N: usize>(
    w: Workload,
    seed: u64,
    seconds: f64,
    quick: bool,
) -> [Measured; N] {
    let mut reference: Option<(Outcome, Vec<String>)> = None;
    let mut sets: [(Vec<Sample>, Vec<f64>, Vec<String>); N] =
        std::array::from_fn(|_| Default::default());
    let mut reps = 0;
    let mut measured_s = 0.0;
    while reps < MIN_REPS || measured_s < seconds {
        reps += 1;
        for (samples, setup_s, diverged) in &mut sets {
            let (sample, outcome, found) = episode(w, seed, quick);
            let (first, _) = reference.get_or_insert_with(|| (outcome.clone(), found));
            if *first != outcome {
                diverged.push(format!(
                    "repetition {reps} diverged from the first: digest {:016x} vs {:016x}, {:?} vs {:?}",
                    outcome.digest, first.digest, outcome.counts, first.counts
                ));
            }
            measured_s += sample.wall_s / N as f64;
            eprintln!(
                "  {} seed {seed} rep {reps}: setup {:.3} s, wall {:.3} s, peak {:.1} MiB",
                w.name(),
                sample.setup_s,
                sample.wall_s,
                sample.peak_heap_mib
            );
            let mut burst = vec![sample.setup_s];
            let began = Instant::now();
            while burst.len() < SETUP_BURST && began.elapsed().as_secs_f64() < SETUP_BURST_BUDGET_S
            {
                burst.push(run::set_up(w, seed, quick, &mut NoTrace).1);
            }
            setup_s.extend(
                burst
                    .chunks(SETUP_BATCH)
                    .map(|batch| batch.iter().copied().fold(f64::INFINITY, f64::min)),
            );
            samples.push(sample);
        }
    }
    let (outcome, found) = reference.expect("at least one repetition ran");
    sets.map(|(samples, setup_s, diverged)| Measured {
        outcome: outcome.clone(),
        samples,
        setup_s,
        // What was wrong with the first episode is wrong with all.
        problems: found.iter().cloned().chain(diverged).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use crate::spec::WORKLOADS;

    /// All four workloads at toy sizes: correct, nothing failed, and the
    /// digest, counts and virtual-time results repeat exactly for a seed
    /// and move with it.
    #[test]
    fn quick_smoke_repeats_exactly_per_seed() {
        let t0 = Instant::now();
        for w in WORKLOADS {
            // Two alternating measurements (three repetitions each, all
            // checked against the first) and one further episode.
            let [a, b] = measure_sets(w, 5, 0.0, true);
            for set in [&a, &b] {
                assert!(set.problems.is_empty(), "{}: {:?}", w.name(), set.problems);
                assert_eq!(set.samples.len(), MIN_REPS);
                assert!(set.setup_s.len() >= MIN_REPS);
            }
            assert_eq!(a.outcome.failed, 0, "{}", w.name());
            assert_eq!(a.outcome.completed, a.outcome.attempted, "{}", w.name());
            // Exactly the end-to-end metrics BENCHMARK.json promises.
            let reported: Vec<&str> = metrics::end_to_end(&a).iter().map(|r| r.name).collect();
            let promised: Vec<&str> = metrics::manifest()
                .end_to_end
                .iter()
                .map(|m| m.name.as_str())
                .filter(|name| *name != "cpu_s" || procfs::cpu_s().is_some())
                .collect();
            assert_eq!(reported, promised, "{}", w.name());
            assert!(a.outcome.sim_busbw_gbps > 0.0 && a.outcome.sim_makespan_s > 0.0);
            let (_, again, _) = episode(w, 5, true);
            assert_eq!(again, a.outcome, "{}", w.name());
            let (_, other, problems) = episode(w, 6, true);
            assert!(problems.is_empty(), "{}: {problems:?}", w.name());
            assert_ne!(other.digest, a.outcome.digest, "{}", w.name());
        }
        assert!(
            t0.elapsed().as_secs() < 10,
            "quick smoke took {:?}",
            t0.elapsed()
        );
    }
}
