//! Max-min fair rate allocation (water-filling) with per-flow caps.
//!
//! Pure function: given each flow's traversed links (and optional rate
//! cap) and each link's capacity, compute the max-min fair allocation by
//! progressive filling. The classic invariants hold and are enforced by
//! property tests:
//!
//! 1. **Feasibility** — no link carries more than its capacity.
//! 2. **Cap respect** — no flow exceeds its cap.
//! 3. **Bottleneck justification** — every flow is either at its cap or
//!    traverses a saturated link on which it has a maximal rate.
//!
//! Complexity is `O(rounds × (flows + links))` with at most `flows`
//! rounds; the testbed experiments run dozens of flows and the §6.5
//! cluster a few thousand, both comfortably fast.

use mccs_sim::Bandwidth;

/// One flow's allocation inputs.
#[derive(Clone, Debug)]
pub struct FlowDemand {
    /// Dense indices of the links the flow traverses.
    pub links: Vec<usize>,
    /// Optional sender-side cap.
    pub cap: Option<Bandwidth>,
    /// Guaranteed (strict-priority) flows are allocated first, taking up to
    /// their cap before fair flows share the remainder — how the paper's
    /// Figure 7 background traffic holds 75 of 100 Gbps regardless of the
    /// collective's demand.
    pub guaranteed: bool,
}

impl FlowDemand {
    /// A fair (best-effort) flow.
    pub fn fair(links: Vec<usize>, cap: Option<Bandwidth>) -> Self {
        FlowDemand {
            links,
            cap,
            guaranteed: false,
        }
    }
}

/// Reusable scratch for [`allocate_with_priority_into`]: the per-link and
/// per-flow working vectors of the fill and the class-partition index
/// lists that [`allocate`] and [`allocate_with_priority`] would otherwise
/// allocate afresh on every solve. Hold one per solver and thread it
/// through repeated solves; steady-state churn then allocates nothing.
#[derive(Debug, Default)]
pub struct SolverScratch {
    fill: FillBuffers,
    hi_idx: Vec<usize>,
    lo_idx: Vec<usize>,
}

#[derive(Debug, Default)]
struct FillBuffers {
    /// Per link: capacity not yet handed to a frozen flow (kept only for
    /// links that two or more flows of the subset cross).
    remaining: Vec<f64>,
    /// Per link: unfrozen flows crossing it.
    active_count: Vec<u32>,
    /// Per link: where it sits in `active` and `share`, or [`PRIVATE`].
    place: Vec<u32>,
    /// Per shared link: the first of its entries in `members`, or [`END`].
    head: Vec<u32>,
    /// Shared link -> subset slots crossing it, as per-link chains of
    /// `(slot, next entry)` in descending slot order.
    members: Vec<(u32, u32)>,
    /// Shared links that still have unfrozen flows...
    active: Vec<u32>,
    /// ...and their shares (`remaining / active_count`, re-divided whenever
    /// a freeze changes either operand — so always exactly the bits a
    /// rescan would compute), dense for the per-round minimum scan.
    share: Vec<f64>,
    /// This round's links at the level.
    hot: Vec<u32>,
    /// One bit per subset slot: not yet frozen.
    live: Vec<u64>,
    /// One bit per subset slot: may freeze this round.
    cand: Vec<u64>,
    /// Per slot: the least of the flow's cap and the capacities of its
    /// private links — what binds it whatever the other flows do.
    bound: Vec<f64>,
    /// `(bound, slot)` of the flows with a finite bound, ascending.
    bounded: Vec<(f64, u32)>,
}

/// Scratch-reusing equivalent of [`allocate_with_priority`]: writes one
/// rate per flow (in input order) into `out`, reusing `scratch` buffers
/// instead of allocating. Produces bit-identical results to the oracle —
/// the priority classes are water-filled as index subsets in the same
/// relative order the oracle's filtered clones would visit them, and the
/// leftover capacities after the guaranteed pass are recomputed in input
/// order exactly as [`allocate_with_priority`] does.
pub fn allocate_with_priority_into(
    flows: &[FlowDemand],
    capacities: &[Bandwidth],
    scratch: &mut SolverScratch,
    out: &mut Vec<Bandwidth>,
) {
    out.clear();
    out.resize(flows.len(), Bandwidth::ZERO);
    scratch.hi_idx.clear();
    scratch.lo_idx.clear();
    for (i, f) in flows.iter().enumerate() {
        if f.guaranteed {
            scratch.hi_idx.push(i);
        } else {
            scratch.lo_idx.push(i);
        }
    }
    scratch.fill.remaining.clear();
    scratch
        .fill
        .remaining
        .extend(capacities.iter().map(|c| c.as_bps()));
    if scratch.hi_idx.is_empty() {
        water_fill(flows, &scratch.lo_idx, &mut scratch.fill, out);
        return;
    }
    water_fill(flows, &scratch.hi_idx, &mut scratch.fill, out);
    // Recompute the leftover from the original capacities in input order,
    // mirroring the oracle (the fill's internal `remaining` subtracts in
    // freeze order, which differs in the last ulp).
    scratch.fill.remaining.clear();
    scratch
        .fill
        .remaining
        .extend(capacities.iter().map(|c| c.as_bps()));
    for &i in &scratch.hi_idx {
        for &l in &flows[i].links {
            scratch.fill.remaining[l] = (scratch.fill.remaining[l] - out[i].as_bps()).max(0.0);
        }
    }
    water_fill(flows, &scratch.lo_idx, &mut scratch.fill, out);
}

/// Relative slack within which a share or cap counts as "at the level".
const AT_LEVEL: f64 = 1.0 + 1e-12;

/// End of a link's member chain.
const END: u32 = u32::MAX;

/// `place` of a link that only one flow of the subset crosses.
const PRIVATE: u32 = u32::MAX;

/// Progressive filling over the subset `subset` of `flows`, against the
/// per-link capacities pre-loaded into `buf.remaining` (consumed). Writes
/// `out[i]` for each `i` in `subset`; other slots are untouched.
///
/// Bit-identical to [`allocate`] over the filtered clone, at a cost of
/// O(flows × links touched) plus one pass over the still-active shared
/// links per round, instead of O(rounds × (flows × links)). [`allocate`]
/// rescans every link and every unfrozen flow each round, dividing as it
/// goes; this fill reaches the same freezes through an index:
///
/// * A link that a single flow of the subset crosses (its NIC and host
///   links, typically: most of a spine-leaf problem's links) has the share
///   `capacity / 1` until that flow freezes and never matters after, so it
///   acts exactly like a cap on the flow. Caps and private capacities fold
///   into one per-flow `bound`, sorted once; the least unfrozen bound joins
///   the level and flows whose bound is at the level are candidates.
/// * A shared link's share (`remaining / active_count`) is cached and
///   re-divided only when a freeze changes the link, so every comparison
///   sees the bits the rescan would have computed at that moment. The
///   shares of the links that still have unfrozen flows sit densely in
///   one vector, so finding the round's level is a linear pass over a
///   shrinking list of `f64`s.
/// * A flow can only freeze in a round if its bound or one of its links'
///   shares is within [`AT_LEVEL`] of the level. That same pass collects
///   those links, their members come from per-link chains built after a
///   counting pass, and the candidates — a bit per slot — are visited in
///   ascending slot order: the rescan's order, so the `remaining[l] - r`
///   subtractions happen in the same sequence and round the same way.
/// * A freeze moves the shares of the flow's other links. One that drops
///   to the level mid-round (rounding can do that) adds its later members
///   to the round's candidates; one that rises above it (a link with
///   hundreds of members drifts by more than the slack before it is
///   fully frozen) makes its remaining candidates fail the re-check and
///   wait for the next round — both exactly as in the rescan.
///
/// Relies on capacities and caps being finite and non-negative
/// ([`Bandwidth::bps`]'s contract): shares are then never NaN or `-0.0`.
fn water_fill(
    flows: &[FlowDemand],
    subset: &[usize],
    buf: &mut FillBuffers,
    out: &mut [Bandwidth],
) {
    if subset.is_empty() {
        return;
    }
    let FillBuffers {
        remaining,
        active_count,
        place,
        head,
        members,
        active,
        share,
        hot,
        live,
        cand,
        bound,
        bounded,
    } = buf;
    let nl = remaining.len();
    let words = subset.len().div_ceil(64);
    live.clear();
    live.resize(words, !0);
    live[words - 1] = !0 >> (words * 64 - subset.len());
    cand.clear();
    cand.resize(words, 0);
    active_count.clear();
    active_count.resize(nl, 0);
    place.clear();
    place.resize(nl, PRIVATE);
    // Only read for shared links, which are written when placed.
    head.resize(nl, END);
    active.clear();
    share.clear();
    members.clear();
    bound.clear();
    bounded.clear();
    for &i in subset {
        for &l in &flows[i].links {
            active_count[l] += 1;
        }
    }
    let mut linkless = false;
    for (slot, &i) in subset.iter().enumerate() {
        let f = &flows[i];
        linkless |= f.links.is_empty();
        let mut b = f.cap.map_or(f64::INFINITY, |c| c.as_bps());
        for &l in &f.links {
            if active_count[l] == 1 {
                b = b.min(remaining[l]);
                continue;
            }
            if place[l] == PRIVATE {
                place[l] = active.len() as u32;
                active.push(l as u32);
                share.push(remaining[l] / active_count[l] as f64);
                head[l] = END;
            }
            members.push((slot as u32, head[l]));
            head[l] = members.len() as u32 - 1;
        }
        bound.push(b);
        if b < f64::INFINITY {
            bounded.push((b, slot as u32));
        }
    }
    bounded.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    // Only link-free flows ever see the fallback.
    let fallback_cap = if linkless {
        remaining.iter().copied().fold(0.0_f64, f64::max)
    } else {
        0.0
    };

    let mut unfrozen = subset.len();
    let mut first_bounded = 0;
    while unfrozen > 0 {
        // The tightest constraint this round: a shared link's fair share
        // or an unfrozen flow's bound. `hot` collects every link within
        // the slack of the running minimum — a superset of those within
        // the slack of the final level, filtered below.
        let mut level = f64::INFINITY;
        let mut slack = f64::INFINITY;
        hot.clear();
        for (&l, &share) in active.iter().zip(share.iter()) {
            if share <= slack {
                hot.push(l);
                if share < level {
                    level = share;
                    slack = level * AT_LEVEL;
                }
            }
        }
        while bounded
            .get(first_bounded)
            .is_some_and(|&(_, slot)| !is_set(live, slot as usize))
        {
            first_bounded += 1;
        }
        if let Some(&(b, _)) = bounded.get(first_bounded) {
            level = level.min(b);
        }
        if !level.is_finite() {
            // Only link-free flows remain: give them their cap / fallback.
            for (slot, &i) in subset.iter().enumerate() {
                if is_set(live, slot) {
                    out[i] = flows[i].cap.unwrap_or(Bandwidth::bps(fallback_cap));
                }
            }
            break;
        }
        level = level.max(0.0);
        let slack = level * AT_LEVEL;

        for &l in hot.iter() {
            if share[place[l as usize] as usize] <= slack {
                let mut at = head[l as usize];
                while at != END {
                    let (slot, next) = members[at as usize];
                    set(cand, slot as usize);
                    at = next;
                }
            }
        }
        for &(b, slot) in &bounded[first_bounded..] {
            if b > slack {
                break;
            }
            set(cand, slot as usize);
        }

        let mut froze_any = false;
        for w in 0..words {
            // Re-read each time: a freeze may add later slots of this word.
            while cand[w] != 0 {
                let bit = cand[w].trailing_zeros() as usize;
                cand[w] &= cand[w] - 1;
                let slot = w * 64 + bit;
                if !is_set(live, slot) {
                    continue;
                }
                let f = &flows[subset[slot]];
                if bound[slot] > slack
                    && !f.links.iter().any(|&l| {
                        let k = place[l];
                        k != PRIVATE && share[k as usize] <= slack
                    })
                {
                    continue;
                }
                let r = match f.cap {
                    Some(cap) if cap.as_bps() <= slack => cap.as_bps().min(level),
                    _ => level,
                };
                out[subset[slot]] = Bandwidth::bps(r.max(0.0));
                live[w] &= !(1 << bit);
                unfrozen -= 1;
                froze_any = true;
                for &l in &f.links {
                    if place[l] == PRIVATE {
                        continue;
                    }
                    let k = place[l] as usize;
                    remaining[l] = (remaining[l] - r).max(0.0);
                    active_count[l] -= 1;
                    if active_count[l] == 0 {
                        active.swap_remove(k);
                        share.swap_remove(k);
                        if let Some(&moved) = active.get(k) {
                            place[moved as usize] = k as u32;
                        }
                        continue;
                    }
                    let was_hot = share[k] <= slack;
                    share[k] = remaining[l] / active_count[l] as f64;
                    if !was_hot && share[k] <= slack {
                        let mut at = head[l];
                        while at != END && members[at as usize].0 as usize > slot {
                            let (later, next) = members[at as usize];
                            set(cand, later as usize);
                            at = next;
                        }
                    }
                }
            }
        }
        debug_assert!(froze_any, "progressive filling stalled");
        if !froze_any {
            // Numerical corner: freeze everything at the level to terminate.
            for (slot, &i) in subset.iter().enumerate() {
                if is_set(live, slot) {
                    out[i] = Bandwidth::bps(level);
                }
            }
            break;
        }
    }
}

fn is_set(bits: &[u64], i: usize) -> bool {
    bits[i / 64] >> (i % 64) & 1 != 0
}

fn set(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

/// Two-class allocation: guaranteed flows water-fill first (among
/// themselves), then fair flows water-fill over the leftover capacity.
pub fn allocate_with_priority(flows: &[FlowDemand], capacities: &[Bandwidth]) -> Vec<Bandwidth> {
    let any_guaranteed = flows.iter().any(|f| f.guaranteed);
    if !any_guaranteed {
        return allocate(flows, capacities);
    }
    let hi: Vec<FlowDemand> = flows.iter().filter(|f| f.guaranteed).cloned().collect();
    let hi_rates = allocate(&hi, capacities);
    // Subtract the guaranteed load from every link.
    let mut leftover: Vec<f64> = capacities.iter().map(|c| c.as_bps()).collect();
    for (f, r) in hi.iter().zip(&hi_rates) {
        for &l in &f.links {
            leftover[l] = (leftover[l] - r.as_bps()).max(0.0);
        }
    }
    let lo: Vec<FlowDemand> = flows.iter().filter(|f| !f.guaranteed).cloned().collect();
    let lo_caps: Vec<Bandwidth> = leftover.into_iter().map(Bandwidth::bps).collect();
    let lo_rates = allocate(&lo, &lo_caps);
    // Stitch back in input order.
    let mut hi_it = hi_rates.into_iter();
    let mut lo_it = lo_rates.into_iter();
    flows
        .iter()
        .map(|f| {
            if f.guaranteed {
                hi_it.next().expect("one rate per guaranteed flow")
            } else {
                lo_it.next().expect("one rate per fair flow")
            }
        })
        .collect()
}

/// Compute max-min fair rates.
///
/// `capacities[l]` is the capacity of link `l`; `flows[f].links` index into
/// it. Returns one rate per flow, in order. Flows traversing no links
/// (never the case for real NIC-to-NIC routes) get an infinite share and
/// are clamped to their cap or to the largest link capacity.
pub fn allocate(flows: &[FlowDemand], capacities: &[Bandwidth]) -> Vec<Bandwidth> {
    let nf = flows.len();
    let nl = capacities.len();
    let mut rate = vec![Bandwidth::ZERO; nf];
    if nf == 0 {
        return rate;
    }

    let mut frozen = vec![false; nf];
    let mut remaining: Vec<f64> = capacities.iter().map(|c| c.as_bps()).collect();
    let mut active_count = vec![0usize; nl];
    for f in flows {
        for &l in &f.links {
            active_count[l] += 1;
        }
    }

    let fallback_cap = capacities
        .iter()
        .map(|c| c.as_bps())
        .fold(0.0_f64, f64::max);

    let mut unfrozen = nf;
    while unfrozen > 0 {
        // The tightest constraint this round: either a link's fair share or
        // some flow's cap.
        let mut level = f64::INFINITY;
        for l in 0..nl {
            if active_count[l] > 0 {
                level = level.min(remaining[l] / active_count[l] as f64);
            }
        }
        for (i, f) in flows.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            if let Some(cap) = f.cap {
                level = level.min(cap.as_bps());
            }
        }
        if !level.is_finite() {
            // Only link-free flows remain: give them their cap / fallback.
            for (i, f) in flows.iter().enumerate() {
                if !frozen[i] {
                    rate[i] = f.cap.unwrap_or(Bandwidth::bps(fallback_cap));
                    frozen[i] = true;
                }
            }
            break;
        }
        level = level.max(0.0);

        // Freeze every flow bound by this level: capped flows whose cap
        // equals the level, and flows on links that the level saturates.
        let mut froze_any = false;
        for (i, f) in flows.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            let capped = f.cap.is_some_and(|c| c.as_bps() <= level * (1.0 + 1e-12));
            let bottlenecked = f
                .links
                .iter()
                .any(|&l| remaining[l] / active_count[l] as f64 <= level * (1.0 + 1e-12));
            if capped || bottlenecked {
                let r = if capped {
                    f.cap.expect("checked").as_bps().min(level)
                } else {
                    level
                };
                rate[i] = Bandwidth::bps(r.max(0.0));
                frozen[i] = true;
                unfrozen -= 1;
                froze_any = true;
                for &l in &f.links {
                    remaining[l] = (remaining[l] - r).max(0.0);
                    active_count[l] -= 1;
                }
            }
        }
        debug_assert!(froze_any, "progressive filling stalled");
        if !froze_any {
            // Numerical corner: freeze everything at the level to terminate.
            for (i, f) in flows.iter().enumerate() {
                if !frozen[i] {
                    rate[i] = Bandwidth::bps(level);
                    frozen[i] = true;
                    for &l in &f.links {
                        remaining[l] = (remaining[l] - level).max(0.0);
                        active_count[l] -= 1;
                    }
                }
            }
            break;
        }
    }
    rate
}

/// Like [`check_invariants`] but aware of the two-class priority of
/// [`allocate_with_priority`]: guaranteed flows are checked against the
/// full capacities among themselves, fair flows against the residual after
/// the guaranteed load — mirroring how the allocation is computed.
#[cfg(test)]
pub(crate) fn check_invariants_with_priority(
    flows: &[FlowDemand],
    caps: &[Bandwidth],
    rates: &[Bandwidth],
) {
    let hi: Vec<FlowDemand> = flows.iter().filter(|f| f.guaranteed).cloned().collect();
    let hi_rates: Vec<Bandwidth> = flows
        .iter()
        .zip(rates)
        .filter(|(f, _)| f.guaranteed)
        .map(|(_, &r)| r)
        .collect();
    check_invariants(&hi, caps, &hi_rates);
    let mut leftover: Vec<f64> = caps.iter().map(|c| c.as_bps()).collect();
    for (f, r) in hi.iter().zip(&hi_rates) {
        for &l in &f.links {
            leftover[l] = (leftover[l] - r.as_bps()).max(0.0);
        }
    }
    let lo: Vec<FlowDemand> = flows.iter().filter(|f| !f.guaranteed).cloned().collect();
    let lo_rates: Vec<Bandwidth> = flows
        .iter()
        .zip(rates)
        .filter(|(f, _)| !f.guaranteed)
        .map(|(_, &r)| r)
        .collect();
    let lo_caps: Vec<Bandwidth> = leftover.into_iter().map(Bandwidth::bps).collect();
    check_invariants(&lo, &lo_caps, &lo_rates);
}

/// The max-min *definition* the property tests check — reusable by other
/// modules' tests, and independent of how any solver gets there:
/// feasibility, cap respect, and bottleneck justification (every flow is
/// at its cap or crosses a saturated link on which no flow has a larger
/// rate). Linear in flows × links, so the 1,024-flow cases can afford it.
#[cfg(test)]
pub(crate) fn check_invariants(flows: &[FlowDemand], caps: &[Bandwidth], rates: &[Bandwidth]) {
    let tol = 1e-6; // relative, plus 1 bps absolute at multi-Gbps scales
    let mut load = vec![0.0_f64; caps.len()];
    let mut max_rate = vec![0.0_f64; caps.len()];
    for (f, r) in flows.iter().zip(rates) {
        for &l in &f.links {
            load[l] += r.as_bps();
            max_rate[l] = max_rate[l].max(r.as_bps());
        }
    }
    // 1. feasibility
    for (l, cap) in caps.iter().enumerate() {
        assert!(
            load[l] <= cap.as_bps() * (1.0 + tol) + 1.0,
            "link {l} overloaded: {} > {}",
            load[l],
            cap.as_bps()
        );
    }
    // 2. caps
    for (f, r) in flows.iter().zip(rates) {
        if let Some(c) = f.cap {
            assert!(r.as_bps() <= c.as_bps() * (1.0 + tol) + 1.0);
        }
    }
    // 3. bottleneck justification
    for (i, f) in flows.iter().enumerate() {
        if f.cap
            .is_some_and(|c| (rates[i].as_bps() - c.as_bps()).abs() < 1.0)
        {
            continue; // at cap
        }
        if f.links.is_empty() {
            continue;
        }
        let justified = f.links.iter().any(|&l| {
            let saturated = load[l] >= caps[l].as_bps() * (1.0 - tol) - 1.0;
            let maximal = max_rate[l] <= rates[i].as_bps() * (1.0 + tol) + 1.0;
            saturated && maximal
        });
        assert!(justified, "flow {i} is neither capped nor bottlenecked");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gbps(x: f64) -> Bandwidth {
        Bandwidth::gbps(x)
    }

    fn demand(links: &[usize]) -> FlowDemand {
        FlowDemand::fair(links.to_vec(), None)
    }

    #[test]
    fn single_flow_gets_min_link() {
        let rates = allocate(&[demand(&[0, 1])], &[gbps(100.0), gbps(50.0)]);
        assert!((rates[0].as_gbps() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn two_flows_split_shared_link() {
        let rates = allocate(&[demand(&[0]), demand(&[0])], &[gbps(100.0)]);
        assert!((rates[0].as_gbps() - 50.0).abs() < 1e-9);
        assert!((rates[1].as_gbps() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn classic_three_flow_water_fill() {
        // Link 0 (10G) carries flows A and B; link 1 (8G) carries B and C.
        // Max-min: B bottlenecked at min(5, 4) = 4 on link 1, C gets 4,
        // then A fills link 0 to 6.
        let rates = allocate(
            &[demand(&[0]), demand(&[0, 1]), demand(&[1])],
            &[gbps(10.0), gbps(8.0)],
        );
        assert!((rates[1].as_gbps() - 4.0).abs() < 1e-9, "B {:?}", rates[1]);
        assert!((rates[2].as_gbps() - 4.0).abs() < 1e-9, "C {:?}", rates[2]);
        assert!((rates[0].as_gbps() - 6.0).abs() < 1e-9, "A {:?}", rates[0]);
    }

    #[test]
    fn caps_are_respected_and_released_capacity_shared() {
        // Two flows on a 100G link; one capped at 10G -> other gets 90G.
        let flows = [FlowDemand::fair(vec![0], Some(gbps(10.0))), demand(&[0])];
        let rates = allocate(&flows, &[gbps(100.0)]);
        assert!((rates[0].as_gbps() - 10.0).abs() < 1e-9);
        assert!((rates[1].as_gbps() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn empty_inputs() {
        assert!(allocate(&[], &[gbps(1.0)]).is_empty());
    }

    #[test]
    fn linkless_flow_gets_cap() {
        let flows = [FlowDemand::fair(vec![], Some(gbps(5.0)))];
        let rates = allocate(&flows, &[gbps(100.0)]);
        assert!((rates[0].as_gbps() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_flows_each_get_full_capacity() {
        let rates = allocate(&[demand(&[0]), demand(&[1])], &[gbps(40.0), gbps(25.0)]);
        assert!((rates[0].as_gbps() - 40.0).abs() < 1e-9);
        assert!((rates[1].as_gbps() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn guaranteed_flows_preempt_fair_flows() {
        // 100G link: a guaranteed 75G flow + one fair flow -> 75/25 split,
        // the Figure 7 background-traffic situation.
        let flows = [
            FlowDemand {
                links: vec![0],
                cap: Some(gbps(75.0)),
                guaranteed: true,
            },
            demand(&[0]),
        ];
        let rates = allocate_with_priority(&flows, &[gbps(100.0)]);
        assert!((rates[0].as_gbps() - 75.0).abs() < 1e-9);
        assert!((rates[1].as_gbps() - 25.0).abs() < 1e-9);
        // Without the guarantee the same flows split 50/50 (cap unmet).
        let fair = [FlowDemand::fair(vec![0], Some(gbps(75.0))), demand(&[0])];
        let rates = allocate_with_priority(&fair, &[gbps(100.0)]);
        assert!((rates[0].as_gbps() - 50.0).abs() < 1e-9);
        assert!((rates[1].as_gbps() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn two_guaranteed_flows_share_fairly_among_themselves() {
        let flows = [
            FlowDemand {
                links: vec![0],
                cap: Some(gbps(80.0)),
                guaranteed: true,
            },
            FlowDemand {
                links: vec![0],
                cap: Some(gbps(80.0)),
                guaranteed: true,
            },
            demand(&[0]),
        ];
        let rates = allocate_with_priority(&flows, &[gbps(100.0)]);
        assert!((rates[0].as_gbps() - 50.0).abs() < 1e-9);
        assert!((rates[1].as_gbps() - 50.0).abs() < 1e-9);
        assert!(rates[2].as_gbps() < 1e-9, "fair flow starved by guarantees");
    }

    #[test]
    fn invariants_on_known_cases() {
        let caps = [gbps(10.0), gbps(8.0)];
        let flows = [demand(&[0]), demand(&[0, 1]), demand(&[1])];
        let rates = allocate(&flows, &caps);
        check_invariants(&flows, &caps, &rates);
    }

    /// A spine-leaf-shaped problem of `nf` six-link flows (host, NIC and
    /// leaf uplinks on the way up, their mirror images on the way down)
    /// over 16 leaves x 8 spines: every capacity is scaled by its own
    /// random factor so nearly every link is its own bottleneck level, a
    /// few links are down (zero capacity), and a share of the flows is
    /// capped and/or guaranteed.
    fn spine_leaf_problem(seed: u64, nf: usize) -> (Vec<FlowDemand>, Vec<Bandwidth>) {
        const LEAVES: usize = 16;
        const SPINES: usize = 8;
        const NICS_PER_LEAF: usize = 16;
        const NICS_PER_HOST: usize = 4;
        let nics = LEAVES * NICS_PER_LEAF;
        let hosts = nics / NICS_PER_HOST;
        let (nic_up, nic_down) = (0, nics);
        let (host_up, host_down) = (2 * nics, 2 * nics + hosts);
        let leaf_up = 2 * nics + 2 * hosts;
        let leaf_down = leaf_up + LEAVES * SPINES;
        let mut rng = mccs_sim::Rng::seed_from(seed);
        let caps: Vec<Bandwidth> = (0..leaf_down + LEAVES * SPINES)
            .map(|_| {
                if rng.chance(0.01) {
                    Bandwidth::ZERO
                } else {
                    gbps(100.0 * rng.uniform(0.3, 1.0))
                }
            })
            .collect();
        let flows = (0..nf)
            .map(|_| {
                let src = rng.index(nics);
                let dst = (src + NICS_PER_LEAF + rng.index(nics - 2 * NICS_PER_LEAF)) % nics;
                let spine = rng.index(SPINES);
                let links = vec![
                    host_up + src / NICS_PER_HOST,
                    nic_up + src,
                    leaf_up + (src / NICS_PER_LEAF) * SPINES + spine,
                    leaf_down + (dst / NICS_PER_LEAF) * SPINES + spine,
                    nic_down + dst,
                    host_down + dst / NICS_PER_HOST,
                ];
                let guaranteed = rng.chance(0.1);
                let cap = (guaranteed || rng.chance(0.2)).then(|| gbps(rng.uniform(1.0, 40.0)));
                FlowDemand {
                    links,
                    cap,
                    guaranteed,
                }
            })
            .collect();
        (flows, caps)
    }

    fn assert_bits_match_oracle(
        flows: &[FlowDemand],
        caps: &[Bandwidth],
        scratch: &mut SolverScratch,
    ) -> Vec<Bandwidth> {
        let oracle = allocate_with_priority(flows, caps);
        let mut out = Vec::new();
        allocate_with_priority_into(flows, caps, scratch, &mut out);
        assert_eq!(out.len(), oracle.len());
        for (i, (x, y)) in out.iter().zip(&oracle).enumerate() {
            assert_eq!(
                x.as_bps().to_bits(),
                y.as_bps().to_bits(),
                "flow {i}: indexed fill {x:?} vs oracle {y:?}"
            );
        }
        out
    }

    /// One link with hundreds of members does not freeze in one round:
    /// each `remaining - level` subtraction rounds, the share of the
    /// shrinking remainder drifts past the 1e-12 slack, and the tail of
    /// the link freezes in later rounds at slightly different levels. The
    /// indexed fill must reproduce that drift bit for bit.
    #[test]
    fn one_link_freezing_across_rounds_matches_oracle() {
        // 70 Gbps is a 100G link under the cross-tenant penalty.
        let caps = [gbps(70.0), gbps(400.0)];
        // 600 flows on link 0; every third one also crosses link 1.
        let flows: Vec<FlowDemand> = (0..600)
            .map(|i| demand(if i % 3 == 0 { &[0, 1] } else { &[0] }))
            .collect();
        let rates = assert_bits_match_oracle(&flows, &caps, &mut SolverScratch::default());
        let distinct: std::collections::BTreeSet<u64> =
            rates.iter().map(|r| r.as_bps().to_bits()).collect();
        assert!(
            distinct.len() > 1,
            "expected the link to freeze over several rounds"
        );
        check_invariants(&flows, &caps, &rates);
    }

    /// Links only one flow of a class crosses never enter the fill's link
    /// index: they bind that flow like a cap. Exercise every way that can
    /// matter — differing private capacities, a down private link, a cap
    /// below and above the private bound, one link listed twice, and a
    /// link that is private among the guaranteed flows but shared among
    /// the fair ones.
    #[test]
    fn private_links_bind_like_caps() {
        let caps = [
            gbps(100.0),     // 0: shared by seven fair flows
            gbps(7.0),       // 1: private, below the fair share
            gbps(80.0),      // 2: private, above it
            Bandwidth::ZERO, // 3: private and down
            gbps(30.0),      // 4: listed twice by one flow
            gbps(50.0),      // 5: one guaranteed flow, two fair ones
            gbps(9.0),       // 6: private, under a tighter cap
            gbps(60.0),      // 7: private, under a looser cap
        ];
        let capped = |links: &[usize], cap: f64| FlowDemand::fair(links.to_vec(), Some(gbps(cap)));
        let flows = vec![
            demand(&[0, 1]),
            demand(&[0, 2]),
            demand(&[0, 3]),
            demand(&[0, 4, 4]),
            capped(&[0, 6], 3.0),
            capped(&[0, 7], 90.0),
            demand(&[0, 5]),
            demand(&[5]),
            FlowDemand {
                links: vec![5],
                cap: Some(gbps(20.0)),
                guaranteed: true,
            },
        ];
        let mut scratch = SolverScratch::default();
        let rates = assert_bits_match_oracle(&flows, &caps, &mut scratch);
        check_invariants_with_priority(&flows, &caps, &rates);
        assert_eq!(rates[0], gbps(7.0));
        assert_eq!(rates[2], Bandwidth::ZERO);
        assert_eq!(rates[4], gbps(3.0));
        assert_eq!(rates[8], gbps(20.0));
        // All-private problems have no shared link at all.
        let alone = [
            demand(&[1]),
            demand(&[2, 4]),
            capped(&[0], 5.0),
            demand(&[3]),
        ];
        let rates = assert_bits_match_oracle(&alone, &caps, &mut scratch);
        check_invariants(&alone, &caps, &rates);
        assert_eq!(rates, [gbps(7.0), gbps(30.0), gbps(5.0), Bandwidth::ZERO]);
    }

    #[test]
    fn scratch_survives_large_small_large() {
        let mut scratch = SolverScratch::default();
        let (big, big_caps) = spine_leaf_problem(7, 1024);
        let small = [demand(&[0]), demand(&[0, 1]), demand(&[1])];
        let small_caps = [gbps(10.0), gbps(8.0)];
        let first = assert_bits_match_oracle(&big, &big_caps, &mut scratch);
        assert_bits_match_oracle(&small, &small_caps, &mut scratch);
        let again = assert_bits_match_oracle(&big, &big_caps, &mut scratch);
        assert_eq!(first, again);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        fn arb_flows() -> impl Strategy<Value = (Vec<FlowDemand>, Vec<Bandwidth>)> {
            // up to 12 links of 1..400 gbps, up to 24 flows over 1..5 links
            (1usize..12, 1usize..24).prop_flat_map(|(nl, nf)| {
                let caps = proptest::collection::vec(1.0f64..400.0, nl)
                    .prop_map(|v| v.into_iter().map(Bandwidth::gbps).collect::<Vec<_>>());
                let flows = proptest::collection::vec(
                    (
                        proptest::collection::btree_set(0usize..nl, 1..=nl.min(5)),
                        proptest::option::of(1.0f64..200.0),
                    )
                        .prop_map(|(links, cap)| {
                            FlowDemand::fair(links.into_iter().collect(), cap.map(Bandwidth::gbps))
                        }),
                    nf,
                );
                (flows, caps)
            })
        }

        fn arb_flows_mixed() -> impl Strategy<Value = (Vec<FlowDemand>, Vec<Bandwidth>)> {
            // Like `arb_flows` but with a guaranteed class mixed in, to
            // exercise the two-pass priority path of the scratch solver.
            (1usize..12, 1usize..24).prop_flat_map(|(nl, nf)| {
                let caps = proptest::collection::vec(1.0f64..400.0, nl)
                    .prop_map(|v| v.into_iter().map(Bandwidth::gbps).collect::<Vec<_>>());
                let flows = proptest::collection::vec(
                    (
                        proptest::collection::btree_set(0usize..nl, 1..=nl.min(5)),
                        proptest::option::of(1.0f64..200.0),
                        any::<bool>(),
                    )
                        .prop_map(|(links, cap, guaranteed)| FlowDemand {
                            links: links.into_iter().collect(),
                            cap: cap.map(Bandwidth::gbps),
                            guaranteed,
                        }),
                    nf,
                );
                (flows, caps)
            })
        }

        proptest! {
            #[test]
            fn allocation_satisfies_maxmin_invariants((flows, caps) in arb_flows()) {
                let rates = allocate(&flows, &caps);
                prop_assert_eq!(rates.len(), flows.len());
                super::check_invariants(&flows, &caps, &rates);
            }

            #[test]
            fn allocation_is_deterministic((flows, caps) in arb_flows()) {
                let a = allocate(&flows, &caps);
                let b = allocate(&flows, &caps);
                for (x, y) in a.iter().zip(&b) {
                    prop_assert_eq!(x.as_bps(), y.as_bps());
                }
            }

            #[test]
            fn scratch_reuse_matches_oracle(
                cases in proptest::collection::vec(arb_flows_mixed(), 1..8)
            ) {
                // One scratch reused across a whole sequence of problems of
                // varying shape must reproduce the allocating oracle
                // bit-for-bit on every one.
                let mut scratch = SolverScratch::default();
                let mut out = Vec::new();
                for (flows, caps) in &cases {
                    let oracle = allocate_with_priority(flows, caps);
                    allocate_with_priority_into(flows, caps, &mut scratch, &mut out);
                    prop_assert_eq!(out.len(), oracle.len());
                    for (x, y) in out.iter().zip(&oracle) {
                        prop_assert_eq!(x.as_bps(), y.as_bps());
                    }
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// At the sizes the multi-tenant runs solve (hundreds of
            /// coupled flows, dozens of distinct bottleneck levels) the
            /// indexed fill matches the rescanning oracle bit for bit,
            /// and the result satisfies the max-min definition itself.
            #[test]
            fn spine_leaf_sized_problems_match_oracle_and_definition(
                seed in any::<u64>(),
                nf in 256usize..=1024,
            ) {
                let (flows, caps) = spine_leaf_problem(seed, nf);
                let rates =
                    assert_bits_match_oracle(&flows, &caps, &mut SolverScratch::default());
                check_invariants_with_priority(&flows, &caps, &rates);
            }
        }
    }
}
