//! In-memory spans recorded by the benchmark's own driver loop, around
//! its calls into each layer. Nothing here reaches into the simulator:
//! spans inside the program are a later change (ROADMAP open item 1).

use crate::alloc;
use crate::json::Value;
use std::time::Instant;

/// The boundaries the driver records. The label is `<layer>.<what>`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpanName {
    Setup,
    TopologyBuild,
    Plan,
    ClusterNew,
    AddApps,
    Run,
    Poll,
    NextTime,
    Advance,
    Optimize,
}

pub const SPAN_NAMES: [SpanName; 10] = [
    SpanName::Setup,
    SpanName::TopologyBuild,
    SpanName::Plan,
    SpanName::ClusterNew,
    SpanName::AddApps,
    SpanName::Run,
    SpanName::Poll,
    SpanName::NextTime,
    SpanName::Advance,
    SpanName::Optimize,
];

impl SpanName {
    pub fn label(self) -> &'static str {
        match self {
            SpanName::Setup => "bench.setup",
            SpanName::TopologyBuild => "topology.build",
            SpanName::Plan => "workloads.plan",
            SpanName::ClusterNew => "core.cluster_new",
            SpanName::AddApps => "shim.add_apps",
            SpanName::Run => "bench.run",
            SpanName::Poll => "core.poll",
            SpanName::NextTime => "core.next_time",
            SpanName::Advance => "core.advance",
            SpanName::Optimize => "control.optimize",
        }
    }
}

/// One recorded interval. `parent` is the index of the span that was
/// open when this one began; `step` is the driver-loop iteration, the
/// identifier shared by every span of that step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: SpanName,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub step: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What the driver loop reports to. The untraced implementation is
/// empty, so an untraced run reads no clock inside the loop.
pub trait Recorder {
    fn enter(&mut self, name: SpanName);
    fn exit(&mut self);
    /// Close the open span and open a sibling at the same instant: one
    /// clock read where `exit` + `enter` would take two.
    fn switch(&mut self, name: SpanName);
    /// Called once per driver-loop iteration, before its spans, with a
    /// reader of the network's live flow count.
    fn begin_step(&mut self, live_flows: impl FnOnce() -> usize);
}

pub struct NoTrace;

impl Recorder for NoTrace {
    #[inline(always)]
    fn enter(&mut self, _: SpanName) {}
    #[inline(always)]
    fn exit(&mut self) {}
    #[inline(always)]
    fn switch(&mut self, _: SpanName) {}
    #[inline(always)]
    fn begin_step(&mut self, _: impl FnOnce() -> usize) {}
}

/// Allocation totals charged to one span name.
#[derive(Clone, Copy, Default, Debug)]
pub struct AllocTally {
    pub calls: u64,
    pub bytes: u64,
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    /// Open spans: index and the allocator totals when each began.
    stack: Vec<(u32, (u64, u64))>,
    step: u32,
    /// `world.net.flow_count()` at the start of each step.
    pub live_flows: Vec<u32>,
    allocs: [AllocTally; SPAN_NAMES.len()],
}

impl Tracer {
    pub fn new() -> Self {
        // Room for half a million steps, written once here so the pages
        // are faulted in before the run rather than inside its spans.
        let blank = Span {
            name: SpanName::Run,
            start_ns: 0,
            end_ns: 0,
            parent: None,
            step: 0,
        };
        let mut spans = vec![blank; 1 << 21];
        spans.clear();
        Tracer {
            origin: Instant::now(),
            spans,
            stack: Vec::with_capacity(8),
            step: 0,
            live_flows: Vec::with_capacity(1 << 19),
            allocs: [AllocTally::default(); SPAN_NAMES.len()],
        }
    }

    pub fn steps(&self) -> u32 {
        self.step
    }

    pub fn allocs(&self, name: SpanName) -> AllocTally {
        self.allocs[name as usize]
    }

    /// Durations of every span called `name`, in nanoseconds.
    pub fn durations_ns(&self, name: SpanName) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Total seconds inside spans called `name`.
    pub fn total_s(&self, name: SpanName) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum::<u64>() as f64
            / 1e9
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span whose start time the caller fills in.
    fn open(&mut self, name: SpanName) -> u32 {
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().map(|&(i, _)| i),
            step: self.step,
        });
        self.stack.push((idx, alloc::totals()));
        idx
    }

    /// Close the innermost open span at `end`.
    fn close(&mut self, end: u64) {
        let (calls, bytes) = alloc::totals();
        let (idx, (calls0, bytes0)) = self.stack.pop().expect("exit without enter");
        let span = &mut self.spans[idx as usize];
        span.end_ns = end;
        let tally = &mut self.allocs[span.name as usize];
        tally.calls += calls - calls0;
        tally.bytes += bytes - bytes0;
    }
}

impl Recorder for Tracer {
    fn enter(&mut self, name: SpanName) {
        let idx = self.open(name);
        // The clock is read last on entry and first on exit, so the
        // recorder's own bookkeeping falls outside the interval.
        self.spans[idx as usize].start_ns = self.now_ns();
    }

    fn exit(&mut self) {
        let end = self.now_ns();
        self.close(end);
    }

    fn switch(&mut self, name: SpanName) {
        let at = self.now_ns();
        self.close(at);
        let idx = self.open(name);
        self.spans[idx as usize].start_ns = at;
    }

    fn begin_step(&mut self, live_flows: impl FnOnce() -> usize) {
        self.step += 1;
        self.live_flows.push(live_flows() as u32);
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for child in spans {
        if let Some(p) = child.parent {
            let parent = &spans[p as usize];
            let start = child.start_ns.max(parent.start_ns);
            let end = child.end_ns.min(parent.end_ns);
            own[p as usize] = own[p as usize].saturating_sub(end.saturating_sub(start));
        }
    }
    own
}

/// The trace file: a per-name summary of every span, and the first
/// `keep` spans verbatim (a whole run holds millions).
pub fn to_json(spans: &[Span], keep: usize) -> Value {
    let own = self_times_ns(spans);
    let summary = SPAN_NAMES
        .into_iter()
        .filter_map(|name| {
            let mut count = 0u64;
            let mut total = 0u64;
            let mut self_ns = 0u64;
            for (s, own) in spans.iter().zip(&own).filter(|(s, _)| s.name == name) {
                count += 1;
                total += s.duration_ns();
                self_ns += own;
            }
            (count > 0).then(|| {
                Value::obj([
                    ("name", Value::str(name.label())),
                    ("count", Value::from(count)),
                    ("total_s", Value::from(total as f64 / 1e9)),
                    ("self_s", Value::from(self_ns as f64 / 1e9)),
                ])
            })
        })
        .collect();
    let head = spans
        .iter()
        .take(keep)
        .map(|s| {
            Value::obj([
                ("name", Value::str(s.name.label())),
                ("start_ns", Value::from(s.start_ns)),
                ("end_ns", Value::from(s.end_ns)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::from(u64::from(p))),
                ),
                ("step", Value::from(u64::from(s.step))),
            ])
        })
        .collect();
    Value::obj([
        ("spans_recorded", Value::from(spans.len() as u64)),
        ("summary", Value::Arr(summary)),
        ("spans", Value::Arr(head)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: SpanName, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            step: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = [
            span(SpanName::Run, 0, 1000, None),
            span(SpanName::Advance, 100, 600, Some(0)),
            span(SpanName::Poll, 150, 350, Some(1)),
            span(SpanName::NextTime, 400, 550, Some(1)),
            span(SpanName::Advance, 700, 900, Some(0)),
        ];
        // Root: 1000 - (500 + 200); first child: 500 - (200 + 150).
        assert_eq!(self_times_ns(&spans), vec![300, 150, 200, 150, 200]);
    }

    #[test]
    fn a_child_is_clipped_to_its_parent() {
        let spans = [
            span(SpanName::Run, 100, 200, None),
            span(SpanName::Poll, 50, 150, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 50);
    }

    #[test]
    fn tracer_nests_spans_and_tags_steps() {
        let mut t = Tracer::new();
        t.enter(SpanName::Run);
        for flows in [3, 5] {
            t.begin_step(|| flows);
            t.enter(SpanName::Poll);
            let _v: Vec<u8> = Vec::with_capacity(64);
            t.switch(SpanName::Advance);
            t.exit();
        }
        t.exit();
        assert_eq!(t.spans.len(), 5);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(
            t.spans[2].parent,
            Some(0),
            "a switched-to span is a sibling"
        );
        assert_eq!(t.spans[1].end_ns, t.spans[2].start_ns);
        assert_eq!((t.spans[1].step, t.spans[3].step), (1, 2));
        assert_eq!(t.live_flows, vec![3, 5]);
        assert!(t.spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(t.allocs(SpanName::Poll).calls >= 2);
        let own = self_times_ns(&t.spans);
        assert!(own[0] <= t.spans[0].duration_ns());
        let json = to_json(&t.spans, 2);
        assert_eq!(json.get("spans").and_then(Value::as_arr).unwrap().len(), 2);
    }
}
