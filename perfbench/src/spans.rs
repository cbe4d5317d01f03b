//! Spans recorded by the benchmark around its own calls into each
//! layer's public API.
//!
//! The program under test carries no tracing: a span starts just before
//! the benchmark calls a workspace crate and ends when the call returns.
//! Spans nest (a probe span around a loop of calls, a run span around a
//! phase), live in memory, and are written out when the run ends. A
//! span's *self time* is its duration minus the part of it that its
//! child spans cover; summed per layer, self time says where the run
//! spent its wall time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// The workspace crate whose API the span wraps (`"perfbench"` for
    /// the benchmark's own code).
    pub layer: &'static str,
    /// The call, e.g. `"run_live_on"`.
    pub name: String,
    /// Calls into the layer the span covers (loops are one span).
    pub calls: u64,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall time the span covers.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. A disabled tracer runs the wrapped code and records
/// nothing, so untraced runs pay one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Run `f` inside a span of `layer`/`name` covering `calls` calls.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &str,
        calls: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            layer,
            name: name.to_string(),
            calls,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.clamp(parent.start_ns, parent.end_ns);
            let end = s.end_ns.clamp(parent.start_ns, parent.end_ns);
            children[p].push((start, end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Self time per layer, in ns.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_layer = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *by_layer.entry(s.layer).or_insert(0) += t;
    }
    by_layer
}

/// One JSON object per span, for the run's output.
pub fn span_json(id: usize, s: &Span, self_ns: u64) -> String {
    let mut out = String::new();
    let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
    let _ = write!(
        out,
        "{{\"id\": {id}, \"parent\": {parent}, \"layer\": \"{}\", \"name\": \"{}\", \"calls\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
        s.layer,
        s.name.replace('"', "'"),
        s.calls,
        s.start_ns,
        s.end_ns
    );
    out
}

/// Cost of recording one span, in ns: the median of a few timed batches
/// of empty spans on a scratch tracer.
pub fn span_cost_ns() -> f64 {
    const BATCH: u64 = 20_000;
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let mut t = Tracer::new(true);
            let start = Instant::now();
            t.span("perfbench", "root", 1, |t| {
                for _ in 0..BATCH {
                    t.span("perfbench", "empty", 1, |_| ());
                }
            });
            start.elapsed().as_nanos() as f64 / BATCH as f64
        })
        .collect();
    crate::stats::median(&batches)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            parent,
            layer,
            name: layer.to_string(),
            calls: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        // root [0,100) with children [10,30) and [20,50) (overlapping:
        // union 40) and [90,120) (clipped to [90,100): 10); the first
        // child has a grandchild [12,18) that only it pays for.
        let spans = vec![
            span(None, "perfbench", 0, 100),
            span(Some(0), "c3-live", 10, 30),
            span(Some(1), "c3-core", 12, 18),
            span(Some(0), "c3-live", 20, 50),
            span(Some(0), "c3-net", 90, 120),
        ];
        assert_eq!(self_times(&spans), vec![50, 14, 6, 30, 30]);
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer["perfbench"], 50);
        assert_eq!(by_layer["c3-live"], 44);
        assert_eq!(by_layer["c3-core"], 6);
        assert_eq!(by_layer["c3-net"], 30);
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let v = t.span("perfbench", "outer", 1, |t| {
            t.span("c3-core", "inner", 3, |_| 7)
        });
        assert_eq!(v, 7);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].start_ns <= t.spans()[1].start_ns);
        assert!(t.spans()[1].end_ns <= t.spans()[0].end_ns);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("perfbench", "x", 1, |_| 1), 1);
        assert!(off.spans().is_empty());
    }
}
