//! The span recorder and the timing adapters of the traced run.
//!
//! Spans are recorded on the benchmark's own thread (the fleet drive runs
//! sequentially under the default `ServeConfig::fleet_workers = None`), so
//! the recorder is a thread-local stack: a span's parent is whichever span
//! was open when it began. Spans stay in memory until [`take`] drains
//! them; the run writes them out as one JSON file when it ends.
//!
//! The adapters wrap the program's public `Accelerator`, `Scheduler` and
//! `Router` traits. Each delegates `name()`, so a report produced through
//! them equals the report of the bare objects (a checked invariant).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use mcbp::serve::{DeviceView, Request, Router, SchedView, Scheduler, StepPlan};
use mcbp::workloads::{Accelerator, RunReport, TraceContext};

/// Accelerator invocations (`McbpSim::run`, reached only on a step-cost
/// cache miss).
pub const SIM_RUN: &str = "sim.run";
/// Scheduler step plans.
pub const SCHED_PLAN: &str = "sched.plan";
/// Fleet front-end routing decisions.
pub const ROUTE: &str = "route";
/// Prefix of every span around a `ServeSim` call (`serve`, `serve.record`).
pub const SERVE: &str = "serve";
/// The traced `ServeSim` call that records a `RunTrace`.
pub const SERVE_RECORD: &str = "serve.record";

/// One timed interval: `[start_ns, end_ns)` since the recorder's epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span within the same [`take`] batch.
    pub parent: Option<usize>,
    /// The request the call concerned, where the call carries one.
    pub request: Option<u64>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

fn begin(name: &'static str) -> usize {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let now = r.epoch.elapsed().as_nanos() as u64;
        let id = r.spans.len();
        let parent = r.open.last().copied();
        r.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request: None,
        });
        r.open.push(id);
        id
    })
}

fn end(id: usize, request: Option<u64>) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let now = r.epoch.elapsed().as_nanos() as u64;
        let span = &mut r.spans[id];
        span.end_ns = now;
        span.request = request;
        let closed = r.open.pop();
        debug_assert_eq!(closed, Some(id), "spans close in stack order");
    })
}

/// Runs `f` inside a span named `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = begin(name);
    let out = f();
    end(id, None);
    out
}

/// Drains every recorded span. Must not be called while a span is open.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.open.is_empty(), "spans drained while one is open");
        std::mem::take(&mut r.spans)
    })
}

/// Times every `run` of the wrapped accelerator.
pub struct TimedAccel<'a>(pub &'a dyn Accelerator);

impl Accelerator for TimedAccel<'_> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn run(&self, ctx: &TraceContext) -> RunReport {
        span(SIM_RUN, || self.0.run(ctx))
    }
}

/// Times every `plan` of the wrapped scheduler; the span carries the
/// plan's first member.
pub struct TimedScheduler(pub Box<dyn Scheduler>);

impl Scheduler for TimedScheduler {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn plan(&mut self, view: &SchedView<'_>) -> StepPlan {
        let id = begin(SCHED_PLAN);
        let plan = self.0.plan(view);
        end(id, plan.prefill.first().or(plan.decode.first()).copied());
        plan
    }
}

/// Times every `route` of the wrapped router; the span carries the
/// routed request.
pub struct TimedRouter<R>(pub R);

impl<R: Router> Router for TimedRouter<R> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn route(&mut self, request: &Request, fleet: &[DeviceView]) -> usize {
        let id = begin(ROUTE);
        let device = self.0.route(request, fleet);
        end(id, Some(request.id));
        device
    }
}

/// Host time attributed to one span name.
#[derive(Debug, Clone, Default)]
pub struct Layer {
    pub calls: u64,
    pub total_s: f64,
    /// Total minus the time covered by direct children.
    pub self_s: f64,
}

/// Per-name host time of one drained batch of spans.
pub type Layers = BTreeMap<&'static str, Layer>;

/// Per-name totals and self times of one drained batch of spans.
pub fn attribute(spans: &[Span]) -> Layers {
    let mut children = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p] += s.seconds();
        }
    }
    let mut layers = Layers::new();
    for (s, covered) in spans.iter().zip(children) {
        let layer = layers.entry(s.name).or_default();
        layer.calls += 1;
        layer.total_s += s.seconds();
        layer.self_s += s.seconds() - covered;
    }
    layers
}

/// The spans as one JSON array of `[name, start_ns, end_ns, parent,
/// request]` rows (`-1` for an absent parent or request).
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 48 + 2);
    out.push('[');
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let opt = |v: Option<u64>| v.map_or(-1, |v| v as i64);
        out.push_str(&format!(
            "[\"{}\",{},{},{},{}]",
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.parent.map(|p| p as u64)),
            opt(s.request)
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = [
            Span {
                name: "serve",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                request: None,
            },
            Span {
                name: "route",
                start_ns: 10,
                end_ns: 30,
                parent: Some(0),
                request: Some(7),
            },
            Span {
                name: "sched.plan",
                start_ns: 40,
                end_ns: 45,
                parent: Some(0),
                request: None,
            },
        ];
        let layers = attribute(&spans);
        assert!((layers["serve"].self_s - 75e-9).abs() < 1e-15);
        assert_eq!(layers["route"].calls, 1);
        assert_eq!(to_json(&spans[1..2]), "[[\"route\",10,30,0,7]]");
    }

    #[test]
    fn recorder_nests_spans() {
        take();
        span("outer", || span("inner", || ()));
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
