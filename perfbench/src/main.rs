//! The repository benchmark: host time and simulated serving metrics of
//! the MCBP serving stack on three seeded workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_mix_cold|fleet_burst_warm|disagg_prefix_traced> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Host time is what the simulator takes to run; simulated time is what
//! the modelled MCBP hardware would take. The serving model has no
//! hardware reference in the repository, so the simulated (`sim_*`)
//! figures are unvalidated: they are reported so that a simulator-only
//! change can show it left them identical (see the printed report digest).
//!
//! `--trace 0` measures the end-to-end metrics with plain program objects.
//! `--trace 1` is the separate traced run: it alternates plain iterations
//! with iterations through the timing adapters of [`spans`], prints the
//! per-layer metrics, and writes the spans of the first adapter-wrapped
//! iteration (and the set-up's accelerator calls) to
//! `perfbench/out/spans-<workload>.json`. Both print human-readable lines
//! and, last, one JSON object `{correct, attempted, failed, metrics}`.
//!
//! Self-test: `cargo test --release --manifest-path perfbench/Cargo.toml`.
//!
//! The program is driven only through public entry points (`Engine`,
//! `ServeSim::run*`, `mcbp_trace`), from one thread, with the default
//! sequential fleet drive.

mod checks;
mod spans;
mod workloads;

use std::time::Instant;

use mcbp::model::LlmConfig;
use mcbp::serve::{ServeReport, ServeSim};
use mcbp::sim::PredictionCalibration;
use mcbp::Engine;

use checks::{fnv1a64, Checks};
use spans::{
    attribute, Layer, Layers, Span, TimedAccel, ROUTE, SCHED_PLAN, SERVE, SERVE_RECORD, SIM_RUN,
};
use workloads::{Case, Kind, PhaseOut, Pipeline, Probe, Size, Tally, ENGINE_SEED, KEEP};

/// Minimum set-ups per untraced run, and the minimum host time they
/// span; `setup_s` is their median.
const SETUP_REPS: usize = 3;
const SETUP_MIN_S: f64 = 1.0;

const USAGE: &str = "usage: perfbench --workload <paper_mix_cold|fleet_burst_warm|\
                     disagg_prefix_traced> --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Args {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad value for {flag}: {value}"))
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(parse(&flag, &value)?),
            "--seconds" => seconds = Some(parse(&flag, &value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run prints.
pub struct Outcome {
    pub lines: Vec<String>,
    pub checks: Checks,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The result object printed as the last line of standard output (a
    /// non-finite value, already counted as a failed check, prints as 0).
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    if m.value.is_finite() { m.value } else { 0.0 },
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.checks.failed == 0,
            self.checks.attempted,
            self.checks.failed,
            metrics.join(",")
        )
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Median of a sample (mean of the middle two for even counts); 0 for an
/// empty one.
fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of a sample; 0 for an empty one.
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One timed-phase iteration: its wall time, counts, and the host time
/// its spans attribute to each span name.
struct Iteration {
    host_s: f64,
    tally: Tally,
    misses: usize,
    layers: Layers,
}

impl Iteration {
    fn layer(&self, name: &str, f: fn(&Layer) -> f64) -> f64 {
        self.layers.get(name).map_or(0.0, f)
    }

    /// Host seconds inside `ServeSim` calls.
    fn serve_s(&self) -> f64 {
        self.layer(SERVE, |l| l.total_s) + self.layer(SERVE_RECORD, |l| l.total_s)
    }
}

/// The engine: synthetic weight sample plus measured sparsity profile.
fn new_engine() -> Engine {
    Engine::new(LlmConfig::opt1b3(), ENGINE_SEED)
}

/// The set-up after the engine: workload generation, `ServeSim`
/// construction and, on the warm workloads, one pass of the timed phase
/// to fill the cost model.
fn set_up<'e>(args: &Args, size: Size, engine: &'e Engine) -> (Case, ServeSim<'e>) {
    let case = Case::generate(args.kind, args.seed, size, engine);
    let sim = case.sim(engine.simulator());
    if case.kind.warm() {
        case.timed_phase(&sim, engine.simulator(), Probe::Off);
    }
    (case, sim)
}

/// The iterations of one mode (plain or adapter-wrapped). Only the first
/// iteration's output and spans are kept; later reports are compared with
/// the first and later spans reduced to their attribution, so memory does
/// not grow with the iteration count.
struct Series<'a> {
    first: Option<PhaseOut<'a>>,
    first_spans: Vec<Span>,
    iterations: Vec<Iteration>,
    repeats: Vec<bool>,
}

impl<'a> Series<'a> {
    fn new() -> Self {
        Series {
            first: None,
            first_spans: Vec::new(),
            iterations: Vec::new(),
            repeats: Vec::new(),
        }
    }

    fn push(&mut self, phase: impl FnOnce() -> PhaseOut<'a>) {
        let (out, host_s) = timed(phase);
        let spans = spans::take();
        self.iterations.push(Iteration {
            host_s,
            tally: out.tally,
            misses: out.misses,
            layers: attribute(&spans),
        });
        match &self.first {
            Some(first) => self.repeats.push(out.report == first.report),
            None => {
                self.first = Some(out);
                self.first_spans = spans;
            }
        }
    }

    fn host_s(&self) -> Vec<f64> {
        self.iterations.iter().map(|it| it.host_s).collect()
    }

    /// Mean per iteration of one attributed quantity.
    fn mean(&self, name: &str, f: fn(&Layer) -> f64) -> f64 {
        let sum: f64 = self.iterations.iter().map(|it| it.layer(name, f)).sum();
        sum / self.iterations.len() as f64
    }
}

/// Runs one workload: set-up, the timed phase for `args.seconds`, the
/// correctness checks, and the metrics of the requested kind.
/// `break_check` deliberately corrupts one compared report, so the
/// benchmark's own tests can see a failing check counted.
pub fn run(args: &Args, size: Size, break_check: bool) -> Outcome {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut lines = vec![format!("host cores={} profile={profile}", host_cores())];
    let mut checks = Checks::default();

    // Set-up, repeated (at least `SETUP_REPS` times and `SETUP_MIN_S`
    // seconds) for a steady `setup_s` median; the last set-up is kept.
    // The traced run sets up once.
    let mut setup_s = Vec::new();
    while !args.trace
        && (setup_s.len() + 1 < SETUP_REPS || setup_s.iter().sum::<f64>() < SETUP_MIN_S)
    {
        setup_s.push(timed(|| drop(set_up(args, size, &new_engine()))).1);
    }
    let (engine, engine_s) = timed(new_engine);
    let ((case, plain), rest_s) = timed(|| set_up(args, size, &engine));
    setup_s.push(engine_s + rest_s);
    let accel = engine.simulator();
    let timed_accel = TimedAccel(accel);
    let wrapped = case.sim(&timed_accel);
    if args.trace && case.kind.warm() {
        case.timed_phase(&wrapped, &timed_accel, Probe::On);
    }
    // Of the set-up, only the accelerator calls are kept (for their p50).
    let mut setup_spans = spans::take();
    setup_spans.retain(|s| s.name == SIM_RUN);
    for s in &mut setup_spans {
        s.parent = None;
    }
    let sent = case.workload.requests.len();

    // The timed phase, repeated for `args.seconds`; the traced run
    // alternates plain and adapter-wrapped iterations.
    let mut off = Series::new();
    let mut on = Series::new();
    let start = Instant::now();
    while off.iterations.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        off.push(|| case.timed_phase(&plain, accel, Probe::Off));
        if args.trace {
            on.push(|| case.timed_phase(&wrapped, &timed_accel, Probe::On));
        }
    }

    // Correctness checks.
    let first = off.first.as_ref().expect("one plain iteration ran");
    let base = &first.report;
    checks.conserved("timed phase", base, sent);
    for (i, &same) in off.repeats.iter().chain(&on.repeats).enumerate() {
        checks.check(
            &format!("repeat {} of the timed phase repeats its report", i + 1),
            same,
        );
    }
    if case.kind.warm() {
        let mut iterations = off.iterations.iter().chain(&on.iterations);
        checks.check(
            "warm set-up leaves no cost-model misses",
            iterations.all(|it| it.misses == 0),
        );
    }
    let mut wrapped_report = match &on.first {
        Some(out) => out.report.clone(),
        None => {
            let sim = case.sim(&timed_accel);
            case.serve(&sim, &case.workload, Probe::On, &mut Tally::default())
        }
    };
    if break_check {
        wrapped_report.completed += 1;
    }
    checks.check(
        "adapter-wrapped report == timed-phase report",
        wrapped_report == *base,
    );
    if let Some(sim) = &first.fresh {
        let again = case.serve(sim, &case.workload, Probe::Off, &mut Tally::default());
        checks.check(
            "a second run on the now-warm ServeSim repeats the report",
            again == *base,
        );
    }
    // The trace layer: the disaggregated workload runs it in its timed
    // phase; the others run it once here, untraced, on a warm simulator.
    spans::take();
    let checked;
    let (pipeline, pipeline_layers): (&Pipeline, Vec<&Layers>) = match &first.pipeline {
        Some(p) => (p, off.iterations.iter().map(|it| &it.layers).collect()),
        None => {
            let sim = first.fresh.as_ref().unwrap_or(&plain);
            let p = case.pipeline(sim, Probe::Off, &mut Tally::default());
            checked = (p, attribute(&spans::take()));
            (&checked.0, vec![&checked.1])
        }
    };
    checks.check(
        "recorded (traced) report == timed-phase report",
        pipeline.recorded == *base,
    );
    checks.check("from_bytes(to_bytes(t)) == t", pipeline.roundtrip_equal);
    checks.check(
        "verify_replay (untraced replay) is Ok",
        pipeline.replay.is_ok(),
    );
    checks.check("SampledSim::run is Ok", pipeline.sampled.is_ok());

    lines.push(format!(
        "workload {} seed {} requests sent={sent} completed={} dropped={} \
         (latency percentiles over the {} completed)",
        case.kind.name(),
        args.seed,
        base.completed,
        base.dropped,
        base.completed
    ));
    lines.push(format!(
        "slo met by {} of {} completed; {} preemptions",
        base.slo_met, base.completed, base.preempt.preemptions
    ));
    lines.push(format!(
        "report digest fnv1a64={:016x}",
        fnv1a64(base.to_json().as_bytes())
    ));
    lines.push(format!("timed phase host s, plain: {:?}", off.host_s()));

    let metrics = if args.trace {
        lines.push(format!(
            "timed phase host s, adapter-wrapped: {:?}",
            on.host_s()
        ));
        let calibration_ms =
            timed(|| PredictionCalibration::measure(&accel.config().bgpp, KEEP, 0x5eed)).1 * 1e3;
        let mut metrics = per_layer(base, first, &on, &setup_spans, &mut checks, &mut lines);
        metrics.insert(3, metric("sim.calibration_ms", calibration_ms, "ms"));
        metrics.extend(trace_layer(pipeline, &pipeline_layers));
        metrics.push(metric(
            "bench.trace_overhead_frac",
            median(&on.host_s()) / median(&off.host_s()) - 1.0,
            "frac",
        ));
        metrics.push(metric("bench.host_cores", host_cores() as f64, "count"));
        let written = write_spans(&case, args.seed, &setup_spans, &on.first_spans);
        checks.check("the span file is written", written.is_ok());
        lines.push(match written {
            Ok(path) => format!("spans written to {path}"),
            Err(e) => format!("spans not written: {e}"),
        });
        metrics
    } else {
        end_to_end(base, sent, &setup_s, &off, &mut checks)
    };
    checks.check(
        "every metric is a finite number",
        metrics.iter().all(|m| m.value.is_finite()),
    );
    for failure in &checks.failures {
        lines.push(format!("CHECK FAILED: {failure}"));
    }
    for m in &metrics {
        lines.push(format!("metric {} = {} {}", m.name, m.value, m.unit));
    }
    Outcome {
        lines,
        checks,
        metrics,
    }
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn end_to_end(
    base: &ServeReport,
    sent: usize,
    setup_s: &[f64],
    off: &Series,
    checks: &mut Checks,
) -> Vec<Metric> {
    let requests: u64 = off.iterations.iter().map(|it| it.tally.requests).sum();
    let serve_s: f64 = off.iterations.iter().map(Iteration::serve_s).sum();
    let decoded: usize = base.records.iter().map(|r| r.tokens).sum();
    let rss = peak_rss_mb();
    checks.check("peak RSS is readable", rss.is_some());
    vec![
        metric("setup_s", median(setup_s), "s"),
        metric("host_s", median(&off.host_s()), "s"),
        metric("sim_req_per_s", requests as f64 / serve_s, "req/s"),
        metric("peak_rss_mb", rss.unwrap_or(0.0), "MB"),
        metric("sim_ttft_p50_ms", base.ttft.p50 * 1e3, "ms"),
        metric("sim_ttft_p95_ms", base.ttft.p95 * 1e3, "ms"),
        metric("sim_tpot_p95_ms", base.tpot.p95 * 1e3, "ms"),
        metric("sim_goodput_tok_s", base.goodput_tokens_per_s, "tok/s"),
        metric(
            "sim_slo_goodput_tok_s",
            base.slo_goodput_tokens_per_s,
            "tok/s",
        ),
        metric(
            "sim_energy_uj_per_tok",
            base.energy_joules * 1e6 / decoded as f64,
            "uJ/tok",
        ),
        metric("drop_frac", base.dropped as f64 / sent as f64, "frac"),
    ]
}

/// Durations of the spans named `name`, scaled by `scale`.
fn durations(spans: &[Span], name: &str, scale: f64) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.seconds() * scale)
        .collect()
}

/// The per-layer metrics of the program's layers, from the
/// adapter-wrapped iterations (means per iteration; percentiles over the
/// first iteration's calls, and over the set-up's accelerator calls).
fn per_layer(
    base: &ServeReport,
    first: &PhaseOut,
    on: &Series,
    setup_spans: &[Span],
    checks: &mut Checks,
    lines: &mut Vec<String>,
) -> Vec<Metric> {
    // Attribution: every adapter span lies inside a `ServeSim` call, so the
    // adapters' spans plus the drive's self time make up the serve time.
    let adapters = |it: &Iteration| {
        [SIM_RUN, SCHED_PLAN, ROUTE]
            .iter()
            .map(|name| it.layer(name, |l| l.total_s))
            .sum::<f64>()
    };
    let drive =
        |it: &Iteration| it.layer(SERVE, |l| l.self_s) + it.layer(SERVE_RECORD, |l| l.self_s);
    checks.check(
        "adapter spans + drive self time == serve-call time",
        on.iterations.iter().all(|it| {
            (adapters(it) + drive(it) - it.serve_s()).abs() <= 1e-6 + 1e-9 * it.serve_s()
        }),
    );
    let n = on.iterations.len() as f64;
    let drive_s = on.iterations.iter().map(drive).sum::<f64>() / n;
    let serve_s = on.iterations.iter().map(Iteration::serve_s).sum::<f64>() / n;
    let steps = on.iterations.iter().map(|it| it.tally.steps).sum::<u64>() as f64 / n;
    let total = |name| on.mean(name, |l| l.total_s);
    lines.push(format!(
        "attribution per adapter-wrapped iteration: serve {serve_s:.4} s = sim.run {:.4} + \
         sched.plan {:.4} + route {:.4} + drive {drive_s:.4}; sim.run share of serve {:.3}, \
         drive share of host_s {:.3}",
        total(SIM_RUN),
        total(SCHED_PLAN),
        total(ROUTE),
        total(SIM_RUN) / serve_s,
        drive_s / median(&on.host_s()),
    ));
    let mut sim_run_ms = durations(&on.first_spans, SIM_RUN, 1e3);
    sim_run_ms.extend(durations(setup_spans, SIM_RUN, 1e3));
    let plan_us = durations(&on.first_spans, SCHED_PLAN, 1e6);
    let route_us = durations(&on.first_spans, ROUTE, 1e6);
    let kstep = first.tally.steps as f64 / 1e3;
    vec![
        metric(
            "sim.run.calls",
            on.mean(SIM_RUN, |l| l.calls as f64),
            "count",
        ),
        metric("sim.run.self_s", on.mean(SIM_RUN, |l| l.self_s), "s"),
        metric("sim.run.p50_ms", median(&sim_run_ms), "ms"),
        metric("cost.invocations", first.invocations as f64, "count"),
        metric(
            "cost.invocations_per_kstep",
            first.misses as f64 / kstep,
            "count/kstep",
        ),
        metric(
            "sched.plan.calls",
            on.mean(SCHED_PLAN, |l| l.calls as f64),
            "count",
        ),
        metric("sched.plan.p50_us", median(&plan_us), "us"),
        metric("sched.plan.p99_us", quantile(&plan_us, 0.99), "us"),
        metric("sched.plan.self_s", on.mean(SCHED_PLAN, |l| l.self_s), "s"),
        metric("route.calls", on.mean(ROUTE, |l| l.calls as f64), "count"),
        metric("route.p50_us", median(&route_us), "us"),
        metric("route.self_s", on.mean(ROUTE, |l| l.self_s), "s"),
        metric("drive.self_s", drive_s, "s"),
        metric("drive.us_per_step", drive_s / steps * 1e6, "us"),
        metric("device.steps", base.steps.steps as f64, "count"),
        metric(
            "device.mean_decode_batch",
            base.mean_decode_batch,
            "streams",
        ),
        metric(
            "pool.admission_stall_s",
            base.pool.admission_stall_seconds,
            "s",
        ),
        metric("pool.peak_occupancy", base.pool.peak_occupancy(), "frac"),
        metric("preempt.count", base.preempt.preemptions as f64, "count"),
        metric("prefix.hit_rate", base.prefix.hit_rate(), "frac"),
        metric("handoff.count", base.handoff.handoffs_out as f64, "count"),
        metric(
            "handoff.gib",
            base.handoff.bytes_out as f64 / f64::from(1u32 << 30),
            "GiB",
        ),
    ]
}

/// The trace layer's metrics: medians over the pipeline executions
/// (record → encode → decode → replay → sample) that ran untraced.
fn trace_layer(pipeline: &Pipeline, runs: &[&Layers]) -> Vec<Metric> {
    let each = |f: &dyn Fn(&Layers) -> f64| median(&runs.iter().map(|l| f(l)).collect::<Vec<_>>());
    let total = |l: &Layers, name: &str| l.get(name).map_or(0.0, |l| l.total_s);
    // The replay span's only child is the untraced serve call it verifies.
    let replay_serve = |l: &Layers| l.get("trace.replay").map_or(0.0, |r| r.total_s - r.self_s);
    let bytes = pipeline.encoded_bytes.as_ref().map_or(0, |b| *b) as f64;
    vec![
        metric(
            "trace.record_overhead_s",
            each(&|l| total(l, SERVE_RECORD) - replay_serve(l)),
            "s",
        ),
        metric("trace.events", pipeline.trace.events.len() as f64, "count"),
        metric("trace.bytes", bytes, "B"),
        metric(
            "trace.encode_mb_s",
            bytes / 1e6 / each(&|l| total(l, "trace.encode")),
            "MB/s",
        ),
        metric(
            "trace.decode_mb_s",
            bytes / 1e6 / each(&|l| total(l, "trace.decode")),
            "MB/s",
        ),
        metric("trace.replay_s", each(&|l| total(l, "trace.replay")), "s"),
        metric("trace.sampled_s", each(&|l| total(l, "trace.sampled")), "s"),
        metric(
            "trace.sampled_step_frac",
            pipeline.sampled.as_ref().map_or(0.0, |s| s.step_fraction()),
            "frac",
        ),
    ]
}

/// Writes the traced run's spans (the set-up's accelerator calls and the
/// first adapter-wrapped iteration) as one JSON file inside the
/// benchmark's directory.
fn write_spans(case: &Case, seed: u64, setup: &[Span], timed: &[Span]) -> std::io::Result<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/spans-{}.json", case.kind.name());
    let body = format!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\"columns\":[\"name\",\"start_ns\",\"end_ns\",\
         \"parent\",\"request\"],\"setup\":{},\"timed\":{}}}\n",
        case.kind.name(),
        spans::to_json(setup),
        spans::to_json(timed)
    );
    std::fs::create_dir_all(dir)?;
    std::fs::write(&path, body)?;
    Ok(path)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!(
            "perfbench: refusing to report numbers from a debug build (about 10x slower); \
             build with --release"
        );
        std::process::exit(2);
    }
    let outcome = run(&args, Size::Full, false);
    for line in &outcome.lines {
        println!("{line}");
    }
    println!("{}", outcome.json());
}

#[cfg(test)]
mod tests {
    use super::*;

    type NameUnit = (String, String);

    /// `(name, unit)` of every metric registered in `BENCHMARK.json`,
    /// end-to-end first.
    fn registered() -> (Vec<NameUnit>, Vec<NameUnit>) {
        let text = include_str!("../../BENCHMARK.json");
        let field = |obj: &str, key: &str| -> Option<String> {
            let rest = &obj[obj.find(&format!("\"{key}\""))? + key.len() + 2..];
            let rest = &rest[rest.find('"')? + 1..];
            Some(rest[..rest.find('"')?].to_owned())
        };
        let section = |from: &str, to: &str| -> Vec<NameUnit> {
            let start = text.find(from).expect("section present");
            let end = text[start..].find(to).map_or(text.len(), |e| start + e);
            text[start..end]
                .split('{')
                .filter_map(|obj| Some((field(obj, "name")?, field(obj, "unit")?)))
                .collect()
        };
        (
            section("\"end_to_end\"", "\"per_layer\""),
            section("\"per_layer\"", "\n}"),
        )
    }

    fn tiny(kind: Kind, trace: bool, break_check: bool) -> Outcome {
        let args = Args {
            kind,
            seed: 3,
            seconds: 0.01,
            trace,
        };
        run(&args, Size::Tiny, break_check)
    }

    #[test]
    fn every_registered_metric_is_printed_with_its_unit() {
        let (end_to_end, per_layer) = registered();
        assert_eq!((end_to_end.len(), per_layer.len()), (11, 33));
        for kind in Kind::ALL {
            for (trace, expected) in [(false, &end_to_end), (true, &per_layer)] {
                let out = tiny(kind, trace, false);
                assert_eq!(out.checks.failures, Vec::<String>::new(), "{kind:?}");
                let printed: Vec<NameUnit> = out
                    .metrics
                    .iter()
                    .map(|m| (m.name.to_owned(), m.unit.to_owned()))
                    .collect();
                assert_eq!(&printed, expected, "{kind:?} trace={trace}");
                assert!(out.metrics.iter().all(|m| m.value.is_finite()));
                for (name, unit) in expected {
                    let line = format!("\"{name}\":{{\"value\":");
                    assert!(out.json().contains(&line), "{name} missing from the JSON");
                    assert!(out
                        .lines
                        .iter()
                        .any(|l| l.starts_with(&format!("metric {name} = "))
                            && l.ends_with(&format!(" {unit}"))));
                }
            }
        }
    }

    #[test]
    fn a_broken_check_raises_the_failed_count() {
        let out = tiny(Kind::FleetBurstWarm, false, true);
        assert_eq!(out.checks.failed, 1);
        assert!(out.json().starts_with("{\"correct\":false,"));
        assert!(out
            .lines
            .iter()
            .any(|l| l.starts_with("CHECK FAILED: adapter-wrapped")));
    }

    #[test]
    fn arguments_are_all_required_and_validated() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
        let ok = parse("--workload fleet_burst_warm --seed 4 --seconds 2 --trace 1").unwrap();
        assert_eq!(
            (ok.kind, ok.seed, ok.seconds, ok.trace),
            (Kind::FleetBurstWarm, 4, 2.0, true)
        );
        assert!(parse("--workload fleet_burst_warm --seed 4 --seconds 2").is_err());
        assert!(parse("--workload nope --seed 4 --seconds 2 --trace 0").is_err());
        assert!(parse("--workload paper_mix_cold --seed 4 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload paper_mix_cold --seed 4 --seconds 2 --trace 2").is_err());
    }
}
