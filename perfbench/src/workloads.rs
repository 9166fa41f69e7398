//! The three benchmark workloads, generated from the `--seed` argument,
//! and the timed phase each one measures.
//!
//! Arrivals are simulated, so host-side load is a batch job: there is no
//! real-time sender and no generator lateness. Every trace is open-loop;
//! the seed drives its arrival process. Every workload also carries one
//! over-long request per hundred (a 1M-token prompt, larger than any
//! device's KV pool), which admission must drop, so `drop_frac` measures
//! the drop path on every workload instead of reading 0.

use mcbp::model::LlmConfig;
use mcbp::serve::{
    ArrivalProcess, ContinuousBatchScheduler, DeviceProfile, DeviceRole, DispatchPolicy,
    LoadGenerator, PreemptConfig, Priority, PriorityScheduler, RequestClass, RunTrace, Scheduler,
    ServeConfig, ServeReport, ServeSim, SharedPrefix, SloSpec, Workload,
};
use mcbp::trace::{from_bytes, to_bytes, verify_replay, SampledReport, SampledSim, SamplerConfig};
use mcbp::workloads::{Accelerator, Task, TaskKind, TraceContext};
use mcbp::Engine;

use crate::spans::{span, TimedRouter, TimedScheduler, SERVE, SERVE_RECORD};

/// BGPP attention-keep operating point of every workload.
pub const KEEP: f64 = 0.3;
/// Seed of the engine's synthetic weight sample: the model is fixed, only
/// the traffic varies with `--seed`.
pub const ENGINE_SEED: u64 = 0x4d43_4250;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One device, continuous batching, and a fresh `ServeSim` inside the
    /// timed phase, serving an open-loop Poisson mix of the paper's
    /// nine-task suite (decode lengths capped at 32) at a rate one device
    /// sustains. Why: every new `ServeSim` pays one `McbpSim::run` (nearly
    /// all of it the BGPP `PredictionCalibration::measure`) per distinct
    /// (phase, batch, context-bucket) cost key, so cold cost-model misses
    /// dominate and the drive is a sliver of the time. Memoizing
    /// calibration shows here.
    PaperMixCold,
    /// 256 uniform devices behind join-shortest-queue with continuous
    /// batching, serving a bursty open-loop stream of short Cola/MNLI
    /// requests; the cost model is warmed in set-up, so the timed phase
    /// has no misses. Why: the fleet drive's own time dominates and its
    /// per-step cost grows with fleet width. Flattening the dispatch
    /// fixpoint shows here and not on `paper_mix_cold`.
    FleetBurstWarm,
    /// 8 devices with Prefill/Decode/Unified roles, prefix-affinity
    /// routing, the priority scheduler under a step token budget, and
    /// drop-and-recompute preemption under a tight KV budget, serving a
    /// bursty interactive/batch mix where most prompts open with a shared
    /// prefix; the cost model is warm. The timed phase records the run,
    /// encodes and decodes the trace, replay-verifies it and phase-samples
    /// it. Why: the drive runs with resident prefixes in every device
    /// view, two-stage routing, handoffs and preemption, so a drive change
    /// that helps `fleet_burst_warm` but costs prefix or handoff
    /// bookkeeping shows here; and it is the only workload that writes
    /// and reads traces in its timed phase.
    DisaggPrefixTraced,
}

impl Kind {
    pub const ALL: [Kind; 3] = [
        Kind::PaperMixCold,
        Kind::FleetBurstWarm,
        Kind::DisaggPrefixTraced,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperMixCold => "paper_mix_cold",
            Kind::FleetBurstWarm => "fleet_burst_warm",
            Kind::DisaggPrefixTraced => "disagg_prefix_traced",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether set-up warms the cost model (the timed phase then has no
    /// cost-model misses).
    pub fn warm(self) -> bool {
        self != Kind::PaperMixCold
    }
}

/// Request count of a workload: the stated size, or a tiny one for the
/// benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// Whether serve calls go through the timing adapters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    Off,
    On,
}

/// A request no device's KV pool can ever hold: admission drops it.
fn oversized() -> Task {
    Task {
        name: "Oversized",
        prompt_len: 1 << 20,
        decode_len: 16,
        kind: TaskKind::LongContext,
    }
}

/// `shapes` repeated to fill 99 slots, plus one over-long request: a 1 %
/// drop share.
fn with_oversized(shapes: &[Task]) -> Vec<Task> {
    let mut mix: Vec<Task> = shapes.iter().cycle().take(99).cloned().collect();
    mix.push(oversized());
    mix
}

/// Requests completed or dropped, and steps executed, by one or more
/// serve calls.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    pub requests: u64,
    pub steps: u64,
}

impl Tally {
    fn add(&mut self, r: &ServeReport) {
        self.requests += (r.completed + r.dropped) as u64;
        self.steps += r.steps.steps;
    }
}

/// The trace layer's outputs: record → encode → decode → replay → sample.
pub struct Pipeline {
    pub recorded: ServeReport,
    pub trace: RunTrace,
    pub encoded_bytes: Result<usize, String>,
    pub roundtrip_equal: bool,
    pub replay: Result<(), String>,
    pub sampled: Result<SampledReport, String>,
}

/// What one execution of a timed phase produced.
pub struct PhaseOut<'a> {
    pub report: ServeReport,
    pub tally: Tally,
    /// Cost-model invocations (distinct cached keys) after the phase.
    pub invocations: usize,
    /// Cost-model misses during the phase.
    pub misses: usize,
    pub pipeline: Option<Pipeline>,
    /// The cold workload's simulator, warm once the phase has run.
    pub fresh: Option<ServeSim<'a>>,
}

/// One generated workload with the fleet and configuration that serve it.
pub struct Case {
    pub kind: Kind,
    pub workload: Workload,
    template: TraceContext,
    cfg: ServeConfig,
    profiles: Vec<DeviceProfile<'static>>,
    policy: DispatchPolicy,
}

impl Case {
    pub fn generate(kind: Kind, seed: u64, size: Size, engine: &Engine) -> Case {
        let tiny = size == Size::Tiny;
        let template = engine.context(&Task::cola(), 1, KEEP);
        match kind {
            Kind::PaperMixCold => {
                let capped: Vec<Task> = Task::paper_suite()
                    .into_iter()
                    .map(|t| {
                        let decode = t.decode_len.min(32);
                        t.with_decode(decode)
                    })
                    .collect();
                let load = LoadGenerator {
                    task_mix: with_oversized(&capped),
                    // Every request carries deadlines, so SLO goodput
                    // counts only requests that meet them.
                    class_mix: vec![RequestClass {
                        priority: Priority::Batch,
                        slo: SloSpec::interactive(1.5, 0.08),
                    }],
                    prefix_mix: vec![None],
                    count: if tiny { 24 } else { 4000 },
                    process: ArrivalProcess::Poisson {
                        rate_rps: 1.8,
                        seed,
                    },
                };
                Case {
                    kind,
                    workload: load.generate(),
                    template,
                    // 1024-token context buckets keep one cold pass to a
                    // few seconds (about 60 cost keys).
                    cfg: ServeConfig {
                        ctx_bucket: 1024,
                        ..ServeConfig::default()
                    },
                    profiles: vec![DeviceProfile::uniform()],
                    policy: DispatchPolicy::RoundRobin,
                }
            }
            Kind::FleetBurstWarm => {
                let load = LoadGenerator {
                    task_mix: with_oversized(&[Task::cola(), Task::mnli()]),
                    class_mix: vec![RequestClass {
                        priority: Priority::Batch,
                        slo: SloSpec::interactive(0.05, 0.02),
                    }],
                    prefix_mix: vec![None],
                    count: if tiny { 300 } else { 12_000 },
                    process: ArrivalProcess::Bursty {
                        rate_rps: if tiny { 50.0 } else { 2000.0 },
                        burst_factor: 4.0,
                        burst_len: 16,
                        seed,
                    },
                };
                Case {
                    kind,
                    workload: load.generate(),
                    template,
                    cfg: ServeConfig::default(),
                    profiles: vec![DeviceProfile::uniform(); if tiny { 8 } else { 256 }],
                    policy: DispatchPolicy::JoinShortestQueue,
                }
            }
            Kind::DisaggPrefixTraced => {
                let model = LlmConfig::opt1b3();
                let long_doc = Task::wikitext2().with_decode(32);
                // One long document's full KV per device (about three
                // BGPP-pruned ones): bursts overrun it, so interactive
                // admissions preempt batch work.
                let budget = model.kv_cache_bytes(long_doc.final_context(), 1);
                let chat = Task::cola().with_decode(16);
                let doc = Task::mnli().with_decode(32);
                let load = LoadGenerator {
                    task_mix: with_oversized(&[chat.clone(), doc, chat, long_doc]),
                    class_mix: vec![RequestClass::interactive(0.1, 0.03), RequestClass::batch()],
                    // Three of four prompts open with one of three shared
                    // system prompts.
                    prefix_mix: vec![
                        Some(SharedPrefix::new(0, 192)),
                        Some(SharedPrefix::new(1, 192)),
                        Some(SharedPrefix::new(2, 128)),
                        None,
                    ],
                    count: if tiny { 120 } else { 30_000 },
                    process: ArrivalProcess::Bursty {
                        rate_rps: if tiny { 10.0 } else { 30.0 },
                        burst_factor: 4.0,
                        burst_len: 8,
                        seed,
                    },
                };
                let roles = [
                    DeviceRole::Prefill,
                    DeviceRole::Prefill,
                    DeviceRole::Decode,
                    DeviceRole::Decode,
                    DeviceRole::Decode,
                    DeviceRole::Decode,
                    DeviceRole::Unified,
                    DeviceRole::Unified,
                ];
                Case {
                    kind,
                    workload: load.generate(),
                    template,
                    cfg: ServeConfig {
                        ctx_bucket: 1024,
                        prefill_chunk: Some(256),
                        step_token_budget: Some(512),
                        kv_budget_bytes: Some(budget),
                        preempt: PreemptConfig::drop_recompute(),
                        ..ServeConfig::default()
                    },
                    // A 64 B/cycle host link carries the KV handoffs.
                    profiles: roles
                        .iter()
                        .map(|&r| DeviceProfile::uniform().with_role(r).with_host_link(64.0))
                        .collect(),
                    policy: DispatchPolicy::PrefixAffinity,
                }
            }
        }
    }

    /// A fresh (cold) serving simulator for this case over `accel`.
    pub fn sim<'a>(&self, accel: &'a dyn Accelerator) -> ServeSim<'a> {
        ServeSim::new(accel, self.template.clone(), self.cfg.clone())
    }

    fn scheduler(&self, probe: Probe) -> Box<dyn Scheduler> {
        let inner: Box<dyn Scheduler> = match self.kind {
            Kind::DisaggPrefixTraced => Box::new(PriorityScheduler::new()),
            _ => Box::new(ContinuousBatchScheduler::new()),
        };
        match probe {
            Probe::Off => inner,
            Probe::On => Box::new(TimedScheduler(inner)),
        }
    }

    /// One untraced `ServeSim` call on this case's fleet.
    pub fn serve(
        &self,
        sim: &ServeSim<'_>,
        workload: &Workload,
        probe: Probe,
        tally: &mut Tally,
    ) -> ServeReport {
        let report = span(SERVE, || match (self.kind, probe) {
            (Kind::PaperMixCold, Probe::Off) => sim.run(workload, &mut *self.scheduler(probe)),
            (_, Probe::Off) => {
                sim.run_fleet_profiles(workload, &self.profiles, self.policy, &mut || {
                    self.scheduler(probe)
                })
            }
            // The traced entry points take only a `DispatchPolicy`, so
            // routing is timed through the custom-router entry point.
            (_, Probe::On) => sim.run_fleet_with_router(
                workload,
                &self.profiles,
                &mut TimedRouter(self.policy.router()),
                &mut || self.scheduler(probe),
            ),
        });
        tally.add(&report);
        report
    }

    /// The traced `ServeSim` call: report plus recorded `RunTrace`.
    fn record(
        &self,
        sim: &ServeSim<'_>,
        probe: Probe,
        tally: &mut Tally,
    ) -> (ServeReport, RunTrace) {
        let out = span(SERVE_RECORD, || match self.kind {
            Kind::PaperMixCold => sim.run_traced(&self.workload, &mut *self.scheduler(probe)),
            _ => sim.run_fleet_profiles_traced(
                &self.workload,
                &self.profiles,
                self.policy,
                &mut || self.scheduler(probe),
            ),
        });
        tally.add(&out.0);
        out
    }

    /// Record → `to_bytes` → `from_bytes` → `verify_replay` →
    /// `SampledSim::run`, each in its own span.
    pub fn pipeline(&self, sim: &ServeSim<'_>, probe: Probe, tally: &mut Tally) -> Pipeline {
        let (recorded, trace) = self.record(sim, probe, tally);
        let encoded = span("trace.encode", || to_bytes(&trace));
        let decoded = span("trace.decode", || {
            encoded
                .as_ref()
                .map_err(|e| e.to_string())
                .and_then(|b| from_bytes(b).map_err(|e| e.to_string()))
        });
        let restored = decoded.as_ref().unwrap_or(&trace);
        let replay = span("trace.replay", || {
            verify_replay(restored, &recorded, |w| self.serve(sim, w, probe, tally))
        });
        let sampled = span("trace.sampled", || {
            SampledSim::new(SamplerConfig::default())
                .run(restored, &mut |w| self.serve(sim, w, probe, tally))
        });
        Pipeline {
            roundtrip_equal: decoded.as_ref().is_ok_and(|d| *d == trace),
            encoded_bytes: encoded.map(|b| b.len()).map_err(|e| e.to_string()),
            replay: replay.map(drop).map_err(|m| m.to_string()),
            sampled: sampled.map_err(|e| e.to_string()),
            recorded,
            trace,
        }
    }

    /// One execution of the workload's timed phase. `warm` is the set-up
    /// simulator (over `accel`); the cold workload ignores it and builds
    /// a fresh one inside the phase, returned in [`PhaseOut::fresh`].
    pub fn timed_phase<'a>(
        &self,
        warm: &ServeSim<'a>,
        accel: &'a dyn Accelerator,
        probe: Probe,
    ) -> PhaseOut<'a> {
        let mut tally = Tally::default();
        let fresh = (!self.kind.warm()).then(|| self.sim(accel));
        let sim = fresh.as_ref().unwrap_or(warm);
        let before = sim.cost_model().invocations();
        let (report, pipeline) = match self.kind {
            Kind::DisaggPrefixTraced => {
                let p = self.pipeline(sim, probe, &mut tally);
                (p.recorded.clone(), Some(p))
            }
            _ => (self.serve(sim, &self.workload, probe, &mut tally), None),
        };
        let invocations = sim.cost_model().invocations();
        PhaseOut {
            report,
            tally,
            invocations,
            misses: invocations - before,
            pipeline,
            fresh,
        }
    }
}
