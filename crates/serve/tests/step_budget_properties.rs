//! Property-based tests for the shared per-step token budget: over
//! arbitrary arrival traces, (1) no planned or executed step ever exceeds
//! `ServeConfig::step_token_budget`, and (2) with the budget disabled
//! (`None`) the refactored schedulers reproduce the PR 3 phase-alternating
//! schedule **step for step** — the mixed-step machinery must be a strict
//! superset, not a behavior change, so `None` stays a faithful ablation
//! baseline.
//!
//! The equivalence check compares against reference implementations of the
//! PR 3 planners (transcribed here, emitting only pure plans) on the full
//! recorded plan sequence *and* the resulting `ServeReport`s.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::OnceLock;

use mcbp_model::LlmConfig;
use mcbp_serve::{
    Priority, Request, RequestId, SchedEntry, SchedView, Scheduler, ServeConfig, ServeSim, SloSpec,
    StepPlan, Workload,
};
use mcbp_workloads::{
    Accelerator, PhaseCost, RunReport, SparsityProfile, Task, TraceContext, WeightGenerator,
};
use proptest::prelude::*;

/// Analytic accelerator with the qualitative serving shape: a fixed
/// decode weight-stream cost plus per-stream context terms, exact
/// arithmetic, fast enough for hundreds of simulated runs.
struct Toy;

impl Accelerator for Toy {
    fn name(&self) -> &str {
        "toy"
    }

    fn run(&self, ctx: &TraceContext) -> RunReport {
        let b = ctx.batch as f64;
        RunReport {
            prefill: PhaseCost {
                gemm_cycles: 10.0 * ctx.task.prompt_len as f64 * b,
                compute_pj: ctx.task.prompt_len as f64 * b,
                ..Default::default()
            },
            decode: PhaseCost {
                weight_load_cycles: 1_000_000.0,
                kv_load_cycles: 100.0 * ctx.task.prompt_len as f64 * b * ctx.task.decode_len as f64,
                compute_pj: b,
                ..Default::default()
            },
        }
    }
}

/// The trace-context template, built once (weight-profile measurement is
/// the expensive part and is identical across cases).
fn template() -> TraceContext {
    static TEMPLATE: OnceLock<TraceContext> = OnceLock::new();
    TEMPLATE
        .get_or_init(|| {
            let model = LlmConfig::opt1b3();
            let gen = WeightGenerator::for_model(&model);
            let profile = SparsityProfile::measure(&gen.quantized_sample(16, 64, 1), 4);
            TraceContext {
                model,
                task: Task::cola(),
                batch: 1,
                weight_profile: profile,
                attention_keep: 0.3,
            }
        })
        .clone()
}

/// One raw generated request: `(prompt_len, decode_len, arrival_gap,
/// interactive)`.
type RawRequest = (usize, usize, u32, u8);

/// Materializes an arbitrary arrival trace: cumulative gaps, mixed
/// priority classes, no SLOs (latency objectives are irrelevant to the
/// budget invariant).
fn workload_from(raw: &[RawRequest]) -> Workload {
    let mut arrival = 0.0f64;
    let requests = raw
        .iter()
        .enumerate()
        .map(|(i, &(prompt_len, decode_len, gap, class_bit))| {
            arrival += f64::from(gap);
            Request {
                id: i as RequestId,
                arrival_cycle: arrival,
                prompt_len,
                decode_len,
                task_name: "prop",
                priority: if class_bit == 1 {
                    Priority::Interactive
                } else {
                    Priority::Batch
                },
                slo: SloSpec::none(),
                prefix: None,
            }
        })
        .collect();
    Workload {
        requests,
        closed_loop: None,
    }
}

/// Scheduler wrapper that records every emitted plan and the maximum
/// planned token count, for post-run assertions.
struct Recording<S> {
    inner: S,
    plans: Rc<RefCell<Vec<StepPlan>>>,
    max_tokens: Rc<Cell<usize>>,
}

impl<S> Recording<S> {
    fn new(inner: S) -> Self {
        Recording {
            inner,
            plans: Rc::new(RefCell::new(Vec::new())),
            max_tokens: Rc::new(Cell::new(0)),
        }
    }
}

impl<S: Scheduler> Scheduler for Recording<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn plan(&mut self, view: &SchedView<'_>) -> StepPlan {
        let plan = self.inner.plan(view);
        self.max_tokens
            .set(self.max_tokens.get().max(plan.planned_tokens(view)));
        self.plans.borrow_mut().push(plan.clone());
        plan
    }
}

/// Reference transcription of the PR 3 rotating window (identical to the
/// production `rotate_take`).
fn rotate_take(rotate: &mut usize, list: &[SchedEntry], take: usize) -> Vec<RequestId> {
    let n = list.len();
    if n == 0 || take == 0 {
        return Vec::new();
    }
    let take = take.min(n);
    let start = if n > take { *rotate % n } else { 0 };
    *rotate = rotate.wrapping_add(take);
    (0..take).map(|i| list[(start + i) % n].id).collect()
}

/// Reference transcription of the PR 3 continuous-batching planner:
/// strictly phase-alternating, budget-oblivious, pure plans only.
#[derive(Default)]
struct Pr3ContinuousBatch {
    rotate: usize,
    last_was_prefill: bool,
}

impl Scheduler for Pr3ContinuousBatch {
    fn name(&self) -> &str {
        "continuous-batching"
    }

    fn plan(&mut self, view: &SchedView<'_>) -> StepPlan {
        let width = view.max_batch.max(1);
        let wants_prefill = !view.waiting_prefill.is_empty() && view.decoding.len() < width;
        if wants_prefill && (view.decoding.is_empty() || !self.last_was_prefill) {
            self.last_was_prefill = true;
            let spare = width - view.decoding.len();
            let lead = view.waiting_prefill[0];
            let ids: Vec<RequestId> = view
                .waiting_prefill
                .iter()
                .filter(|e| e.len == lead.len && e.done == lead.done)
                .take(spare)
                .map(|e| e.id)
                .collect();
            return StepPlan::prefill(ids);
        }
        self.last_was_prefill = false;
        if view.decoding.is_empty() {
            return StepPlan::idle();
        }
        StepPlan::decode(rotate_take(&mut self.rotate, view.decoding, width))
    }
}

/// Reference transcription of the PR 3 priority planner: class-aware
/// phase alternation, budget-oblivious, pure plans only.
#[derive(Default)]
struct Pr3Priority {
    rotate_interactive: usize,
    rotate_batch: usize,
    last_was_prefill: bool,
}

impl Scheduler for Pr3Priority {
    fn name(&self) -> &str {
        "priority-cb"
    }

    fn plan(&mut self, view: &SchedView<'_>) -> StepPlan {
        let width = view.max_batch.max(1);
        let wants_prefill = !view.waiting_prefill.is_empty() && view.decoding.len() < width;
        if wants_prefill && (view.decoding.is_empty() || !self.last_was_prefill) {
            self.last_was_prefill = true;
            let spare = width - view.decoding.len();
            let best = view
                .waiting_prefill
                .iter()
                .map(|e| e.priority)
                .max()
                .expect("non-empty");
            let lead = view
                .waiting_prefill
                .iter()
                .find(|e| e.priority == best)
                .expect("class present");
            let ids: Vec<RequestId> = view
                .waiting_prefill
                .iter()
                .filter(|e| e.priority == best && e.len == lead.len && e.done == lead.done)
                .take(spare)
                .map(|e| e.id)
                .collect();
            return StepPlan::prefill(ids);
        }
        self.last_was_prefill = false;
        if view.decoding.is_empty() {
            return StepPlan::idle();
        }
        let interactive: Vec<SchedEntry> = view
            .decoding
            .iter()
            .filter(|e| e.priority == Priority::Interactive)
            .copied()
            .collect();
        let background: Vec<SchedEntry> = view
            .decoding
            .iter()
            .filter(|e| e.priority == Priority::Batch)
            .copied()
            .collect();
        let mut ids = rotate_take(&mut self.rotate_interactive, &interactive, width);
        let spare = width - ids.len();
        ids.extend(rotate_take(&mut self.rotate_batch, &background, spare));
        StepPlan::decode(ids)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The budget invariant: over arbitrary arrival traces, chunk sizes,
    /// widths, and budgets, no step planned by either coalescing
    /// scheduler exceeds the step token budget (chunk tokens plus one per
    /// decode member), and the simulator still conserves every request.
    /// The simulator itself asserts the executed-step bound, so a clean
    /// run is already evidence; the recorder re-checks the planned bound
    /// independently.
    #[test]
    fn no_step_exceeds_the_token_budget(
        raw in collection::vec((1usize..600, 0usize..12, 0u32..2_000_000, 0u8..2), 1..16),
        chunk in 1usize..=96,
        slack in 0usize..64,
        max_batch in 1usize..=8,
        priority_sched in 0u8..2,
    ) {
        let budget = chunk + slack;
        let accel = Toy;
        let cfg = ServeConfig {
            max_batch,
            prefill_chunk: Some(chunk),
            step_token_budget: Some(budget),
            ..ServeConfig::default()
        };
        let sim = ServeSim::try_new(&accel, template(), cfg).expect("config is valid");
        let workload = workload_from(&raw);
        let (report, max_tokens) = if priority_sched == 1 {
            let mut sched = Recording::new(mcbp_serve::PriorityScheduler::new());
            let max = Rc::clone(&sched.max_tokens);
            (sim.run(&workload, &mut sched), max.get())
        } else {
            let mut sched = Recording::new(mcbp_serve::ContinuousBatchScheduler::new());
            let max = Rc::clone(&sched.max_tokens);
            (sim.run(&workload, &mut sched), max.get())
        };
        prop_assert!(
            max_tokens <= budget,
            "planned {} tokens over the {}-token budget",
            max_tokens, budget
        );
        prop_assert_eq!(report.completed + report.dropped, raw.len());
        for rec in report.records.iter().filter(|r| r.completed()) {
            prop_assert_eq!(rec.tokens, rec.request.decode_len);
        }
        prop_assert!(report.steps.mean_budget_utilization > 0.0);
        prop_assert!(report.steps.mean_budget_utilization <= 1.0 + 1e-12);
    }

    /// Budget `None` reproduces the PR 3 alternating schedule step for
    /// step: the production schedulers emit the exact same plan sequence
    /// as the reference PR 3 transcriptions, and the resulting reports
    /// are bit-identical.
    #[test]
    fn budget_none_reproduces_the_pr3_alternating_schedule(
        raw in collection::vec((1usize..600, 0usize..12, 0u32..2_000_000, 0u8..2), 1..16),
        chunk in 1usize..=96,
        max_batch in 1usize..=8,
        priority_sched in 0u8..2,
    ) {
        let accel = Toy;
        let cfg = ServeConfig {
            max_batch,
            prefill_chunk: Some(chunk),
            step_token_budget: None,
            ..ServeConfig::default()
        };
        let sim = ServeSim::try_new(&accel, template(), cfg).expect("config is valid");
        let workload = workload_from(&raw);
        let ((new_report, new_plans), (ref_report, ref_plans)) = if priority_sched == 1 {
            let mut new_sched = Recording::new(mcbp_serve::PriorityScheduler::new());
            let new_plans = Rc::clone(&new_sched.plans);
            let mut ref_sched = Recording::new(Pr3Priority::default());
            let ref_plans = Rc::clone(&ref_sched.plans);
            (
                (sim.run(&workload, &mut new_sched), new_plans),
                (sim.run(&workload, &mut ref_sched), ref_plans),
            )
        } else {
            let mut new_sched = Recording::new(mcbp_serve::ContinuousBatchScheduler::new());
            let new_plans = Rc::clone(&new_sched.plans);
            let mut ref_sched = Recording::new(Pr3ContinuousBatch::default());
            let ref_plans = Rc::clone(&ref_sched.plans);
            (
                (sim.run(&workload, &mut new_sched), new_plans),
                (sim.run(&workload, &mut ref_sched), ref_plans),
            )
        };
        prop_assert_eq!(
            &*new_plans.borrow(), &*ref_plans.borrow(),
            "plan sequences diverged"
        );
        prop_assert_eq!(new_report, ref_report);
    }
}

/// A focused deterministic spot-check of the equivalence on the bursty
/// generator path (classes, bursts, chunked 8k prompts), complementing
/// the random traces above.
#[test]
fn budget_none_equivalence_holds_on_a_bursty_class_mix() {
    use mcbp_serve::{ArrivalProcess, LoadGenerator, RequestClass};
    let accel = Toy;
    let cfg = ServeConfig::default(); // step_token_budget: None
    let sim = ServeSim::new(&accel, template(), cfg);
    let load = LoadGenerator {
        task_mix: vec![Task::dolly().with_decode(8), Task::cola().with_decode(16)],
        class_mix: vec![RequestClass::interactive(0.5, 0.05), RequestClass::batch()],
        prefix_mix: vec![None],
        count: 14,
        process: ArrivalProcess::Bursty {
            rate_rps: 2000.0,
            burst_factor: 6.0,
            burst_len: 4,
            seed: 5,
        },
    }
    .generate();
    let mut new_sched = Recording::new(mcbp_serve::PriorityScheduler::new());
    let new_plans = Rc::clone(&new_sched.plans);
    let mut ref_sched = Recording::new(Pr3Priority::default());
    let ref_plans = Rc::clone(&ref_sched.plans);
    let new_report = sim.run(&load, &mut new_sched);
    let ref_report = sim.run(&load, &mut ref_sched);
    assert!(
        new_plans.borrow().len() > 20,
        "the trace must exercise a real schedule"
    );
    assert_eq!(&*new_plans.borrow(), &*ref_plans.borrow());
    assert_eq!(new_report, ref_report);
    assert_eq!(new_report.steps.mixed_steps, 0, "no budget, no mixed steps");
}
