//! Golden digests of the fleet drive: the FNV-1a-64 of
//! `ServeReport::to_json()` and of the encoded `RunTrace` for fixed runs
//! over every dispatch policy, three fleet shapes (one device, four
//! `Unified` devices, and a `[Prefill, Prefill, Decode, Unified]` split
//! fleet) and three eviction policies (none, drop-and-recompute, swap),
//! plus two targeted runs that reach admission branches the table does
//! not: a handoff dropped on arrival, and a swap victim resuming after
//! its shared prefix was reclaimed. Nine more runs pin the coalescing
//! planner beyond the unbudgeted priority scheduler: continuous batching
//! with and without a step token budget, and the budgeted priority
//! scheduler, over the three fleet shapes. A refactor of the serving
//! layer must leave every digest unchanged; a deliberate behaviour
//! change must update the table and say why.
//!
//! A toy accelerator keeps the 56 runs cheap. On a mismatch the test
//! prints the full recomputed table.

use mcbp::model::LlmConfig;
use mcbp::serve::{
    request_kv_bytes, ContinuousBatchScheduler, DeviceProfile, DeviceRole, DispatchPolicy,
    PreemptConfig, Priority, PriorityScheduler, Request, RequestId, RunTrace, Scheduler,
    ServeConfig, ServeReport, ServeSim, SharedPrefix, SloSpec, Workload,
};
use mcbp::workloads::{
    Accelerator, PhaseCost, RunReport, SparsityProfile, Task, TraceContext, WeightGenerator,
};

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

/// 64-bit FNV-1a.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn template() -> TraceContext {
    let model = LlmConfig::opt1b3();
    let gen = WeightGenerator::for_model(&model);
    TraceContext {
        model,
        task: Task::cola(),
        batch: 1,
        weight_profile: SparsityProfile::measure(&gen.quantized_sample(16, 64, 1), 4),
        attention_keep: 0.3,
    }
}

/// Staggered arrivals in tight bursts, both priority classes, a shared
/// prefix and prompt-only requests: enough pressure on a small pool that
/// drop-and-recompute evicts.
fn workload() -> Workload {
    let requests = (0..24u64)
        .map(|i| Request {
            id: i as RequestId,
            arrival_cycle: 150_000.0 * (i / 4) as f64 + 1_000.0 * (i % 4) as f64,
            prompt_len: 48 + 23 * (i as usize % 5),
            decode_len: if i % 7 == 3 { 0 } else { 2 + (i as usize % 6) },
            task_name: "golden",
            priority: if i % 3 == 0 {
                Priority::Interactive
            } else {
                Priority::Batch
            },
            slo: SloSpec::none(),
            prefix: (i % 4 == 1).then(|| SharedPrefix::new(9, 32)),
        })
        .collect();
    Workload {
        requests,
        closed_loop: None,
    }
}

/// A simulator under `cfg` whose per-device pool holds about 100 tokens
/// of KV.
fn sim_with(accel: &Toy, cfg: ServeConfig) -> ServeSim<'_> {
    let template = template();
    let cfg = ServeConfig {
        kv_budget_bytes: Some(template.model.kv_cache_bytes(100, 1)),
        ..cfg
    };
    ServeSim::try_new(accel, template, cfg).expect("valid config")
}

/// The default configuration on the 100-token pool, under `preempt`.
fn sim(accel: &Toy, preempt: PreemptConfig) -> ServeSim<'_> {
    sim_with(
        accel,
        ServeConfig {
            preempt,
            ..ServeConfig::default()
        },
    )
}

/// A scheduler setup of the planner rows: label, configuration, and the
/// per-device scheduler factory.
type PlannerSetup = (&'static str, ServeConfig, fn() -> Box<dyn Scheduler>);

/// The planner rows' setups, all at width 3 under drop-and-recompute:
/// continuous batching with the default chunking and no budget, then
/// continuous batching and the priority scheduler planning budgeted mixed
/// steps (32-token chunks under a 64-token step budget).
fn planner_setups() -> [PlannerSetup; 3] {
    let base = ServeConfig {
        max_batch: 3,
        preempt: PreemptConfig::drop_recompute(),
        ..ServeConfig::default()
    };
    let budgeted = ServeConfig {
        prefill_chunk: Some(32),
        step_token_budget: Some(64),
        ..base.clone()
    };
    [
        ("cb", base, || Box::new(ContinuousBatchScheduler::new())),
        ("cb-budget", budgeted.clone(), || {
            Box::new(ContinuousBatchScheduler::new())
        }),
        ("priority-budget", budgeted, || {
            Box::new(PriorityScheduler::new())
        }),
    ]
}

fn shapes() -> [(&'static str, Vec<DeviceProfile<'static>>); 3] {
    let role = |r| DeviceProfile::uniform().with_role(r);
    [
        ("1x", vec![DeviceProfile::uniform()]),
        ("4x-unified", vec![DeviceProfile::uniform(); 4]),
        (
            "ppdu",
            vec![
                role(DeviceRole::Prefill),
                role(DeviceRole::Prefill),
                role(DeviceRole::Decode),
                role(DeviceRole::Unified),
            ],
        ),
    ]
}

/// A prefix-free request with no SLO.
fn request(id: RequestId, prompt: usize, decode: usize, at: f64, priority: Priority) -> Request {
    Request {
        id,
        arrival_cycle: at,
        prompt_len: prompt,
        decode_len: decode,
        task_name: "golden",
        priority,
        slo: SloSpec::none(),
        prefix: None,
    }
}

/// A `[Prefill, Decode]` fleet whose decode pool can never hold the one
/// request's peak (the prefill pool can): the handoff is dropped on
/// arrival, after the prefill device produced token 1.
fn handoff_drop() -> (ServeConfig, Vec<DeviceProfile<'static>>, Workload) {
    let decode_budget = request_kv_bytes(&LlmConfig::opt1b3(), 100, 0.3);
    let profiles = vec![
        DeviceProfile::uniform().with_role(DeviceRole::Prefill),
        DeviceProfile::uniform()
            .with_role(DeviceRole::Decode)
            .with_kv_budget(decode_budget),
    ];
    let workload = Workload {
        requests: vec![request(0, 200, 4, 0.0, Priority::Batch)],
        closed_loop: None,
    };
    (ServeConfig::default(), profiles, workload)
}

/// One device whose pool holds 100 tokens of pruned KV, under swap: an
/// interactive arrival swaps out the batch request that holds a shared
/// prefix, and a second interactive arrival reclaims that prefix while
/// the victim is suspended, so the victim resumes with its prefix region
/// re-prefilled.
fn swap_prefix_reclaim() -> (ServeConfig, Vec<DeviceProfile<'static>>, Workload) {
    let cfg = ServeConfig {
        kv_budget_bytes: Some(request_kv_bytes(&LlmConfig::opt1b3(), 100, 0.3)),
        preempt: PreemptConfig::swap(),
        ..ServeConfig::default()
    };
    let workload = Workload {
        requests: vec![
            request(0, 64, 30, 0.0, Priority::Batch).with_prefix(SharedPrefix::new(7, 32)),
            request(1, 60, 5, 5_000.0, Priority::Interactive),
            request(2, 6, 4, 6_000.0, Priority::Interactive),
        ],
        closed_loop: None,
    };
    (cfg, vec![DeviceProfile::uniform()], workload)
}

/// Runs one targeted case under the priority scheduler and round-robin
/// dispatch, traced.
fn run_targeted(
    case: fn() -> (ServeConfig, Vec<DeviceProfile<'static>>, Workload),
) -> (ServeReport, RunTrace) {
    let accel = Toy;
    let (cfg, profiles, workload) = case();
    let sim = ServeSim::try_new(&accel, template(), cfg).expect("valid config");
    let mut mk = || -> Box<dyn Scheduler> { Box::new(PriorityScheduler::new()) };
    sim.run_fleet_profiles_traced(&workload, &profiles, DispatchPolicy::RoundRobin, &mut mk)
}

/// One table row: `(label, report digest, trace digest)`.
fn digest(label: String, report: &ServeReport, trace: &RunTrace) -> (String, u64, u64) {
    let bytes = mcbp::trace::to_bytes(trace).expect("trace encodes");
    (label, fnv1a64(report.to_json().as_bytes()), fnv1a64(&bytes))
}

/// `(label, report digest, trace digest)` for every run, in table order.
fn digests() -> Vec<(String, u64, u64)> {
    let accel = Toy;
    let workload = workload();
    let mut out = Vec::new();
    for (evict, preempt) in [
        ("none", PreemptConfig::default()),
        ("drop", PreemptConfig::drop_recompute()),
        ("swap", PreemptConfig::swap()),
    ] {
        let sim = sim(&accel, preempt);
        for (shape, profiles) in shapes() {
            for policy in DispatchPolicy::ALL {
                let mut mk = || -> Box<dyn Scheduler> { Box::new(PriorityScheduler::new()) };
                let (report, trace) =
                    sim.run_fleet_profiles_traced(&workload, &profiles, policy, &mut mk);
                assert_eq!(report.completed + report.dropped, workload.requests.len());
                out.push(digest(
                    format!("{shape}/{}/{evict}", policy.name()),
                    &report,
                    &trace,
                ));
            }
        }
    }
    for (label, case) in [
        ("handoff-drop", handoff_drop as fn() -> _),
        ("swap-prefix-reclaim", swap_prefix_reclaim),
    ] {
        let (report, trace) = run_targeted(case);
        out.push(digest(label.to_owned(), &report, &trace));
    }
    for (shape, profiles) in shapes() {
        for (sched, cfg, make) in planner_setups() {
            let sim = sim_with(&accel, cfg);
            let mut mk = || make();
            let (report, trace) = sim.run_fleet_profiles_traced(
                &workload,
                &profiles,
                DispatchPolicy::RoundRobin,
                &mut mk,
            );
            assert_eq!(report.completed + report.dropped, workload.requests.len());
            out.push(digest(format!("{shape}/rr/drop/{sched}"), &report, &trace));
        }
    }
    out
}

const GOLDENS: &[(&str, u64, u64)] = &[
    ("1x/rr/none", 0x52911cf3a3f8d491, 0x7e4e870ab9560dd9),
    ("1x/jsq/none", 0x52911cf3a3f8d491, 0x7e4e870ab9560dd9),
    ("1x/llp/none", 0x52911cf3a3f8d491, 0x7e4e870ab9560dd9),
    ("1x/wjsq/none", 0x52911cf3a3f8d491, 0x7e4e870ab9560dd9),
    ("1x/prefix/none", 0x52911cf3a3f8d491, 0x7e4e870ab9560dd9),
    ("4x-unified/rr/none", 0xaffa6b7bcf1cd338, 0x3cf02d5164717b9c),
    (
        "4x-unified/jsq/none",
        0xdfb4c87ba49716d1,
        0xc1599e58bff78b2a,
    ),
    (
        "4x-unified/llp/none",
        0x58267e56cb568df0,
        0x5368d361e43105a2,
    ),
    (
        "4x-unified/wjsq/none",
        0x8a2107ba46b7f6f6,
        0xc1599e58bff78b2a,
    ),
    (
        "4x-unified/prefix/none",
        0x6f35ba57b343fce7,
        0x1405735269635466,
    ),
    ("ppdu/rr/none", 0xb1b79e4deb4862d9, 0xe308b4ca463b9910),
    ("ppdu/jsq/none", 0xff1fb3cf11cdef97, 0xb949240489bb1844),
    ("ppdu/llp/none", 0x699a689f6bbe95ca, 0x2144900a48614485),
    ("ppdu/wjsq/none", 0xd35ee2cfc0508de0, 0xb949240489bb1844),
    ("ppdu/prefix/none", 0x6bb628a0cd854401, 0xb949240489bb1844),
    ("1x/rr/drop", 0x5362d9984dcb02d0, 0x5cfb793b8be8831d),
    ("1x/jsq/drop", 0x5362d9984dcb02d0, 0x5cfb793b8be8831d),
    ("1x/llp/drop", 0x5362d9984dcb02d0, 0x5cfb793b8be8831d),
    ("1x/wjsq/drop", 0x5362d9984dcb02d0, 0x5cfb793b8be8831d),
    ("1x/prefix/drop", 0x5362d9984dcb02d0, 0x5cfb793b8be8831d),
    ("4x-unified/rr/drop", 0x0776941aef81a80d, 0xb2fecf346207bd41),
    (
        "4x-unified/jsq/drop",
        0x00cd9716f3b7d832,
        0x3cf353553cb1b6c7,
    ),
    (
        "4x-unified/llp/drop",
        0x094e0caf51758595,
        0x6304656a973137c0,
    ),
    (
        "4x-unified/wjsq/drop",
        0xea1463cd2e6e26e5,
        0x3cf353553cb1b6c7,
    ),
    (
        "4x-unified/prefix/drop",
        0xa78ba9ac1df09290,
        0xf8e94e3484f58290,
    ),
    ("ppdu/rr/drop", 0x0a2d0834dc66421c, 0x4c06bc6edec2a8e8),
    ("ppdu/jsq/drop", 0xde922acf87722ee0, 0x72c6e09bb1a71898),
    ("ppdu/llp/drop", 0x699a689f6bbe95ca, 0x2144900a48614485),
    ("ppdu/wjsq/drop", 0x214f73aa602b7baf, 0x72c6e09bb1a71898),
    ("ppdu/prefix/drop", 0x28d8b97430ff9ff0, 0xf2b3387731c86292),
    ("1x/rr/swap", 0x5362d9984dcb02d0, 0x5cfb793b8be8831d),
    ("1x/jsq/swap", 0x5362d9984dcb02d0, 0x5cfb793b8be8831d),
    ("1x/llp/swap", 0x5362d9984dcb02d0, 0x5cfb793b8be8831d),
    ("1x/wjsq/swap", 0x5362d9984dcb02d0, 0x5cfb793b8be8831d),
    ("1x/prefix/swap", 0x5362d9984dcb02d0, 0x5cfb793b8be8831d),
    ("4x-unified/rr/swap", 0x0776941aef81a80d, 0xb2fecf346207bd41),
    (
        "4x-unified/jsq/swap",
        0x00cd9716f3b7d832,
        0x3cf353553cb1b6c7,
    ),
    (
        "4x-unified/llp/swap",
        0x094e0caf51758595,
        0x6304656a973137c0,
    ),
    (
        "4x-unified/wjsq/swap",
        0xea1463cd2e6e26e5,
        0x3cf353553cb1b6c7,
    ),
    (
        "4x-unified/prefix/swap",
        0xa78ba9ac1df09290,
        0xf8e94e3484f58290,
    ),
    ("ppdu/rr/swap", 0x59f4eecf1de27206, 0xc8f685c4fee8ed1e),
    ("ppdu/jsq/swap", 0x8a5df24532dbecca, 0x2749e46021a2f518),
    ("ppdu/llp/swap", 0x699a689f6bbe95ca, 0x2144900a48614485),
    ("ppdu/wjsq/swap", 0x825453f521b49607, 0x2749e46021a2f518),
    ("ppdu/prefix/swap", 0x563f6e13a0f51ed8, 0x2749e46021a2f518),
    ("handoff-drop", 0xccd8999620f993e0, 0xbed5a224f2613e59),
    (
        "swap-prefix-reclaim",
        0x059fd21eced4db82,
        0x15b15460dc3addca,
    ),
    ("1x/rr/drop/cb", 0xc6122221c6b4b2cc, 0xbc9335a4459bc8c8),
    (
        "1x/rr/drop/cb-budget",
        0x8da562df3742d170,
        0x9e173b28cd46b9f7,
    ),
    (
        "1x/rr/drop/priority-budget",
        0x2dfbed7dd6c29ee2,
        0x814b0c2659d1ebff,
    ),
    (
        "4x-unified/rr/drop/cb",
        0xb47cfd7adecfd11e,
        0x9032ea8286305636,
    ),
    (
        "4x-unified/rr/drop/cb-budget",
        0xfac614bd6f79fb91,
        0xbddea0d7fdac911b,
    ),
    (
        "4x-unified/rr/drop/priority-budget",
        0x6f91baecd0c43011,
        0x9ef139c726351fd5,
    ),
    ("ppdu/rr/drop/cb", 0x5c62ca2ad699bcd7, 0x5b190862d891b1d0),
    (
        "ppdu/rr/drop/cb-budget",
        0x702edf48accbdd6a,
        0x3a6c2f82c56361c3,
    ),
    (
        "ppdu/rr/drop/priority-budget",
        0x11ec3cf6ca0475f2,
        0x55f9e94a2bc043dc,
    ),
];

#[test]
fn fleet_runs_match_their_golden_digests() {
    let got = digests();
    let table: String = got
        .iter()
        .map(|(label, r, t)| format!("    (\"{label}\", 0x{r:016x}, 0x{t:016x}),\n"))
        .collect();
    let matches = got.len() == GOLDENS.len()
        && got
            .iter()
            .zip(GOLDENS.iter().copied())
            .all(|((label, r, t), g)| (label.as_str(), *r, *t) == g);
    assert!(
        matches,
        "golden digests changed; recomputed table:\n{table}"
    );
}

/// The goldens exercise what they claim to: drop-and-recompute evicts,
/// swap really swaps, the split fleet hands requests off, the two
/// targeted runs reach their branches, and every budgeted planner row
/// plans mixed steps.
#[test]
fn golden_runs_preempt_and_hand_off() {
    let accel = Toy;
    let [_, unified, split] = shapes();
    let mut mk = || -> Box<dyn Scheduler> { Box::new(PriorityScheduler::new()) };
    let sim_drop = sim(&accel, PreemptConfig::drop_recompute());
    let report =
        sim_drop.run_fleet_profiles(&workload(), &unified.1, DispatchPolicy::RoundRobin, &mut mk);
    assert!(report.preempt.preemptions > 0);
    let report =
        sim_drop.run_fleet_profiles(&workload(), &split.1, DispatchPolicy::RoundRobin, &mut mk);
    assert!(report.preempt.preemptions > 0);
    assert!(report.handoff.handoffs_out > 0);
    let sim_swap = sim(&accel, PreemptConfig::swap());
    let report =
        sim_swap.run_fleet_profiles(&workload(), &split.1, DispatchPolicy::RoundRobin, &mut mk);
    assert!(report.preempt.swap_out_bytes > 0, "the swap column swaps");

    // Handoff dropped on arrival: token 1 was delivered on the prefill
    // device, so the drop record keeps a finite TTFT.
    let (report, _) = run_targeted(handoff_drop);
    assert_eq!((report.completed, report.dropped), (0, 1));
    let rec = &report.records[0];
    assert_eq!(rec.tokens, 1);
    assert!(rec.ttft_cycles().is_finite());
    let h = report.handoff;
    assert_eq!((h.handoffs_out, h.handoffs_in), (1, 1));
    assert_eq!(h.bytes_out, h.bytes_in);

    // Swap victim resuming after its prefix was reclaimed: the restored
    // suffix is kept, the prefix region replays.
    let (report, _) = run_targeted(swap_prefix_reclaim);
    assert_eq!((report.completed, report.dropped), (3, 0));
    assert_eq!(report.preempt.preemptions, 1);
    assert_eq!(report.prefix.reclaimed, 1);
    assert!(report.preempt.swap_out_bytes > 0);
    assert_eq!(report.preempt.swap_out_bytes, report.preempt.swap_in_bytes);
    assert!(report.preempt.recompute_seconds > 0.0);

    // Budgeted planner rows: chunks and decodes share invocations.
    for (shape, profiles) in shapes() {
        for (sched, cfg, make) in planner_setups() {
            if cfg.step_token_budget.is_none() {
                continue;
            }
            let sim = sim_with(&accel, cfg);
            let mut mk = || make();
            let report =
                sim.run_fleet_profiles(&workload(), &profiles, DispatchPolicy::RoundRobin, &mut mk);
            assert!(report.steps.mixed_steps > 0, "{shape}/{sched} mixes");
        }
    }
}
