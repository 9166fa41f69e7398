//! The discrete-event serving core: one device's event loop, admission
//! control, and step execution.
//!
//! # The event loop
//!
//! A [`DeviceSim`] (crate-internal) owns one device's complete serving
//! state: its [`KvCachePool`], its suspended-victim set, its clock, and
//! its in-flight requests. The loop driven by [`crate::dispatch`] repeats
//! three phases per step:
//!
//! 1. **Admission** — resumable evicted victims and arrived queue entries
//!    are considered best-first (priority desc, arrival asc, id asc); the
//!    best candidate reserves its *peak* KV residency or, failing that,
//!    preempts strictly lower-priority victims when the configured
//!    [`crate::EvictionPolicy`] allows. When the best candidate cannot be
//!    placed, admission blocks — lower-ordered candidates never jump it.
//! 2. **Planning** — the pluggable [`Scheduler`] sees admitted prompts
//!    (with their prefill cursors) and decoding streams, and plans one
//!    batched invocation ([`StepPlan`]).
//! 3. **Execution** — the invocation is costed by the memoizing
//!    [`StepCostModel`], the device clock advances by its latency, KV
//!    residency grows, and completions retire (releasing their
//!    reservations).
//!
//! # Request life cycle
//!
//! One request's progress is one `InFlight` record (crate-internal),
//! moved whole between the holders of the device it is on:
//!
//! - **pending → active.** A dispatched request waits in the device's
//!   arrival-sorted queue as a bare [`crate::Request`]. Admission turns it
//!   into an `InFlight` and reserves its peak KV in the [`KvCachePool`],
//!   which holds its bytes while it is active.
//! - **active ⇄ suspended.** An evicted victim keeps its record in the
//!   suspended set. Under swap its resident KV bytes move to host memory,
//!   held by the device's swap [`CustodyLedger`] under its id; under
//!   drop-and-recompute (or if it held no resident bytes) they are
//!   discarded and it replays on resume. Resuming reserves again and
//!   checks any swapped bytes back into the pool.
//! - **active → outbound → inbound → active**, on a
//!   [`DeviceRole::Prefill`] device once the request's first token is
//!   out. Its KV leaves the pool with it into the outbound buffer (the
//!   record plus its bytes). The dispatch loop routes it over the host
//!   link to a decode-capable device, whose handoff [`CustodyLedger`]
//!   holds the bytes while the record waits inbound for the transfer to
//!   land.
//!   Admission there checks them in as resident KV.
//! - A request leaves as a [`RequestRecord`]: completed from the active
//!   set, or dropped from the queue or the inbound set when its peak can
//!   never fit the pool.
//!
//! # Chunked prefill
//!
//! Each in-flight request carries a **prefill cursor**. A prefill
//! invocation advances the cursor by at most
//! [`ServeConfig::prefill_chunk`] tokens, costed incrementally by
//! [`StepCostModel::prefill_chunk_cost`], and the request's KV residency
//! grows *per chunk* (the bytes of the prefilled prefix) instead of
//! landing all at once. A request evicted mid-prefill under
//! drop-and-recompute replays **only its completed chunks** on resume —
//! the unprefilled remainder was never computed, so it is first-time
//! work, not replay; only the replayed share of each invocation is
//! attributed to `recompute_seconds`. A mid-prefill swap victim keeps its
//! cursor: swap preserves the prefix KV, so the prefill continues where
//! it stopped.
//!
//! # Reservation-ledger invariants
//!
//! Admission reserves a request's peak residency up front in the pool's
//! per-request ledger, so decode-time growth can never drive the pool
//! over budget, and releases/evictions free exactly what the ledger
//! recorded (see [`crate::pool`] — the pool asserts both invariants).
//! The simulator never reads a wall clock and draws no randomness, so a
//! `(workload, scheduler, config)` triple replays bit-identically.

use std::collections::VecDeque;

use mcbp_workloads::{Accelerator, Fleet, TraceContext};

use crate::arrival::Workload;
use crate::cost::{StepCost, StepCostModel};
use crate::dispatch::{expect_valid, traced, DispatchPolicy};
use crate::pool::{request_kv_bytes, KvCachePool};
use crate::preempt::{CustodyLedger, EvictionPolicy, PreemptConfig};
use crate::profile::{DeviceProfile, DeviceRole};
use crate::record::{RunTrace, TraceEvent};
use crate::report::{
    HandoffReport, PoolReport, PreemptReport, PrefixReport, ServeReport, StepReport,
};
use crate::request::{PrefixId, Priority, Request, RequestId, RequestRecord, RequestState};
use crate::scheduler::{SchedEntry, SchedView, Scheduler};

/// Configuration of one serving simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Maximum streams one batched invocation may coalesce (the
    /// continuous-batching width).
    pub max_batch: usize,
    /// Context-length quantization of the step-cost cache, in tokens
    /// (costs interpolate between bucket boundaries).
    pub ctx_bucket: usize,
    /// Maximum prefill tokens one invocation advances per request.
    /// `Some(n)` splits long prompts into `n`-token chunks that the
    /// coalescing schedulers interleave with decode steps; `None`
    /// prefills every prompt in a single monolithic invocation (the
    /// pre-chunking behavior, kept as the ablation baseline).
    pub prefill_chunk: Option<usize>,
    /// Shared per-step token budget. `Some(b)` makes every scheduler step
    /// a single budgeted invocation: prefill members count their chunk's
    /// tokens, decode members count one token each, and the coalescing
    /// schedulers pack decode streams into the budget left over by the
    /// prefill chunk (Sarathi-style mixed steps — decoding advances every
    /// step while a long prompt prefills). Requires chunked prefill with
    /// `prefill_chunk ≤ b` (validated; see [`ServeConfigError`]); the
    /// piggyback slack per chunk step is `b − prefill_chunk`. `None`
    /// disables budgeting: the schedulers alternate pure prefill and pure
    /// decode steps (the pre-budget behavior, kept bit-exact as the
    /// ablation baseline).
    pub step_token_budget: Option<usize>,
    /// KV-pool byte budget per device. `Some(bytes)` is used verbatim.
    /// `None` derives the budget from the HBM capacity minus the resident
    /// INT8 weights and scales it by [`ServeConfig::fleet`]'s device
    /// count via [`KvCachePool::from_memory_spec`] (the tensor-parallel
    /// group holds one KV shard per member).
    pub kv_budget_bytes: Option<u64>,
    /// §5.3 tensor-parallel scaling applied to every step *within* one
    /// simulated device: step latency divides by the group's effective
    /// speedup and energy pays the communication tax (see
    /// [`Fleet::scale`]). This models one multi-chip serving instance;
    /// for data-parallel serving across *independent* devices with their
    /// own pools and queues, see [`ServeSim::run_fleet_profiles`].
    pub fleet: Fleet,
    /// Preemption/eviction policy and host-link bandwidth. Swap transfer
    /// latency is charged at the configured host link and is *not* scaled
    /// by the fleet (one host link per serving instance).
    pub preempt: PreemptConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 16,
            ctx_bucket: 256,
            prefill_chunk: Some(512),
            step_token_budget: None,
            kv_budget_bytes: None,
            fleet: Fleet::single(),
            preempt: PreemptConfig::default(),
        }
    }
}

/// Why a [`ServeConfig`] is rejected by [`ServeConfig::validate`] — the
/// typed alternative to a downstream panic (a zero chunk would divide by
/// zero in the scheduler; a chunk wider than the step budget could never
/// be scheduled and would wedge the simulator).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeConfigError {
    /// `max_batch` is zero: no invocation could coalesce anything.
    ZeroMaxBatch,
    /// `ctx_bucket` is zero: the step-cost cache cannot quantize contexts.
    ZeroCtxBucket,
    /// `prefill_chunk == Some(0)`: a chunk invocation could never advance
    /// a prompt (use `None` for monolithic prefill instead).
    ZeroPrefillChunk,
    /// `step_token_budget == Some(0)`: no step could schedule any token.
    ZeroStepTokenBudget,
    /// The prefill chunk does not fit the step token budget, so a chunk
    /// step could never be scheduled and waiting prompts would starve.
    ChunkExceedsBudget {
        /// Configured `prefill_chunk`.
        chunk: usize,
        /// Configured `step_token_budget`.
        budget: usize,
    },
    /// A step token budget with monolithic prefill
    /// (`prefill_chunk == None`): an unbounded prefill invocation cannot
    /// be packed under any finite budget.
    BudgetRequiresChunkedPrefill,
    /// A fleet run was given no device profiles: there is no device to
    /// dispatch to.
    EmptyFleet,
    /// A [`DeviceProfile`]'s throughput weight is zero, negative, or
    /// non-finite: weighted-JSQ dispatch would divide by it.
    ZeroThroughputProfile {
        /// Index of the offending profile within the fleet.
        device: usize,
    },
    /// A role-specialized fleet with no prefill-capable device: stage-1
    /// routing would have no candidate and every prompt would wedge.
    NoPrefillCapableDevice,
    /// A role-specialized fleet with no decode-capable device: stage-2
    /// routing would have no candidate and every finished prefill with
    /// decode work would wedge mid-handoff.
    NoDecodeCapableDevice,
    /// A request declares a shared prefix longer than its own prompt —
    /// the prefix cannot be a prefix of that prompt.
    PrefixExceedsPrompt {
        /// The offending request.
        request: RequestId,
        /// Declared prefix length in tokens.
        prefix_tokens: usize,
        /// The request's prompt length in tokens.
        prompt_len: usize,
    },
    /// A request's arrival cycle is NaN, negative infinity, or — in an
    /// open-loop workload — positive infinity. The drive sorts such an
    /// arrival last and never dispatches it, so the request would vanish
    /// from the report uncounted. Closed-loop workloads encode each
    /// unreleased population slot as `+∞`, which stays valid there.
    NonFiniteArrival {
        /// The offending request.
        request: RequestId,
    },
    /// A request's arrival cycle is finite but below zero. Simulated
    /// clocks start at cycle 0, so the request would be admitted at 0 and
    /// every latency measured from its arrival would carry the time before
    /// cycle 0 (a −1 s arrival reports a TTFT 1 s too long). `-0.0` is
    /// cycle 0 and stays valid.
    NegativeArrival {
        /// The offending request.
        request: RequestId,
    },
    /// A request's prompt is empty: it has nothing to prefill, so no
    /// scheduler step could ever serve it.
    EmptyPrompt {
        /// The offending request.
        request: RequestId,
    },
    /// Two requests declare the same [`PrefixId`] with different lengths —
    /// ids are content-addressed, so one id must always name one prefix.
    PrefixLengthConflict {
        /// The conflicted prefix id.
        prefix: PrefixId,
        /// The first declared length, in tokens.
        tokens_a: usize,
        /// The conflicting declared length, in tokens.
        tokens_b: usize,
    },
}

impl std::fmt::Display for ServeConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeConfigError::ZeroMaxBatch => write!(f, "coalescing width must be positive"),
            ServeConfigError::ZeroCtxBucket => write!(f, "context bucket must be positive"),
            ServeConfigError::ZeroPrefillChunk => {
                write!(f, "prefill chunk must be positive (use None for unchunked)")
            }
            ServeConfigError::ZeroStepTokenBudget => {
                write!(
                    f,
                    "step token budget must be positive (use None for alternating steps)"
                )
            }
            ServeConfigError::ChunkExceedsBudget { chunk, budget } => write!(
                f,
                "prefill chunk ({chunk} tokens) exceeds the step token budget \
                 ({budget} tokens): no chunk step could ever be scheduled"
            ),
            ServeConfigError::BudgetRequiresChunkedPrefill => write!(
                f,
                "a step token budget requires chunked prefill (prefill_chunk = Some(..)): \
                 a monolithic prefill cannot be packed under a finite budget"
            ),
            ServeConfigError::EmptyFleet => {
                write!(f, "a fleet needs at least one device profile")
            }
            ServeConfigError::ZeroThroughputProfile { device } => write!(
                f,
                "device profile {device} has a non-positive throughput weight: \
                 weighted dispatch would divide by it"
            ),
            ServeConfigError::NoPrefillCapableDevice => write!(
                f,
                "a role-specialized fleet needs at least one prefill-capable \
                 device (Unified or Prefill)"
            ),
            ServeConfigError::NoDecodeCapableDevice => write!(
                f,
                "a role-specialized fleet needs at least one decode-capable \
                 device (Unified or Decode)"
            ),
            ServeConfigError::PrefixExceedsPrompt {
                request,
                prefix_tokens,
                prompt_len,
            } => write!(
                f,
                "request {request} declares a {prefix_tokens}-token shared prefix on a \
                 {prompt_len}-token prompt: a prefix cannot outgrow its prompt"
            ),
            ServeConfigError::NonFiniteArrival { request } => write!(
                f,
                "request {request} has a non-finite arrival cycle: it could never be \
                 dispatched (only a closed-loop workload may hold +inf, unreleased slots)"
            ),
            ServeConfigError::NegativeArrival { request } => write!(
                f,
                "request {request} arrives at a negative cycle: the simulated clock \
                 starts at 0, so the wait before it would inflate every latency"
            ),
            ServeConfigError::EmptyPrompt { request } => write!(
                f,
                "request {request} has an empty prompt: there is nothing to prefill"
            ),
            ServeConfigError::PrefixLengthConflict {
                prefix,
                tokens_a,
                tokens_b,
            } => write!(
                f,
                "prefix {prefix} is declared with two different lengths ({tokens_a} and \
                 {tokens_b} tokens): one content-addressed id must name one prefix"
            ),
        }
    }
}

impl std::error::Error for ServeConfigError {}

impl ServeConfig {
    /// Checks the configuration's internal consistency, returning the
    /// first violation as a typed [`ServeConfigError`] instead of letting
    /// it surface as a downstream panic or a silently wedged simulation.
    ///
    /// # Errors
    ///
    /// See [`ServeConfigError`] for the rejected shapes.
    pub fn validate(&self) -> Result<(), ServeConfigError> {
        if self.max_batch == 0 {
            return Err(ServeConfigError::ZeroMaxBatch);
        }
        if self.ctx_bucket == 0 {
            return Err(ServeConfigError::ZeroCtxBucket);
        }
        if self.prefill_chunk == Some(0) {
            return Err(ServeConfigError::ZeroPrefillChunk);
        }
        match (self.step_token_budget, self.prefill_chunk) {
            (Some(0), _) => Err(ServeConfigError::ZeroStepTokenBudget),
            (Some(_), None) => Err(ServeConfigError::BudgetRequiresChunkedPrefill),
            (Some(budget), Some(chunk)) if chunk > budget => {
                Err(ServeConfigError::ChunkExceedsBudget { chunk, budget })
            }
            _ => Ok(()),
        }
    }
}

/// One request's progress on its way through a device: its timeline, its
/// prefill cursor and its decode count. The same record moves between
/// the device's holders (see the module docs' request life cycle); KV
/// byte accounting lives in the [`KvCachePool`] ledger and the custody
/// ledgers, keyed by request id.
#[derive(Debug, Clone)]
pub(crate) struct InFlight {
    pub(crate) req: Request,
    /// First admission instant (preserved across preemptions and
    /// handoffs — TTFT and stall accounting span every device).
    admitted_cycle: f64,
    /// The prefill cursor: tokens of `prefill_target` already processed.
    prefill_done: usize,
    /// Tokens the pending prefill must cover: the prompt, plus any
    /// already-generated tokens when a drop-and-recompute victim replays.
    prefill_target: usize,
    /// Leading portion of `prefill_target` that recomputes KV an eviction
    /// discarded (0 for fresh prompts). Chunk invocations overlapping this
    /// region bill their share to `recompute_seconds`.
    replay_tokens: usize,
    /// Shared-prefix bytes the pool holds on this request's behalf in its
    /// refcounted prefix ledger — excluded from the request's own
    /// reservation and residency. Non-zero exactly while the request
    /// holds one reference on its prefix entry (a reusing request from
    /// admission on; a materializing request from the step whose cursor
    /// crossed the prefix boundary).
    prefix_bytes: u64,
    tokens: usize,
    first_token_cycle: f64,
    preemptions: usize,
}

impl InFlight {
    /// A queued prompt leaving the queue at `now` (admitted, or dropped
    /// as unservable), its cursor at the start of the prompt.
    fn fresh(req: Request, now: f64) -> Self {
        InFlight {
            admitted_cycle: now,
            prefill_done: 0,
            prefill_target: req.prompt_len,
            replay_tokens: 0,
            prefix_bytes: 0,
            tokens: 0,
            first_token_cycle: 0.0,
            preemptions: 0,
            req,
        }
    }

    fn context(&self) -> usize {
        self.req.prompt_len + self.tokens
    }

    fn prefilled(&self) -> bool {
        self.prefill_done >= self.prefill_target
    }

    /// Unprefilled plus undecoded tokens.
    fn remaining_tokens(&self) -> usize {
        (self.prefill_target - self.prefill_done) + (self.req.decode_len - self.tokens)
    }

    /// Queue-ordering arrival key of a suspended victim (closed-loop
    /// releases carry infinity; fall back to the first admission
    /// instant).
    fn arrival_key(&self) -> f64 {
        if self.req.arrival_cycle.is_finite() {
            self.req.arrival_cycle
        } else {
            self.admitted_cycle
        }
    }

    /// The request's final record at `now`. A request that never produced
    /// a token — a prompt-only completion, or a prompt dropped before
    /// admission — stamps its first token at `now`.
    fn into_record(self, state: RequestState, now: f64) -> RequestRecord {
        RequestRecord {
            state,
            admitted_cycle: self.admitted_cycle,
            first_token_cycle: if self.tokens == 0 {
                now
            } else {
                self.first_token_cycle
            },
            completed_cycle: now,
            tokens: self.tokens,
            preemptions: self.preemptions,
            request: self.req,
        }
    }
}

/// Running preemption counters (cycles; converted to seconds at the end).
#[derive(Debug, Clone, Copy, Default)]
struct PreemptTally {
    preemptions: u64,
    swap_cycles: f64,
    recompute_cycles: f64,
}

/// Running per-step composition counters (see [`crate::StepReport`]).
#[derive(Debug, Clone, Copy, Default)]
struct StepTally {
    steps: u64,
    prefill_steps: u64,
    decode_steps: u64,
    mixed_steps: u64,
    /// Sum over budgeted steps of `executed tokens / budget`.
    utilization_sum: f64,
}

/// A decode continuation leaving a [`DeviceRole::Prefill`] device. The
/// prefill device generates the request's *first token* before handing
/// off (the DistServe cut point — TTFT is produced entirely on the
/// prefill side, so it never waits on a second admission into the decode
/// pool), so the record carries a finished prefill and `tokens ≥ 1`. The
/// source has already released the KV from its pool (and dropped its
/// prefix reference) — the bytes exist only here until the driver routes
/// the handoff and the destination's handoff [`CustodyLedger`] takes
/// custody.
pub(crate) struct HandoffOut {
    pub(crate) flight: InFlight,
    /// Full KV bytes leaving the source pool — prefilled prompt plus the
    /// generated-token suffix: the request's own residency plus its
    /// shared-prefix share.
    pub(crate) bytes: u64,
    /// Source-device clock at extraction — the transfer departs here and
    /// lands `transfer_cycles(bytes)` later.
    pub(crate) ready_cycle: f64,
}

/// A routed handoff riding the host link toward this device. Its bytes
/// are held by the destination's handoff [`CustodyLedger`]; it is in neither
/// device's active or suspended set, so victim selection cannot touch it
/// (the ledger panics are the double-free backstop).
struct Inbound {
    flight: InFlight,
    /// Destination clock at which the transfer completes and the request
    /// becomes admissible.
    arrival_cycle: f64,
}

/// Which holder an admission candidate waits in.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Source {
    Suspended,
    Pending,
    Inbound,
}

/// How an admission candidate enters the active set: its cursor and the
/// resident shared prefix it reuses.
struct Admission {
    /// `(prefill_done, prefill_target, replay_tokens)` on entry.
    cursor: (usize, usize, usize),
    /// The resident prefix the request references from admission on, and
    /// its bytes (excluded from the request's reservation).
    prefix: Option<(PrefixId, u64)>,
    /// Prompt tokens the reuse covers (0 without reuse), reported in the
    /// `Admit` event and the prefix tally.
    reused_tokens: usize,
}

impl Admission {
    /// The cursor stands and no prefix is reused: a landed handoff brings
    /// finished KV and replays nothing.
    fn keep(f: &InFlight) -> Self {
        Admission {
            cursor: (f.prefill_done, f.prefill_target, f.replay_tokens),
            prefix: None,
            reused_tokens: 0,
        }
    }

    /// A prefill that starts from zero over the prompt plus `tokens`
    /// generated tokens, replaying the first `replay`. A still-resident
    /// prefix lets it skip the shared region. A fresh prompt is the case
    /// with no tokens and nothing to replay.
    fn restart(pool: &KvCachePool, req: &Request, tokens: usize, replay: usize) -> Self {
        let target = req.prompt_len + tokens;
        let (start, prefix) = match resident_reuse(pool, req.prefix) {
            Some((pid, prefix_tokens, bytes)) => (
                reuse_start(prefix_tokens, target, req.decode_len - tokens),
                Some((pid, bytes)),
            ),
            None => (0, None),
        };
        Admission {
            cursor: (start, target, replay),
            prefix,
            reused_tokens: start,
        }
    }

    /// Drop-and-recompute resume: the prefill restarts over prompt +
    /// generated tokens. Replay covers exactly the work the eviction
    /// discarded: everything when the prefill had completed, otherwise
    /// only the chunks it had finished (or the replay region it was
    /// already re-running).
    fn recompute(pool: &KvCachePool, f: &InFlight) -> Self {
        let target = f.req.prompt_len + f.tokens;
        let replay = if f.prefilled() {
            target
        } else {
            f.replay_tokens.max(f.prefill_done).min(target)
        };
        Admission::restart(pool, &f.req, f.tokens, replay)
    }

    /// Swap resume: the swapped KV covers everything done, so the cursor
    /// stands. It reuses the prefix only if its cursor already sat past
    /// the prefix at eviction (its swapped KV is then suffix-only) and the
    /// prefix entry survived reclamation. If that prefix was reclaimed
    /// while it was suspended, the restored suffix KV is kept but the
    /// missing prefix region is re-prefilled (attributed as replay — the
    /// reclamation discarded computed KV).
    fn swap_in(pool: &KvCachePool, f: &InFlight) -> Self {
        let reuse =
            resident_reuse(pool, f.req.prefix).filter(|&(_, tokens, _)| f.prefill_done >= tokens);
        if let Some((pid, tokens, bytes)) = reuse {
            return Admission {
                prefix: Some((pid, bytes)),
                reused_tokens: tokens,
                ..Admission::keep(f)
            };
        }
        match f.req.prefix {
            Some(p) if p.tokens > 0 && f.prefill_done >= p.tokens => {
                let target = if f.prefilled() {
                    p.tokens
                } else {
                    f.prefill_target
                };
                Admission {
                    cursor: (0, target, f.prefill_done.min(target)),
                    ..Admission::keep(f)
                }
            }
            _ => Admission::keep(f),
        }
    }
}

/// Running outbound prefill→decode transfer counters of a source device
/// (see [`crate::HandoffReport`]; the inbound side is read off the
/// destination's handoff ledger).
#[derive(Debug, Clone, Copy, Default)]
struct HandoffTally {
    out: u64,
    bytes_out: u64,
    /// Host-link cycles the outbound transfers occupied (the transfers
    /// overlap compute DMA-style — latency lands on the request, not on
    /// the device clock — so these cycles are attribution, not stall).
    link_cycles: f64,
}

/// `a` strictly ahead of `b` in admission order: higher priority first,
/// then earlier arrival, then lower id.
fn admits_before(a: (Priority, f64, RequestId), b: (Priority, f64, RequestId)) -> bool {
    a.0 > b.0 || (a.0 == b.0 && (a.1 < b.1 || (a.1 == b.1 && a.2 < b.2)))
}

/// The resident prefix entry a request can reuse, as `(id, tokens,
/// bytes)`, or `None` when it declares no prefix or the pool does not
/// hold it.
///
/// # Panics
///
/// Panics if the resident entry disagrees with the request's declared
/// prefix length — one [`PrefixId`] must always name one prefix.
fn resident_reuse(
    pool: &KvCachePool,
    prefix: Option<crate::request::SharedPrefix>,
) -> Option<(PrefixId, usize, u64)> {
    let p = prefix.filter(|p| p.tokens > 0)?;
    let e = pool.prefix(p.id)?;
    assert_eq!(
        e.tokens, p.tokens,
        "prefix {} reused with a different declared length",
        p.id
    );
    Some((p.id, e.tokens, e.bytes))
}

/// Where a reusing request's prefill cursor starts: at the prefix
/// boundary, except that a request with no decode work left must keep at
/// least one unshared prompt token to execute (a fully-shared prompt-only
/// request would otherwise never appear in any scheduler view).
fn reuse_start(prefix_tokens: usize, target: usize, decode_remaining: usize) -> usize {
    let start = prefix_tokens.min(target);
    if decode_remaining == 0 {
        start.min(target.saturating_sub(1))
    } else {
        start
    }
}

/// The discrete-event serving simulator: drives an [`Accelerator`] under
/// multi-request load through a pluggable [`Scheduler`], with KV-pool
/// admission control, chunked prefill, priority-aware preemption, and
/// full latency accounting. Time is the simulated 1 GHz core clock; there
/// is no wall-clock dependence anywhere, so a `(workload, scheduler,
/// config)` triple replays bit-identically.
pub struct ServeSim<'a> {
    cost: StepCostModel<'a>,
    cfg: ServeConfig,
}

impl<'a> ServeSim<'a> {
    /// Builds a serving simulator over any accelerator model. `template`
    /// supplies model shapes, the measured weight profile, and the
    /// attention-keep operating point (its task/batch fields are replaced
    /// per scheduled step).
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration (see [`ServeConfig::validate`]);
    /// use [`ServeSim::try_new`] to handle the error instead.
    #[must_use]
    pub fn new(accel: &'a dyn Accelerator, template: TraceContext, cfg: ServeConfig) -> Self {
        match Self::try_new(accel, template, cfg) {
            Ok(sim) => sim,
            Err(e) => panic!("invalid ServeConfig: {e}"),
        }
    }

    /// Builds a serving simulator, rejecting inconsistent configurations
    /// with a typed error instead of a downstream panic.
    ///
    /// # Errors
    ///
    /// Returns the first [`ServeConfigError`] the configuration violates.
    pub fn try_new(
        accel: &'a dyn Accelerator,
        template: TraceContext,
        cfg: ServeConfig,
    ) -> Result<Self, ServeConfigError> {
        cfg.validate()?;
        let cost = StepCostModel::new(accel, template, cfg.ctx_bucket);
        Ok(ServeSim { cost, cfg })
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The step-cost model (exposed for diagnostics).
    #[must_use]
    pub fn cost_model(&self) -> &StepCostModel<'a> {
        &self.cost
    }

    /// Runs one workload under one scheduler to completion on a single
    /// device. Cross-request prefix reuse is live here too: a request
    /// whose [`crate::SharedPrefix`] is already resident in the device's
    /// pool prefills only its unshared suffix.
    ///
    /// # Panics
    ///
    /// Panics on an invalid workload (see [`ServeSim::validate_workload`]),
    /// internal accounting violations (the KV pool asserts its budget
    /// invariants), or a scheduler contract violation.
    #[must_use]
    pub fn run(&self, workload: &Workload, scheduler: &mut dyn Scheduler) -> ServeReport {
        expect_valid(self.run_single(workload, scheduler, false)).0
    }

    /// Like [`ServeSim::run`], but records the run's full
    /// arrival/admission/schedule/preemption history alongside the
    /// report. The traced run is bit-exact with the untraced one —
    /// recording only observes, never perturbs — and re-running the
    /// returned trace's workload under the same configuration and
    /// scheduler reproduces the report bit-exactly (the replay contract
    /// the `mcbp-trace` crate asserts).
    ///
    /// # Panics
    ///
    /// Panics where [`ServeSim::run`] would.
    #[must_use]
    pub fn run_traced(
        &self,
        workload: &Workload,
        scheduler: &mut dyn Scheduler,
    ) -> (ServeReport, RunTrace) {
        traced(self.run_single(workload, scheduler, true))
    }

    /// [`ServeSim::execute`] on one [`DeviceProfile::uniform`] device.
    fn run_single(
        &self,
        workload: &Workload,
        scheduler: &mut dyn Scheduler,
        trace: bool,
    ) -> Result<(ServeReport, Option<RunTrace>), ServeConfigError> {
        let mut router = DispatchPolicy::RoundRobin.router();
        self.execute(
            workload,
            &[DeviceProfile::uniform()],
            &mut router,
            &mut [scheduler],
            trace,
        )
    }

    /// Checks a workload's internal consistency: every arrival cycle must
    /// be finite (or `+∞`, an unreleased slot, in a closed-loop workload)
    /// and not below zero, every prompt must hold at least one token, every declared
    /// [`crate::SharedPrefix`] must fit inside its request's prompt, and
    /// one [`PrefixId`] must always be declared with one length (ids are
    /// content-addressed).
    ///
    /// # Errors
    ///
    /// Returns [`ServeConfigError::NonFiniteArrival`],
    /// [`ServeConfigError::NegativeArrival`],
    /// [`ServeConfigError::EmptyPrompt`],
    /// [`ServeConfigError::PrefixExceedsPrompt`] or
    /// [`ServeConfigError::PrefixLengthConflict`] for the first
    /// offending request.
    pub fn validate_workload(workload: &Workload) -> Result<(), ServeConfigError> {
        let closed = workload.closed_loop.is_some();
        let mut declared: std::collections::BTreeMap<PrefixId, usize> =
            std::collections::BTreeMap::new();
        for r in &workload.requests {
            let unreleased_slot = closed && r.arrival_cycle == f64::INFINITY;
            if !(r.arrival_cycle.is_finite() || unreleased_slot) {
                return Err(ServeConfigError::NonFiniteArrival { request: r.id });
            }
            if r.arrival_cycle < 0.0 {
                return Err(ServeConfigError::NegativeArrival { request: r.id });
            }
            if r.prompt_len == 0 {
                return Err(ServeConfigError::EmptyPrompt { request: r.id });
            }
            if let Some(p) = r.prefix {
                if p.tokens > r.prompt_len {
                    return Err(ServeConfigError::PrefixExceedsPrompt {
                        request: r.id,
                        prefix_tokens: p.tokens,
                        prompt_len: r.prompt_len,
                    });
                }
                match declared.insert(p.id, p.tokens) {
                    Some(prior) if prior != p.tokens => {
                        return Err(ServeConfigError::PrefixLengthConflict {
                            prefix: p.id,
                            tokens_a: prior,
                            tokens_b: p.tokens,
                        });
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }

    /// The KV pool for one fleet device: the profile's explicit budget,
    /// else the [`ServeConfig::kv_budget_bytes`] behavior.
    pub(crate) fn pool_for(&self, profile: &DeviceProfile<'_>) -> KvCachePool {
        match profile.kv_budget_bytes.or(self.cfg.kv_budget_bytes) {
            Some(bytes) => KvCachePool::with_budget(bytes),
            None => KvCachePool::from_memory_spec(
                &mcbp_mem::HbmConfig::default(),
                &self.cost.template().model,
                self.cfg.fleet.devices,
            ),
        }
    }

    /// Applies the §5.3 tensor-parallel scaling model to one step: latency
    /// divides by the effective speedup, energy pays the communication tax
    /// (the same model as [`Fleet::scale`], applied per step — like it,
    /// the tax spares the bit-reorder component).
    fn fleet_scaled(&self, cost: StepCost) -> StepCost {
        let fleet = &self.cfg.fleet;
        if fleet.devices <= 1 {
            return cost;
        }
        let comm_tax = 2.0 - fleet.scaling_efficiency;
        StepCost {
            cycles: cost.cycles / fleet.speedup(),
            energy_pj: (cost.energy_pj - cost.reorder_pj) * comm_tax + cost.reorder_pj,
            reorder_pj: cost.reorder_pj,
        }
    }
}

/// One device's step-cost model: devices whose profile overrides neither
/// the accelerator nor the keep ratio share the simulator's memoized
/// model (so a uniform fleet costs each distinct invocation once,
/// fleet-wide); a heterogeneous device owns its own.
enum DeviceCost<'s, 'a> {
    Shared(&'s StepCostModel<'a>),
    Owned(Box<StepCostModel<'a>>),
}

/// One simulated device's complete serving state: local queue, KV pool,
/// suspended victims, clock, and counters. The dispatch driver
/// ([`crate::dispatch`]) owns one of these per fleet device — built from
/// its [`DeviceProfile`] — and steps whichever has runnable work and the
/// earliest clock.
pub(crate) struct DeviceSim<'s, 'a> {
    sim: &'s ServeSim<'a>,
    cost: DeviceCost<'s, 'a>,
    /// This device's preemption configuration (the simulator's, with the
    /// profile's host-link override applied).
    preempt: PreemptConfig,
    /// The profile's relative throughput weight (read by the router).
    throughput: f64,
    /// This device's dispatch role (`Unified` outside disaggregated
    /// fleets; only a `Prefill` device extracts handoffs).
    role: DeviceRole,
    pub(crate) pool: KvCachePool,
    /// Custody of swapped-out victims' KV bytes in host memory.
    swap_ledger: CustodyLedger,
    /// Custody of KV bytes riding the host link **into** this device
    /// (handoffs are accounted at their destination: the driver checks
    /// them out when it routes, admission checks them in).
    handoff_ledger: CustodyLedger,
    tally: PreemptTally,
    handoff_tally: HandoffTally,
    /// Finished prefills awaiting stage-2 routing (drained by the
    /// driver's dispatch fixpoint).
    outbound: Vec<HandoffOut>,
    /// Routed handoffs riding the link toward this device.
    inbound: Vec<Inbound>,
    step_tally: StepTally,
    prefix_tally: PrefixReport,
    /// Requests dispatched to this device, arrival-sorted, not yet
    /// admitted.
    pending: VecDeque<Request>,
    active: Vec<InFlight>,
    /// Evicted victims waiting to resume. A swap victim's KV bytes sit in
    /// `swap_ledger` under its id; a drop-and-recompute victim (or a swap
    /// victim that held no resident bytes) has none and replays.
    suspended: Vec<InFlight>,
    pub(crate) records: Vec<RequestRecord>,
    /// This device's clock, in core cycles.
    pub(crate) now: f64,
    /// Cycles spent executing steps (plus swap stalls tallied
    /// separately), for utilization reporting.
    busy_cycles: f64,
    pub(crate) energy_pj: f64,
    pub(crate) decode_invocations: u64,
    pub(crate) decode_streams: u64,
    /// In-flight concurrency deltas on this device's clock: `(cycle, +1)`
    /// when a request enters the active set (fresh or resumed admission),
    /// `(cycle, -1)` when it leaves (eviction or completion). The fleet
    /// merge sweeps the union of every device's deltas for the true
    /// fleet-wide simultaneous peak.
    pub(crate) conc_log: Vec<(f64, i32)>,
    pub(crate) dispatched: usize,
    /// Fleet index of this device (stamped onto recorded events).
    pub(crate) device: u32,
    /// Recorded event log of a traced run (`None` — the default — records
    /// nothing and keeps the untraced paths allocation-free).
    pub(crate) log: Option<Vec<TraceEvent>>,
}

impl<'s, 'a> DeviceSim<'s, 'a> {
    pub(crate) fn new(sim: &'s ServeSim<'a>, profile: &DeviceProfile<'a>) -> Self {
        let cost = match (profile.accel, profile.attention_keep) {
            // Inherit everything: share the simulator's memoized model so
            // a uniform fleet costs each distinct invocation once,
            // fleet-wide.
            (None, None) => DeviceCost::Shared(&sim.cost),
            (accel, keep) => {
                let template = TraceContext {
                    attention_keep: keep.unwrap_or(sim.cost.template().attention_keep),
                    ..sim.cost.template().clone()
                };
                DeviceCost::Owned(Box::new(StepCostModel::new(
                    accel.unwrap_or_else(|| sim.cost.accel()),
                    template,
                    sim.cfg.ctx_bucket,
                )))
            }
        };
        let mut preempt = sim.cfg.preempt.clone();
        if let Some(link) = profile.host_link_bytes_per_cycle {
            preempt.host_link_bytes_per_cycle = link;
        }
        DeviceSim {
            pool: sim.pool_for(profile),
            sim,
            cost,
            preempt,
            role: profile.role,
            throughput: profile.throughput,
            swap_ledger: CustodyLedger::new(),
            handoff_ledger: CustodyLedger::new(),
            tally: PreemptTally::default(),
            handoff_tally: HandoffTally::default(),
            outbound: Vec::new(),
            inbound: Vec::new(),
            step_tally: StepTally::default(),
            prefix_tally: PrefixReport::default(),
            pending: VecDeque::new(),
            active: Vec::new(),
            suspended: Vec::new(),
            records: Vec::new(),
            now: 0.0,
            busy_cycles: 0.0,
            energy_pj: 0.0,
            decode_invocations: 0,
            decode_streams: 0,
            conc_log: Vec::new(),
            dispatched: 0,
            device: 0,
            log: None,
        }
    }

    /// This device's step-cost model (its own for a heterogeneous
    /// profile, the simulator's shared one otherwise).
    fn cost(&self) -> &StepCostModel<'a> {
        match &self.cost {
            DeviceCost::Shared(cost) => cost,
            DeviceCost::Owned(cost) => cost,
        }
    }

    /// The profile's relative throughput weight (the router's
    /// weighted-JSQ denominator).
    pub(crate) fn throughput(&self) -> f64 {
        self.throughput
    }

    /// Appends one event to a traced run's log (no-op when untraced, so
    /// the hook sites cost nothing on the ordinary paths).
    fn record(&mut self, ev: TraceEvent) {
        if let Some(log) = &mut self.log {
            log.push(ev);
        }
    }

    /// Hands this device a dispatched request, keeping the local queue
    /// arrival-sorted (dispatch order is global arrival order, so this is
    /// a tail insert except around closed-loop releases).
    pub(crate) fn enqueue(&mut self, req: Request) {
        self.dispatched += 1;
        let pos = self
            .pending
            .iter()
            .rposition(|r| r.arrival_cycle <= req.arrival_cycle)
            .map_or(0, |i| i + 1);
        self.pending.insert(pos, req);
    }

    pub(crate) fn has_active(&self) -> bool {
        !self.active.is_empty()
    }

    /// Whether this device still holds undone work of any kind.
    pub(crate) fn is_drained(&self) -> bool {
        self.active.is_empty()
            && self.suspended.is_empty()
            && self.pending.is_empty()
            && self.outbound.is_empty()
            && self.inbound.is_empty()
            && self.handoff_ledger.is_empty()
    }

    /// Drains the finished prefills awaiting stage-2 routing (called by
    /// the driver inside its dispatch fixpoint, in device-index order —
    /// the routing order is part of the deterministic replay contract).
    pub(crate) fn take_outbound(&mut self) -> Vec<HandoffOut> {
        std::mem::take(&mut self.outbound)
    }

    /// Host-link cycles one outbound handoff of `bytes` occupies on
    /// *this* (source) device's link.
    pub(crate) fn handoff_transfer_cycles(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            0.0
        } else {
            self.preempt.transfer_cycles(bytes)
        }
    }

    /// Books one outbound handoff on the source device's tally.
    pub(crate) fn note_handoff_out(&mut self, bytes: u64, link_cycles: f64) {
        self.handoff_tally.out += 1;
        self.handoff_tally.bytes_out += bytes;
        self.handoff_tally.link_cycles += link_cycles;
    }

    /// Accepts a routed handoff: the ledger takes custody of the bytes
    /// and the request queues for admission once the transfer lands at
    /// `arrival_cycle`.
    pub(crate) fn receive_handoff(&mut self, h: HandoffOut, arrival_cycle: f64) {
        let id = h.flight.req.id;
        self.handoff_ledger.check_out(id, h.bytes);
        // Arrival-sorted like `pending`; ids break exact-cycle ties so
        // insertion order never matters.
        let pos = self
            .inbound
            .iter()
            .rposition(|p| (p.arrival_cycle, p.flight.req.id) <= (arrival_cycle, id))
            .map_or(0, |i| i + 1);
        let entry = Inbound {
            flight: h.flight,
            arrival_cycle,
        };
        self.inbound.insert(pos, entry);
    }

    /// Remaining work queued on this device, in tokens (pending prompts
    /// and decodes, plus unprefilled and undecoded tokens of admitted and
    /// suspended requests) — the join-shortest-queue dispatch metric.
    pub(crate) fn queued_tokens(&self) -> u64 {
        let pending: usize = self
            .pending
            .iter()
            .map(|r| r.prompt_len + r.decode_len)
            .sum();
        let admitted: usize = self
            .active
            .iter()
            .chain(&self.suspended)
            .chain(self.inbound.iter().map(|h| &h.flight))
            .map(InFlight::remaining_tokens)
            .sum();
        (pending + admitted) as u64
    }

    /// Runs admission to a fixpoint: resumable victims and arrived queue
    /// entries are admitted best-first until the best candidate blocks.
    /// An idle device fast-forwards its clock to the next timed arrival.
    /// Returns the number of requests dropped (peak residency can never
    /// fit) — the driver releases one closed-loop slot per drop.
    pub(crate) fn admit(&mut self) -> usize {
        let mut drops = 0;
        loop {
            self.admit_pass(&mut drops);
            if self.extract_finished_prefills() > 0 {
                // A fully-prefix-covered admission can complete its
                // prefill without a single step; its handoff frees pool
                // bytes that may unblock further admission.
                continue;
            }
            if self.active.is_empty() {
                // Admission into an idle pool cannot block, so nothing is
                // suspended either.
                assert!(
                    self.suspended.is_empty(),
                    "suspended work on an idle device"
                );
                let next = self
                    .pending
                    .iter()
                    .map(|r| r.arrival_cycle)
                    .filter(|a| a.is_finite())
                    .chain(self.inbound.iter().map(|h| h.arrival_cycle))
                    .min_by(f64::total_cmp);
                if let Some(arrival) = next {
                    if arrival > self.now {
                        self.now = arrival;
                        // The gap holds no admitted work (asserted above),
                        // so it is excluded from the occupancy mean
                        // entirely rather than diluting it.
                        self.pool.skip_idle(self.now);
                        continue;
                    }
                }
            }
            break;
        }
        drops
    }

    /// Moves every first-tokened request with remaining decode work off a
    /// [`DeviceRole::Prefill`] device into the outbound handoff buffer:
    /// the prefill device finishes the prompt *and generates token 1*
    /// (the DistServe cut — TTFT never crosses the link), then the decode
    /// continuation leaves. Its KV leaves this pool (the shared-prefix
    /// share stays resident as a warm line, its reference dropped) and
    /// the request's bytes exist only in the buffered [`HandoffOut`]
    /// until the driver routes it. Requests whose decode length is 1
    /// complete on the prefill device and never hand off. Returns the
    /// number extracted; a no-op on every other role.
    fn extract_finished_prefills(&mut self) -> usize {
        if self.role != DeviceRole::Prefill {
            return 0;
        }
        let mut extracted = 0;
        let mut i = 0;
        while i < self.active.len() {
            let ready = {
                let f = &self.active[i];
                f.prefilled() && f.req.decode_len > 0 && f.tokens >= 1
            };
            if !ready {
                i += 1;
                continue;
            }
            let mut flight = self.active.remove(i);
            let prefix_bytes = flight.prefix_bytes;
            let bytes = self.release(&mut flight) + prefix_bytes;
            self.conc_log.push((self.now, -1));
            self.outbound.push(HandoffOut {
                flight,
                bytes,
                ready_cycle: self.now,
            });
            extracted += 1;
        }
        extracted
    }

    /// One admission sweep at the current clock: the best candidate is
    /// dropped if it can never fit, admitted if it fits (possibly after
    /// evictions), and otherwise blocks the sweep.
    fn admit_pass(&mut self, drops: &mut usize) {
        while let Some((source, idx)) = self.best_candidate() {
            let req = match source {
                Source::Suspended => &self.suspended[idx].req,
                Source::Pending => &self.pending[idx],
                Source::Inbound => &self.inbound[idx].flight.req,
            };
            let (id, priority) = (req.id, req.priority);
            let full_peak = self.kv_bytes(req.final_context());
            // The drop decision uses the *full* peak: a request must be
            // servable even when its prefix is not resident, or a later
            // prefix reclamation could leave an admitted-only-by-reuse
            // victim unable to ever resume. A suspended victim fit once.
            // A handoff that cannot fit (the prefill pool could) is
            // dropped on arrival, its transferred bytes discarded; the
            // source already delivered token 1, so its TTFT stands.
            if source != Source::Suspended && !self.pool.can_ever_fit(full_peak) {
                let flight = self.take_candidate(source, idx);
                if source == Source::Inbound {
                    self.handoff_ledger.check_in(id);
                }
                self.records
                    .push(flight.into_record(RequestState::Dropped, self.now));
                *drops += 1;
                self.record(TraceEvent::Drop {
                    device: self.device,
                    cycle: self.now,
                    id,
                });
                continue;
            }
            let plan = match source {
                Source::Suspended => {
                    let f = &self.suspended[idx];
                    if self.swap_ledger.held_for(id).is_some() {
                        Admission::swap_in(&self.pool, f)
                    } else {
                        Admission::recompute(&self.pool, f)
                    }
                }
                Source::Pending => Admission::restart(&self.pool, &self.pending[idx], 0, 0),
                Source::Inbound => Admission::keep(&self.inbound[idx].flight),
            };
            let prefix_bytes = plan.prefix.map_or(0, |(_, bytes)| bytes);
            let keep_prefix = plan.prefix.map(|(pid, _)| pid);
            if !self.try_admit(id, full_peak - prefix_bytes, priority, keep_prefix) {
                break;
            }
            let mut flight = self.take_candidate(source, idx);
            match source {
                Source::Suspended => {
                    if let Some(bytes) = self.swap_ledger.held_for(id) {
                        // Swap-in: restore the victim's KV from host
                        // memory, stalling the device for the transfer.
                        self.transfer_stall(bytes);
                        self.swap_ledger.check_in(id);
                        self.pool.grow_resident(id, bytes);
                    }
                }
                Source::Pending => {}
                Source::Inbound => {
                    // The ledger hands the transferred bytes over: they
                    // become resident KV under the fresh reservation
                    // (capped by it — the pools may disagree on the keep
                    // ratio).
                    let bytes = self.handoff_ledger.check_in(id);
                    self.pool.grow_resident(id, bytes.min(full_peak));
                }
            }
            let fresh = source == Source::Pending;
            if let Some((pid, _)) = plan.prefix {
                self.pool.ref_prefix(pid);
                self.prefix_tally.reused_tokens += plan.reused_tokens as u64;
                self.prefix_tally.hits += u64::from(fresh);
            } else if fresh && flight.req.prefix.is_some_and(|p| p.tokens > 0) {
                self.prefix_tally.misses += 1;
            }
            (
                flight.prefill_done,
                flight.prefill_target,
                flight.replay_tokens,
            ) = plan.cursor;
            flight.prefix_bytes = prefix_bytes;
            self.active.push(flight);
            self.conc_log.push((self.now, 1));
            self.record(TraceEvent::Admit {
                device: self.device,
                cycle: self.now,
                id,
                resumed: !fresh,
                reused_prefix_tokens: plan.reused_tokens as u32,
                queue_depth: self.pending.len() as u32,
            });
        }
    }

    /// The admission sweep's best candidate across the suspended victims,
    /// the arrived queue entries and the landed handoffs (each keyed by
    /// its arrival — a handoff by its link-arrival instant), as its
    /// holder and index. Ids are unique, so keys never tie.
    fn best_candidate(&self) -> Option<(Source, usize)> {
        let suspended = self.suspended.iter().enumerate().map(|(i, f)| {
            (
                (Source::Suspended, i),
                (f.req.priority, f.arrival_key(), f.req.id),
            )
        });
        let pending = self
            .pending
            .iter()
            .enumerate()
            .take_while(|(_, r)| r.arrival_cycle <= self.now)
            .map(|(i, r)| ((Source::Pending, i), (r.priority, r.arrival_cycle, r.id)));
        let inbound = self
            .inbound
            .iter()
            .enumerate()
            .filter(|(_, h)| h.arrival_cycle <= self.now)
            .map(|(i, h)| {
                let r = &h.flight.req;
                ((Source::Inbound, i), (r.priority, h.arrival_cycle, r.id))
            });
        suspended
            .chain(pending)
            .chain(inbound)
            .reduce(|a, b| if admits_before(b.1, a.1) { b } else { a })
            .map(|(candidate, _)| candidate)
    }

    /// Removes an admission candidate from its holder; a queued prompt
    /// becomes a fresh record admitted now.
    fn take_candidate(&mut self, source: Source, idx: usize) -> InFlight {
        match source {
            Source::Suspended => self.suspended.remove(idx),
            Source::Pending => {
                InFlight::fresh(self.pending.remove(idx).expect("index valid"), self.now)
            }
            Source::Inbound => self.inbound.remove(idx).flight,
        }
    }

    /// KV bytes of `tokens` tokens of context on this device's model and
    /// keep ratio.
    fn kv_bytes(&self, tokens: usize) -> u64 {
        let template = self.cost().template();
        request_kv_bytes(&template.model, tokens, template.attention_keep)
    }

    /// Stalls the device for one host-link transfer of `bytes` (a swap
    /// out or in).
    fn transfer_stall(&mut self, bytes: u64) {
        let cycles = self.preempt.transfer_cycles(bytes);
        self.now += cycles;
        self.pool.advance_clock(self.now);
        self.tally.swap_cycles += cycles;
    }

    /// Releases `f`'s reservation and drops its reference on its shared
    /// prefix; the entry stays resident as a warm cache line, and a later
    /// admission re-evaluates reuse against it. Returns the resident bytes
    /// the reservation held.
    fn release(&mut self, f: &mut InFlight) -> u64 {
        let freed = self.pool.release(f.req.id);
        if f.prefix_bytes > 0 {
            self.pool
                .unref_prefix(f.req.prefix.expect("prefix bytes imply a prefix").id);
            f.prefix_bytes = 0;
        }
        freed.resident_bytes
    }

    /// Grows `id`'s residency to the KV bytes of its first `tokens`
    /// tokens — minus the `prefix_bytes` share the shared-prefix ledger
    /// already holds — never past its peak reservation.
    fn grow_to_tokens(&mut self, id: RequestId, tokens: usize, prefix_bytes: u64) {
        let bytes = self.kv_bytes(tokens).saturating_sub(prefix_bytes);
        let reserved = self
            .pool
            .reservation(id)
            .expect("admitted request holds a reservation");
        let target = bytes.min(reserved.reserved_bytes);
        self.pool
            .grow_resident(id, target.saturating_sub(reserved.resident_bytes));
    }

    /// Reserves `peak` bytes for candidate `id`, evicting strictly
    /// lower-priority victims if the configured policy allows and then —
    /// last — reclaiming unreferenced resident prefixes, when the
    /// combination would actually make room. `keep_prefix` names the
    /// prefix the candidate is about to reuse; it is spared from
    /// reclamation. Returns whether the reservation succeeded.
    ///
    /// Victims go before warm prefixes deliberately: a victim's KV serves
    /// only itself (and preemption exists to reorder exactly that work),
    /// while a resident prefix is shared state that keeps paying off
    /// across future arrivals — the serving-granularity analogue of the
    /// repetition reuse MCBP bets on.
    fn try_admit(
        &mut self,
        id: RequestId,
        peak: u64,
        priority: Priority,
        keep_prefix: Option<PrefixId>,
    ) -> bool {
        if self.pool.try_reserve(id, peak) {
            return true;
        }
        // Feasibility first: evicting every allowed victim and reclaiming
        // every warm prefix must make room, otherwise don't thrash the
        // pool for nothing.
        let evictable: u64 = if self.preempt.policy == EvictionPolicy::None {
            0
        } else {
            self.active
                .iter()
                .filter(|f| f.req.priority < priority)
                .map(|f| {
                    self.pool
                        .reservation(f.req.id)
                        .expect("active request holds a reservation")
                        .reserved_bytes
                })
                .sum()
        };
        let reclaimable = self.pool.reclaimable_prefix_bytes(keep_prefix);
        let free = self.pool.budget_bytes() - self.pool.reserved_bytes();
        if free + evictable + reclaimable < peak {
            return false;
        }
        while !self.pool.try_reserve(id, peak) {
            // Victim order: lowest class first; within it the youngest
            // admission (least sunk progress), ties broken by highest id.
            let victim = if self.preempt.policy == EvictionPolicy::None {
                None
            } else {
                self.active
                    .iter()
                    .enumerate()
                    .filter(|(_, f)| f.req.priority < priority)
                    .map(|(i, f)| (i, (f.req.priority, f.admitted_cycle, f.req.id)))
                    .reduce(|a, b| {
                        let later = b.1 .0 < a.1 .0
                            || (b.1 .0 == a.1 .0
                                && (b.1 .1 > a.1 .1 || (b.1 .1 == a.1 .1 && b.1 .2 > a.1 .2)));
                        if later {
                            b
                        } else {
                            a
                        }
                    })
                    .map(|(i, _)| i)
            };
            let Some(victim) = victim else {
                // Victims exhausted (or preemption disabled): reclaim one
                // unreferenced resident prefix — feasibility guaranteed
                // there is one to take.
                let (_, bytes) = self
                    .pool
                    .reclaim_unreferenced_prefix(keep_prefix)
                    .expect("feasibility guaranteed reclaimable bytes");
                self.prefix_tally.reclaimed += 1;
                self.prefix_tally.reclaimed_bytes += bytes;
                continue;
            };
            let mut f = self.active.remove(victim);
            let resident_bytes = self.release(&mut f);
            self.tally.preemptions += 1;
            let swapped_bytes = match self.preempt.policy {
                EvictionPolicy::None => unreachable!("victims require a policy"),
                EvictionPolicy::DropRecompute => 0,
                EvictionPolicy::Swap => {
                    if resident_bytes > 0 {
                        // Swap-out: spill the victim's KV to host memory,
                        // stalling the device for the transfer.
                        self.transfer_stall(resident_bytes);
                        self.swap_ledger.check_out(f.req.id, resident_bytes);
                    }
                    resident_bytes
                }
            };
            let victim_id = f.req.id;
            f.preemptions += 1;
            self.suspended.push(f);
            self.conc_log.push((self.now, -1));
            self.record(TraceEvent::Preempt {
                device: self.device,
                cycle: self.now,
                victim: victim_id,
                swapped_bytes,
            });
        }
        true
    }

    /// Plans and executes one batched step — pure prefill, pure decode,
    /// or a budgeted **mixed step** carrying a prefill chunk plus
    /// piggybacked decode streams — retiring completions. Returns the
    /// number of requests that completed — the driver releases one
    /// closed-loop slot per completion.
    ///
    /// In a mixed step the chunk members' KV residency grows to their new
    /// cursor and the piggybacked members' decode-token accounting (token
    /// counts, first-token stamps, per-token KV growth) lands in the same
    /// step; the step is costed as the chunk's
    /// [`StepCostModel::prefill_chunk_cost`] plus the
    /// [`StepCostModel::piggyback_decode_cost`] of its decodes, each
    /// fleet-scaled.
    ///
    /// # Panics
    ///
    /// Panics if the scheduler returns an idle plan or selects no live
    /// request while work is visible, or schedules more tokens than
    /// [`ServeConfig::step_token_budget`] allows (contract violations —
    /// failing loudly beats silently losing in-flight requests).
    pub(crate) fn step(&mut self, scheduler: &mut dyn Scheduler) -> usize {
        let step_start = self.now;
        let waiting: Vec<SchedEntry> = self
            .active
            .iter()
            .filter(|f| !f.prefilled())
            .map(|f| SchedEntry {
                id: f.req.id,
                len: f.prefill_target,
                done: f.prefill_done,
                generated: f.tokens,
                priority: f.req.priority,
            })
            .collect();
        let decoding: Vec<SchedEntry> = self
            .active
            .iter()
            .filter(|f| f.prefilled() && f.tokens < f.req.decode_len)
            .map(|f| SchedEntry {
                id: f.req.id,
                len: f.context(),
                done: f.context(),
                generated: f.tokens,
                priority: f.req.priority,
            })
            .collect();
        let view = SchedView {
            waiting_prefill: &waiting,
            decoding: &decoding,
            max_batch: self.sim.cfg.max_batch,
            prefill_chunk: self.sim.cfg.prefill_chunk,
            step_token_budget: self.sim.cfg.step_token_budget,
        };
        let plan = scheduler.plan(&view);
        assert!(
            !plan.is_idle(),
            "scheduler `{}` returned an idle plan with {} prompt(s) waiting and {} stream(s) decoding",
            scheduler.name(),
            waiting.len(),
            decoding.len()
        );
        // Prefill and decode members share the coalescing width.
        let prefill_ids = clamp_ids(&plan.prefill, &waiting, self.sim.cfg.max_batch);
        let decode_ids = clamp_ids(
            &plan.decode,
            &decoding,
            self.sim.cfg.max_batch - prefill_ids.len(),
        );
        assert!(
            !(prefill_ids.is_empty() && decode_ids.is_empty()),
            "scheduler `{}` plan selected no live request",
            scheduler.name()
        );

        let chunk = self.sim.cfg.prefill_chunk.unwrap_or(usize::MAX);
        // Per-request chunk spans. The schedulers batch matching
        // (target, cursor) pairs so spans are uniform; a custom
        // scheduler mixing cursors is costed by its heaviest span.
        let spans: Vec<(RequestId, usize, usize, usize)> = prefill_ids
            .iter()
            .map(|id| {
                let f = lookup(&self.active, *id);
                let upto = f.prefill_target.min(f.prefill_done.saturating_add(chunk));
                (*id, f.prefill_done, upto, f.replay_tokens)
            })
            .collect();
        // Budget contract: the executed step never exceeds the shared
        // token budget (chunk tokens + one per decode member).
        if let Some(budget) = self.sim.cfg.step_token_budget {
            let tokens = spans.iter().map(|&(_, d, u, _)| u - d).sum::<usize>() + decode_ids.len();
            assert!(
                tokens <= budget,
                "scheduler `{}` scheduled {tokens} tokens over the {budget}-token step budget",
                scheduler.name()
            );
            self.step_tally.utilization_sum += tokens as f64 / budget as f64;
        }

        // ---- cost the invocation (chunk + piggybacked decodes) ----
        let chunk_cost = (!spans.is_empty()).then(|| {
            let (_, done, upto, _) = spans
                .iter()
                .copied()
                .max_by_key(|&(_, done, upto, _)| (upto - done, upto))
                .expect("non-empty");
            self.sim
                .fleet_scaled(self.cost().prefill_chunk_cost(done, upto, spans.len()))
        });
        let decode_cost = (!decode_ids.is_empty()).then(|| {
            let mean_ctx = (decode_ids
                .iter()
                .map(|id| lookup(&self.active, *id).context())
                .sum::<usize>() as f64
                / decode_ids.len() as f64)
                .round() as usize;
            // Piggybacked decodes ride the chunk's weight stream and pay
            // only their incremental cost; a pure decode step pays the
            // full invocation cost including the stream.
            let raw = if spans.is_empty() {
                self.cost().decode_cost(mean_ctx.max(1), decode_ids.len())
            } else {
                self.cost()
                    .piggyback_decode_cost(mean_ctx.max(1), decode_ids.len())
            };
            self.sim.fleet_scaled(raw)
        });
        let step_cycles =
            chunk_cost.map_or(0.0, |c| c.cycles) + decode_cost.map_or(0.0, |c| c.cycles);
        self.now += step_cycles;
        self.busy_cycles += step_cycles;
        // Integrate pre-step residency over the step before the step's
        // own growth lands, so the occupancy mean is not biased upward
        // by end-of-step byte arrivals.
        self.pool.advance_clock(self.now);
        self.energy_pj +=
            chunk_cost.map_or(0.0, |c| c.energy_pj) + decode_cost.map_or(0.0, |c| c.energy_pj);
        self.step_tally.steps += 1;
        match (chunk_cost.is_some(), decode_cost.is_some()) {
            (true, true) => self.step_tally.mixed_steps += 1,
            (true, false) => self.step_tally.prefill_steps += 1,
            (false, true) => self.step_tally.decode_steps += 1,
            (false, false) => unreachable!("empty plans are rejected above"),
        }

        // ---- apply the chunk members' cursor and KV growth ----
        if let Some(cost) = chunk_cost {
            // Attribute the replayed share of the chunk (not of the
            // piggybacked decodes) to recompute overhead
            // (drop-and-recompute's resume bill): the tokens of each span
            // overlapping its replay region.
            let taken: usize = spans.iter().map(|&(_, d, u, _)| u - d).sum();
            let replayed: usize = spans
                .iter()
                .map(|&(_, d, u, rep)| u.min(rep).saturating_sub(d))
                .sum();
            self.tally.recompute_cycles += cost.cycles * replayed as f64 / taken as f64;
            for &(id, _, upto, _) in &spans {
                let f = lookup_mut(&mut self.active, id);
                f.prefill_done = upto;
                let (prefix_bytes, prefix) = (f.prefix_bytes, f.req.prefix);
                // Residency grows per chunk: the KV bytes of the
                // prefilled prefix.
                self.grow_to_tokens(id, upto, prefix_bytes);
                // Crossing the declared prefix boundary materializes the
                // shared prefix: its KV bytes move out of this request's
                // reservation into the pool's refcounted prefix ledger
                // (or, if another request got there first, the duplicate
                // copy is shed back to the pool).
                let crossed =
                    prefix.filter(|p| p.tokens > 0 && prefix_bytes == 0 && upto >= p.tokens);
                if let Some(p) = crossed {
                    let bytes = self.kv_bytes(p.tokens);
                    lookup_mut(&mut self.active, id).prefix_bytes =
                        self.pool.promote_prefix(id, p.id, p.tokens, bytes);
                }
            }
        }

        // ---- apply the decode members' token accounting ----
        if !decode_ids.is_empty() {
            self.decode_invocations += 1;
            self.decode_streams += decode_ids.len() as u64;
            for &id in &decode_ids {
                let f = lookup_mut(&mut self.active, id);
                f.tokens += 1;
                if f.tokens == 1 {
                    f.first_token_cycle = self.now;
                }
                let (context, prefix_bytes) = (f.context(), f.prefix_bytes);
                self.grow_to_tokens(id, context, prefix_bytes);
            }
        }

        // ---- retire completions ----
        let mut completions = 0;
        let mut i = 0;
        while i < self.active.len() {
            let done = {
                let f = &self.active[i];
                f.prefilled() && f.tokens >= f.req.decode_len
            };
            if !done {
                i += 1;
                continue;
            }
            let mut f = self.active.remove(i);
            self.release(&mut f);
            self.records
                .push(f.into_record(RequestState::Completed, self.now));
            self.conc_log.push((self.now, -1));
            completions += 1;
        }
        // ---- extract finished prefills for decode-pool handoff ----
        // (After completions so prompt-only requests retire locally; the
        // Step event below then reflects the post-handoff device state.)
        self.extract_finished_prefills();
        if self.log.is_some() {
            let prefill_tokens: usize = spans.iter().map(|&(_, d, u, _)| u - d).sum();
            self.record(TraceEvent::Step {
                device: self.device,
                start_cycle: step_start,
                end_cycle: self.now,
                prefill_streams: spans.len() as u32,
                decode_streams: decode_ids.len() as u32,
                prefill_tokens: prefill_tokens as u32,
                queue_depth: self.pending.len() as u32,
                active_streams: self.active.len() as u32,
                pool_reserved_bytes: self.pool.reserved_bytes(),
                completions: completions as u32,
            });
        }
        completions
    }

    /// Total device-busy cycles: executed steps plus swap stalls.
    pub(crate) fn busy_cycles(&self) -> f64 {
        self.busy_cycles + self.tally.swap_cycles
    }

    /// This device's KV-pool statistics (admission stall over its own
    /// completed records).
    pub(crate) fn pool_report(&self) -> PoolReport {
        let stall_cycles: f64 = self
            .records
            .iter()
            .filter(|r| r.completed())
            .map(RequestRecord::admission_stall_cycles)
            .sum();
        PoolReport {
            budget_bytes: self.pool.budget_bytes(),
            peak_resident_bytes: self.pool.peak_resident_bytes(),
            peak_reserved_bytes: self.pool.peak_reserved_bytes(),
            mean_resident_bytes: self.pool.mean_resident_bytes(),
            busy_span_seconds: self.pool.busy_span_cycles() / crate::CLOCK_HZ,
            admission_stall_seconds: stall_cycles / crate::CLOCK_HZ,
        }
    }

    /// This device's per-step composition statistics.
    pub(crate) fn step_report(&self) -> StepReport {
        StepReport {
            steps: self.step_tally.steps,
            prefill_steps: self.step_tally.prefill_steps,
            decode_steps: self.step_tally.decode_steps,
            mixed_steps: self.step_tally.mixed_steps,
            mean_budget_utilization: if self.step_tally.steps == 0 {
                0.0
            } else {
                self.step_tally.utilization_sum / self.step_tally.steps as f64
            },
        }
    }

    /// This device's prefix-cache statistics.
    pub(crate) fn prefix_report(&self) -> PrefixReport {
        self.prefix_tally
    }

    /// This device's prefill→decode handoff statistics (outbound lanes
    /// attributed to the source device, inbound — including the ledger's
    /// in-flight peak — to the destination).
    pub(crate) fn handoff_report(&self) -> HandoffReport {
        HandoffReport {
            handoffs_out: self.handoff_tally.out,
            handoffs_in: self.handoff_ledger.check_ins(),
            bytes_out: self.handoff_tally.bytes_out,
            bytes_in: self.handoff_ledger.total_in_bytes(),
            link_seconds: self.handoff_tally.link_cycles / crate::CLOCK_HZ,
            peak_in_flight_bytes: self.handoff_ledger.peak_held_bytes(),
        }
    }

    /// This device's preemption statistics.
    pub(crate) fn preempt_report(&self) -> PreemptReport {
        PreemptReport {
            preemptions: self.tally.preemptions,
            swap_out_bytes: self.swap_ledger.total_out_bytes(),
            swap_in_bytes: self.swap_ledger.total_in_bytes(),
            swap_seconds: self.tally.swap_cycles / crate::CLOCK_HZ,
            recompute_seconds: self.tally.recompute_cycles / crate::CLOCK_HZ,
            peak_swap_held_bytes: self.swap_ledger.peak_held_bytes(),
        }
    }
}

/// Restricts a plan to ids actually present in the view, preserving plan
/// order, with duplicates removed, capped at the coalescing width. A
/// custom scheduler naming the same stream twice must advance it once,
/// not twice.
fn clamp_ids(ids: &[RequestId], view: &[SchedEntry], max_batch: usize) -> Vec<RequestId> {
    let mut seen = Vec::with_capacity(ids.len().min(max_batch));
    for id in ids {
        if seen.len() == max_batch {
            break;
        }
        if !seen.contains(id) && view.iter().any(|e| e.id == *id) {
            seen.push(*id);
        }
    }
    seen
}

fn lookup(active: &[InFlight], id: RequestId) -> &InFlight {
    active
        .iter()
        .find(|f| f.req.id == id)
        .expect("scheduler referenced unknown request")
}

fn lookup_mut(active: &mut [InFlight], id: RequestId) -> &mut InFlight {
    active
        .iter_mut()
        .find(|f| f.req.id == id)
        .expect("scheduler referenced unknown request")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::{ArrivalProcess, LoadGenerator, RequestClass};
    use crate::request::SloSpec;
    use crate::scheduler::{ContinuousBatchScheduler, FcfsScheduler, PriorityScheduler};
    use mcbp_model::LlmConfig;
    use mcbp_workloads::{PhaseCost, RunReport, SparsityProfile, Task, WeightGenerator};

    /// Analytic accelerator: decode pays a fixed weight-stream cost plus a
    /// per-stream context cost — the qualitative shape that makes
    /// batching matter, with exact arithmetic for assertions.
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
                    kv_load_cycles: 100.0
                        * ctx.task.prompt_len as f64
                        * b
                        * ctx.task.decode_len as f64,
                    compute_pj: b,
                    ..Default::default()
                },
            }
        }
    }

    fn template(keep: f64) -> TraceContext {
        let model = LlmConfig::opt1b3();
        let gen = WeightGenerator::for_model(&model);
        let profile = SparsityProfile::measure(&gen.quantized_sample(16, 64, 1), 4);
        TraceContext {
            model,
            task: Task::cola(),
            batch: 1,
            weight_profile: profile,
            attention_keep: keep,
        }
    }

    fn closed_loop(n: usize, total: usize) -> Workload {
        LoadGenerator::uniform(
            Task::cola(),
            total,
            ArrivalProcess::ClosedLoop { concurrency: n },
        )
        .generate()
    }

    #[test]
    fn every_request_completes_with_full_token_count() {
        let accel = Toy;
        let sim = ServeSim::new(&accel, template(0.3), ServeConfig::default());
        let w = closed_loop(4, 12);
        let report = sim.run(&w, &mut ContinuousBatchScheduler::new());
        assert_eq!(report.completed, 12);
        assert_eq!(report.dropped, 0);
        for rec in &report.records {
            assert_eq!(rec.tokens, rec.request.decode_len);
        }
        // No declared deadlines: every completion counts toward SLO goodput.
        assert_eq!(report.slo_met, 12);
        assert!((report.slo_goodput_tokens_per_s - report.goodput_tokens_per_s).abs() < 1e-9);
    }

    #[test]
    fn continuous_batching_coalesces_and_beats_fcfs() {
        let accel = Toy;
        let sim = ServeSim::new(&accel, template(0.3), ServeConfig::default());
        let w = closed_loop(8, 16);
        let cb = sim.run(&w, &mut ContinuousBatchScheduler::new());
        let fcfs = sim.run(&w, &mut FcfsScheduler::new());
        assert!(
            cb.mean_decode_batch > 4.0,
            "coalescing {}",
            cb.mean_decode_batch
        );
        assert!((fcfs.mean_decode_batch - 1.0).abs() < 1e-9);
        assert!(
            cb.goodput_tokens_per_s > fcfs.goodput_tokens_per_s,
            "cb {} vs fcfs {}",
            cb.goodput_tokens_per_s,
            fcfs.goodput_tokens_per_s
        );
    }

    #[test]
    fn identical_seeds_replay_identically() {
        let accel = Toy;
        let sim = ServeSim::new(&accel, template(0.3), ServeConfig::default());
        let gen = LoadGenerator::uniform(
            Task::cola(),
            24,
            ArrivalProcess::Poisson {
                rate_rps: 2000.0,
                seed: 11,
            },
        );
        let a = sim.run(&gen.generate(), &mut ContinuousBatchScheduler::new());
        let b = sim.run(&gen.generate(), &mut ContinuousBatchScheduler::new());
        assert_eq!(a, b);
    }

    #[test]
    fn tight_pool_stalls_admission_but_stays_within_budget() {
        let accel = Toy;
        let model = LlmConfig::opt1b3();
        // Room for about two Cola requests' pruned KV at a time.
        let per_req = request_kv_bytes(&model, Task::cola().final_context(), 0.3);
        let cfg = ServeConfig {
            kv_budget_bytes: Some(per_req * 2 + 1024),
            ..ServeConfig::default()
        };
        let sim = ServeSim::new(&accel, template(0.3), cfg);
        let w = closed_loop(6, 6);
        let report = sim.run(&w, &mut ContinuousBatchScheduler::new());
        assert_eq!(report.completed, 6);
        assert!(report.peak_concurrency <= 2);
        assert!(report.pool.peak_reserved_bytes <= report.pool.budget_bytes);
        assert!(report.pool.admission_stall_seconds > 0.0);
        assert_eq!(
            report.preempt.preemptions, 0,
            "the default policy never preempts"
        );
    }

    #[test]
    fn closed_loop_drop_releases_the_next_request() {
        // Mixed closed-loop population where every other request (Dolly)
        // can never fit the pool: each drop must vacate its slot so the
        // trailing Cola requests still get served — total records must
        // equal the workload size.
        let accel = Toy;
        let model = LlmConfig::opt1b3();
        let budget = request_kv_bytes(&model, Task::cola().final_context(), 1.0) * 2;
        let cfg = ServeConfig {
            kv_budget_bytes: Some(budget),
            ..ServeConfig::default()
        };
        let sim = ServeSim::new(&accel, template(1.0), cfg);
        let w = LoadGenerator {
            task_mix: vec![Task::cola(), Task::dolly()],
            class_mix: vec![RequestClass::default()],
            prefix_mix: vec![None],
            count: 10,
            process: ArrivalProcess::ClosedLoop { concurrency: 2 },
        }
        .generate();
        let report = sim.run(&w, &mut ContinuousBatchScheduler::new());
        assert_eq!(
            report.completed + report.dropped,
            10,
            "no request may vanish"
        );
        assert_eq!(report.completed, 5);
        assert_eq!(report.dropped, 5);
    }

    #[test]
    fn oversized_request_is_dropped_not_wedged() {
        let accel = Toy;
        let cfg = ServeConfig {
            kv_budget_bytes: Some(1024),
            ..ServeConfig::default()
        };
        let sim = ServeSim::new(&accel, template(1.0), cfg);
        let w = closed_loop(2, 2);
        let report = sim.run(&w, &mut ContinuousBatchScheduler::new());
        assert_eq!(report.completed, 0);
        assert_eq!(report.dropped, 2);
    }

    #[test]
    fn lower_keep_admits_more_concurrency_under_same_budget() {
        let accel = Toy;
        let model = LlmConfig::opt1b3();
        let per_req_dense = request_kv_bytes(&model, Task::cola().final_context(), 1.0);
        let budget = per_req_dense * 3;
        let mk = |keep: f64| {
            let cfg = ServeConfig {
                kv_budget_bytes: Some(budget),
                ..ServeConfig::default()
            };
            let sim = ServeSim::new(&accel, template(keep), cfg);
            sim.run(&closed_loop(12, 12), &mut ContinuousBatchScheduler::new())
        };
        let dense = mk(1.0);
        let pruned = mk(0.3);
        assert!(
            pruned.peak_concurrency > dense.peak_concurrency,
            "pruned {} vs dense {}",
            pruned.peak_concurrency,
            dense.peak_concurrency
        );
    }

    #[test]
    fn tensor_parallel_fleet_scales_throughput() {
        let accel = Toy;
        let single = ServeSim::new(&accel, template(0.3), ServeConfig::default());
        let fleet = ServeSim::new(
            &accel,
            template(0.3),
            ServeConfig {
                fleet: Fleet {
                    devices: 8,
                    scaling_efficiency: Fleet::efficiency_for(8),
                },
                ..ServeConfig::default()
            },
        );
        let w = closed_loop(8, 16);
        let one = single.run(&w, &mut ContinuousBatchScheduler::new());
        let eight = fleet.run(&w, &mut ContinuousBatchScheduler::new());
        assert!(
            eight.goodput_tokens_per_s > 4.0 * one.goodput_tokens_per_s,
            "8 devices {} vs 1 device {}",
            eight.goodput_tokens_per_s,
            one.goodput_tokens_per_s
        );
        assert!(
            eight.energy_joules >= one.energy_joules,
            "energy is fleet-wide"
        );
    }

    #[test]
    fn chunked_prefill_splits_long_prompts_across_steps() {
        // An 8k prompt at chunk 512 takes 16 prefill invocations; the
        // chunk costs telescope, so total prefill cycles exceed the
        // unchunked run only by the per-invocation floors.
        let accel = Toy;
        let task = Task::dolly().with_decode(4);
        let w = Workload {
            requests: vec![Request::from_task(0, &task, 0.0)],
            closed_loop: None,
        };
        let chunked = ServeSim::new(&accel, template(0.3), ServeConfig::default());
        let mono = ServeSim::new(
            &accel,
            template(0.3),
            ServeConfig {
                prefill_chunk: None,
                ..ServeConfig::default()
            },
        );
        let c = chunked.run(&w, &mut ContinuousBatchScheduler::new());
        let m = mono.run(&w, &mut ContinuousBatchScheduler::new());
        assert_eq!(c.completed, 1);
        assert_eq!(m.completed, 1);
        assert!(
            c.duration_seconds > m.duration_seconds,
            "chunking pays per-invocation floors: {} vs {}",
            c.duration_seconds,
            m.duration_seconds
        );
        assert!(
            c.duration_seconds < 1.2 * m.duration_seconds,
            "chunk costs must telescope, not balloon: {} vs {}",
            c.duration_seconds,
            m.duration_seconds
        );
    }

    /// A two-request contention scenario: one batch-class request owns the
    /// pool, then an interactive request arrives that cannot fit.
    fn contention_workload() -> Workload {
        let batch = Request::from_task(0, &Task::mnli().with_decode(8), 0.0);
        let interactive = Request::from_task(1, &Task::cola().with_decode(4), 1.0)
            .with_priority(Priority::Interactive);
        Workload {
            requests: vec![batch, interactive],
            closed_loop: None,
        }
    }

    fn contention_budget(model: &LlmConfig) -> u64 {
        // Fits the batch request, or the interactive one, but never both.
        request_kv_bytes(model, Task::mnli().with_decode(8).final_context(), 1.0) + 1024
    }

    fn run_contention(policy: EvictionPolicy) -> ServeReport {
        let accel = Toy;
        let model = LlmConfig::opt1b3();
        let cfg = ServeConfig {
            kv_budget_bytes: Some(contention_budget(&model)),
            preempt: PreemptConfig {
                policy,
                ..PreemptConfig::default()
            },
            ..ServeConfig::default()
        };
        let sim = ServeSim::new(&accel, template(1.0), cfg);
        sim.run(&contention_workload(), &mut PriorityScheduler::new())
    }

    #[test]
    fn without_preemption_the_interactive_request_waits() {
        let report = run_contention(EvictionPolicy::None);
        assert_eq!(report.completed, 2);
        assert_eq!(report.preempt.preemptions, 0);
        // The interactive request is admitted only after the batch one
        // completes and frees the pool.
        let inter = &report.records[1];
        assert!(inter.admission_stall_cycles() > 0.0);
    }

    #[test]
    fn drop_recompute_evicts_and_replays() {
        let report = run_contention(EvictionPolicy::DropRecompute);
        assert_eq!(report.completed, 2);
        assert_eq!(report.dropped, 0);
        assert!(report.preempt.preemptions >= 1);
        assert_eq!(report.preempt.swap_out_bytes, 0);
        assert!(
            report.preempt.recompute_seconds > 0.0,
            "the victim's prefill must replay"
        );
        let batch = &report.records[0];
        let inter = &report.records[1];
        assert!(batch.preemptions >= 1, "the batch request was the victim");
        assert_eq!(batch.tokens, batch.request.decode_len);
        assert_eq!(inter.preemptions, 0);
        // Admission happens at step boundaries, so the interactive request
        // stalls at most ~one step under preemption — far below the
        // no-preemption stall (the victim's entire remaining service).
        let blocked = run_contention(EvictionPolicy::None);
        assert!(
            inter.admission_stall_cycles() * 10.0 < blocked.records[1].admission_stall_cycles(),
            "preemption stall {} vs blocked stall {}",
            inter.admission_stall_cycles(),
            blocked.records[1].admission_stall_cycles()
        );
        // The victim finishes after the interactive request despite
        // arriving first.
        assert!(batch.completed_cycle > inter.completed_cycle);
    }

    #[test]
    fn swap_spills_and_restores_without_replay() {
        let report = run_contention(EvictionPolicy::Swap);
        assert_eq!(report.completed, 2);
        assert!(report.preempt.preemptions >= 1);
        assert!(report.preempt.swap_out_bytes > 0);
        assert_eq!(
            report.preempt.swap_in_bytes, report.preempt.swap_out_bytes,
            "every spilled byte is restored"
        );
        assert!(report.preempt.swap_seconds > 0.0);
        assert!(
            report.preempt.recompute_seconds == 0.0,
            "swap never recomputes"
        );
        let batch = &report.records[0];
        assert_eq!(batch.tokens, batch.request.decode_len);
    }

    #[test]
    fn preemption_policies_replay_deterministically() {
        for policy in [EvictionPolicy::DropRecompute, EvictionPolicy::Swap] {
            let a = run_contention(policy);
            let b = run_contention(policy);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn config_validation_rejects_inconsistent_shapes_with_typed_errors() {
        let accel = Toy;
        let bad = |cfg: ServeConfig| {
            ServeSim::try_new(&accel, template(0.3), cfg)
                .err()
                .expect("config must be rejected")
        };
        assert_eq!(
            bad(ServeConfig {
                max_batch: 0,
                ..ServeConfig::default()
            }),
            ServeConfigError::ZeroMaxBatch
        );
        assert_eq!(
            bad(ServeConfig {
                ctx_bucket: 0,
                ..ServeConfig::default()
            }),
            ServeConfigError::ZeroCtxBucket
        );
        assert_eq!(
            bad(ServeConfig {
                prefill_chunk: Some(0),
                ..ServeConfig::default()
            }),
            ServeConfigError::ZeroPrefillChunk
        );
        assert_eq!(
            bad(ServeConfig {
                prefill_chunk: Some(512),
                step_token_budget: Some(0),
                ..ServeConfig::default()
            }),
            ServeConfigError::ZeroStepTokenBudget
        );
        assert_eq!(
            bad(ServeConfig {
                prefill_chunk: Some(512),
                step_token_budget: Some(511),
                ..ServeConfig::default()
            }),
            ServeConfigError::ChunkExceedsBudget {
                chunk: 512,
                budget: 511
            }
        );
        assert_eq!(
            bad(ServeConfig {
                prefill_chunk: None,
                step_token_budget: Some(1024),
                ..ServeConfig::default()
            }),
            ServeConfigError::BudgetRequiresChunkedPrefill
        );
        // The boundary case chunk == budget is legal (no piggyback slack,
        // but chunk steps can still be scheduled), as are the defaults.
        assert!(ServeConfig {
            prefill_chunk: Some(512),
            step_token_budget: Some(512),
            ..ServeConfig::default()
        }
        .validate()
        .is_ok());
        assert!(ServeConfig::default().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid ServeConfig")]
    fn new_panics_on_invalid_config_with_the_typed_message() {
        let accel = Toy;
        let _ = ServeSim::new(
            &accel,
            template(0.3),
            ServeConfig {
                prefill_chunk: Some(0),
                ..ServeConfig::default()
            },
        );
    }

    /// A NaN arrival, or an infinite one in an open-loop workload, sorts
    /// last and is never dispatched: unchecked, a 3-request run reports
    /// 2 completed, 0 dropped and no error. Both the single-device and
    /// the fleet entry points must reject it with a typed error, while a
    /// closed loop's `+∞` unreleased slots stay valid.
    #[test]
    fn non_finite_arrivals_are_rejected_not_silently_lost() {
        let accel = Toy;
        let sim = ServeSim::new(&accel, template(0.3), ServeConfig::default());
        let fleet = [DeviceProfile::uniform(); 2];
        let mut mk = || -> Box<dyn Scheduler> { Box::new(ContinuousBatchScheduler::new()) };
        let with_arrival = |closed_loop: Option<usize>, arrival: f64| Workload {
            requests: (0..3)
                .map(|i| {
                    let at = if i == 1 { arrival } else { 1000.0 * i as f64 };
                    Request::from_task(i, &Task::cola(), at)
                })
                .collect(),
            closed_loop,
        };
        let rejected = Err(ServeConfigError::NonFiniteArrival { request: 1 });
        let cases = [
            (None, f64::NAN),
            (None, f64::INFINITY),
            (None, f64::NEG_INFINITY),
            (Some(2), f64::NAN),
            (Some(2), f64::NEG_INFINITY),
        ];
        for (closed_loop, arrival) in cases {
            let w = with_arrival(closed_loop, arrival);
            let label = format!("closed_loop {closed_loop:?}, arrival {arrival}");
            assert_eq!(ServeSim::validate_workload(&w), rejected, "{label}");
            let mut router = DispatchPolicy::RoundRobin.router();
            let fleet_run = sim.try_run_fleet_with_router(&w, &fleet, &mut router, &mut mk);
            assert_eq!(fleet_run.err(), rejected.err(), "{label}");
            let single = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sim.run(&w, &mut ContinuousBatchScheduler::new())
            }));
            assert!(single.is_err(), "{label}: single-device run must refuse");
        }
        // A closed loop's `+∞` arrivals are unreleased population slots.
        let w = with_arrival(Some(2), f64::INFINITY);
        assert_eq!(ServeSim::validate_workload(&w), Ok(()));
        let report = sim
            .try_run_fleet_with_router(
                &w,
                &fleet,
                &mut DispatchPolicy::RoundRobin.router(),
                &mut mk,
            )
            .expect("closed-loop slots are valid");
        assert_eq!(report.completed, 3);
    }

    /// A negative arrival used to be served from cycle 0 with the time
    /// before 0 charged to its latencies: on an idle device a −1 s
    /// arrival reported a TTFT 1 s too long and missed any TTFT SLO under
    /// it. Every entry point must reject it with a typed error, while
    /// `-0.0` is cycle 0 and runs exactly like an arrival at 0.
    #[test]
    fn negative_arrivals_are_rejected_with_a_typed_error() {
        let accel = Toy;
        let sim = ServeSim::new(&accel, template(0.3), ServeConfig::default());
        let fleet = [DeviceProfile::uniform(); 2];
        let mut mk = || -> Box<dyn Scheduler> { Box::new(PriorityScheduler::new()) };
        let at = |closed_loop: Option<usize>, arrival: f64| Workload {
            requests: vec![
                Request::from_task(0, &Task::cola(), 0.0),
                Request::from_task(1, &Task::cola(), arrival),
            ],
            closed_loop,
        };
        let rejected = Err(ServeConfigError::NegativeArrival { request: 1 });
        for (closed_loop, arrival) in [(None, -1e9), (None, -1e18), (None, -1.0), (Some(1), -1e9)] {
            let w = at(closed_loop, arrival);
            let label = format!("closed_loop {closed_loop:?}, arrival {arrival}");
            assert_eq!(ServeSim::validate_workload(&w), rejected, "{label}");
            let mut router = DispatchPolicy::RoundRobin.router();
            let fleet_run = sim.try_run_fleet_with_router(&w, &fleet, &mut router, &mut mk);
            assert_eq!(fleet_run.err(), rejected.err(), "{label}");
            let single = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sim.run(&w, &mut PriorityScheduler::new())
            }));
            let msg = single.expect_err("a single-device run must refuse");
            let msg = msg
                .downcast_ref::<String>()
                .expect("formatted panic message");
            assert!(msg.contains("negative cycle"), "{label}: {msg}");
        }
        // `-0.0` is cycle 0: the run is the arrival-at-0 run.
        let w = at(None, -0.0);
        assert_eq!(ServeSim::validate_workload(&w), Ok(()));
        let report = sim.run(&w, &mut PriorityScheduler::new());
        let at_zero = sim.run(&at(None, 0.0), &mut PriorityScheduler::new());
        assert_eq!(report.completed, 2);
        assert_eq!(report.ttft, at_zero.ttft);
    }

    /// An empty prompt has nothing to prefill: alone it used to panic the
    /// step loop with an idle plan, and next to other traffic it
    /// "completed" with a zero TTFT and no tokens. Every entry point must
    /// reject it with a typed error.
    #[test]
    fn empty_prompts_are_rejected_with_a_typed_error() {
        let accel = Toy;
        let sim = ServeSim::new(&accel, template(0.3), ServeConfig::default());
        let mut mk = || -> Box<dyn Scheduler> { Box::new(PriorityScheduler::new()) };
        let empty = |id| Request::from_task(id, &Task::cola().with_prompt(0).with_decode(0), 0.0);
        let lone = Workload {
            requests: vec![empty(0)],
            closed_loop: None,
        };
        let mixed = Workload {
            requests: vec![Request::from_task(0, &Task::cola(), 0.0), empty(1)],
            closed_loop: None,
        };
        for (w, request) in [(lone, 0), (mixed, 1)] {
            let rejected = Err(ServeConfigError::EmptyPrompt { request });
            assert_eq!(ServeSim::validate_workload(&w), rejected);
            let mut router = DispatchPolicy::RoundRobin.router();
            let fleet = [DeviceProfile::uniform()];
            let run = sim.try_run_fleet_with_router(&w, &fleet, &mut router, &mut mk);
            assert_eq!(run.err(), rejected.err());
            let single = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sim.run(&w, &mut PriorityScheduler::new())
            }));
            let msg = single.expect_err("a single-device run must refuse");
            let msg = msg
                .downcast_ref::<String>()
                .expect("formatted panic message");
            assert!(msg.contains("empty prompt"), "{msg}");
        }
    }

    #[test]
    fn budgeted_run_mixes_steps_and_conserves_tokens() {
        let accel = Toy;
        let budgeted = ServeSim::new(
            &accel,
            template(0.3),
            ServeConfig {
                step_token_budget: Some(576),
                ..ServeConfig::default()
            },
        );
        let w = closed_loop(4, 12);
        let report = budgeted.run(&w, &mut ContinuousBatchScheduler::new());
        assert_eq!(report.completed, 12);
        for rec in &report.records {
            assert_eq!(rec.tokens, rec.request.decode_len);
        }
        // Closed-loop releases land while earlier streams decode, so the
        // budgeted scheduler must have piggybacked decodes onto chunks.
        assert!(
            report.steps.mixed_steps > 0,
            "expected mixed steps, got {:?}",
            report.steps
        );
        assert_eq!(
            report.steps.steps,
            report.steps.prefill_steps + report.steps.decode_steps + report.steps.mixed_steps
        );
        assert!(report.steps.mean_budget_utilization > 0.0);
        assert!(report.steps.mean_budget_utilization <= 1.0);
        // The unbudgeted baseline on the same trace reports no mixed
        // steps and no budget utilization.
        let baseline = ServeSim::new(&accel, template(0.3), ServeConfig::default());
        let base = baseline.run(&w, &mut ContinuousBatchScheduler::new());
        assert_eq!(base.steps.mixed_steps, 0);
        assert_eq!(base.steps.mean_budget_utilization, 0.0);
        assert_eq!(base.completed, 12);
    }

    #[test]
    fn budgeted_runs_replay_identically() {
        let accel = Toy;
        let cfg = ServeConfig {
            step_token_budget: Some(576),
            ..ServeConfig::default()
        };
        let sim = ServeSim::new(&accel, template(0.3), cfg);
        let gen = LoadGenerator::uniform(
            Task::cola(),
            24,
            ArrivalProcess::Poisson {
                rate_rps: 2000.0,
                seed: 11,
            },
        );
        let a = sim.run(&gen.generate(), &mut ContinuousBatchScheduler::new());
        let b = sim.run(&gen.generate(), &mut ContinuousBatchScheduler::new());
        assert_eq!(a, b);
    }

    #[test]
    fn impossible_slo_zeroes_slo_goodput() {
        let accel = Toy;
        let sim = ServeSim::new(&accel, template(0.3), ServeConfig::default());
        let mut w = closed_loop(2, 4);
        for r in &mut w.requests {
            r.slo = SloSpec::interactive(0.0, 0.0); // unmeetable
        }
        let report = sim.run(&w, &mut ContinuousBatchScheduler::new());
        assert_eq!(report.completed, 4);
        assert_eq!(report.slo_met, 0);
        assert_eq!(report.slo_goodput_tokens_per_s, 0.0);
        assert!(report.goodput_tokens_per_s > 0.0);
    }
}
