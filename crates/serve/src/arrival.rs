use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mcbp_workloads::Task;

use crate::request::{Priority, Request, SharedPrefix, SloSpec};
use crate::CLOCK_HZ;

/// How requests arrive on the simulated clock. Every process is driven by
/// an explicit seed — there is no wall-clock anywhere in the subsystem, so
/// identical configurations replay identical traces.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Closed loop: `concurrency` requests are in flight at all times; a
    /// completion immediately releases the next request (classic
    /// fixed-population load, used for capacity probing).
    ClosedLoop {
        /// In-flight population size.
        concurrency: usize,
    },
    /// Open-loop Poisson arrivals at `rate_rps` requests per second,
    /// exponential inter-arrival times drawn from the seeded RNG.
    Poisson {
        /// Mean arrival rate in requests per second.
        rate_rps: f64,
        /// RNG seed for the inter-arrival draws.
        seed: u64,
    },
    /// On/off modulated Poisson: bursts of `burst_len` back-to-back
    /// arrivals at `burst_factor` × the base rate, separated by quiet
    /// periods that preserve the long-run mean rate — the bursty traffic
    /// regime where continuous batching separates from FCFS.
    Bursty {
        /// Long-run mean arrival rate in requests per second.
        rate_rps: f64,
        /// Rate multiplier inside a burst (> 1).
        burst_factor: f64,
        /// Requests per burst.
        burst_len: usize,
        /// RNG seed for the inter-arrival draws.
        seed: u64,
    },
    /// Sinusoidally modulated Poisson: the instantaneous rate swings
    /// around `rate_rps` as `rate_rps · (1 + amplitude · sin(2πt /
    /// period_s))`, modeling the diurnal peak/trough cycle of real
    /// serving traffic. Each inter-arrival gap is an exponential draw at
    /// the instantaneous rate, so traces span distinct load *phases* —
    /// the structure the SimPoint-style trace sampler clusters on.
    Diurnal {
        /// Mean (mid-swing) arrival rate in requests per second.
        rate_rps: f64,
        /// Relative swing around the mean, in `[0, 1)`: the rate peaks
        /// at `(1 + amplitude) ×` and bottoms out at `(1 - amplitude) ×`
        /// the mean.
        amplitude: f64,
        /// Period of one full rate cycle in seconds (e.g. 86400 for a
        /// true day, shorter for compressed experiments).
        period_s: f64,
        /// RNG seed for the inter-arrival draws.
        seed: u64,
    },
}

/// One slot of a [`LoadGenerator`]'s class mix: the scheduling class and
/// latency objectives stamped onto generated requests. Like the task mix,
/// the class mix cycles round-robin across requests (independently of the
/// task cycle), so e.g. `[interactive, batch, batch, batch]` yields a
/// 1-in-4 interactive share on any arrival process.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RequestClass {
    /// Scheduling class of requests generated in this slot.
    pub priority: Priority,
    /// Latency objectives of requests generated in this slot.
    pub slo: SloSpec,
}

impl RequestClass {
    /// An [`Priority::Interactive`] slot with TTFT/TPOT deadlines.
    #[must_use]
    pub fn interactive(ttft_s: f64, tpot_s: f64) -> Self {
        RequestClass {
            priority: Priority::Interactive,
            slo: SloSpec::interactive(ttft_s, tpot_s),
        }
    }

    /// A [`Priority::Batch`] slot with no deadlines (the default).
    #[must_use]
    pub fn batch() -> Self {
        RequestClass::default()
    }
}

/// A fully materialized request trace ready to serve.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Requests sorted by arrival cycle (closed-loop releases carry
    /// `f64::INFINITY` and are released in order upon completions).
    pub requests: Vec<Request>,
    /// `Some(concurrency)` when the trace is closed-loop.
    pub closed_loop: Option<usize>,
}

impl Workload {
    /// Offered load in requests per second (open-loop processes only):
    /// request count over the span of finite arrivals.
    #[must_use]
    pub fn offered_rps(&self) -> Option<f64> {
        if self.closed_loop.is_some() {
            return None;
        }
        let last = self
            .requests
            .iter()
            .map(|r| r.arrival_cycle)
            .fold(0.0f64, f64::max);
        if last <= 0.0 {
            return None;
        }
        Some(self.requests.len() as f64 / (last / CLOCK_HZ))
    }
}

/// Builds deterministic request traces from a task mix and an arrival
/// process.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadGenerator {
    /// Task shapes cycled round-robin across generated requests.
    pub task_mix: Vec<Task>,
    /// Scheduling classes cycled round-robin across generated requests
    /// (independently of the task cycle).
    pub class_mix: Vec<RequestClass>,
    /// Shared prompt prefixes cycled round-robin across generated
    /// requests (independently of the task and class cycles): each slot
    /// stamps its [`SharedPrefix`] onto the requests it lands on, `None`
    /// slots leave the prompt fully unique. E.g.
    /// `[Some(a), Some(b), None]` models two tenant system prompts plus
    /// a one-in-three stream of ad-hoc prompts. The default single-`None`
    /// mix declares no prefixes at all.
    pub prefix_mix: Vec<Option<SharedPrefix>>,
    /// Requests to generate.
    pub count: usize,
    /// Arrival process.
    pub process: ArrivalProcess,
}

impl LoadGenerator {
    /// A generator serving one task shape in the default batch class.
    #[must_use]
    pub fn uniform(task: Task, count: usize, process: ArrivalProcess) -> Self {
        LoadGenerator {
            task_mix: vec![task],
            class_mix: vec![RequestClass::batch()],
            prefix_mix: vec![None],
            count,
            process,
        }
    }

    /// A copy stamping the given class mix onto generated requests.
    #[must_use]
    pub fn with_classes(mut self, class_mix: Vec<RequestClass>) -> Self {
        self.class_mix = class_mix;
        self
    }

    /// A copy stamping the given shared-prefix mix onto generated
    /// requests (`None` slots generate fully unique prompts).
    #[must_use]
    pub fn with_prefixes(mut self, prefix_mix: Vec<Option<SharedPrefix>>) -> Self {
        self.prefix_mix = prefix_mix;
        self
    }

    /// Materializes the request trace.
    ///
    /// # Panics
    ///
    /// Panics if the task, class, or prefix mix is empty, the count is
    /// zero, an open-loop rate is not positive, or a prefix slot is
    /// longer than the prompt it lands on.
    #[must_use]
    pub fn generate(&self) -> Workload {
        assert!(!self.task_mix.is_empty(), "empty task mix");
        assert!(!self.class_mix.is_empty(), "empty class mix");
        assert!(!self.prefix_mix.is_empty(), "empty prefix mix");
        assert!(self.count > 0, "empty workload");
        let task = |i: usize| &self.task_mix[i % self.task_mix.len()];
        let classed = |i: usize, r: Request| {
            let class = &self.class_mix[i % self.class_mix.len()];
            let r = r.with_priority(class.priority).with_slo(class.slo);
            match self.prefix_mix[i % self.prefix_mix.len()] {
                Some(prefix) => {
                    assert!(
                        prefix.tokens <= r.prompt_len,
                        "prefix slot {} ({} tokens) exceeds the {}-token prompt it landed on",
                        prefix.id,
                        prefix.tokens,
                        r.prompt_len
                    );
                    r.with_prefix(prefix)
                }
                None => r,
            }
        };
        match &self.process {
            ArrivalProcess::ClosedLoop { concurrency } => {
                assert!(*concurrency > 0, "closed loop needs concurrency >= 1");
                let requests = (0..self.count)
                    .map(|i| {
                        let arrival = if i < *concurrency { 0.0 } else { f64::INFINITY };
                        classed(i, Request::from_task(i as u64, task(i), arrival))
                    })
                    .collect();
                Workload {
                    requests,
                    closed_loop: Some(*concurrency),
                }
            }
            ArrivalProcess::Poisson { rate_rps, seed } => {
                assert!(*rate_rps > 0.0, "rate must be positive");
                let mut rng = StdRng::seed_from_u64(*seed);
                let mean_gap = CLOCK_HZ / rate_rps;
                let mut now = 0.0f64;
                let requests = (0..self.count)
                    .map(|i| {
                        now += exponential_gap(&mut rng, mean_gap);
                        classed(i, Request::from_task(i as u64, task(i), now))
                    })
                    .collect();
                Workload {
                    requests,
                    closed_loop: None,
                }
            }
            ArrivalProcess::Bursty {
                rate_rps,
                burst_factor,
                burst_len,
                seed,
            } => {
                assert!(*rate_rps > 0.0, "rate must be positive");
                assert!(*burst_factor > 1.0, "burst factor must exceed 1");
                assert!(*burst_len > 0, "burst length must be positive");
                let mut rng = StdRng::seed_from_u64(*seed);
                let mean_gap = CLOCK_HZ / rate_rps;
                // Inside a burst arrivals run at burst_factor × rate; the
                // first gap of each burst is stretched so the long-run mean
                // stays at `rate_rps`: burst_len gaps must average mean_gap.
                let in_burst_gap = mean_gap / burst_factor;
                let lead_gap =
                    mean_gap * *burst_len as f64 - in_burst_gap * (*burst_len as f64 - 1.0);
                let mut now = 0.0f64;
                let requests = (0..self.count)
                    .map(|i| {
                        let gap = if i % burst_len == 0 {
                            lead_gap
                        } else {
                            in_burst_gap
                        };
                        now += exponential_gap(&mut rng, gap);
                        classed(i, Request::from_task(i as u64, task(i), now))
                    })
                    .collect();
                Workload {
                    requests,
                    closed_loop: None,
                }
            }
            ArrivalProcess::Diurnal {
                rate_rps,
                amplitude,
                period_s,
                seed,
            } => {
                assert!(*rate_rps > 0.0, "rate must be positive");
                assert!(
                    (0.0..1.0).contains(amplitude),
                    "amplitude must be in [0, 1)"
                );
                assert!(*period_s > 0.0, "period must be positive");
                let mut rng = StdRng::seed_from_u64(*seed);
                let period_cycles = period_s * CLOCK_HZ;
                let mut now = 0.0f64;
                let requests = (0..self.count)
                    .map(|i| {
                        // Per-gap approximation of the inhomogeneous
                        // process: each gap is exponential at the rate in
                        // effect when the previous request arrived. Gaps
                        // are short relative to the period, so the local
                        // rate barely moves within one.
                        let phase = 2.0 * std::f64::consts::PI * now / period_cycles;
                        let rate = rate_rps * (1.0 + amplitude * phase.sin());
                        now += exponential_gap(&mut rng, CLOCK_HZ / rate);
                        classed(i, Request::from_task(i as u64, task(i), now))
                    })
                    .collect();
                Workload {
                    requests,
                    closed_loop: None,
                }
            }
        }
    }
}

/// Exponential inter-arrival draw with the given mean, in cycles.
fn exponential_gap(rng: &mut StdRng, mean_cycles: f64) -> f64 {
    let u: f64 = rng.gen_range(1e-12f64..1.0);
    -u.ln() * mean_cycles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_arrivals_are_sorted_and_deterministic() {
        let generator = LoadGenerator::uniform(
            Task::cola(),
            64,
            ArrivalProcess::Poisson {
                rate_rps: 100.0,
                seed: 9,
            },
        );
        let a = generator.generate();
        let b = generator.generate();
        assert_eq!(a, b);
        assert!(a
            .requests
            .windows(2)
            .all(|w| w[0].arrival_cycle <= w[1].arrival_cycle));
        let rps = a.offered_rps().unwrap();
        assert!(rps > 50.0 && rps < 200.0, "offered {rps}");
    }

    #[test]
    fn bursty_preserves_long_run_rate() {
        let generator = LoadGenerator::uniform(
            Task::cola(),
            256,
            ArrivalProcess::Bursty {
                rate_rps: 50.0,
                burst_factor: 8.0,
                burst_len: 16,
                seed: 4,
            },
        );
        let w = generator.generate();
        let rps = w.offered_rps().unwrap();
        assert!(rps > 25.0 && rps < 100.0, "offered {rps}");
        // Gaps inside a burst are much shorter than burst-leading gaps.
        let gaps: Vec<f64> = w
            .requests
            .windows(2)
            .map(|w| w[1].arrival_cycle - w[0].arrival_cycle)
            .collect();
        let lead_mean = gaps.iter().skip(15).step_by(16).sum::<f64>() / (gaps.len() / 16) as f64;
        let in_mean = gaps
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 16 != 15)
            .map(|(_, g)| g)
            .sum::<f64>()
            / (gaps.len() - gaps.len() / 16) as f64;
        assert!(
            lead_mean > 4.0 * in_mean,
            "lead {lead_mean} vs in-burst {in_mean}"
        );
    }

    #[test]
    fn diurnal_is_deterministic_sorted_and_rate_preserving() {
        let generator = LoadGenerator::uniform(
            Task::cola(),
            512,
            ArrivalProcess::Diurnal {
                rate_rps: 40.0,
                amplitude: 0.6,
                period_s: 8.0,
                seed: 11,
            },
        );
        let a = generator.generate();
        let b = generator.generate();
        assert_eq!(a, b);
        assert!(a
            .requests
            .windows(2)
            .all(|w| w[0].arrival_cycle <= w[1].arrival_cycle));
        let rps = a.offered_rps().unwrap();
        assert!(rps > 20.0 && rps < 80.0, "offered {rps}");
    }

    #[test]
    fn diurnal_peak_quarter_outdraws_trough_quarter() {
        // With amplitude 0.8 the first quarter-period runs near 1.8× the
        // mean rate and the third quarter near 0.2×: the peak quarter
        // must land far more arrivals than the trough quarter.
        let period_s = 16.0;
        let w = LoadGenerator::uniform(
            Task::cola(),
            2048,
            ArrivalProcess::Diurnal {
                rate_rps: 64.0,
                amplitude: 0.8,
                period_s,
                seed: 3,
            },
        )
        .generate();
        let quarter = period_s * CLOCK_HZ / 4.0;
        let in_quarter = |q: usize| {
            w.requests
                .iter()
                .filter(|r| {
                    let pos = r.arrival_cycle % (period_s * CLOCK_HZ);
                    pos >= q as f64 * quarter && pos < (q + 1) as f64 * quarter
                })
                .count()
        };
        // Quarter-averaged rates are (1 ± 0.8·2/π)× the mean — a ~3×
        // density ratio in expectation; 2.5× leaves sampling slack.
        let peak = in_quarter(0) as f64;
        let trough = in_quarter(2) as f64;
        assert!(
            peak > 2.5 * trough,
            "peak quarter {peak} vs trough quarter {trough}"
        );
    }

    #[test]
    #[should_panic(expected = "amplitude")]
    fn diurnal_rejects_amplitude_of_one() {
        let _ = LoadGenerator::uniform(
            Task::cola(),
            2,
            ArrivalProcess::Diurnal {
                rate_rps: 10.0,
                amplitude: 1.0,
                period_s: 60.0,
                seed: 0,
            },
        )
        .generate();
    }

    #[test]
    fn closed_loop_releases_only_concurrency_upfront() {
        let generator = LoadGenerator::uniform(
            Task::mnli(),
            10,
            ArrivalProcess::ClosedLoop { concurrency: 3 },
        );
        let w = generator.generate();
        assert_eq!(w.closed_loop, Some(3));
        assert_eq!(
            w.requests.iter().filter(|r| r.arrival_cycle == 0.0).count(),
            3
        );
        assert_eq!(
            w.requests
                .iter()
                .filter(|r| r.arrival_cycle.is_infinite())
                .count(),
            7
        );
        assert!(w.offered_rps().is_none());
    }

    #[test]
    fn task_mix_round_robins() {
        let generator = LoadGenerator {
            task_mix: vec![Task::cola(), Task::dolly()],
            class_mix: vec![RequestClass::batch()],
            prefix_mix: vec![None],
            count: 4,
            process: ArrivalProcess::ClosedLoop { concurrency: 4 },
        };
        let w = generator.generate();
        assert_eq!(w.requests[0].task_name, "Cola");
        assert_eq!(w.requests[1].task_name, "Dolly");
        assert_eq!(w.requests[2].task_name, "Cola");
    }

    #[test]
    fn class_mix_round_robins_independently_of_tasks() {
        let generator = LoadGenerator {
            task_mix: vec![Task::cola(), Task::dolly()],
            class_mix: vec![
                RequestClass::interactive(0.5, 0.05),
                RequestClass::batch(),
                RequestClass::batch(),
            ],
            prefix_mix: vec![None],
            count: 6,
            process: ArrivalProcess::ClosedLoop { concurrency: 6 },
        };
        let w = generator.generate();
        let classes: Vec<Priority> = w.requests.iter().map(|r| r.priority).collect();
        assert_eq!(
            classes,
            vec![
                Priority::Interactive,
                Priority::Batch,
                Priority::Batch,
                Priority::Interactive,
                Priority::Batch,
                Priority::Batch,
            ]
        );
        assert_eq!(w.requests[0].slo, SloSpec::interactive(0.5, 0.05));
        assert_eq!(w.requests[1].slo, SloSpec::none());
        // The 3-long class cycle is independent of the 2-long task cycle.
        assert_eq!(w.requests[3].task_name, "Dolly");
    }

    #[test]
    fn prefix_mix_round_robins_independently() {
        let header = SharedPrefix::new(1, 64);
        let system = SharedPrefix::new(2, 32);
        let generator = LoadGenerator::uniform(
            Task::mnli(),
            6,
            ArrivalProcess::ClosedLoop { concurrency: 6 },
        )
        .with_prefixes(vec![Some(header), Some(system), None]);
        let w = generator.generate();
        let prefixes: Vec<Option<SharedPrefix>> = w.requests.iter().map(|r| r.prefix).collect();
        assert_eq!(
            prefixes,
            vec![
                Some(header),
                Some(system),
                None,
                Some(header),
                Some(system),
                None
            ]
        );
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_prefix_slot_is_rejected_at_generation() {
        // Cola prompts are shorter than this prefix: the generator
        // refuses to emit a self-contradictory trace.
        let _ = LoadGenerator::uniform(
            Task::cola(),
            2,
            ArrivalProcess::ClosedLoop { concurrency: 2 },
        )
        .with_prefixes(vec![Some(SharedPrefix::new(1, 1 << 20))])
        .generate();
    }
}
