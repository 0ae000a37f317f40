//! Sustained-traffic service mode: a long-lived multi-tenant scheduler
//! draining an open-loop stream of requests through one machine.
//!
//! Every other workload in this repository is a run-to-completion batch
//! call, but the paper's argument is about the *sustained* regime: a
//! machine that absorbs many concurrent activities without idling on
//! latency. This module supplies that regime as a first-class scenario:
//!
//! - **Open-loop arrivals.** Each tenant generates requests on its own
//!   forked [`SimRng`] stream from an [`Arrivals`] distribution
//!   (Exp/Normal/Uniform). Arrival times never depend on service times,
//!   so overload builds real queues instead of politely self-throttling
//!   the way closed-loop drivers do.
//! - **Weighted fair admission.** A deficit-round-robin pass admits
//!   queued requests in proportion to tenant weights, up to a per-burst
//!   quota, with ties broken by tenant index — fully deterministic.
//! - **Backpressure, not errors.** When a burst drives the
//!   waiting–matching window past a high-water mark (the saturation the
//!   Ultracomputer retrospective warns about), the next burst's quota
//!   halves instead of the machine failing; quota recovers by one per
//!   clean burst.
//! - **Latency percentiles.** Virtual time advances by the firings each
//!   burst executed, and each request's sojourn (admission burst end −
//!   arrival tick) lands in per-tenant and global [`Histogram`]s, read
//!   out as p50/p99/p999.
//!
//! # Determinism contract
//!
//! The schedule is a pure function of the seed and the tenant specs.
//! Arrival ticks are integers, scheduler arithmetic is integral, and the
//! burst costs come from the sequential interpreter's `EmuResult`: the
//! standard [`EmulatorRunner`] pins [`RunMode::Sequential`], so no
//! configuration call or environment variable can reroute a burst onto
//! the parallel backend, whose `peak_matching` (the backpressure
//! signal) depends on host scheduling. The whole [`ServiceSummary`] (admission
//! log included) is therefore byte-identical across runs with one seed.

use std::collections::VecDeque;

use ttda_core::{Emulator, ExecError, Job, Machine, Program, RunMode, Value};
use ttda_sim::stats::Histogram;
use ttda_sim::{Arrivals, SimRng};

/// One tenant of the service: a request block in the merged program, the
/// per-request inputs, an offered-load description and a fair-share
/// weight.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display name for reports.
    pub name: String,
    /// The tenant's request entry block (a former `main` from
    /// [`Program::merge`]).
    ///
    /// [`Program::merge`]: ttda_core::Program::merge
    pub block: ttda_core::CodeBlockId,
    /// Inputs for each request of this tenant.
    pub inputs: Vec<Value>,
    /// Deficit-round-robin quantum: admissions per round are
    /// proportional to weights while tenants stay backlogged.
    pub weight: u32,
    /// Inter-arrival time distribution, in abstract time units
    /// (quantized by [`ServiceConfig::tick_scale`]).
    pub arrivals: Arrivals,
    /// Total requests this tenant offers before its stream ends.
    pub requests: u64,
}

/// Scheduler knobs. `Default` gives a small but realistic setup.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Master seed; each tenant's arrival stream is forked from it.
    pub seed: u64,
    /// Max requests admitted into one burst before backpressure.
    pub burst_quota: usize,
    /// Waiting–matching occupancy at which backpressure engages: a
    /// burst whose `peak_matching` reaches this halves the next quota.
    pub high_water: usize,
    /// Ticks per arrival time unit (arrival quantization grid).
    pub tick_scale: u64,
    /// Latency histogram shape: bin count.
    pub latency_bins: usize,
    /// Latency histogram shape: bin width in ticks.
    pub latency_bin_width: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            seed: 1,
            burst_quota: 8,
            high_water: usize::MAX,
            tick_scale: 1,
            latency_bins: 64,
            latency_bin_width: 1 << 10,
        }
    }
}

/// What one admitted burst cost: the scheduler's service-time and
/// backpressure signals, extracted from the machine's result.
#[derive(Debug, Clone, Copy)]
pub struct Burst {
    /// Instructions fired — advances the virtual clock.
    pub instructions: u64,
    /// Peak waiting–matching occupancy — drives backpressure.
    pub peak_matching: usize,
}

/// Runs one admitted batch of jobs to joint completion. The scheduler
/// only needs the two [`Burst`] signals back, so anything that can play
/// a batch — the real emulator, a timed model, a test stub — can serve.
pub trait BurstRunner {
    /// Executes `jobs` and reports the burst's cost signals.
    ///
    /// # Errors
    ///
    /// Whatever the underlying machine reports ([`ExecError`]); the
    /// scheduler aborts the run on the first failed burst.
    fn run_burst(&mut self, jobs: &[Job]) -> Result<Burst, ExecError>;
}

/// The standard runner: each burst executes on a fresh sequential
/// [`Emulator`] through the generic [`Machine`] surface.
#[derive(Debug, Clone)]
pub struct EmulatorRunner<'p> {
    program: &'p Program,
    fuel: Option<u64>,
}

impl<'p> EmulatorRunner<'p> {
    /// A runner over `program`.
    pub fn new(program: &'p Program) -> Self {
        EmulatorRunner {
            program,
            fuel: None,
        }
    }

    /// Overrides the per-burst firing budget.
    #[must_use]
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = Some(fuel);
        self
    }
}

impl BurstRunner for EmulatorRunner<'_> {
    fn run_burst(&mut self, jobs: &[Job]) -> Result<Burst, ExecError> {
        let mut m = Emulator::new(self.program).with_mode(RunMode::Sequential);
        if let Some(fuel) = self.fuel {
            m = Machine::with_fuel(m, fuel);
        }
        let r = Machine::submit(&mut m, jobs)?;
        Ok(Burst {
            instructions: r.instructions,
            peak_matching: r.peak_matching,
        })
    }
}

/// Per-tenant results of a service run.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// The tenant's display name.
    pub name: String,
    /// Requests the arrival process generated.
    pub offered: u64,
    /// Requests admitted and completed (equal to `offered` when the run
    /// drains; the scheduler never drops).
    pub completed: u64,
    /// Sojourn times (arrival → end of the admitting burst), in ticks.
    pub latency: Histogram,
    /// Deepest the tenant's pending queue ever got.
    pub peak_queue: usize,
}

/// The result of draining a service run to completion.
#[derive(Debug, Clone)]
pub struct ServiceSummary {
    /// One report per tenant, in spec order.
    pub tenants: Vec<TenantReport>,
    /// All tenants' sojourn times merged.
    pub latency: Histogram,
    /// Bursts executed.
    pub bursts: u64,
    /// Bursts that tripped the high-water mark and throttled the quota.
    pub throttled: u64,
    /// Total instructions fired across all bursts.
    pub instructions: u64,
    /// Virtual completion time of the last burst, in ticks.
    pub makespan: u64,
    /// Highest waiting–matching occupancy any burst reached.
    pub peak_matching: usize,
    /// Tenant index of every admitted request, in admission order — the
    /// witness for determinism and fairness checks.
    pub admission_log: Vec<u32>,
}

/// p50/p99/p999 of a latency histogram (0s when empty).
pub fn percentiles(h: &Histogram) -> (u64, u64, u64) {
    (
        h.percentile(50.0).unwrap_or(0),
        h.percentile(99.0).unwrap_or(0),
        h.percentile(99.9).unwrap_or(0),
    )
}

struct TenantState {
    rng: SimRng,
    next_arrival: u64,
    generated: u64,
    queue: VecDeque<u64>,
    deficit: u64,
    latency: Histogram,
    completed: u64,
    peak_queue: usize,
}

/// Drains the tenants' offered load through `runner` and reports.
///
/// The run ends when every tenant's arrival stream is exhausted and
/// every queue is empty; overload therefore shows up as latency (and a
/// throttled quota), never as loss.
///
/// # Errors
///
/// The first [`ExecError`] any burst reports aborts the run.
///
/// # Panics
///
/// Panics if `tenants` is empty, a tenant has `weight == 0`, or a
/// tenant offers `requests == 0` (an idle tenant would stall the clock
/// advance logic for nothing).
pub fn serve(
    tenants: &[TenantSpec],
    cfg: &ServiceConfig,
    runner: &mut impl BurstRunner,
) -> Result<ServiceSummary, ExecError> {
    assert!(!tenants.is_empty(), "service needs at least one tenant");
    let mut rng = SimRng::seed(cfg.seed);
    let mut states: Vec<TenantState> = tenants
        .iter()
        .enumerate()
        .map(|(i, t)| {
            assert!(t.weight > 0, "tenant {} has zero weight", t.name);
            assert!(t.requests > 0, "tenant {} offers no requests", t.name);
            let mut fork = rng.fork(i as u64);
            let first = t.arrivals.next_ticks(&mut fork, cfg.tick_scale);
            TenantState {
                rng: fork,
                next_arrival: first,
                generated: 0,
                queue: VecDeque::new(),
                deficit: 0,
                latency: Histogram::new(cfg.latency_bins, cfg.latency_bin_width),
                completed: 0,
                peak_queue: 0,
            }
        })
        .collect();

    let base_quota = cfg.burst_quota.max(1);
    let mut quota = base_quota;
    let mut now: u64 = 0;
    let mut bursts = 0u64;
    let mut throttled = 0u64;
    let mut instructions = 0u64;
    let mut peak_matching = 0usize;
    let mut admission_log: Vec<u32> = Vec::new();
    let mut batch: Vec<(usize, u64)> = Vec::new();
    let mut jobs: Vec<Job> = Vec::new();

    loop {
        // Open loop: pull every arrival that has happened by `now` into
        // its tenant queue. Service times never feed back into this.
        for (t, st) in tenants.iter().zip(states.iter_mut()) {
            while st.generated < t.requests && st.next_arrival <= now {
                st.queue.push_back(st.next_arrival);
                st.peak_queue = st.peak_queue.max(st.queue.len());
                st.generated += 1;
                st.next_arrival = st
                    .next_arrival
                    .saturating_add(t.arrivals.next_ticks(&mut st.rng, cfg.tick_scale));
            }
        }

        if states.iter().all(|s| s.queue.is_empty()) {
            // Idle: jump to the next arrival, or finish if none remain.
            match tenants
                .iter()
                .zip(&states)
                .filter(|(t, s)| s.generated < t.requests)
                .map(|(_, s)| s.next_arrival)
                .min()
            {
                Some(next) => {
                    now = now.max(next);
                    continue;
                }
                None => break,
            }
        }

        // Deficit round robin: each round credits every backlogged
        // tenant its weight, then admits in tenant order — deterministic
        // and weight-proportional while queues stay backlogged.
        batch.clear();
        while batch.len() < quota {
            let mut progressed = false;
            for (i, st) in states.iter_mut().enumerate() {
                if st.queue.is_empty() {
                    st.deficit = 0; // no hoarding while idle
                    continue;
                }
                st.deficit += u64::from(tenants[i].weight);
                while st.deficit >= 1 && batch.len() < quota {
                    let Some(arrived) = st.queue.pop_front() else {
                        break;
                    };
                    st.deficit -= 1;
                    batch.push((i, arrived));
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }

        jobs.clear();
        jobs.extend(batch.iter().map(|&(i, _)| {
            Job::new(tenants[i].block, tenants[i].inputs.clone()).for_tenant(i as u32)
        }));
        let burst = runner.run_burst(&jobs)?;
        bursts += 1;
        instructions += burst.instructions;
        peak_matching = peak_matching.max(burst.peak_matching);
        // Service time: the machine is busy for as long as it fires.
        now = now.saturating_add(burst.instructions.max(1));
        for &(i, arrived) in &batch {
            states[i].latency.record(now - arrived);
            states[i].completed += 1;
            admission_log.push(i as u32);
        }

        // Backpressure: a saturated window halves the next quota; a
        // clean burst earns one slot back.
        if burst.peak_matching >= cfg.high_water {
            quota = (quota / 2).max(1);
            throttled += 1;
        } else if quota < base_quota {
            quota += 1;
        }
    }

    let mut latency = Histogram::new(cfg.latency_bins, cfg.latency_bin_width);
    let reports: Vec<TenantReport> = tenants
        .iter()
        .zip(states)
        .map(|(t, s)| {
            latency.merge(&s.latency);
            TenantReport {
                name: t.name.clone(),
                offered: s.generated,
                completed: s.completed,
                latency: s.latency,
                peak_queue: s.peak_queue,
            }
        })
        .collect();

    Ok(ServiceSummary {
        tenants: reports,
        latency,
        bursts,
        throttled,
        instructions,
        makespan: now,
        peak_matching,
        admission_log,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id;

    /// A merged two-tenant service program: tenant 0 and tenant 1 both
    /// serve the request-DAG workload (distinct block copies, so output
    /// slots stay disjoint).
    fn two_tenant_program(fanout: u32, depth: u32) -> (Program, Vec<ttda_core::CodeBlockId>) {
        let p = ttda_idc::compile(&id::request_dag(fanout, depth)).expect("compiles");
        Program::merge(&[p.clone(), p], 8)
    }

    fn spec(
        name: &str,
        block: ttda_core::CodeBlockId,
        mean: f64,
        requests: u64,
        weight: u32,
    ) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            block,
            inputs: vec![Value::Int(3)],
            weight,
            arrivals: Arrivals::Exp { mean },
            requests,
        }
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let (program, mains) = two_tenant_program(4, 3);
        let tenants = vec![
            spec("a", mains[0], 200.0, 40, 2),
            spec("b", mains[1], 500.0, 20, 1),
        ];
        let cfg = ServiceConfig {
            seed: 7,
            burst_quota: 4,
            high_water: 64,
            ..ServiceConfig::default()
        };
        let s1 = serve(&tenants, &cfg, &mut EmulatorRunner::new(&program)).expect("serves");
        let s2 = serve(&tenants, &cfg, &mut EmulatorRunner::new(&program)).expect("serves");
        // Same admission order and identical stats on a repeat run.
        assert_eq!(s1.admission_log, s2.admission_log);
        assert_eq!(s1.makespan, s2.makespan);
        assert_eq!(s1.instructions, s2.instructions);
        assert_eq!(s1.bursts, s2.bursts);
        assert_eq!(s1.throttled, s2.throttled);
        assert_eq!(s1.peak_matching, s2.peak_matching);
        assert_eq!(s1.latency.bins(), s2.latency.bins());
        for (a, b) in s1.tenants.iter().zip(&s2.tenants) {
            assert_eq!(a.latency.bins(), b.latency.bins());
            assert_eq!(a.peak_queue, b.peak_queue);
        }
        // And the run actually drained.
        for t in &s1.tenants {
            assert_eq!(t.offered, t.completed);
        }
    }

    #[test]
    fn weighted_fair_shares_under_ten_to_one_offered_load() {
        let (program, mains) = two_tenant_program(2, 2);
        // Tenant a offers 10x the load of tenant b; both arrive almost
        // immediately, so both stay backlogged while b has work left.
        // Weights 3:1 must hold in the admission order regardless of the
        // 10:1 offered imbalance.
        let tenants = vec![
            spec("heavy", mains[0], 1.0, 300, 3),
            spec("light", mains[1], 1.0, 30, 1),
        ];
        let cfg = ServiceConfig {
            seed: 11,
            burst_quota: 8,
            ..ServiceConfig::default()
        };
        let s = serve(&tenants, &cfg, &mut EmulatorRunner::new(&program)).expect("serves");
        assert_eq!(s.tenants[0].completed, 300);
        assert_eq!(s.tenants[1].completed, 30);
        // While the light tenant is backlogged the DRR must pace heavy
        // admissions at ~3 per light one: by the light tenant's last
        // admission, heavy has received its weighted share, not its
        // offered share (which would be ~10:1).
        let last_light = s
            .admission_log
            .iter()
            .rposition(|&t| t == 1)
            .expect("light admitted");
        let heavy_before = s.admission_log[..last_light]
            .iter()
            .filter(|&&t| t == 0)
            .count() as f64;
        let light_before = s.admission_log[..last_light]
            .iter()
            .filter(|&&t| t == 1)
            .count() as f64
            + 1.0;
        let ratio = heavy_before / light_before;
        assert!(
            (2.0..=4.5).contains(&ratio),
            "weighted share violated: heavy/light admission ratio {ratio:.2}, want ~3"
        );
    }

    #[test]
    fn backpressure_throttles_instead_of_erroring() {
        let (program, mains) = two_tenant_program(8, 4);
        let tenants = vec![
            spec("a", mains[0], 1.0, 60, 1),
            spec("b", mains[1], 1.0, 60, 1),
        ];
        // A high-water mark far below what a full burst of this DAG
        // drives the window to: backpressure must engage, shrink the
        // quota, and still drain every request successfully.
        let throttling = ServiceConfig {
            seed: 3,
            burst_quota: 16,
            high_water: 8,
            ..ServiceConfig::default()
        };
        let open = ServiceConfig {
            high_water: usize::MAX,
            ..throttling
        };
        let s = serve(&tenants, &throttling, &mut EmulatorRunner::new(&program)).expect("serves");
        let s_open = serve(&tenants, &open, &mut EmulatorRunner::new(&program)).expect("serves");
        assert!(s.throttled > 0, "high-water mark never engaged");
        for t in &s.tenants {
            assert_eq!(t.offered, t.completed, "{}: requests dropped", t.name);
        }
        // Throttling means more, smaller bursts than the open run, and
        // the open run's window peak really was over the mark.
        assert!(s.bursts > s_open.bursts);
        assert!(s_open.peak_matching >= throttling.high_water);
    }

    #[test]
    fn latency_percentiles_are_reported_and_ordered() {
        let (program, mains) = two_tenant_program(4, 2);
        let tenants = vec![
            spec("a", mains[0], 50.0, 50, 1),
            spec("b", mains[1], 80.0, 30, 1),
        ];
        let cfg = ServiceConfig {
            seed: 5,
            ..ServiceConfig::default()
        };
        let s = serve(&tenants, &cfg, &mut EmulatorRunner::new(&program)).expect("serves");
        assert_eq!(s.latency.count(), 80);
        let (p50, p99, p999) = percentiles(&s.latency);
        assert!(p50 > 0 && p50 <= p99 && p99 <= p999);
    }
}
