//! The four workloads: how each one is set up from source, run, and
//! checked, with every engine knob pinned.
//!
//! All calls go through the public APIs of the engine crates. Where a
//! [`Trace`] is given, each call into a layer is recorded as a span.

use ttda_core::opt::{annotate_criticality, optimize_at, OptLevel};
use ttda_core::{
    EmuResult, Emulator, ExecError, Job, Program, RunMode, SchedPolicy, TimedConfig, TimedMachine,
    TimedResult, Value,
};
use ttda_net::Hypercube;
use ttda_sim::{Arrivals, SimRng};
use ttda_trace::SharedSink;
use ttda_workloads::service::{
    serve, Burst, BurstRunner, ServiceConfig, ServiceSummary, TenantSpec,
};
use ttda_workloads::{id, reference};

use crate::spans::Spans;

/// Where spans go: `None` runs untraced.
pub type Trace<'a> = Option<&'a mut Spans>;

/// Runs `f` inside a span called `name` when tracing, directly
/// otherwise.
pub fn span<T>(
    trace: &mut Trace<'_>,
    name: &'static str,
    f: impl FnOnce(&mut Trace<'_>) -> T,
) -> T {
    match trace {
        Some(spans) => spans.time(name, |inner| f(&mut Some(inner))),
        None => f(&mut None),
    }
}

/// `matmul` problem size: 60,699 firings per run at O2.
const MATMUL_N: i64 = 12;
/// `fib` argument: about 8.4k procedure contexts per run.
const FIB_N: i64 = 18;
/// Workers of the relaxed engine (the box has two cores).
const RELAXED_WORKERS: usize = 2;
/// Firing budgets, pinned rather than inherited from engine defaults.
const EMU_FUEL: u64 = 100_000_000;
const TIMED_FUEL: u64 = 50_000_000;
const BURST_FUEL: u64 = 10_000_000;

/// A tenant's inter-arrival distribution for a given mean gap in ticks.
type Shape = fn(f64) -> Arrivals;

fn poisson(gap: f64) -> Arrivals {
    Arrivals::Exp { mean: gap }
}

fn uniform(gap: f64) -> Arrivals {
    Arrivals::Uniform {
        lo: gap / 2.0,
        hi: gap * 1.5,
    }
}

/// Service tenants: `(name, request_dag fanout, depth, DRR weight,
/// arrival shape)`.
const TENANTS: [(&str, u32, u32, u32, Shape); 2] =
    [("api", 4, 3, 3, poisson), ("batch", 2, 8, 1, uniform)];
/// Output-slot stride of the merged service program.
const SLOT_STRIDE: u32 = 8;
/// Requests each tenant offers per drain.
pub const REQUESTS_PER_TENANT: u64 = 1000;
/// Offered load, in requests per thousand ticks over both tenants.
/// Fixed in ticks at about 0.9 of the set-up's capacity (one tick per
/// firing, 288.5 firings per request on average at O2, so capacity is
/// 3.47 requests per thousand ticks) and never
/// recalibrated, so a change that fires less per request shows up as
/// lower latency rather than as a re-paced load.
const OPERATING_RATE_PER_KTICK: f64 = 3.1;
/// Waiting–matching occupancy at which a burst halves the next quota;
/// only the largest bursts reach it.
const HIGH_WATER: usize = 128;
/// The latency limit `service.max_rate_per_ktick` is judged against.
const SLO_TICKS: u64 = 8192;
/// The rate grid the maximum sustainable rate is searched on.
const RATE_STEP_PER_KTICK: f64 = 0.05;
const RATE_STEPS: u32 = 200;

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sequential emulator, FIFO, `matmul` n=12.
    EmuMatmul,
    /// The same program on the relaxed engine with two workers.
    RelaxedMatmul,
    /// The timed machine on an 8-PE hypercube, criticality scheduling,
    /// `fib` 18.
    TimedFib,
    /// Two-tenant open-loop service over request DAGs.
    ServiceDag,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::EmuMatmul,
        Workload::RelaxedMatmul,
        Workload::TimedFib,
        Workload::ServiceDag,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EmuMatmul => "emu-matmul",
            Workload::RelaxedMatmul => "relaxed-matmul",
            Workload::TimedFib => "timed-fib",
            Workload::ServiceDag => "service-dag",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Measured runs of a full set, sized to about 20 s each on a
    /// 2-core x86-64 box.
    pub fn measured_runs(self) -> usize {
        match self {
            Workload::EmuMatmul => 1500,
            Workload::RelaxedMatmul | Workload::TimedFib => 800,
            Workload::ServiceDag => 120,
        }
    }

    /// Requests one run completes (a batch run is one request).
    pub fn requests_per_run(self, requests_per_tenant: u64) -> u64 {
        match self {
            Workload::ServiceDag => requests_per_tenant * TENANTS.len() as u64,
            _ => 1,
        }
    }
}

/// Which engine executes a batch run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The workload's own engine.
    Own,
    /// The sequential reference interpreter on the same program (the
    /// relaxed workload's speed-up baseline and firing-count check).
    Sequential,
}

/// A compiled workload, ready to run.
pub struct Compiled {
    workload: Workload,
    program: Program,
    /// Service only: tenant entry blocks of the merged program.
    mains: Vec<ttda_core::CodeBlockId>,
}

impl Compiled {
    /// Static instruction count.
    pub fn instrs(&self) -> usize {
        self.program.blocks.iter().map(|b| b.instrs.len()).sum()
    }
}

/// Source → parse → codegen → optimize → criticality, one span each.
fn compile(src: &str, level: OptLevel, trace: &mut Trace<'_>) -> Result<Program, String> {
    let ast = span(trace, "idc.parse", |_| ttda_idc::parse(src)).map_err(|e| e.to_string())?;
    let p =
        span(trace, "idc.codegen", |_| ttda_idc::compile_ast(&ast)).map_err(|e| e.to_string())?;
    let mut p = span(trace, "opt.optimize", |_| optimize_at(&p, level).0);
    span(trace, "opt.criticality", |_| annotate_criticality(&mut p));
    Ok(p)
}

/// The set-up a user pays before the first run: compiling every source
/// of the workload (and merging the tenant programs for the service).
///
/// # Errors
///
/// The compiler's message, if a source fails to compile.
pub fn setup(w: Workload, level: OptLevel, trace: &mut Trace<'_>) -> Result<Compiled, String> {
    span(trace, "setup", |trace| {
        let (program, mains) = match w {
            Workload::EmuMatmul | Workload::RelaxedMatmul => {
                (compile(id::matmul(), level, trace)?, vec![])
            }
            Workload::TimedFib => (compile(id::fib(), level, trace)?, vec![]),
            Workload::ServiceDag => {
                let parts = TENANTS
                    .iter()
                    .map(|&(_, fanout, depth, _, _)| {
                        compile(&id::request_dag(fanout, depth), level, trace)
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                span(trace, "service.merge", |_| {
                    Program::merge(&parts, SLOT_STRIDE)
                })
            }
        };
        Ok(Compiled {
            workload: w,
            program,
            mains,
        })
    })
}

/// What one run produced, before checking.
pub enum Raw {
    /// An emulator run (either engine mode).
    Emu(EmuResult),
    /// A timed-machine run.
    Timed(TimedResult),
    /// A service drain.
    Service(Box<Drain>),
}

/// A drained service run plus what the benchmark's runner saw.
pub struct Drain {
    summary: ServiceSummary,
    totals: Totals,
}

/// Per-layer counts of one checked run, by metric name.
#[derive(Debug, Default, Clone)]
pub struct Counts(Vec<(&'static str, f64)>);

impl Counts {
    /// The count called `name`, 0 when absent.
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Adds the count called `name`.
    pub fn push(&mut self, name: &'static str, v: f64) {
        self.0.push((name, v));
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The service traffic of one seed at `rate_per_ktick` requests per
/// thousand ticks over both tenants: a Poisson stream for `api`, a
/// uniform one for `batch`, each carrying half the rate, and a request
/// id `r` per tenant drawn from the seed.
pub struct Traffic {
    tenants: Vec<TenantSpec>,
    /// Each tenant's reference output.
    expected: Vec<i64>,
    /// Instructions one request of each tenant fires when run alone; a
    /// burst must fire the sum over its jobs.
    firings: Vec<u64>,
    config: ServiceConfig,
}

impl Traffic {
    /// The traffic for `seed` at the operating rate.
    ///
    /// # Errors
    ///
    /// The engine's error, if a tenant's request fails when run alone.
    pub fn new(c: &Compiled, seed: u64, requests: u64) -> Result<Traffic, String> {
        Traffic::at_rate(c, seed, requests, OPERATING_RATE_PER_KTICK)
    }

    fn at_rate(
        c: &Compiled,
        seed: u64,
        requests: u64,
        rate_per_ktick: f64,
    ) -> Result<Traffic, String> {
        let mut rng = SimRng::seed(seed).fork(0x5e41);
        let gap = 1000.0 * TENANTS.len() as f64 / rate_per_ktick;
        let mut tenants = Vec::new();
        let mut expected = Vec::new();
        let mut firings = Vec::new();
        for (&(name, fanout, depth, weight, shape), &block) in TENANTS.iter().zip(&c.mains) {
            let r = rng.gen_range(0..1000i64);
            let inputs = vec![Value::Int(r)];
            let alone = sequential(&c.program)
                .with_fuel(BURST_FUEL)
                .submit(&[Job::new(block, inputs.clone())])
                .map_err(|e| e.to_string())?;
            tenants.push(TenantSpec {
                name: name.into(),
                block,
                inputs,
                weight,
                arrivals: shape(gap),
                requests,
            });
            expected.push(reference::request_dag(fanout, depth, r));
            firings.push(alone.instructions);
        }
        let config = ServiceConfig {
            seed,
            burst_quota: 8,
            high_water: HIGH_WATER,
            tick_scale: 1,
            latency_bins: 4096,
            latency_bin_width: 16,
        };
        Ok(Traffic {
            tenants,
            expected,
            firings,
            config,
        })
    }
}

/// Sums over a drain's bursts that `ServiceSummary` does not carry.
#[derive(Debug, Default, Clone, Copy)]
struct Totals {
    waves: u64,
    contexts: usize,
    reads_immediate: u64,
    reads_deferred: u64,
    writes: u64,
    peak_deferred: usize,
    wrong_outputs: u64,
    wrong_firings: u64,
}

/// The benchmark's own [`BurstRunner`]: what `EmulatorRunner` does, in
/// public API, plus a span per call and a check of every burst against
/// the reference. Jobs of one tenant share an output slot, so the slot
/// alone would hide a lost job behind a later one; the burst's firing
/// count, which must equal the sum of its jobs' counts when run alone,
/// catches a job that was dropped or cut short.
struct CheckedRunner<'a, 't> {
    program: &'a Program,
    traffic: &'a Traffic,
    sink: Option<SharedSink>,
    trace: &'a mut Trace<'t>,
    totals: Totals,
}

impl BurstRunner for CheckedRunner<'_, '_> {
    fn run_burst(&mut self, jobs: &[Job]) -> Result<Burst, ExecError> {
        let (program, sink) = (self.program, self.sink.as_ref());
        let r = span(self.trace, "service.burst", |trace| {
            let mut m = span(trace, "emu.new", |_| {
                attach(sequential(program), sink).with_fuel(BURST_FUEL)
            });
            span(trace, "emu.submit", |_| m.submit(jobs))
        })?;
        let (expected, firings) = (&self.traffic.expected, &self.traffic.firings);
        let mut want_firings = 0;
        for job in jobs {
            let t = job.tenant as usize;
            let want = expected.get(t).map(|&v| Value::Int(v));
            if r.outputs.get(&(job.tenant * SLOT_STRIDE)) != want.as_ref() {
                self.totals.wrong_outputs += 1;
            }
            want_firings += firings.get(t).copied().unwrap_or(0);
        }
        if r.instructions != want_firings {
            self.totals.wrong_firings += 1;
        }
        let t = &mut self.totals;
        t.waves += r.waves;
        t.contexts += r.contexts;
        t.reads_immediate += r.istore_immediate;
        t.reads_deferred += r.istore_deferred;
        t.writes += r.istore_writes;
        t.peak_deferred = t.peak_deferred.max(r.peak_deferred);
        Ok(Burst {
            instructions: r.instructions,
            peak_matching: r.peak_matching,
        })
    }
}

fn attach<'p>(m: Emulator<'p>, sink: Option<&SharedSink>) -> Emulator<'p> {
    match sink {
        Some(s) => m.with_sink(s.clone()),
        None => m,
    }
}

fn sequential(p: &Program) -> Emulator<'_> {
    Emulator::new(p)
        .with_threads(1)
        .with_mode(RunMode::Sequential)
        .with_sched(SchedPolicy::Fifo)
        .with_fuel(EMU_FUEL)
}

/// One run: construct a fresh machine and run it (a drain, for the
/// service). Checking is separate and untimed: see [`check`]; only the
/// service's per-burst checks run inside the drain.
///
/// # Errors
///
/// The engine's error, rendered.
pub fn run(
    c: &Compiled,
    traffic: Option<&Traffic>,
    engine: Engine,
    sink: Option<SharedSink>,
    trace: &mut Trace<'_>,
) -> Result<Raw, String> {
    let root = if engine == Engine::Sequential {
        "seq"
    } else {
        "run"
    };
    span(trace, root, |trace| -> Result<Raw, ExecError> {
        match (c.workload, engine) {
            (Workload::EmuMatmul, _) | (Workload::RelaxedMatmul, Engine::Sequential) => {
                let mut m = span(trace, "emu.new", |_| {
                    attach(sequential(&c.program), sink.as_ref())
                });
                span(trace, "emu.run", |_| m.run(&[Value::Int(MATMUL_N)])).map(Raw::Emu)
            }
            (Workload::RelaxedMatmul, Engine::Own) => {
                let mut m = span(trace, "relaxed.new", |_| {
                    let m = Emulator::new(&c.program)
                        .with_threads(RELAXED_WORKERS)
                        .with_mode(RunMode::Relaxed)
                        .with_sched(SchedPolicy::Fifo)
                        .with_fuel(EMU_FUEL);
                    attach(m, sink.as_ref())
                });
                span(trace, "relaxed.run", |_| m.run(&[Value::Int(MATMUL_N)])).map(Raw::Emu)
            }
            (Workload::TimedFib, _) => {
                let mut m = span(trace, "timed.new", |_| {
                    let config = TimedConfig {
                        sched: SchedPolicy::Crit,
                        ..TimedConfig::default()
                    };
                    let cube = Hypercube::new(3).expect("a 3-cube is a valid topology");
                    let m =
                        TimedMachine::new(c.program.clone(), cube, config).with_fuel(TIMED_FUEL);
                    match &sink {
                        Some(s) => m.with_sink(s.clone()),
                        None => m,
                    }
                });
                span(trace, "timed.run", |_| m.run(&[Value::Int(FIB_N)])).map(Raw::Timed)
            }
            (Workload::ServiceDag, _) => {
                let traffic = traffic.expect("service runs are given their traffic");
                span(trace, "serve", |trace| {
                    let mut runner = CheckedRunner {
                        program: &c.program,
                        traffic,
                        sink: sink.clone(),
                        trace,
                        totals: Totals::default(),
                    };
                    let summary = serve(&traffic.tenants, &traffic.config, &mut runner)?;
                    Ok(Raw::Service(Box::new(Drain {
                        summary,
                        totals: runner.totals,
                    })))
                })
            }
        }
    })
    .map_err(|e| e.to_string())
}

/// Checks a run's outputs against the reference answers and extracts
/// its per-layer counts.
///
/// # Errors
///
/// What was wrong with the output.
pub fn check(raw: &Raw, seq_firings: Option<u64>) -> Result<Counts, String> {
    let mut n = Counts::default();
    let expect = |got: Option<&Value>, want: i64| {
        if got == Some(&Value::Int(want)) {
            Ok(())
        } else {
            Err(format!("output {got:?}, expected {want}"))
        }
    };
    match raw {
        Raw::Emu(r) => {
            expect(r.outputs.get(&0), reference::matmul_checksum(MATMUL_N))?;
            if let Some(seq) = seq_firings.filter(|&s| s != r.instructions) {
                return Err(format!(
                    "{} firings, sequential fires {seq}",
                    r.instructions
                ));
            }
            n.push("opt.firings", r.instructions as f64);
            n.push("emu.waves", r.waves as f64);
            n.push("emu.mean_parallelism", r.mean_parallelism());
            n.push("context.allocated", r.contexts as f64);
            n.push("matching.peak_occupancy", r.peak_matching as f64);
            istore_counts(
                &mut n,
                r.istore_immediate,
                r.istore_deferred,
                r.istore_writes,
            );
            n.push("istore.peak_deferred", r.peak_deferred as f64);
        }
        Raw::Timed(r) => {
            expect(r.outputs.get(&0), reference::fib(FIB_N))?;
            let s = &r.stats;
            let cycles = s.cycles.as_u64() as f64;
            n.push("opt.firings", s.instructions as f64);
            n.push("timed.sim_cycles", cycles);
            n.push("timed.ipc", ratio(s.instructions as f64, cycles));
            n.push("timed.alu_utilization", s.alu_utilization());
            n.push("timed.peak_queue", s.peak_queue as f64);
            n.push("timed.peak_matching", s.peak_matching as f64);
            n.push("timed.remote_fraction", s.remote_fraction());
            n.push("net.packets", s.net_packets as f64);
            n.push("net.mean_hops", s.net_mean_hops);
            n.push("context.allocated", s.contexts as f64);
            n.push("matching.peak_occupancy", s.peak_matching as f64);
            istore_counts(
                &mut n,
                s.istore_immediate,
                s.istore_deferred,
                s.istore_writes,
            );
        }
        Raw::Service(d) => {
            let (s, t) = (&d.summary, &d.totals);
            if t.wrong_outputs > 0 {
                return Err(format!(
                    "{} requests returned a wrong output",
                    t.wrong_outputs
                ));
            }
            if t.wrong_firings > 0 {
                return Err(format!(
                    "{} bursts fired other than the sum of their requests run alone",
                    t.wrong_firings
                ));
            }
            for tenant in &s.tenants {
                if tenant.completed != tenant.offered {
                    return Err(format!(
                        "{}: {} of {} requests completed",
                        tenant.name, tenant.completed, tenant.offered
                    ));
                }
            }
            let requests: u64 = s.tenants.iter().map(|t| t.completed).sum();
            let (p50, p99, _) = ttda_workloads::service::percentiles(&s.latency);
            n.push("opt.firings", s.instructions as f64);
            n.push("emu.waves", t.waves as f64);
            n.push(
                "emu.mean_parallelism",
                ratio(s.instructions as f64, t.waves as f64),
            );
            n.push("context.allocated", t.contexts as f64);
            n.push("matching.peak_occupancy", s.peak_matching as f64);
            istore_counts(&mut n, t.reads_immediate, t.reads_deferred, t.writes);
            n.push("istore.peak_deferred", t.peak_deferred as f64);
            n.push("service.bursts", s.bursts as f64);
            n.push(
                "service.requests_per_burst",
                ratio(requests as f64, s.bursts as f64),
            );
            n.push("service.throttled", s.throttled as f64);
            let peak_queue = s.tenants.iter().map(|t| t.peak_queue).max().unwrap_or(0);
            n.push("service.peak_queue", peak_queue as f64);
            n.push("service.latency_p50_ticks", p50 as f64);
            n.push("service.latency_p99_ticks", p99 as f64);
        }
    }
    Ok(n)
}

fn istore_counts(n: &mut Counts, immediate: u64, deferred: u64, writes: u64) {
    n.push("istore.reads_immediate", immediate as f64);
    n.push("istore.reads_deferred", deferred as f64);
    n.push("istore.writes", writes as f64);
    n.push(
        "istore.defer_ratio",
        ratio(deferred as f64, (immediate + deferred) as f64),
    );
}

/// The highest rate on the grid whose drain keeps p99 latency within
/// the SLO, by bisection over the grid (deterministic for a seed).
/// Returns the rate in requests per thousand ticks and the number of
/// drains run.
///
/// # Errors
///
/// A failed or wrong drain.
pub fn max_rate(c: &Compiled, seed: u64, requests: u64) -> Result<(f64, u64), String> {
    let mut drains = 0;
    let mut meets_slo = |step: u32| -> Result<bool, String> {
        drains += 1;
        let traffic = Traffic::at_rate(c, seed, requests, f64::from(step) * RATE_STEP_PER_KTICK)?;
        let raw = run(c, Some(&traffic), Engine::Own, None, &mut None)?;
        let counts = check(&raw, None)?;
        Ok(counts.get("service.latency_p99_ticks") <= SLO_TICKS as f64)
    };
    if !meets_slo(1)? {
        return Ok((0.0, drains));
    }
    // Invariant: `lo` meets the SLO, `hi` does not (or is off the grid).
    let (mut lo, mut hi) = (1, RATE_STEPS + 1);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if meets_slo(mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok((f64::from(lo) * RATE_STEP_PER_KTICK, drains))
}
