//! One workload, start to finish: timed set-ups, warm-up, the untraced
//! measured phase, then the traced pass that explains it layer by
//! layer.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use ttda_core::opt::OptLevel;
use ttda_trace::{shared, CountingSink};

use crate::metrics::{Measured, Report, METRICS};
use crate::spans::Spans;
use crate::stats::{mean_fastest, median, percentile, quartiles};
use crate::workloads::{
    self, check, ratio, run, setup, Compiled, Counts, Engine, Traffic, Workload,
};

/// How many of the fastest samples the end-to-end host times average.
/// Other work on a shared host only ever adds time, in bursts lasting
/// seconds to minutes that slow runs by up to 2x; the fastest samples of
/// a phase are the ones it disturbed least, so their mean repeats
/// between processes better than the median does (see the README).
const FASTEST: usize = 5;

/// When the measured phase stops.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// After a fixed number of runs.
    Runs(usize),
    /// Once this much time has passed (at least one run).
    Time(Duration),
}

/// How much of each phase to run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Timed set-ups (the mean of the [`FASTEST`] is `setup_s`).
    pub setups: usize,
    /// Untimed warm-up before measuring.
    pub warmup: Duration,
    /// Length of the measured phase.
    pub measure: Budget,
    /// Whether to run the traced pass.
    pub traced: bool,
    /// Set-ups recorded with spans in the traced pass.
    pub traced_setups: usize,
    /// Runs recorded with spans in the traced pass.
    pub span_runs: usize,
    /// Requests each service tenant offers per drain.
    pub requests: u64,
}

impl Plan {
    /// A full set's child: fixed run counts, then the traced pass.
    pub fn full(w: Workload) -> Plan {
        Plan {
            setups: 50,
            warmup: Duration::from_secs(1),
            measure: Budget::Runs(w.measured_runs()),
            traced: true,
            traced_setups: 20,
            span_runs: if w == Workload::ServiceDag { 10 } else { 100 },
            requests: workloads::REQUESTS_PER_TENANT,
        }
    }

    /// A run that measures for a fixed time, traced or not.
    pub fn timed(w: Workload, seconds: f64, traced: bool) -> Plan {
        Plan {
            measure: Budget::Time(Duration::from_secs_f64(seconds)),
            traced,
            ..Plan::full(w)
        }
    }

    /// Every phase, three runs each, on short service streams: checks
    /// that everything works, measures nothing worth keeping.
    pub fn smoke(w: Workload) -> Plan {
        Plan {
            setups: 3,
            warmup: Duration::ZERO,
            measure: Budget::Runs(3),
            traced: true,
            traced_setups: 1,
            span_runs: if w == Workload::ServiceDag { 1 } else { 3 },
            requests: 40,
        }
    }
}

/// Counts runs and their failures. A run fails when it returns an
/// error, panics, or produces a wrong output.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn attempt<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => Some(v),
            Ok(Err(e)) => {
                self.failed += 1;
                eprintln!("benchmark: {what} failed: {e}");
                None
            }
            Err(_) => {
                self.failed += 1;
                eprintln!("benchmark: {what} panicked");
                None
            }
        }
    }
}

/// The machine a workload runs on, set up once.
struct Bench {
    compiled: Compiled,
    traffic: Option<Traffic>,
    /// Sequential firing count, which the relaxed engine must match.
    seq_firings: Option<u64>,
    tally: Tally,
}

impl Bench {
    /// One untraced run, timed from construction to the end of the run;
    /// the check that follows is not timed.
    fn timed_run(&mut self) -> Option<(f64, Counts)> {
        let (c, traffic, seq) = (&self.compiled, self.traffic.as_ref(), self.seq_firings);
        self.tally.attempt("run", || {
            let start = Instant::now();
            let raw = run(c, traffic, Engine::Own, None, &mut None)?;
            let secs = start.elapsed().as_secs_f64();
            Ok((secs, check(&raw, seq)?))
        })
    }

    fn traced_run(&mut self, engine: Engine, spans: &mut Spans) {
        let (c, traffic, seq) = (&self.compiled, self.traffic.as_ref(), self.seq_firings);
        spans.next_run();
        self.tally.attempt("traced run", || {
            let raw = run(c, traffic, engine, None, &mut Some(spans))?;
            check(&raw, seq).map(drop)
        });
    }
}

/// Runs workload `w` under `plan` and reports every metric. The spans
/// of the traced pass come back too, for export.
///
/// # Errors
///
/// A set-up failure (the sources do not compile); run failures are
/// counted in the report instead.
pub fn run_workload(w: Workload, seed: u64, plan: &Plan) -> Result<(Report, Spans), String> {
    let mut setup_secs = Vec::with_capacity(plan.setups);
    let timed_setup = |secs: &mut Vec<f64>| -> Result<Compiled, String> {
        let start = Instant::now();
        let c = setup(w, OptLevel::O2, &mut None)?;
        secs.push(start.elapsed().as_secs_f64());
        Ok(c)
    };
    let compiled = timed_setup(&mut setup_secs)?;
    let traffic = (w == Workload::ServiceDag)
        .then(|| Traffic::new(&compiled, seed, plan.requests))
        .transpose()?;
    let mut bench = Bench {
        compiled,
        traffic,
        seq_firings: None,
        tally: Tally::default(),
    };
    if w == Workload::RelaxedMatmul {
        let c = &bench.compiled;
        bench.seq_firings = bench.tally.attempt("sequential reference run", || {
            let raw = run(c, None, Engine::Sequential, None, &mut None)?;
            Ok(check(&raw, None)?.get("opt.firings") as u64)
        });
    }

    let warm = Instant::now();
    while warm.elapsed() < plan.warmup {
        bench.timed_run();
    }

    // The remaining set-ups are spread evenly over the measured phase, so
    // they sample the same host conditions as the runs rather than one
    // short window at start-up.
    let setups = plan.setups.max(1);
    let mut secs = Vec::new();
    let mut counts = None;
    let start = Instant::now();
    for attempt in 0.. {
        let progress = match plan.measure {
            Budget::Runs(n) => attempt as f64 / n.max(1) as f64,
            Budget::Time(_) if attempt == 0 => 0.0,
            Budget::Time(d) => start.elapsed().as_secs_f64() / d.as_secs_f64(),
        };
        if progress >= 1.0 {
            break;
        }
        if setup_secs.len() < setups && progress * setups as f64 >= setup_secs.len() as f64 {
            timed_setup(&mut setup_secs)?;
        }
        if let Some((s, n)) = bench.timed_run() {
            secs.push(s);
            counts.get_or_insert(n);
        }
    }
    while setup_secs.len() < setups {
        timed_setup(&mut setup_secs)?;
    }
    let rss = peak_rss_mb();
    let counts = counts.unwrap_or_default();

    let mut metrics = BTreeMap::new();
    let ms: Vec<f64> = secs.iter().map(|s| s * 1e3).collect();
    for (name, samples) in [("setup_s", &setup_secs), ("run_ms_best5", &ms)] {
        let m = Measured {
            value: mean_fastest(samples, FASTEST),
            quartiles: Some(quartiles(samples)),
            samples: samples.len() as u64,
        };
        metrics.insert(name.to_string(), m);
    }
    metrics.insert("peak_rss_mb".into(), Measured::single(rss));
    let mut layer = counts;
    let requests = w.requests_per_run(plan.requests) as f64;
    layer.push("opt.instrs", bench.compiled.instrs() as f64);
    layer.push("host.run_ms_p50", median(&ms));
    layer.push("host.run_ms_p90", percentile(&ms, 90.0));
    layer.push("host.run_ms_p99", percentile(&ms, 99.0));
    let run_s: f64 = secs.iter().sum();
    layer.push(
        "host.requests_per_s",
        ratio(requests * secs.len() as f64, run_s),
    );
    layer.push("host.samples", secs.len() as f64);

    let mut spans = Spans::default();
    if plan.traced {
        traced_pass(
            w,
            seed,
            plan,
            &mut bench,
            median(&secs),
            &mut layer,
            &mut spans,
        )?;
    }
    for d in METRICS {
        metrics
            .entry(d.name.to_string())
            .or_insert_with(|| Measured::single(layer.get(d.name)));
    }
    let report = Report {
        workload: w.name().to_string(),
        attempted: bench.tally.attempted,
        failed: bench.tally.failed,
        metrics,
    };
    Ok((report, spans))
}

/// The traced pass: span-recorded set-ups and runs for host time per
/// layer, one run with a counting sink for the token ledger, one O0
/// run for the optimizer's firing ratio, and for the service the
/// maximum rate within the latency limit.
fn traced_pass(
    w: Workload,
    seed: u64,
    plan: &Plan,
    bench: &mut Bench,
    untraced_p50_s: f64,
    layer: &mut Counts,
    spans: &mut Spans,
) -> Result<(), String> {
    for _ in 0..plan.traced_setups {
        spans.next_run();
        setup(w, OptLevel::O2, &mut Some(spans))?;
    }
    let (mut relaxed_cpu, mut relaxed_wall) = (0.0, 0.0);
    for _ in 0..plan.span_runs {
        let (cpu, start) = (process_cpu_s(), Instant::now());
        bench.traced_run(Engine::Own, spans);
        relaxed_cpu += process_cpu_s() - cpu;
        relaxed_wall += start.elapsed().as_secs_f64();
        if w == Workload::RelaxedMatmul {
            // Interleaved, so both engines see the same host conditions.
            bench.traced_run(Engine::Sequential, spans);
        }
    }

    // Layer times come from the workload's own runs (root span `run`);
    // the sequential reference runs of relaxed-matmul (root `seq`) feed
    // only its speed-up.
    let firings = layer.get("opt.firings");
    let med = |root: &str, names: &[&str]| median(&spans.self_times(root, names));
    let per_firing_ns =
        |names: &[&str]| ratio(median(&spans.per_run_self("run", names)), firings) * 1e9;
    let emu = ["emu.run", "emu.submit"];
    layer.push("idc.parse_s", med("setup", &["idc.parse"]));
    layer.push("idc.codegen_s", med("setup", &["idc.codegen"]));
    layer.push("opt.optimize_s", med("setup", &["opt.optimize"]));
    layer.push("opt.criticality_s", med("setup", &["opt.criticality"]));
    layer.push("emu.new_s", med("run", &["emu.new"]));
    layer.push("emu.run_s", med("run", &emu));
    let emu_ns = per_firing_ns(&emu);
    layer.push("emu.ns_per_firing", emu_ns);
    layer.push("emu.firings_per_s", ratio(1e9, emu_ns));
    if w == Workload::RelaxedMatmul {
        layer.push("relaxed.new_s", med("run", &["relaxed.new"]));
        layer.push("relaxed.run_s", med("run", &["relaxed.run"]));
        layer.push("relaxed.ns_per_firing", per_firing_ns(&["relaxed.run"]));
        layer.push("relaxed.cpu_per_wall", ratio(relaxed_cpu, relaxed_wall));
        let speedup = ratio(med("seq", &["emu.run"]), med("run", &["relaxed.run"]));
        layer.push("relaxed.speedup_vs_seq", speedup);
    }
    let timed_run_s = med("run", &["timed.run"]);
    layer.push("timed.new_s", med("run", &["timed.new"]));
    layer.push("timed.run_s", timed_run_s);
    let ns_per_cycle = ratio(timed_run_s, layer.get("timed.sim_cycles")) * 1e9;
    layer.push("timed.ns_per_cycle", ns_per_cycle);
    layer.push("service.burst_s", med("run", &["service.burst"]));
    layer.push("service.sched_s", med("run", &["serve"]));
    let overhead = ratio(median(&spans.durations("run")), untraced_p50_s);
    layer.push("trace.overhead", overhead);

    // The token ledger, from one run with a counting sink attached.
    let (c, traffic, seq) = (&bench.compiled, bench.traffic.as_ref(), bench.seq_firings);
    let ledger = bench.tally.attempt("counting run", || {
        let sink = shared(CountingSink::new());
        let start = Instant::now();
        let raw = run(c, traffic, Engine::Own, Some(sink.clone()), &mut None)?;
        let secs = start.elapsed().as_secs_f64();
        check(&raw, seq)?;
        let sink = sink.borrow();
        let s = sink
            .as_any()
            .downcast_ref::<CountingSink>()
            .expect("the sink attached is a CountingSink");
        if !s.token_conservation_holds() || !s.quiescent() {
            return Err(format!(
                "trace ledger: {} emitted, {} consumed, halt {:?}, {} deferred outstanding",
                s.tokens_emitted(),
                s.tokens_consumed(),
                s.in_flight_at_halt(),
                s.deferred_outstanding()
            ));
        }
        let m = s.metrics();
        let mean = |h: &str| m.histogram_stats(h).and_then(|h| h.mean()).unwrap_or(0.0);
        let tokens = s.tokens_consumed() as f64;
        let fires = m.counter_value("match_fire") as f64;
        Ok(vec![
            ("matching.tokens", tokens),
            ("matching.parks", m.counter_value("match_wait") as f64),
            ("matching.fires", fires),
            ("matching.fire_ratio", ratio(fires, tokens)),
            ("net.mean_queued_cycles", mean("packet_queued")),
            ("net.mean_latency_cycles", mean("packet_latency")),
            ("trace.sink_overhead", ratio(secs, untraced_p50_s)),
        ])
    });
    for (name, v) in ledger.unwrap_or_default() {
        layer.push(name, v);
    }

    // The optimizer's effect on work: the same workload compiled at O0.
    let o0 = setup(w, OptLevel::O0, &mut None)?;
    let o0_traffic = traffic
        .map(|_| Traffic::new(&o0, seed, plan.requests))
        .transpose()?;
    let o0_firings = bench.tally.attempt("O0 run", || {
        let raw = run(&o0, o0_traffic.as_ref(), Engine::Own, None, &mut None)?;
        Ok(check(&raw, None)?.get("opt.firings"))
    });
    if let Some(f0) = o0_firings.filter(|&f| f > 0.0) {
        layer.push("opt.firing_ratio", firings / f0);
    }

    if w == Workload::ServiceDag {
        let found = workloads::max_rate(c, seed, plan.requests);
        bench.tally.attempted += found.as_ref().map_or(1, |&(_, drains)| drains);
        match found {
            Ok((rate, _)) => layer.push("service.max_rate_per_ktick", rate),
            Err(e) => {
                bench.tally.failed += 1;
                eprintln!("benchmark: maximum-rate search failed: {e}");
            }
        }
    }
    Ok(())
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU time of this process, all threads, in seconds
/// (`/proc/self/stat`, 100 ticks per second).
fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_plan_runs_every_workload_without_failures() {
        for w in Workload::ALL {
            let (report, spans) = run_workload(w, 1, &Plan::smoke(w)).expect("sets up");
            assert_eq!(report.failed, 0, "{}", report.render());
            assert!(report.attempted >= 3);
            for d in METRICS {
                assert!(
                    report.metrics.contains_key(d.name),
                    "{} lacks {}",
                    w.name(),
                    d.name
                );
            }
            for name in [
                "setup_s",
                "run_ms_best5",
                "peak_rss_mb",
                "host.run_ms_p50",
                "host.requests_per_s",
            ] {
                assert!(report.value(name) > 0.0, "{}: {name} is 0", w.name());
            }
            assert!(report.value("opt.firings") > 0.0);
            assert!(report.value("trace.overhead") > 0.0);
            assert!(spans.spans().iter().any(|s| s.name == "idc.parse"));
            match w {
                Workload::TimedFib => {
                    assert!(report.value("timed.sim_cycles") > 0.0);
                    assert_eq!(report.value("istore.writes"), 0.0);
                }
                Workload::ServiceDag => {
                    assert!(report.value("service.max_rate_per_ktick") > 0.0);
                    assert!(report.value("service.latency_p99_ticks") > 0.0);
                }
                Workload::EmuMatmul => assert!(report.value("istore.reads_deferred") > 0.0),
                Workload::RelaxedMatmul => assert!(report.value("relaxed.speedup_vs_seq") > 0.0),
            }
        }
    }

    #[test]
    fn counts_repeat_exactly_for_a_seed() {
        let plan = Plan {
            traced: false,
            ..Plan::smoke(Workload::ServiceDag)
        };
        let a = run_workload(Workload::ServiceDag, 7, &plan).unwrap().0;
        let b = run_workload(Workload::ServiceDag, 7, &plan).unwrap().0;
        for name in [
            "service.latency_p99_ticks",
            "service.bursts",
            "opt.firings",
            "emu.waves",
        ] {
            assert_eq!(a.value(name), b.value(name), "{name}");
        }
    }

    #[test]
    fn proc_readers_find_their_fields() {
        assert!(peak_rss_mb() > 0.0);
        let spin = Instant::now();
        while spin.elapsed() < Duration::from_millis(30) {}
        assert!(process_cpu_s() > 0.0);
    }
}
