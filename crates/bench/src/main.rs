//! The `experiments` binary: regenerates any experiment table from
//! `EXPERIMENTS.md`, or records an execution trace.
//!
//! ```text
//! cargo run --release -p ttda-bench --bin experiments -- all
//! cargo run --release -p ttda-bench --bin experiments -- e7 e12
//! cargo run --release -p ttda-bench --bin experiments -- trace producer-consumer
//! cargo run --release -p ttda-bench --bin experiments -- trace all --out target/traces
//! cargo run --release -p ttda-bench --bin experiments -- all --normalize
//! cargo run --release -p ttda-bench --bin experiments -- quickbench --out BENCH_matching.json
//! cargo run --release -p ttda-bench --bin experiments -- quickbench --check BENCH_matching.json --istore-check BENCH_istore.json --service-check BENCH_service.json --par-check BENCH_par.json --opt-check BENCH_opt.json --sched-check BENCH_sched.json
//! cargo run --release -p ttda-bench --bin experiments -- opt --out target/opt
//! cargo run --release -p ttda-bench --bin experiments -- quickbench --check BENCH_matching.json --rebaseline
//! cargo run --release -p ttda-bench --bin experiments -- serve --load 1.5 --requests 64
//! cargo run --release -p ttda-bench --bin experiments -- fuzz --seed 1 --iters 500
//! cargo run --release -p ttda-bench --bin experiments -- fuzz --budget-ms 60000 --out target/fuzz-divergence.txt
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use ttda_bench::quickbench::Criterion;
use ttda_bench::report::{
    check_istore_regression, check_opt_regression, check_par_regression, check_regression,
    check_sched_regression, check_service_regression, BenchReport, IStoreReport, OptReport,
    ParReport, SchedReport, ServiceReport,
};
use ttda_bench::tracecmd::{run_trace, TRACE_SCENARIOS};
use ttda_bench::{run_experiment, suites, EXPERIMENT_IDS};

fn usage() -> ExitCode {
    eprintln!(
        "usage: experiments <id>... | all [--normalize]\n       ids: {}\n\
         \n       experiments trace <scenario>... | all [--out DIR]\n       scenarios: {}\n\
         \n       experiments quickbench [--suites matching,istore,service,par,opt,sched,endtoend] [--out FILE] [--check BASELINE]\n\
         \n                              [--istore-out FILE] [--istore-check BASELINE]\n\
         \n                              [--service-out FILE] [--service-check BASELINE]\n\
         \n                              [--par-out FILE] [--par-check BASELINE]\n\
         \n                              [--opt-out FILE] [--opt-check BASELINE] [--rebaseline]\n\
         \n                              [--sched-out FILE] [--sched-check BASELINE]\n\
         \n       experiments opt [--out DIR] [--workloads W,X]\n\
         \n       experiments serve [--load L] [--requests N] [--seed S] [--quota Q] [--high-water H]\n\
         \n       experiments fuzz [--seed S] [--iters N] [--budget-ms MS] [--families F,G] [--out FILE]\n\
         \n       --normalize: replace host-dependent numbers with placeholders (stable output)",
        EXPERIMENT_IDS.join(", "),
        TRACE_SCENARIOS.join(", ")
    );
    ExitCode::FAILURE
}

/// Reads a baseline report file and parses it with `parse`, mapping both
/// failure modes onto a printed error.
fn load_baseline<P>(
    path: &PathBuf,
    parse: impl FnOnce(&str) -> Result<P, String>,
) -> Result<P, ExitCode> {
    let json = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("error: cannot read baseline {}: {e}", path.display());
        ExitCode::FAILURE
    })?;
    parse(&json).map_err(|e| {
        eprintln!("error: baseline {} is malformed: {e}", path.display());
        ExitCode::FAILURE
    })
}

/// `quickbench`: runs the named suites through the quickbench harness,
/// writes the machine-readable `BENCH_matching.json` and (when the
/// `istore` / `service` / `par` / `opt` / `sched` suites run)
/// `BENCH_istore.json` / `BENCH_service.json` / `BENCH_par.json` /
/// `BENCH_opt.json` / `BENCH_sched.json` reports, and — with `--check`
/// / `--istore-check` / `--service-check` / `--par-check` /
/// `--opt-check` / `--sched-check` — gates against baseline reports
/// (>25% median ns/op growth on any shared target, or the same-run
/// headline ratio moving the wrong way beyond the same factor, fails
/// the run). `--rebaseline` rewrites each given baseline from the
/// current run instead of gating against it.
fn quickbench_main(args: &[String]) -> ExitCode {
    let mut out = PathBuf::from("BENCH_matching.json");
    let mut istore_out = PathBuf::from("BENCH_istore.json");
    let mut service_out = PathBuf::from("BENCH_service.json");
    let mut par_out = PathBuf::from("BENCH_par.json");
    let mut opt_out = PathBuf::from("BENCH_opt.json");
    let mut sched_out = PathBuf::from("BENCH_sched.json");
    let mut check: Option<PathBuf> = None;
    let mut istore_check: Option<PathBuf> = None;
    let mut service_check: Option<PathBuf> = None;
    let mut par_check: Option<PathBuf> = None;
    let mut opt_check: Option<PathBuf> = None;
    let mut sched_check: Option<PathBuf> = None;
    let mut rebaseline = false;
    let mut which = vec![
        "matching".to_string(),
        "istore".to_string(),
        "service".to_string(),
        "par".to_string(),
        "opt".to_string(),
        "sched".to_string(),
        "endtoend".to_string(),
    ];
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => match it.next() {
                Some(p) => out = PathBuf::from(p),
                None => return usage(),
            },
            "--istore-out" => match it.next() {
                Some(p) => istore_out = PathBuf::from(p),
                None => return usage(),
            },
            "--service-out" => match it.next() {
                Some(p) => service_out = PathBuf::from(p),
                None => return usage(),
            },
            "--par-out" => match it.next() {
                Some(p) => par_out = PathBuf::from(p),
                None => return usage(),
            },
            "--check" => match it.next() {
                Some(p) => check = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--istore-check" => match it.next() {
                Some(p) => istore_check = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--service-check" => match it.next() {
                Some(p) => service_check = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--par-check" => match it.next() {
                Some(p) => par_check = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--opt-out" => match it.next() {
                Some(p) => opt_out = PathBuf::from(p),
                None => return usage(),
            },
            "--opt-check" => match it.next() {
                Some(p) => opt_check = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--sched-out" => match it.next() {
                Some(p) => sched_out = PathBuf::from(p),
                None => return usage(),
            },
            "--sched-check" => match it.next() {
                Some(p) => sched_check = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--rebaseline" => rebaseline = true,
            "--suites" => match it.next() {
                Some(list) => which = list.split(',').map(str::to_string).collect(),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let run_matching = which.iter().any(|s| s == "matching" || s == "endtoend");
    let run_istore = which.iter().any(|s| s == "istore");
    let run_service = which.iter().any(|s| s == "service");
    let run_par = which.iter().any(|s| s == "par");
    let run_opt = which.iter().any(|s| s == "opt");
    let run_sched = which.iter().any(|s| s == "sched");
    // The throughput comparisons run first, in a still-cold process —
    // the state every real emulator run starts from. Window 32768: a
    // saturated matching section holds tens of thousands of parked
    // activities (E13 ties occupancy to exposed parallelism), and that
    // is the regime the specialized store exists for.
    let throughput = run_matching.then(|| {
        println!("-- matching-saturating throughput (E17 kernel)");
        let t = suites::matching_throughput(200_000, 32_768, 7);
        println!(
            "hashmap {:>12.0} tokens/s   packed {:>12.0} tokens/s   speedup {:.2}x",
            t.hashmap_tokens_per_sec,
            t.packed_tokens_per_sec,
            t.speedup()
        );
        t
    });
    // Same idea for the I-structure store: all-deferred traffic is the
    // regime the packed engine exists for (E18 sweeps the ratio). 4096
    // cells × 8 readers matches E18's sweep scale: large enough to
    // exercise the node arena, small enough that the working set (not
    // the memory wall) is what's being compared.
    let istore_throughput = run_istore.then(|| {
        println!("-- heavy-defer i-structure throughput (E18 kernel)");
        let t = suites::istore_throughput(4096, 8, 31);
        println!(
            "enum    {:>12.0} ops/s      packed {:>12.0} ops/s      speedup {:.2}x",
            t.enum_ops_per_sec,
            t.packed_ops_per_sec,
            t.speedup()
        );
        t
    });
    // The service comparison: one offered load drained one-request-per-
    // burst vs quota-batched. 32 requests per tenant keeps the cold-
    // process measurement in whole milliseconds without dominating the
    // quickbench run.
    let service_throughput = run_service.then(|| {
        println!("-- serial-vs-batched service throughput (E20 scheduler)");
        let t = suites::service_throughput(32, 5);
        println!(
            "serial  {:>12.0} reqs/s     batched {:>11.0} reqs/s     speedup {:.2}x",
            t.serial_requests_per_sec,
            t.batched_requests_per_sec,
            t.speedup()
        );
        t
    });
    // The parallel-backend comparison: sequential vs relaxed at 1/2/4
    // workers on one workload, same process. The gated number is the
    // 1-worker overhead *ratio*, immune to host drift.
    let par_throughput = run_par.then(|| {
        println!("-- sequential-vs-parallel backend throughput (E21 kernel)");
        let t = suites::par_throughput(5);
        println!(
            "seq {:>10.0} firings/s   relaxed1 {:>10.0}   relaxed2 {:>10.0}   relaxed4 {:>10.0}",
            t.seq_firings_per_sec,
            t.relaxed1_firings_per_sec,
            t.relaxed2_firings_per_sec,
            t.relaxed4_firings_per_sec,
        );
        println!(
            "relaxed 1-worker overhead ratio {:.2}",
            t.relaxed_ratio_1w()
        );
        t
    });
    // The optimizer comparison: total instruction firings across the
    // workload set at O0 vs O2 — deterministic counts, so the gated
    // ratio is noise-free by construction.
    let opt_throughput = run_opt.then(|| {
        println!("-- O0-vs-O2 firing counts (E22 kernel)");
        let t = suites::opt_throughput();
        println!(
            "O0 {:>10} firings / {:>5} instrs   O2 {:>10} firings / {:>5} instrs",
            t.firings_o0, t.instrs_o0, t.firings_o2, t.instrs_o2
        );
        println!(
            "firing ratio {:.4}   static ratio {:.4}",
            t.firing_ratio(),
            t.static_ratio()
        );
        t
    });
    // The scheduling comparison: total timed-machine makespan across
    // the workload set under criticality-aware vs FIFO token order —
    // deterministic cycle counts, so the gated ratio is noise-free.
    let sched_throughput = run_sched.then(|| {
        println!("-- fifo-vs-crit timed makespans (E23 kernel)");
        let t = suites::sched_throughput();
        println!(
            "fifo {:>10} cycles   crit {:>10} cycles   makespan ratio {:.4}",
            t.fifo_cycles,
            t.crit_cycles,
            t.makespan_ratio()
        );
        t
    });
    let mut c = Criterion::default();
    let mut ic = Criterion::default();
    let mut sc = Criterion::default();
    let mut pc = Criterion::default();
    let mut oc = Criterion::default();
    let mut shc = Criterion::default();
    for suite in &which {
        println!("-- suite: {suite}");
        match suite.as_str() {
            "matching" => suites::matching(&mut c),
            "istore" => suites::istore(&mut ic),
            "service" => suites::service(&mut sc),
            "par" => suites::par(&mut pc),
            "opt" => suites::opt(&mut oc),
            "sched" => suites::sched(&mut shc),
            "endtoend" => suites::endtoend(&mut c),
            other => {
                eprintln!(
                    "error: unknown suite `{other}` (matching, istore, service, par, opt, sched, endtoend)"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    // Re-parse what we are about to write: each report must be
    // well-formed by our own reader before it can become a baseline.
    let current = match throughput {
        Some(throughput) => {
            let report = BenchReport {
                targets: c.into_stats(),
                throughput,
            };
            let json = report.to_json();
            let parsed = match BenchReport::parse(&json) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("error: generated report is malformed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = std::fs::write(&out, &json) {
                eprintln!("error: cannot write {}: {e}", out.display());
                return ExitCode::FAILURE;
            }
            println!("wrote {}", out.display());
            Some((parsed, json))
        }
        None => None,
    };
    let istore_current = match istore_throughput {
        Some(throughput) => {
            let report = IStoreReport {
                targets: ic.into_stats(),
                throughput,
            };
            let json = report.to_json();
            let parsed = match IStoreReport::parse(&json) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("error: generated istore report is malformed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = std::fs::write(&istore_out, &json) {
                eprintln!("error: cannot write {}: {e}", istore_out.display());
                return ExitCode::FAILURE;
            }
            println!("wrote {}", istore_out.display());
            Some((parsed, json))
        }
        None => None,
    };
    let service_current = match service_throughput {
        Some(throughput) => {
            let report = ServiceReport {
                targets: sc.into_stats(),
                throughput,
            };
            let json = report.to_json();
            let parsed = match ServiceReport::parse(&json) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("error: generated service report is malformed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = std::fs::write(&service_out, &json) {
                eprintln!("error: cannot write {}: {e}", service_out.display());
                return ExitCode::FAILURE;
            }
            println!("wrote {}", service_out.display());
            Some((parsed, json))
        }
        None => None,
    };
    let par_current = match par_throughput {
        Some(throughput) => {
            let report = ParReport {
                targets: pc.into_stats(),
                throughput,
            };
            let json = report.to_json();
            let parsed = match ParReport::parse(&json) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("error: generated par report is malformed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = std::fs::write(&par_out, &json) {
                eprintln!("error: cannot write {}: {e}", par_out.display());
                return ExitCode::FAILURE;
            }
            println!("wrote {}", par_out.display());
            Some((parsed, json))
        }
        None => None,
    };
    let opt_current = match opt_throughput {
        Some(throughput) => {
            let report = OptReport {
                targets: oc.into_stats(),
                throughput,
            };
            let json = report.to_json();
            let parsed = match OptReport::parse(&json) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("error: generated opt report is malformed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = std::fs::write(&opt_out, &json) {
                eprintln!("error: cannot write {}: {e}", opt_out.display());
                return ExitCode::FAILURE;
            }
            println!("wrote {}", opt_out.display());
            Some((parsed, json))
        }
        None => None,
    };
    let sched_current = match sched_throughput {
        Some(throughput) => {
            let report = SchedReport {
                targets: shc.into_stats(),
                throughput,
            };
            let json = report.to_json();
            let parsed = match SchedReport::parse(&json) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("error: generated sched report is malformed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = std::fs::write(&sched_out, &json) {
                eprintln!("error: cannot write {}: {e}", sched_out.display());
                return ExitCode::FAILURE;
            }
            println!("wrote {}", sched_out.display());
            Some((parsed, json))
        }
        None => None,
    };
    // `--rebaseline`: rewrite each given baseline from this run and
    // skip its gate — the escape hatch when an intentional change (or a
    // permanent host change) moves a same-run ratio past tolerance.
    let rebaseline_to = |path: &PathBuf, json: &str| -> Result<(), ExitCode> {
        std::fs::write(path, json).map_err(|e| {
            eprintln!("error: cannot rebaseline {}: {e}", path.display());
            ExitCode::FAILURE
        })?;
        println!("rebaselined {}", path.display());
        Ok(())
    };
    if let Some(base_path) = check {
        let Some((current, cur_json)) = current else {
            eprintln!("error: --check given but neither the matching nor endtoend suite ran");
            return ExitCode::FAILURE;
        };
        if rebaseline {
            if let Err(code) = rebaseline_to(&base_path, &cur_json) {
                return code;
            }
        } else {
            let baseline = match load_baseline(&base_path, BenchReport::parse) {
                Ok(b) => b,
                Err(code) => return code,
            };
            match check_regression(&current, &baseline, 0.25) {
                Ok(lines) => {
                    println!("-- vs baseline {}", base_path.display());
                    for l in lines {
                        println!("   {l}");
                    }
                }
                Err(e) => {
                    eprintln!("error: benchmark regression\n{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if let Some(base_path) = istore_check {
        let Some((current, cur_json)) = istore_current else {
            eprintln!("error: --istore-check given but the istore suite was not selected");
            return ExitCode::FAILURE;
        };
        if rebaseline {
            if let Err(code) = rebaseline_to(&base_path, &cur_json) {
                return code;
            }
        } else {
            let baseline = match load_baseline(&base_path, IStoreReport::parse) {
                Ok(b) => b,
                Err(code) => return code,
            };
            match check_istore_regression(&current, &baseline, 0.25) {
                Ok(lines) => {
                    println!("-- vs baseline {}", base_path.display());
                    for l in lines {
                        println!("   {l}");
                    }
                }
                Err(e) => {
                    eprintln!("error: istore benchmark regression\n{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if let Some(base_path) = service_check {
        let Some((current, cur_json)) = service_current else {
            eprintln!("error: --service-check given but the service suite was not selected");
            return ExitCode::FAILURE;
        };
        if rebaseline {
            if let Err(code) = rebaseline_to(&base_path, &cur_json) {
                return code;
            }
        } else {
            let baseline = match load_baseline(&base_path, ServiceReport::parse) {
                Ok(b) => b,
                Err(code) => return code,
            };
            match check_service_regression(&current, &baseline, 0.25) {
                Ok(lines) => {
                    println!("-- vs baseline {}", base_path.display());
                    for l in lines {
                        println!("   {l}");
                    }
                }
                Err(e) => {
                    eprintln!("error: service benchmark regression\n{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if let Some(base_path) = par_check {
        let Some((current, cur_json)) = par_current else {
            eprintln!("error: --par-check given but the par suite was not selected");
            return ExitCode::FAILURE;
        };
        if rebaseline {
            if let Err(code) = rebaseline_to(&base_path, &cur_json) {
                return code;
            }
        } else {
            let baseline = match load_baseline(&base_path, ParReport::parse) {
                Ok(b) => b,
                Err(code) => return code,
            };
            match check_par_regression(&current, &baseline, 0.25) {
                Ok(lines) => {
                    println!("-- vs baseline {}", base_path.display());
                    for l in lines {
                        println!("   {l}");
                    }
                }
                Err(e) => {
                    eprintln!("error: par benchmark regression\n{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if let Some(base_path) = opt_check {
        let Some((current, cur_json)) = opt_current else {
            eprintln!("error: --opt-check given but the opt suite was not selected");
            return ExitCode::FAILURE;
        };
        if rebaseline {
            if let Err(code) = rebaseline_to(&base_path, &cur_json) {
                return code;
            }
        } else {
            let baseline = match load_baseline(&base_path, OptReport::parse) {
                Ok(b) => b,
                Err(code) => return code,
            };
            match check_opt_regression(&current, &baseline, 0.25) {
                Ok(lines) => {
                    println!("-- vs baseline {}", base_path.display());
                    for l in lines {
                        println!("   {l}");
                    }
                }
                Err(e) => {
                    eprintln!("error: opt benchmark regression\n{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if let Some(base_path) = sched_check {
        let Some((current, cur_json)) = sched_current else {
            eprintln!("error: --sched-check given but the sched suite was not selected");
            return ExitCode::FAILURE;
        };
        if rebaseline {
            if let Err(code) = rebaseline_to(&base_path, &cur_json) {
                return code;
            }
        } else {
            let baseline = match load_baseline(&base_path, SchedReport::parse) {
                Ok(b) => b,
                Err(code) => return code,
            };
            match check_sched_regression(&current, &baseline, 0.25) {
                Ok(lines) => {
                    println!("-- vs baseline {}", base_path.display());
                    for l in lines {
                        println!("   {l}");
                    }
                }
                Err(e) => {
                    eprintln!("error: sched benchmark regression\n{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}

fn trace_main(args: &[String]) -> ExitCode {
    let mut out_dir = PathBuf::from("target/traces");
    let mut names: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--out" {
            match it.next() {
                Some(d) => out_dir = PathBuf::from(d),
                None => return usage(),
            }
        } else {
            names.push(a);
        }
    }
    if names.is_empty() {
        return usage();
    }
    let names: Vec<&str> = if names.contains(&"all") {
        TRACE_SCENARIOS.to_vec()
    } else {
        names
    };
    for name in names {
        match run_trace(name, &out_dir) {
            Ok(report) => print!("{report}"),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    while let Some(pos) = args.iter().position(|a| a == "--normalize") {
        ttda_bench::set_normalize(true);
        args.remove(pos);
    }
    if args.is_empty() || args.iter().any(|a| a == "-h" || a == "--help") {
        return usage();
    }
    if args[0] == "trace" {
        return trace_main(&args[1..]);
    }
    if args[0] == "quickbench" {
        return quickbench_main(&args[1..]);
    }
    if args[0] == "serve" {
        return ttda_bench::servecmd::serve_main(&args[1..]);
    }
    if args[0] == "fuzz" {
        return ttda_bench::fuzzcmd::fuzz_main(&args[1..]);
    }
    if args[0] == "opt" {
        return ttda_bench::optcmd::opt_main(&args[1..]);
    }
    let ids: Vec<&str> = if args.iter().any(|a| a == "all") {
        EXPERIMENT_IDS.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    for id in ids {
        match run_experiment(id) {
            Ok(report) => print!("{report}"),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
