//! The `experiments` binary: regenerates any experiment table from
//! `EXPERIMENTS.md`, or records an execution trace.
//!
//! ```text
//! cargo run --release -p ttda-bench --bin experiments -- all
//! cargo run --release -p ttda-bench --bin experiments -- e7 e12
//! cargo run --release -p ttda-bench --bin experiments -- trace producer-consumer
//! cargo run --release -p ttda-bench --bin experiments -- trace all --out target/traces
//! cargo run --release -p ttda-bench --bin experiments -- all --normalize
//! cargo run --release -p ttda-bench --bin experiments -- quickbench --check BENCH.json
//! cargo run --release -p ttda-bench --bin experiments -- quickbench --suites opt,sched --check BENCH.json --rebaseline
//! cargo run --release -p ttda-bench --bin experiments -- opt --out target/opt
//! cargo run --release -p ttda-bench --bin experiments -- serve --load 1.5 --requests 64
//! cargo run --release -p ttda-bench --bin experiments -- fuzz --seed 1 --iters 500
//! cargo run --release -p ttda-bench --bin experiments -- fuzz --budget-ms 60000 --out target/fuzz-divergence.txt
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use ttda_bench::quickbench::Timer;
use ttda_bench::report::{self, Report, Section};
use ttda_bench::suites::{Suite, SUITES};
use ttda_bench::tracecmd::{run_trace, TRACE_SCENARIOS};
use ttda_bench::{run_experiment, EXPERIMENT_IDS};

fn usage() -> ExitCode {
    eprintln!(
        "usage: experiments <id>... | all [--normalize]\n       ids: {}\n\
         \n       experiments trace <scenario>... | all [--out DIR]\n       scenarios: {}\n\
         \n       experiments quickbench [--suites S,T] [--out FILE] [--check BASELINE [--rebaseline]]\n       suites: {}\n\
         \n       experiments opt [--out DIR] [--workloads W,X]\n\
         \n       experiments serve [--load L] [--requests N] [--seed S] [--quota Q] [--high-water H]\n\
         \n       experiments fuzz [--seed S] [--iters N] [--budget-ms MS] [--families F,G] [--out FILE]\n\
         \n       --normalize: replace host-dependent numbers with placeholders (stable output)",
        EXPERIMENT_IDS.join(", "),
        TRACE_SCENARIOS.join(", "),
        SUITES.iter().map(|s| s.name).collect::<Vec<_>>().join(", ")
    );
    ExitCode::FAILURE
}

/// `quickbench`: runs the selected suites (all of [`SUITES`] by
/// default) — every comparison first, in a still-cold process, then
/// every suite's timed targets — and writes one report to `--out`
/// (default `target/BENCH.json`). With `--check BASELINE` it gates the
/// run against the baseline (>25% median ns/op growth on any shared
/// target, or a same-run headline ratio moving the wrong way beyond the
/// same factor, fails the run); with `--rebaseline` as well it replaces
/// the baseline's sections of the suites that ran instead.
fn quickbench_main(args: &[String]) -> ExitCode {
    let fail = |msg: String| {
        eprintln!("error: {msg}");
        ExitCode::FAILURE
    };
    let mut out = PathBuf::from("target/BENCH.json");
    let mut check: Option<PathBuf> = None;
    let mut rebaseline = false;
    let mut names: Vec<&str> = SUITES.iter().map(|s| s.name).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--rebaseline" {
            rebaseline = true;
            continue;
        }
        let Some(v) = it.next() else { return usage() };
        match a.as_str() {
            "--out" => out = PathBuf::from(v),
            "--check" => check = Some(PathBuf::from(v)),
            "--suites" => names = v.split(',').collect(),
            _ => return usage(),
        }
    }
    // Validate everything before any suite runs or any file is touched.
    let mut selected: Vec<&Suite> = Vec::new();
    for name in names {
        match SUITES.iter().find(|s| s.name == name) {
            Some(s) if !selected.iter().any(|t| t.name == name) => selected.push(s),
            Some(_) => return fail(format!("suite `{name}` is listed twice")),
            None => {
                let known: Vec<&str> = SUITES.iter().map(|s| s.name).collect();
                return fail(format!("unknown suite `{name}` ({})", known.join(", ")));
            }
        }
    }
    let mut timer = match Timer::from_env() {
        Ok(timer) => timer,
        Err(e) => return fail(e),
    };
    let baseline = match &check {
        None if rebaseline => return fail("--rebaseline needs --check BASELINE".into()),
        None => None,
        Some(path) => {
            let same = matches!(
                (std::fs::canonicalize(&out), std::fs::canonicalize(path)),
                (Ok(o), Ok(p)) if o == p
            );
            if same && !rebaseline {
                return fail(format!(
                    "--out {} would overwrite the --check baseline; write the run elsewhere",
                    out.display()
                ));
            }
            let json = match std::fs::read_to_string(path) {
                Ok(json) => json,
                Err(e) => return fail(format!("cannot read baseline {}: {e}", path.display())),
            };
            match Report::parse(&json) {
                Ok(b) => Some((path, b)),
                Err(e) => return fail(format!("baseline {} is malformed: {e}", path.display())),
            }
        }
    };
    let mut report = Report::default();
    for suite in &selected {
        let section = match suite.compare {
            Some(compare) => {
                println!("-- compare: {}", suite.name);
                let s = compare();
                let metrics: Vec<String> = s
                    .metrics
                    .iter()
                    .map(|(k, v)| format!("{k} {v:.0}"))
                    .collect();
                println!("{}", metrics.join("   "));
                if let (Some(h), Some(r)) = (&s.headline, s.ratio()) {
                    println!("headline {} / {} = {r:.4}", h.num, h.den);
                }
                s
            }
            None => Section::default(),
        };
        report.sections.push((suite.name.to_string(), section));
    }
    for (suite, (_, section)) in selected.iter().zip(&mut report.sections) {
        println!("-- suite: {}", suite.name);
        (suite.targets)(&mut timer);
        section.targets = std::mem::take(&mut timer.stats);
    }
    let json = report.to_json();
    // Re-read what we are about to write: a report must be well-formed
    // by our own reader before it can become a baseline.
    let current = match Report::parse(&json) {
        Ok(r) => r,
        Err(e) => return fail(format!("generated report is malformed: {e}")),
    };
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            return fail(format!("cannot create {}: {e}", dir.display()));
        }
    }
    if let Err(e) = std::fs::write(&out, &json) {
        return fail(format!("cannot write {}: {e}", out.display()));
    }
    println!("wrote {}", out.display());
    let Some((path, mut base)) = baseline else {
        return ExitCode::SUCCESS;
    };
    if rebaseline {
        for (name, section) in current.sections {
            base.set(&name, section);
        }
        if let Err(e) = std::fs::write(path, base.to_json()) {
            return fail(format!("cannot rebaseline {}: {e}", path.display()));
        }
        println!("rebaselined {}", path.display());
        return ExitCode::SUCCESS;
    }
    match report::check(&current, &base, 0.25) {
        Ok(lines) => {
            println!("-- vs baseline {}", path.display());
            for l in lines {
                println!("   {l}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => fail(format!("benchmark regression\n{e}")),
    }
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
