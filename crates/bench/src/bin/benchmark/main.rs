//! The repository benchmark: both prongs of the paper's Fig 3-1 testbed
//! (the `Emulator` and the `TimedMachine` on a hypercube) plus the
//! service mode, measured end to end with tracing off and explained
//! layer by layer from spans recorded around each call into a layer.
//! See `README.md` in this directory for the workloads, the metrics and
//! what each one should move.
//!
//! ```text
//! benchmark [--seed N] [--out DIR] [--smoke]
//! benchmark --workload W --seed N --seconds S --trace 0|1
//! benchmark --compare A1/results.json A2/results.json ... --vs B1/results.json ...
//! ```

mod json;
mod metrics;
mod phases;
mod spans;
mod stats;
mod workloads;

use std::iter::Peekable;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::slice::Iter;

use metrics::{compare, Report, Results, MIN_SETS};
use phases::{run_workload, Plan};
use workloads::Workload;

const USAGE: &str = "\
usage:
  benchmark [--seed N] [--out DIR] [--smoke]
      run all four workloads, each in its own child process, print every
      metric and write DIR/results.json (default DIR: target/benchmark/seed-N)
  benchmark --workload W --seed N --seconds S --trace 0|1
      run one workload in this process, measuring for S seconds; the last
      output line is a JSON result with the end-to-end metrics (--trace 0)
      or the per-layer ones (--trace 1)
  benchmark --compare A1/results.json [A2/results.json ...] --vs B1/results.json [...]
  benchmark --compare A/results.json B/results.json
      judge sets B against baseline sets A per workload and metric, on
      medians over sets; a host-timed metric needs 3 sets a side and a
      spread between them within its bound, or it is unresolved; exits 1
      if anything is worse than its bound
workloads: emu-matmul, relaxed-matmul, timed-fib, service-dag";

/// Environment variables that would otherwise change engine defaults;
/// every knob is pinned in code, and children run without them too.
const ENGINE_ENV: [&str; 3] = ["TTDA_THREADS", "TTDA_RELAXED", "TTDA_SCHED"];

/// What the command line asked for.
#[derive(Debug, PartialEq)]
enum Mode {
    /// All workloads, one child process each.
    Set {
        seed: u64,
        out: PathBuf,
        smoke: bool,
    },
    /// One workload of a set, in this process (what `Set` spawns).
    Child {
        workload: Workload,
        seed: u64,
        out: Option<PathBuf>,
        smoke: bool,
    },
    /// One workload for a fixed time.
    Timed {
        workload: Workload,
        seed: u64,
        seconds: f64,
        per_layer: bool,
    },
    /// Baseline sets against changed sets.
    Compare(Vec<PathBuf>, Vec<PathBuf>),
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut seed = 1u64;
    let mut out = None;
    let mut smoke = false;
    let mut workload = None;
    let mut child = None;
    let mut seconds = None;
    let mut trace = None;
    let mut compared: Option<Vec<PathBuf>> = None;
    let mut against: Option<Vec<PathBuf>> = None;
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let workload_of =
            |name: &str| Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"));
        match flag.as_str() {
            "--seed" => {
                seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer")?
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            "--smoke" => smoke = true,
            "--workload" => workload = Some(workload_of(value()?)?),
            "--child" => child = Some(workload_of(value()?)?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--compare" => compared = Some(paths(&mut it, flag)?),
            "--vs" => against = Some(paths(&mut it, flag)?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    // Without `--vs`, two files are one set a side.
    let compared = match (compared, against) {
        (Some(a), Some(b)) => Some((a, b)),
        (Some(mut a), None) if a.len() == 2 => {
            let b = a.split_off(1);
            Some((a, b))
        }
        (None, None) => None,
        _ => return Err("--compare needs two files, or sets on both sides of --vs".into()),
    };
    let mode = match (compared, workload, child) {
        (Some((a, b)), None, None) => Mode::Compare(a, b),
        (None, Some(workload), None) if !smoke && out.is_none() => Mode::Timed {
            workload,
            seed,
            seconds: seconds.ok_or("--workload needs --seconds")?,
            per_layer: trace.ok_or("--workload needs --trace")?,
        },
        (None, None, Some(workload)) => Mode::Child {
            workload,
            seed,
            out,
            smoke,
        },
        (None, None, None) => Mode::Set {
            seed,
            out: out.unwrap_or_else(|| PathBuf::from(format!("target/benchmark/seed-{seed}"))),
            smoke,
        },
        _ => return Err("conflicting modes".into()),
    };
    if seconds.is_some() != matches!(mode, Mode::Timed { .. })
        || (trace.is_some() && seconds.is_none())
    {
        return Err("--seconds and --trace go with --workload".into());
    }
    Ok(mode)
}

/// The paths following `flag`, up to the next flag: at least one.
fn paths(it: &mut Peekable<Iter<'_, String>>, flag: &str) -> Result<Vec<PathBuf>, String> {
    let list: Vec<PathBuf> = std::iter::from_fn(|| it.next_if(|a| !a.starts_with("--")))
        .map(PathBuf::from)
        .collect();
    if list.is_empty() {
        return Err(format!("{flag} needs at least one results.json"));
    }
    Ok(list)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_args(&args) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match mode {
        Mode::Set { seed, out, smoke } => run_set(seed, &out, smoke),
        Mode::Child {
            workload,
            seed,
            out,
            smoke,
        } => {
            let plan = if smoke {
                Plan::smoke(workload)
            } else {
                Plan::full(workload)
            };
            run_one(workload, seed, &plan, out.as_deref(), |r| {
                r.to_json().to_string()
            })
        }
        Mode::Timed {
            workload,
            seed,
            seconds,
            per_layer,
        } => {
            let plan = Plan::timed(workload, seconds, per_layer);
            run_one(workload, seed, &plan, None, |r| r.result_line(per_layer))
        }
        Mode::Compare(a, b) => run_compare(&a, &b),
    }
}

/// Runs one workload in this process: every metric by name and unit,
/// then `last_line` of the report as the final line of output.
fn run_one(
    w: Workload,
    seed: u64,
    plan: &Plan,
    out: Option<&Path>,
    last_line: impl Fn(&Report) -> String,
) -> ExitCode {
    let (report, spans) = match run_workload(w, seed, plan) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark: {}: set-up failed: {e}", w.name());
            return ExitCode::FAILURE;
        }
    };
    if let Some(dir) = out {
        let path = dir.join(format!("{}.trace.json", w.name()));
        if let Err(e) = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, spans.chrome_json(w.name())))
        {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    print!("{}", report.render());
    println!("{}", last_line(&report));
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in its own child process, one at a time, and
/// writes `results.json`.
fn run_set(seed: u64, out: &Path, smoke: bool) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("benchmark: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut reports = Vec::new();
    let mut ok = true;
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--child", w.name(), "--seed", &seed.to_string()]);
        cmd.arg("--out").arg(out);
        if smoke {
            cmd.arg("--smoke");
        }
        for var in ENGINE_ENV {
            cmd.env_remove(var);
        }
        let output = match cmd.output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("benchmark: cannot start the {} child: {e}", w.name());
                return ExitCode::FAILURE;
            }
        };
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        let text = String::from_utf8_lossy(&output.stdout);
        let (body, last) = text
            .trim_end()
            .rsplit_once('\n')
            .unwrap_or(("", text.trim_end()));
        println!("{body}");
        match json::parse(last).and_then(|j| Report::from_json(&j)) {
            Ok(r) => {
                ok &= output.status.success() && r.failed == 0;
                reports.push(r);
            }
            Err(e) => {
                eprintln!(
                    "benchmark: {} child gave no report ({}): {e}",
                    w.name(),
                    output.status
                );
                ok = false;
            }
        }
    }
    let results = Results {
        env: environment(seed, smoke),
        reports,
    };
    let path = out.join("results.json");
    match std::fs::create_dir_all(out).and_then(|()| std::fs::write(&path, results.to_json_text()))
    {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The facts a set is reproduced under: seed, cores, compiler, commit.
fn environment(seed: u64, smoke: bool) -> Vec<(String, json::Json)> {
    let first_line = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.lines().next().map(str::to_string))
            .unwrap_or_else(|| "unknown".into())
    };
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    vec![
        ("seed".into(), seed.into()),
        ("smoke".into(), json::Json::Bool(smoke)),
        ("nproc".into(), (nproc as u64).into()),
        (
            "rustc".into(),
            first_line("rustc", &["--version"]).as_str().into(),
        ),
        (
            "git_commit".into(),
            first_line("git", &["rev-parse", "HEAD"]).as_str().into(),
        ),
    ]
}

fn run_compare(a: &[PathBuf], b: &[PathBuf]) -> ExitCode {
    let load = |paths: &[PathBuf]| -> Result<Vec<Results>, String> {
        paths
            .iter()
            .map(|p| {
                std::fs::read_to_string(p)
                    .map_err(|e| e.to_string())
                    .and_then(|t| Results::parse(&t))
                    .map_err(|e| format!("{}: {e}", p.display()))
            })
            .collect()
    };
    let list = |paths: &[PathBuf]| {
        let names: Vec<_> = paths.iter().map(|p| p.display().to_string()).collect();
        format!("{} set(s): {}", paths.len(), names.join(", "))
    };
    match (load(a), load(b)) {
        (Ok(ra), Ok(rb)) => {
            let (table, worse) = compare(&ra, &rb);
            println!("baseline, {}", list(a));
            println!("change, {}", list(b));
            if a.len().min(b.len()) < MIN_SETS {
                println!("host-timed metrics need {MIN_SETS} sets a side; they are unresolved");
            }
            print!("{table}");
            if worse {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &str) -> Result<Mode, String> {
        parse_args(
            &args
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn command_lines_map_to_modes() {
        assert_eq!(
            parse("").unwrap(),
            Mode::Set {
                seed: 1,
                out: "target/benchmark/seed-1".into(),
                smoke: false
            }
        );
        assert_eq!(
            parse("--workload timed-fib --seed 3 --seconds 10 --trace 1").unwrap(),
            Mode::Timed {
                workload: Workload::TimedFib,
                seed: 3,
                seconds: 10.0,
                per_layer: true
            }
        );
        assert!(matches!(
            parse("--child service-dag --smoke"),
            Ok(Mode::Child { smoke: true, .. })
        ));
        assert_eq!(
            parse("--compare a b").unwrap(),
            Mode::Compare(vec!["a".into()], vec!["b".into()])
        );
        assert!(matches!(
            parse("--compare a1 a2 a3 --vs b1 b2 b3"),
            Ok(Mode::Compare(a, b)) if a.len() == 3 && b.len() == 3
        ));
    }

    /// This directory's manifest is a workspace root of its own, so cargo
    /// ignores the repository's `[profile.*]` settings when building from
    /// it; they must be repeated here, or the benchmark would measure a
    /// program built differently from the workspace's.
    #[test]
    fn manifest_profiles_match_the_workspace() {
        fn profiles(manifest: &str) -> Vec<&str> {
            let mut inside = false;
            manifest
                .lines()
                .map(str::trim)
                .filter(|l| {
                    if l.starts_with('[') {
                        inside = l.starts_with("[profile");
                    }
                    inside && !l.is_empty() && !l.starts_with('#')
                })
                .collect()
        }
        assert_eq!(
            profiles(include_str!("Cargo.toml")),
            profiles(include_str!("../../../../../Cargo.toml"))
        );
    }

    #[test]
    fn malformed_command_lines_are_errors_not_panics() {
        for bad in [
            "--seed",
            "--seed -1",
            "--seed x",
            "--workload nope --seconds 1 --trace 0",
            "--workload emu-matmul --seconds 1",
            "--workload emu-matmul --trace 0",
            "--workload emu-matmul --seconds 0 --trace 0",
            "--workload emu-matmul --seconds nan --trace 0",
            "--workload emu-matmul --seconds 1 --trace 2",
            "--seconds 5",
            "--trace 1",
            "--compare a",
            "--compare a b c",
            "--compare --vs b",
            "--compare a --vs",
            "--vs b",
            "--compare a b --workload emu-matmul",
            "--frobnicate",
        ] {
            assert!(parse(bad).is_err(), "accepted `{bad}`");
        }
    }
}
