//! Drives `experiments quickbench` end to end on the `opt` suite. Its
//! headline is a deterministic firing count, so these runs gate the same
//! way on any host and in a debug build.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use ttda_bench::report::Report;

/// The tracked baseline at the repository root.
const BENCH_JSON: &str = include_str!("../../../BENCH.json");

/// A fresh directory for one test, holding `B.json`, a copy of
/// `baseline`. The binary runs inside it, so its default `--out` under
/// `target/` lands there too.
fn scratch(test: &str, baseline: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("quickbench_cli")
        .join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("B.json"), baseline).unwrap();
    dir
}

fn quickbench(dir: &Path, args: &[&str]) -> Output {
    quickbench_env(dir, &[], args)
}

/// [`quickbench`] with `env` set on top of its two-sample cap.
fn quickbench_env(dir: &Path, env: &[(&str, &str)], args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("quickbench")
        .args(args)
        .current_dir(dir)
        .env("QUICKBENCH_MAX_ITERS", "2")
        .envs(env.iter().copied())
        .output()
        .expect("the experiments binary runs")
}

fn read(path: PathBuf) -> String {
    std::fs::read_to_string(path).unwrap()
}

/// `BENCH.json` with the opt section's timed targets dropped, so that
/// only its deterministic headline is gated, and its `firings_o2`
/// scaled by `plant`.
fn opt_headline_baseline(plant: f64) -> String {
    let mut base = Report::parse(BENCH_JSON).unwrap();
    let mut opt = base.section("opt").unwrap().clone();
    opt.targets.clear();
    for (name, v) in &mut opt.metrics {
        if name == "firings_o2" {
            *v = (*v * plant).round();
        }
    }
    base.set("opt", opt);
    base.to_json()
}

/// The bytes of suite `name`'s section in a report the writer produced.
fn section_text<'a>(json: &'a str, name: &str) -> &'a str {
    let start = json.find(&format!("\n    \"{name}\": {{")).unwrap();
    let len = json[start + 1..].find("\n    }").unwrap();
    &json[start..start + 1 + len]
}

#[test]
fn a_planted_headline_fails_the_default_run_and_keeps_the_baseline() {
    let dir = scratch("control", &opt_headline_baseline(1.0));
    let run = quickbench(&dir, &["--suites", "opt", "--check", "B.json"]);
    assert!(run.status.success(), "{run:?}");

    // The baseline's O2 firing count planted 30% lower: its headline is
    // 30% better than any run of this code can reach.
    let planted = opt_headline_baseline(0.7);
    let dir = scratch("planted", &planted);
    let run = quickbench(&dir, &["--suites", "opt", "--check", "B.json"]);
    assert_eq!(run.status.code(), Some(1), "{run:?}");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("opt: firings_o2 / firings_o0"), "{stderr}");
    assert_eq!(read(dir.join("B.json")), planted);
    Report::parse(&read(dir.join("target/BENCH.json"))).unwrap();
}

#[test]
fn bad_invocations_are_rejected_before_anything_runs() {
    let dir = scratch("usage", BENCH_JSON);
    let cases: [&[&str]; 7] = [
        &["--suites", "opt", "--out", "B.json", "--check", "./B.json"],
        &["--suites", "opt,bogus"],
        &["--suites", "opt,opt"],
        &["--suites", "opt", "--rebaseline"],
        &["--suites", "opt", "--check", "missing.json"],
        &["--suites", "opt", "--out"],
        &["--suites", "opt", "--opt-check", "B.json"],
    ];
    for args in cases {
        let run = quickbench(&dir, args);
        assert_eq!(run.status.code(), Some(1), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?} ran something");
    }
    // The timer's settings are checked up front too: a cap of 0 would
    // leave every target without a sample, and a value that is not a
    // whole number must not fall back to the default.
    for (name, value) in [("QUICKBENCH_MAX_ITERS", "0"), ("QUICKBENCH_MS", "abc")] {
        let run = quickbench_env(&dir, &[(name, value)], &["--suites", "opt"]);
        assert_eq!(run.status.code(), Some(1), "{name}={value}");
        assert!(run.stdout.is_empty(), "{name}={value} ran something");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(stderr.contains(name), "{stderr}");
    }
    assert!(!dir.join("target").exists());
    assert_eq!(read(dir.join("B.json")), BENCH_JSON);
    let run = quickbench(&dir, &["--suites", "opt,bogus"]);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("unknown suite `bogus`"), "{stderr}");
}

#[test]
fn rebaselining_one_suite_rewrites_only_its_section() {
    let dir = scratch("rebaseline", BENCH_JSON);
    let run = quickbench(
        &dir,
        &["--suites", "opt", "--check", "B.json", "--rebaseline"],
    );
    assert!(run.status.success(), "{run:?}");
    let after = read(dir.join("B.json"));
    let old_opt = section_text(BENCH_JSON, "opt");
    let new_opt = section_text(&after, "opt");
    assert_eq!(
        after.replace(new_opt, ""),
        BENCH_JSON.replace(old_opt, ""),
        "a section other than opt changed"
    );
    // The opt section now holds this run: every target, two samples each.
    let opt = Report::parse(&after)
        .unwrap()
        .section("opt")
        .unwrap()
        .clone();
    assert_eq!(opt.targets.len(), 4);
    assert!(opt.targets.iter().all(|t| t.samples <= 2));
}
