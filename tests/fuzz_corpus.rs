//! Replays the pinned differential-fuzz corpus on every test run.
//!
//! `tests/fuzz_regressions.txt` pins `(family, seed)` pairs — scenarios
//! that once diverged, or that cover regimes worth permanent watch. Each
//! is regenerated from its pair and judged by the full cross-engine
//! oracle (sequential emulator, parallel backend at 2/4/8 threads, timed
//! machine — each on the O0 and the O2 program, under FIFO and
//! criticality scheduling — optimizing compiler, reference answers).
//! This is the PR-time arm of the fuzzer; the open-ended hunt runs
//! nightly via `ttda-bench fuzz`.

use ttda::core::opt::{optimize_at, OptLevel};
use ttda::workloads::fuzz::{self, run_scenario, Family, Outcome, Scenario};

const CORPUS: &str = include_str!("fuzz_regressions.txt");

fn corpus() -> Vec<(Family, u64)> {
    fuzz::parse_corpus(CORPUS)
        .unwrap_or_else(|(line, msg)| panic!("fuzz_regressions.txt line {line}: {msg}"))
}

#[test]
fn corpus_is_large_and_diverse_enough() {
    let corpus = corpus();
    assert!(
        corpus.len() >= 20,
        "pinned corpus shrank below 20 scenarios ({})",
        corpus.len()
    );
    let families: std::collections::HashSet<_> = corpus.iter().map(|(f, _)| *f).collect();
    assert!(
        families.len() >= 4,
        "pinned corpus covers only {} generator families",
        families.len()
    );
}

#[test]
fn every_pinned_scenario_agrees_across_engines() {
    for (family, seed) in corpus() {
        let sc = Scenario::generate(family, seed);
        let outcome = run_scenario(&sc);
        assert!(
            !outcome.is_divergence(),
            "pinned scenario {family} seed {seed} diverged:\n{outcome}\nspec: {:#?}",
            sc.spec
        );
        // Pinned scenarios are also expected to run cleanly — an
        // agree-on-error or fuel exhaustion here means a generator
        // regression changed what the seed produces.
        assert!(
            matches!(outcome, Outcome::Agree),
            "pinned scenario {family} seed {seed} no longer runs clean: {outcome}"
        );
    }
}

#[test]
fn replay_matches_generation_byte_for_byte() {
    // The corpus contract: a pinned pair regenerates the identical
    // scenario forever. Guard the generator against accidental drift —
    // any intentional change to generation must version the corpus.
    for (family, seed) in corpus() {
        let a = Scenario::generate(family, seed);
        let b = Scenario::generate(family, seed);
        assert_eq!(a, b, "{family} seed {seed} did not replay identically");
    }
}

#[test]
fn pinned_loop_nests_exercise_promotion() {
    // The loop-nest seeds are pinned to keep loop-constant promotion
    // under the oracle: each must still promote after a generator or
    // optimizer change, or the pin has stopped doing its job.
    let nests: Vec<u64> = corpus()
        .into_iter()
        .filter(|(f, _)| *f == Family::LoopNest)
        .map(|(_, seed)| seed)
        .collect();
    assert!(
        nests.len() >= 5,
        "only {} loop-nest seeds pinned",
        nests.len()
    );
    for seed in nests {
        let sc = Scenario::generate(Family::LoopNest, seed);
        let [src] = &sc.sources()[..] else {
            panic!("loop-nest seed {seed} is not one program")
        };
        let program = ttda::idc::compile(src).expect("pinned nest compiles");
        let stats = optimize_at(&program, OptLevel::O2).1;
        assert!(
            stats.invariants_promoted > 0,
            "loop-nest seed {seed} no longer promotes an invariant: {stats:?}"
        );
    }
}
