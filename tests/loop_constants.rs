//! The O2 loop shape after loop-invariant code motion and loop-constant
//! promotion, pinned by exact firing counts (DESIGN.md §18), and the
//! guard that keeps a hoisted expression from failing where the loop
//! would not have run it.
//!
//! Every count here is deterministic on any host. Per-iteration costs
//! come from finite differences over the problem size: matmul's inner
//! loop runs n³ times, so its firing count is a cubic whose third
//! difference is six times the cost of one inner iteration; wavefront's
//! inner loop runs (n−1)² times, a quadratic whose second difference is
//! twice the cost of one cell.

use ttda::core::opt::{optimize_at, OptLevel};
use ttda::core::{Emulator, ExecError, OpCode, Program, TimedConfig, TimedMachine, Value};
use ttda::sim::Cycle;
use ttda::workloads::id;

fn compile(src: &str, level: OptLevel) -> Program {
    ttda::idc::compile_optimized(src, level).expect("workload compiles")
}

fn firings(src: &str, level: OptLevel, inputs: &[Value]) -> i64 {
    let p = compile(src, level);
    Emulator::new(&p).run(inputs).expect("runs").instructions as i64
}

fn matmul(n: i64, level: OptLevel) -> i64 {
    firings(id::matmul(), level, &[Value::Int(n)])
}

fn wavefront(n: i64, level: OptLevel) -> i64 {
    firings(id::wavefront(), level, &[Value::Int(n)])
}

fn trapezoid(n: i64, level: OptLevel) -> i64 {
    let inputs = [Value::Float(0.0), Value::Float(1.0), Value::Int(n)];
    firings(id::trapezoid(), level, &inputs)
}

#[test]
fn o2_firing_counts_are_pinned() {
    assert_eq!(matmul(12, OptLevel::O2), 28_558);
    assert_eq!(wavefront(24, OptLevel::O2), 8_414);
    assert_eq!(trapezoid(64, OptLevel::O2), 1_041);
    let dag = firings(&id::request_dag(4, 3), OptLevel::O2, &[Value::Int(10)]);
    assert_eq!(dag, 240);
    assert_eq!(firings(id::fib(), OptLevel::O2, &[Value::Int(18)]), 54_347);
}

#[test]
fn an_inner_iteration_costs_only_its_carried_variables() {
    // matmul's inner loop keeps only `t` and `k` circulating: `i * n`
    // is hoisted, so `n` (now read only by `k * n`) is a constant too.
    // 2 × (Switch + L) + 9 body firings.
    let m: Vec<i64> = (10..=13).map(|n| matmul(n, OptLevel::O2)).collect();
    let third = m[3] - 3 * m[2] + 3 * m[1] - m[0];
    assert_eq!(third, 6 * 13, "{m:?}");
    // wavefront's inner loop keeps `q` and `k`: `i * n` and
    // `(i - 1) * n` are hoisted.
    let w: Vec<i64> = (22..=25).map(|n| wavefront(n, OptLevel::O2)).collect();
    for k in 0..2 {
        assert_eq!(w[k + 2] - 2 * w[k + 1] + w[k], 2 * 14, "{w:?}");
    }
    // trapezoid: s, x and i circulate; h, the bound and the step do not.
    assert_eq!(
        trapezoid(65, OptLevel::O2) - trapezoid(64, OptLevel::O2),
        16
    );
}

#[test]
fn o0_and_o1_keep_the_papers_schema() {
    assert_eq!(matmul(12, OptLevel::O0), 101_139);
    assert_eq!(matmul(12, OptLevel::O1), 61_154);
    for src in [id::matmul(), id::wavefront(), id::trapezoid()] {
        for level in [OptLevel::O0, OptLevel::O1] {
            let p = compile(src, level);
            let promoted = p.blocks.iter().flat_map(|b| &b.instrs).any(|i| {
                !i.consts.is_empty()
                    || matches!(i.op, OpCode::LoopEntry { .. } | OpCode::DGated { .. })
            });
            assert!(!promoted, "{level} must not promote");
        }
    }
}

#[test]
fn opt_stats_count_the_promotions() {
    let promoted = |src: &str| {
        let p = ttda::idc::compile(src).expect("compiles");
        optimize_at(&p, OptLevel::O2).1.invariants_promoted
    };
    // matmul: 7 in the inner loop (the hoisted `i * n` included), 7 in
    // the middle, 6 in the outer and 4 in each fill loop.
    assert_eq!(promoted(id::matmul()), 28);
    assert_eq!(promoted(id::wavefront()), 17);
    assert_eq!(promoted(id::trapezoid()), 3);
    assert_eq!(promoted(&id::request_dag(4, 3)), 7);
    assert_eq!(promoted(id::fib()), 0, "fib has no loops");
    for level in [OptLevel::O0, OptLevel::O1] {
        let p = ttda::idc::compile(id::matmul()).expect("compiles");
        assert_eq!(optimize_at(&p, level).1.invariants_promoted, 0);
    }
}

#[test]
fn opt_stats_count_the_hoists() {
    let hoisted = |src: &str, level| {
        let p = ttda::idc::compile(src).expect("compiles");
        optimize_at(&p, level).1.instrs_hoisted
    };
    // matmul: `i * n` leaves the inner loop; it, its guard and the inner
    // bound `n - 1` leave the middle one (6); the middle loop's bound
    // and guard predicate leave the outer one.
    assert_eq!(hoisted(id::matmul(), OptLevel::O2), 9);
    // wavefront: `i * n` (twice), `i - 1` and `(i - 1) * n`, then the
    // inner bound `n - 1` and its guard predicate.
    assert_eq!(hoisted(id::wavefront(), OptLevel::O2), 6);
    for src in [id::trapezoid(), id::fib(), &id::request_dag(4, 3)] {
        assert_eq!(hoisted(src, OptLevel::O2), 0, "{src}");
    }
    for level in [OptLevel::O0, OptLevel::O1] {
        assert_eq!(hoisted(id::matmul(), level), 0);
    }
}

fn ints(xs: &[i64]) -> Vec<Value> {
    xs.iter().map(|&x| Value::Int(x)).collect()
}

/// `main`'s output on the sequential, relaxed (2 workers) and timed (4
/// PEs) engines.
fn on_every_engine(p: &Program, inputs: &[Value]) -> Vec<(&'static str, Result<Value, ExecError>)> {
    let emulate = |threads: usize| {
        let r = Emulator::new(p).with_threads(threads).run(inputs);
        r.map(|r| r.outputs[&0])
    };
    let timed = TimedMachine::ideal(p.clone(), 4, Cycle(2), TimedConfig::default()).run(inputs);
    vec![
        ("sequential", emulate(1)),
        ("relaxed x2", emulate(2)),
        ("timed", timed.map(|r| r.outputs[&0])),
    ]
}

/// What a run must return.
type Check = fn(&Result<Value, ExecError>) -> bool;

/// Runs `src` at O0 and O2 on every engine and checks each result.
fn check_everywhere(src: &str, cases: &[(&[i64], Check)]) {
    for level in [OptLevel::O0, OptLevel::O2] {
        let p = compile(src, level);
        for &(inputs, ok) in cases {
            for (engine, r) in on_every_engine(&p, &ints(inputs)) {
                assert!(ok(&r), "{engine} at {level} on {inputs:?}: {r:?}");
            }
        }
    }
}

#[test]
fn a_hoisted_expression_fails_only_where_its_loop_runs() {
    // `i / z` is invariant in the inner loop, so O2 computes it before
    // the loop; with `n = 0` the loop runs no iteration and must not
    // divide by zero. One inner body is pure, the other also reads an
    // I-structure; in both, only the hoist's own guard stands between
    // `n = 0` and the division.
    let pure = "def main(n, z) = (initial s = 0 for i from 1 to 3 do \
                new s = s + (initial t = 0 for k from 1 to n do new t = t + i / z return t) \
                return s);";
    let fetching = "def main(n, z) = { a = array(1); a[0] <- 0; \
                    (initial s = 0 for i from 1 to 3 do \
                     new s = s + (initial t = 0 for k from 1 to n do \
                     new t = t + a[0] + i / z return t) \
                     return s) };";
    for src in [pure, fetching] {
        let p = ttda::idc::compile(src).expect("compiles");
        assert!(optimize_at(&p, OptLevel::O2).1.instrs_hoisted > 0, "{src}");
        check_everywhere(
            src,
            &[
                (&[0, 0], |r| *r == Ok(Value::Int(0))),
                (&[2, 0], |r| matches!(r, Err(ExecError::Type(_)))),
                (&[2, 1], |r| *r == Ok(Value::Int(12))),
            ],
        );
    }
}

#[test]
fn an_if_on_the_iteration_is_never_hoisted_through() {
    // The quotient runs only on iterations with `k > 5`: none when
    // `n = 2`, two per outer iteration when `n = 7`.
    let src = "def main(n, z) = (initial s = 0 for i from 1 to 3 do \
               new s = s + (initial t = 0 for k from 1 to n do \
               new t = t + (if k > 5 then i / z else 0) return t) \
               return s);";
    check_everywhere(
        src,
        &[
            (&[2, 0], |r| *r == Ok(Value::Int(0))),
            (&[7, 0], |r| matches!(r, Err(ExecError::Type(_)))),
            (&[7, 1], |r| *r == Ok(Value::Int(12))),
        ],
    );
}

#[test]
fn a_loop_with_a_dynamic_bound_is_no_larger_at_o2_than_at_o1() {
    // Nothing is invariant and the trip count is not static, so O2 has
    // nothing to unroll, hoist or promote: it must not grow the graph.
    let src = "def main(n) = (initial s = 0 for i from 1 to n do new s = s + i return s);";
    let (o1, o2) = (compile(src, OptLevel::O1), compile(src, OptLevel::O2));
    assert!(
        o2.instr_count() <= o1.instr_count(),
        "O2 {} > O1 {}",
        o2.instr_count(),
        o1.instr_count()
    );
    for level in OptLevel::ALL {
        let p = compile(src, level);
        for n in [0, 1, 2, 5, 50] {
            for (engine, r) in on_every_engine(&p, &ints(&[n])) {
                assert_eq!(
                    r,
                    Ok(Value::Int(n * (n + 1) / 2)),
                    "{engine} at {level}, n = {n}"
                );
            }
        }
    }
}
