//! The O2 loop shape after loop-constant promotion, pinned by exact
//! firing counts (DESIGN.md §18).
//!
//! Every count here is deterministic on any host. Per-iteration costs
//! come from finite differences over the problem size: matmul's inner
//! loop runs n³ times, so its firing count is a cubic whose third
//! difference is six times the cost of one inner iteration; wavefront's
//! inner loop runs (n−1)² times, a quadratic whose second difference is
//! twice the cost of one cell.

use ttda::core::opt::{optimize_at, OptLevel};
use ttda::core::{Emulator, OpCode, Program, Value};
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
    assert_eq!(matmul(12, OptLevel::O2), 34_410);
    assert_eq!(wavefront(24, OptLevel::O2), 11_009);
    assert_eq!(trapezoid(64, OptLevel::O2), 1_041);
    let dag = firings(&id::request_dag(4, 3), OptLevel::O2, &[Value::Int(10)]);
    assert_eq!(dag, 240);
}

#[test]
fn an_inner_iteration_costs_only_its_carried_variables() {
    // matmul's inner loop keeps `t`, `k` and `n` circulating (`i * n`
    // must keep a token input): 3 × (Switch + L) + 10 body firings.
    let m: Vec<i64> = (10..=13).map(|n| matmul(n, OptLevel::O2)).collect();
    let third = m[3] - 3 * m[2] + 3 * m[1] - m[0];
    assert_eq!(third, 6 * 16, "{m:?}");
    // wavefront's inner loop keeps `q`, `k` and `i` (`i - 1` must keep
    // a token input).
    let w: Vec<i64> = (22..=25).map(|n| wavefront(n, OptLevel::O2)).collect();
    for k in 0..2 {
        assert_eq!(w[k + 2] - 2 * w[k + 1] + w[k], 2 * 19, "{w:?}");
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
    // matmul: 6 in the inner loop, 5 in the middle, 4 in the outer and
    // 4 in each fill loop.
    assert_eq!(promoted(id::matmul()), 23);
    assert_eq!(promoted(id::wavefront()), 14);
    assert_eq!(promoted(id::trapezoid()), 3);
    assert_eq!(promoted(&id::request_dag(4, 3)), 7);
    assert_eq!(promoted(id::fib()), 0, "fib has no loops");
    for level in [OptLevel::O0, OptLevel::O1] {
        let p = ttda::idc::compile(id::matmul()).expect("compiles");
        assert_eq!(optimize_at(&p, level).1.invariants_promoted, 0);
    }
}
