//! The graph optimizer: a pass pipeline over dataflow programs.
//!
//! The Id compiler's output is deliberately schematic — one `Identity`
//! junction per loop variable, one per conditional branch input, one per
//! parameter fork — which keeps codegen simple but costs a machine cycle
//! per junction per activation. Every token the compiler does not emit
//! is the cheapest token at every layer below: it never hashes into the
//! waiting–matching store, never crosses a shard channel, never costs a
//! merge slot. [`optimize_at`] applies the passes a real dataflow
//! compiler would, grouped into levels:
//!
//! * [`OptLevel::O0`] — nothing; the program is returned unchanged.
//! * [`OptLevel::O1`] — the classic cleanup: **identity forwarding**
//!   (every edge `S →(w) I` plus `I → T` composes to `S →(w) T`;
//!   chains are resolved in one pass with path compression, see
//!   [`forward`](self)) and **dead-code elimination** (pure instructions
//!   with no destinations can never affect the outputs; the pass
//!   iterates to a fixed point and compacts instruction ids).
//! * [`OptLevel::O2`] — everything: **full unrolling** of the compiler's
//!   `D`/`L`/`D⁻¹` loop schema when the trip count is static and small,
//!   then **loop-invariant code motion** (an expression of invariants
//!   fires once per activation; see [`hoist`](self)), then
//!   **loop-constant promotion** (invariants become per-activation
//!   constants instead of circulating; see [`promote`](self)) — all
//!   three run exactly once, before forwarding dissolves the loop-top
//!   junctions they pattern-match — then a bounded fixpoint of
//!   forwarding, **constant folding** (with `Switch` resolution and
//!   constant-trigger hoisting), and **local CSE**, followed by the
//!   final DCE sweep.
//!
//! Every pass preserves the program's *outputs* exactly — the optimizer
//! test suite and the fuzz oracle re-run every workload at every level
//! and compare results (and I-structure traffic where the graph shape is
//! preserved) against the unoptimized graph. Counters that describe the
//! *shape* of execution (`instructions`, `contexts`, wave profiles) are
//! exactly what optimization is supposed to change.
//!
//! Pass-ordering and rewrite-safety rules are documented in DESIGN.md
//! §14; the per-block analyses (the in-edge table, critical-path depth
//! and height, the unconditional set) live in [`analysis`] and are
//! rebuilt from scratch after every rewrite (every rewrite
//! invalidates), each pass building only what it reads.

pub mod analysis;

mod cse;
mod dce;
mod fold;
mod forward;
mod hoist;
mod promote;
mod unroll;

use std::fmt;

use crate::graph::{CodeBlock, Program};

/// How hard the optimizer works.
///
/// Levels are totally ordered: each level runs everything the previous
/// one does (plus more).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OptLevel {
    /// No optimization at all; the input is cloned verbatim.
    O0,
    /// Identity forwarding + dead-code elimination.
    O1,
    /// `O1` plus full unrolling of static loops, loop-invariant code
    /// motion, loop-constant promotion, constant folding, `Switch`
    /// resolution, and local CSE.
    O2,
}

impl fmt::Display for OptLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptLevel::O0 => write!(f, "O0"),
            OptLevel::O1 => write!(f, "O1"),
            OptLevel::O2 => write!(f, "O2"),
        }
    }
}

impl OptLevel {
    /// All levels, lowest to highest (handy for sweeps and tables).
    pub const ALL: [OptLevel; 3] = [OptLevel::O0, OptLevel::O1, OptLevel::O2];
}

/// What the optimizer did, per pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// `Identity` junctions removed by forwarding.
    pub identities_collapsed: usize,
    /// Dead instructions removed.
    pub dead_removed: usize,
    /// Instructions folded to a `Const` (including resolved-`Switch`
    /// data literals and hoisted constant triggers).
    pub consts_folded: usize,
    /// `Switch` instructions whose control input was statically known.
    pub switches_resolved: usize,
    /// Duplicate instructions merged by local CSE.
    pub cse_merged: usize,
    /// Loops fully unrolled (statically-bounded trip counts).
    pub loops_unrolled: usize,
    /// Instructions moved out of a loop body into the code that enters
    /// the loop (counted once per loop they leave).
    pub instrs_hoisted: usize,
    /// Loop invariants promoted to per-activation constants.
    pub invariants_promoted: usize,
}

/// Upper bound on the `forward`/`fold`/`cse` fixpoint at `O2`. Each
/// iteration either rewrites something (strictly reducing the work the
/// next iteration can find) or terminates the loop, so the bound is a
/// safety net, not a tuning knob.
const FIXPOINT_ROUNDS: usize = 8;

/// Optimizes a program at `level`; returns the new program and what
/// changed. Analyses are per block and rebuilt after every rewrite.
///
/// The input should be valid (from
/// [`GraphBuilder`](crate::GraphBuilder) or
/// [`crate::Program::validate`]); the output is revalidated by debug
/// assertion.
pub fn optimize_at(program: &Program, level: OptLevel) -> (Program, OptStats) {
    let mut stats = OptStats::default();
    let blocks = program
        .blocks
        .iter()
        .map(|b| optimize_block(b, level, &mut stats))
        .collect();
    let out = Program {
        blocks,
        main: program.main,
    };
    debug_assert_eq!(out.validate(), Ok(()), "optimizer broke the graph");
    (out, stats)
}

fn optimize_block(block: &CodeBlock, level: OptLevel, stats: &mut OptStats) -> CodeBlock {
    if level == OptLevel::O0 {
        return block.clone();
    }
    let mut b = block.clone();
    if level >= OptLevel::O2 {
        // One in-edge table serves the passes while the block stays as
        // it is: a pass builds it when there is none and drops it when
        // it rewrites the block.
        let mut ins_of = None;
        // The three loop passes run exactly once, on the pristine
        // codegen schema: forwarding would dissolve the loop-top
        // Identity junctions they pattern-match. Hoisting sees what
        // unrolling left (an unrolled loop is gone), and promotion
        // comes last so the invariants hoisting adds become constants
        // too.
        unroll::run(&mut b, &mut ins_of, stats);
        hoist::run(&mut b, &mut ins_of, stats);
        promote::run(&mut b, &mut ins_of, stats);
        for _ in 0..FIXPOINT_ROUNDS {
            let mut changed = forward::run(&mut b, stats);
            if changed {
                ins_of = None;
            }
            changed |= fold::run(&mut b, &mut ins_of, stats);
            changed |= cse::run(&mut b, &mut ins_of, stats);
            if !changed {
                break;
            }
        }
    } else {
        forward::run(&mut b, stats);
    }
    dce::run(&mut b, stats);
    b
}

/// Attaches per-instruction scheduling criticality to every block: each
/// block's [`CodeBlock::criticality`](crate::CodeBlock) is set to the
/// critical-path height of each instruction — the remaining path length
/// below it over the dataflow graph, with each loop back edge taken
/// once.
///
/// This is the compile-time half of criticality-aware scheduling
/// (DESIGN.md §15): it runs *after* the whole pass pipeline (every
/// rewrite invalidates every analysis, so annotating inside a pass would
/// just be thrown away), and `compile_optimized` in `ttda-idc` calls it
/// on everything it emits. Schedulers fall back to computing the same
/// heights on demand for unannotated programs, so calling this is a
/// compile-time-vs-run-time tradeoff, never a behavioural switch.
pub fn annotate_criticality(program: &mut Program) {
    for b in &mut program.blocks {
        b.criticality = analysis::Analysis::of(b).height;
    }
}

/// Test helper: asserts that two programs compute the same outputs on
/// the given inputs.
///
/// # Panics
///
/// Panics if either program fails to run.
#[cfg(test)]
fn assert_equivalent(a: &Program, b: &Program, inputs: &[crate::Value]) {
    let ra = crate::Emulator::new(a).run(inputs).expect("program a runs");
    let rb = crate::Emulator::new(b).run(inputs).expect("program b runs");
    assert_eq!(ra.outputs, rb.outputs, "optimization changed results");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::value::{AluOp, CmpOp};
    use crate::{Emulator, OpCode, Value};

    fn sum_loop() -> Program {
        let mut g = GraphBuilder::new("sum");
        let n = g.param();
        let zero = g.lit(Value::Int(0));
        let one = g.lit(Value::Int(1));
        g.wire(n, zero, 0);
        g.wire(n, one, 0);
        let exits = g
            .dataflow_loop(
                &[zero, one, n],
                |g, tops| {
                    let c = g.instr(OpCode::Cmp(CmpOp::Le));
                    g.wire(tops[1], c, 0);
                    g.wire(tops[2], c, 1);
                    c
                },
                |g, vars| {
                    let acc = g.instr(OpCode::Alu(AluOp::Add));
                    g.wire(vars[0], acc, 0);
                    g.wire(vars[1], acc, 1);
                    let i2 = g.instr_lit(OpCode::Alu(AluOp::Add), 1, Value::Int(1));
                    g.wire(vars[1], i2, 0);
                    vec![acc, i2, vars[2]]
                },
            )
            .unwrap();
        let out = g.output(0);
        g.wire(exits[0], out, 0);
        g.finish_program().unwrap()
    }

    /// A statically-bounded loop: `s = n; for i in 1..=8 { s += i*i }`.
    fn static_loop() -> Program {
        let mut g = GraphBuilder::new("static");
        let n = g.param();
        let one = g.lit(Value::Int(1));
        let eight = g.lit(Value::Int(8));
        g.wire(n, one, 0);
        g.wire(n, eight, 0);
        let exits = g
            .dataflow_loop(
                &[n, one, eight],
                |g, tops| {
                    let c = g.instr(OpCode::Cmp(CmpOp::Le));
                    g.wire(tops[1], c, 0);
                    g.wire(tops[2], c, 1);
                    c
                },
                |g, vars| {
                    let sq = g.instr(OpCode::Alu(AluOp::Mul));
                    g.wire(vars[1], sq, 0);
                    g.wire(vars[1], sq, 1);
                    let acc = g.instr(OpCode::Alu(AluOp::Add));
                    g.wire(vars[0], acc, 0);
                    g.wire(sq, acc, 1);
                    let i2 = g.instr_lit(OpCode::Alu(AluOp::Add), 1, Value::Int(1));
                    g.wire(vars[1], i2, 0);
                    vec![acc, i2, vars[2]]
                },
            )
            .unwrap();
        let out = g.output(0);
        g.wire(exits[0], out, 0);
        g.finish_program().unwrap()
    }

    #[test]
    fn optimized_loop_is_equivalent_and_smaller() {
        let p = sum_loop();
        let (opt, stats) = optimize_at(&p, OptLevel::O1);
        assert!(stats.identities_collapsed > 0, "loop tops collapse");
        assert!(opt.instr_count() < p.instr_count());
        for n in [0i64, 1, 10, 100] {
            assert_equivalent(&p, &opt, &[Value::Int(n)]);
        }
        // And the optimized program executes fewer firings.
        let before = Emulator::new(&p)
            .run(&[Value::Int(50)])
            .unwrap()
            .instructions;
        let after = Emulator::new(&opt)
            .run(&[Value::Int(50)])
            .unwrap()
            .instructions;
        assert!(after < before, "{after} !< {before}");
    }

    #[test]
    fn dead_pure_chains_removed() {
        let mut g = GraphBuilder::new("t");
        let x = g.param();
        // Live path.
        let inc = g.instr_lit(OpCode::Alu(AluOp::Add), 1, Value::Int(1));
        let out = g.output(0);
        g.wire(x, inc, 0);
        g.wire(inc, out, 0);
        // Dead chain: three pure ops going nowhere.
        let d1 = g.instr_lit(OpCode::Alu(AluOp::Mul), 1, Value::Int(2));
        let d2 = g.instr(OpCode::Identity);
        let d3 = g.instr_lit(OpCode::Cmp(CmpOp::Lt), 1, Value::Int(9));
        g.wire(x, d1, 0);
        g.wire(d1, d2, 0);
        g.wire(d2, d3, 0);
        let p = g.finish_program().unwrap();
        let (opt, stats) = optimize_at(&p, OptLevel::O1);
        assert!(stats.dead_removed >= 3, "{stats:?}");
        assert_equivalent(&p, &opt, &[Value::Int(4)]);
    }

    #[test]
    fn stores_and_outputs_never_removed() {
        let mut g = GraphBuilder::new("t");
        let x = g.param();
        let size = g.lit(Value::Int(1));
        g.wire(x, size, 0);
        let alloc = g.instr(OpCode::IAlloc);
        g.wire(size, alloc, 0);
        let st = g.instr_lit(OpCode::IStore, 1, Value::Int(0));
        g.wire(alloc, st, 0);
        g.wire(x, st, 2);
        let sink = g.instr(OpCode::Sink);
        g.wire(st, sink, 0);
        let f = g.instr_lit(OpCode::IFetch, 1, Value::Int(0));
        g.wire(alloc, f, 0);
        let out = g.output(0);
        g.wire(f, out, 0);
        let p = g.finish_program().unwrap();
        let (opt, _) = optimize_at(&p, OptLevel::O1);
        // The store must survive (the fetch depends on it at run time,
        // invisibly to the graph).
        assert!(opt.blocks[0].instrs.iter().any(|i| i.op == OpCode::IStore));
        assert_equivalent(&p, &opt, &[Value::Int(9)]);
    }

    #[test]
    fn params_survive_even_when_unused() {
        let mut g = GraphBuilder::new("t");
        let _unused = g.param();
        let y = g.param();
        let out = g.output(0);
        g.wire(y, out, 0);
        let p = g.finish_program().unwrap();
        let (opt, _) = optimize_at(&p, OptLevel::O1);
        assert_eq!(opt.blocks[0].params.len(), 2);
        assert_equivalent(&p, &opt, &[Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn switch_branch_wiring_composes_through_identities() {
        // x > 0 ? x+1 : x-1 via explicit identities on both branches.
        let mut g = GraphBuilder::new("t");
        let x = g.param();
        let c = g.instr_lit(OpCode::Cmp(CmpOp::Gt), 1, Value::Int(0));
        g.wire(x, c, 0);
        let sw = g.instr(OpCode::Switch);
        g.wire(x, sw, 0);
        g.wire(c, sw, 1);
        let t_id = g.instr(OpCode::Identity);
        let e_id = g.instr(OpCode::Identity);
        g.wire_true(sw, t_id, 0);
        g.wire_false(sw, e_id, 0);
        let plus = g.instr_lit(OpCode::Alu(AluOp::Add), 1, Value::Int(1));
        let minus = g.instr_lit(OpCode::Alu(AluOp::Sub), 1, Value::Int(1));
        g.wire(t_id, plus, 0);
        g.wire(e_id, minus, 0);
        let join = g.instr(OpCode::Identity);
        g.wire(plus, join, 0);
        g.wire(minus, join, 0);
        let out = g.output(0);
        g.wire(join, out, 0);
        let p = g.finish_program().unwrap();
        let (opt, stats) = optimize_at(&p, OptLevel::O1);
        assert!(stats.identities_collapsed >= 3);
        for v in [-5i64, 0, 7] {
            assert_equivalent(&p, &opt, &[Value::Int(v)]);
        }
    }

    #[test]
    fn o0_is_the_identity_transform() {
        let p = sum_loop();
        let (same, stats) = optimize_at(&p, OptLevel::O0);
        assert_eq!(same, p);
        assert_eq!(stats, OptStats::default());
    }

    #[test]
    fn annotate_criticality_matches_the_analysis_and_survives_execution() {
        let mut p = sum_loop();
        assert!(p.blocks[0].criticality.is_empty(), "builder leaves it off");
        annotate_criticality(&mut p);
        let b = &p.blocks[0];
        assert_eq!(b.criticality.len(), b.instrs.len());
        assert_eq!(b.criticality, analysis::Analysis::of(b).height);
        assert!(b.criticality.iter().any(|&h| h > 0), "some chain exists");
        // Annotation is metadata only: results are untouched.
        let r = Emulator::new(&p).run(&[Value::Int(100)]).unwrap();
        assert_eq!(r.outputs[&0], Value::Int(5050));
        // Re-optimizing an annotated program drops the stale annotation.
        let (opt, _) = optimize_at(&p, OptLevel::O1);
        assert!(opt.blocks[0].criticality.is_empty());
    }

    #[test]
    fn opt_levels_order_and_display() {
        assert!(OptLevel::O0 < OptLevel::O1 && OptLevel::O1 < OptLevel::O2);
        assert_eq!(OptLevel::O2.to_string(), "O2");
    }

    #[test]
    fn o2_fully_unrolls_static_loops() {
        let p = static_loop();
        let (opt, stats) = optimize_at(&p, OptLevel::O2);
        assert_eq!(stats.loops_unrolled, 1, "{stats:?}");
        // The tag machinery is elided entirely.
        assert!(!opt.blocks[0]
            .instrs
            .iter()
            .any(|i| matches!(i.op, OpCode::D { .. } | OpCode::DInv | OpCode::L)));
        for n in [0i64, 3, -7] {
            assert_equivalent(&p, &opt, &[Value::Int(n)]);
        }
        // 1+4+9+...+64 = 204.
        let r = Emulator::new(&opt).run(&[Value::Int(10)]).unwrap();
        assert_eq!(r.outputs[&0], Value::Int(214));
        // Unrolling plus folding beats the loop by a wide margin.
        let before = Emulator::new(&p)
            .run(&[Value::Int(10)])
            .unwrap()
            .instructions;
        let after = r.instructions;
        assert!(after * 2 < before, "{after} vs {before}");
    }

    #[test]
    fn o2_keeps_unknown_bounds_as_loops() {
        let p = sum_loop();
        let (opt, stats) = optimize_at(&p, OptLevel::O2);
        assert_eq!(stats.loops_unrolled, 0);
        // n = 0 runs no iteration; larger n run the loop.
        for n in [0i64, 1, 2, 5, 50] {
            assert_equivalent(&p, &opt, &[Value::Int(n)]);
        }
    }

    #[test]
    fn o2_never_fires_more_than_o1_on_loop_free_graphs() {
        // On loop-free graphs O2 only removes work (unrolling cannot
        // trigger), so both static size and dynamic firings are
        // monotone across levels.
        let mut g = GraphBuilder::new("t");
        let x = g.param();
        let a = g.lit(Value::Int(3));
        let b = g.lit(Value::Int(4));
        g.wire(x, a, 0);
        g.wire(x, b, 0);
        let add = g.instr(OpCode::Alu(AluOp::Add));
        g.wire(a, add, 0);
        g.wire(b, add, 1);
        let dup = g.instr(OpCode::Alu(AluOp::Add));
        g.wire(a, dup, 0);
        g.wire(b, dup, 1);
        let sum = g.instr(OpCode::Alu(AluOp::Add));
        g.wire(add, sum, 0);
        g.wire(dup, sum, 1);
        let out = g.output(0);
        g.wire(sum, out, 0);
        let p = g.finish_program().unwrap();
        let mut last_static = usize::MAX;
        let mut last_fired = u64::MAX;
        for level in OptLevel::ALL {
            let (opt, _) = optimize_at(&p, level);
            let r = Emulator::new(&opt).run(&[Value::Int(1)]).unwrap();
            assert_eq!(r.outputs[&0], Value::Int(14));
            assert!(opt.instr_count() <= last_static);
            assert!(r.instructions <= last_fired);
            last_static = opt.instr_count();
            last_fired = r.instructions;
        }
        // And O2 actually folded the whole thing down.
        let (o2, stats) = optimize_at(&p, OptLevel::O2);
        assert!(stats.consts_folded >= 2, "{stats:?}");
        assert!(o2.instr_count() <= 3, "{}", o2.instr_count());
    }
}
