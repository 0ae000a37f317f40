//! Loop-constant promotion: loop invariants stop circulating.
//!
//! The codegen schema (Fig 2-2) carries every loop invariant — each free
//! variable the body reads, plus a `for` loop's bound and step — around
//! the loop as a token, so each one costs a `Switch` and an `L` on every
//! iteration just to stay where it is. This pass turns an invariant of a
//! plain `for` loop into a **constant of the loop activation**:
//!
//! ```text
//!   before                               after
//!   inv ─D─▶ top ─▶ Switch ─T─▶ body     inv ─▶ LoopEntry ─▶ DGated ◀─ carried
//!             ▲       │F                         (stores the constants,
//!             └─ L ◀──┤                           releases each carried var)
//!                     └─▶ D⁻¹ ─▶ exit    inv ─▶ exit
//!                                        body readers: constant operand
//! ```
//!
//! * One [`OpCode::LoopEntry`] takes the promoted invariants as its
//!   operands, enters the activation through the same loop memo as `D`,
//!   and stores them as the activation's constants (slot `k` = operand
//!   `k`). It then releases each loop-carried variable, whose `D`
//!   becomes an [`OpCode::DGated`] waiting for that release.
//! * Every reader of a promoted invariant (the loop predicate and body
//!   instructions) reads it as a constant operand instead
//!   ([`Instruction::consts`]), the way it reads a literal.
//! * The invariant's exit consumers take its initial value directly.
//!
//! Every token of an iteration descends from the entry's release, so a
//! constant read never finds its slot empty (DESIGN.md §18).
//!
//! An invariant is promoted only when every reader keeps at least one
//! token input (an instruction with no token input would never fire),
//! reads it on a port nothing else feeds, and is not the loop's own
//! machinery — so `new x = inv` (an `L` reading it) keeps it
//! circulating. Candidates are taken greedily in variable order, up to
//! [`MAX_LOOP_CONSTS`] per loop. Loops are visited inner first, so an
//! outer loop can promote an invariant its inner loop's entry reads;
//! the outer invariant then reaches the inner activation as a constant
//! the entry copies. Loops that do not match the plain `for` schema
//! (a `while` clause, a hand-wired shape) and loops left without a
//! carried variable are not touched.
//!
//! [`Instruction::consts`]: crate::Instruction::consts

use std::collections::{BTreeMap, HashSet};

use crate::graph::{CodeBlock, Dest, DestBranch, InstrId, Instruction, OpCode, MAX_LOOP_CONSTS};
use crate::tag::Port;

use super::unroll::{in_edge_table, machinery, InEdges, LoopShape};
use super::OptStats;

/// Promotes the invariants of every eligible loop in the block.
pub(super) fn run(block: &mut CodeBlock, stats: &mut OptStats) {
    let mut groups: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, ins) in block.instrs.iter().enumerate() {
        if let OpCode::D { loop_id } = ins.op {
            groups.entry(loop_id).or_default().push(i);
        }
    }
    // The compiler and `GraphBuilder::dataflow_loop` number a loop
    // before the loops its body holds, so descending ids visit inner
    // loops first. The order only decides how much is promoted, never
    // whether a promotion is sound.
    for (loop_id, ds) in groups.into_iter().rev() {
        // Rebuilt per loop: each promotion rewires edges.
        let ins_of = in_edge_table(block);
        let Some(lp) = machinery(block, &ins_of, &ds) else {
            continue;
        };
        let Some(plan) = plan(block, &ins_of, &lp) else {
            continue;
        };
        stats.invariants_promoted += plan.slots.len();
        apply(block, &lp, &plan, loop_id);
    }
}

/// What to promote in one loop.
struct Plan {
    /// Variable index per constant slot.
    slots: Vec<usize>,
    /// `(reader, port, slot)` for every read of a promoted invariant.
    reads: Vec<(usize, u8, u8)>,
}

/// Greedily picks the invariants whose readers all keep a token input.
/// `None` when nothing can be promoted or no carried variable would be
/// left to drive the iterations.
fn plan(block: &CodeBlock, ins_of: &InEdges, lp: &LoopShape) -> Option<Plan> {
    let is_param = |i: usize| block.params.iter().any(|p| p.0 as usize == i);
    let machinery = |i: usize| {
        [&lp.d, &lp.top, &lp.l, &lp.sw, &lp.body_in, &lp.dinv]
            .iter()
            .any(|set| set.contains(&i))
    };
    let mut plan = Plan {
        slots: Vec::new(),
        reads: Vec::new(),
    };

    for k in 0..lp.d.len() {
        if plan.slots.len() == MAX_LOOP_CONSTS {
            break;
        }
        if lp.next[k] != (lp.body_in[k] as u32, DestBranch::Always) {
            continue; // loop-carried
        }
        // The readers: the predicate (through the loop top) and the body
        // (through the body input), minus the variable's own L.
        let top_reads = block.instrs[lp.top[k]]
            .dests
            .iter()
            .filter(|d| d.instr.0 as usize != lp.sw[k]);
        let body_reads = block.instrs[lp.body_in[k]]
            .dests
            .iter()
            .filter(|d| d.instr.0 as usize != lp.l[k]);
        let reads: Vec<(usize, u8)> = top_reads
            .chain(body_reads)
            .map(|d| (d.instr.0 as usize, d.port.0))
            .collect();
        let eligible = reads.iter().all(|&(r, p)| {
            (r == lp.pred || !machinery(r))
                && !is_param(r)
                && ins_of[r].iter().filter(|&&(_, q, _)| q == p).count() == 1
        });
        // Every reader must keep a port that a token still feeds: not
        // this invariant's, nor one an earlier promotion fixed.
        let keeps_a_token = |r: usize| {
            ins_of[r].iter().any(|&(_, p, _)| {
                !reads.contains(&(r, p))
                    && !plan.reads.iter().any(|&(fr, fp, _)| (fr, fp) == (r, p))
            })
        };
        if !eligible || !reads.iter().all(|&(r, _)| keeps_a_token(r)) {
            continue;
        }
        let slot = plan.slots.len() as u8;
        plan.reads.extend(reads.iter().map(|&(r, p)| (r, p, slot)));
        plan.slots.push(k);
    }
    let carried = lp.d.len() - plan.slots.len();
    (!plan.slots.is_empty() && carried > 0).then_some(plan)
}

/// Rewrites one loop per its plan (see the module docs).
fn apply(block: &mut CodeBlock, lp: &LoopShape, plan: &Plan, loop_id: u32) {
    let entry = block.instrs.len();
    block.instrs.push(Instruction::new(OpCode::LoopEntry {
        loop_id,
        width: plan.slots.len() as u8,
    }));
    let mut retired: HashSet<usize> = HashSet::new();
    for (slot, &k) in plan.slots.iter().enumerate() {
        let (src, when) = lp.init[k];
        let src = &mut block.instrs[src as usize].dests;
        // The initial value enters through the entry's operand `slot`...
        let feed = src
            .iter_mut()
            .find(|d| d.instr.0 as usize == lp.d[k] && d.port == Port(0) && d.when == when)
            .expect("the schema's D is fed by its init edge");
        feed.instr = InstrId(entry as u32);
        feed.port = Port(slot as u8);
        // ...and, never changing, is also the value the loop exits with.
        let exits = std::mem::take(&mut block.instrs[lp.dinv[k]].dests);
        let src = &mut block.instrs[lp.init[k].0 as usize].dests;
        src.extend(exits.iter().map(|x| Dest { when, ..*x }));
        retired.extend([
            lp.d[k],
            lp.top[k],
            lp.sw[k],
            lp.body_in[k],
            lp.l[k],
            lp.dinv[k],
        ]);
    }
    for &(r, p, slot) in &plan.reads {
        let ins = &mut block.instrs[r];
        ins.consts.push((Port(p), slot));
        ins.recount();
    }
    for (k, &d) in lp.d.iter().enumerate() {
        if plan.slots.contains(&k) {
            continue;
        }
        let ins = &mut block.instrs[d];
        ins.op = OpCode::DGated { loop_id };
        ins.recount();
        block.instrs[entry].dests.push(Dest {
            instr: InstrId(d as u32),
            port: Port(1),
            when: DestBranch::Always,
        });
    }
    for &i in &retired {
        block.instrs[i].retire();
    }
    // The schema pins every in-edge of the retired nodes: each comes
    // from another retired node, except the init edge (retargeted
    // above) and the predicate's edge into each gating Switch.
    block.instrs[lp.pred]
        .dests
        .retain(|d| !retired.contains(&(d.instr.0 as usize)));
}

#[cfg(test)]
mod tests {
    use super::super::{optimize_at, OptLevel};
    use crate::builder::GraphBuilder;
    use crate::value::{AluOp, CmpOp};
    use crate::{Emulator, OpCode, Program, Value};

    /// `for i in 1..=n { s += k * i }` with `n` and `k` invariant (and a
    /// unit step), shaped like the compiler's `for` loops.
    fn scaled_sum(
        reader: impl FnOnce(&mut GraphBuilder, &[crate::NodeId]) -> crate::NodeId,
    ) -> Program {
        let mut g = GraphBuilder::new("t");
        let n = g.param();
        let k = g.param();
        let zero = g.lit(Value::Int(0));
        let one = g.lit(Value::Int(1));
        g.wire(n, zero, 0).wire(n, one, 0);
        let exits = g
            .dataflow_loop(
                &[zero, one, n, k],
                |g, tops| {
                    let c = g.instr(OpCode::Cmp(CmpOp::Le));
                    g.wire(tops[1], c, 0).wire(tops[2], c, 1);
                    c
                },
                |g, vars| {
                    let term = reader(g, vars);
                    let acc = g.instr(OpCode::Alu(AluOp::Add));
                    g.wire(vars[0], acc, 0).wire(term, acc, 1);
                    let i2 = g.instr_lit(OpCode::Alu(AluOp::Add), 1, Value::Int(1));
                    g.wire(vars[1], i2, 0);
                    vec![acc, i2, vars[2], vars[3]]
                },
            )
            .unwrap();
        let out = g.output(0);
        g.wire(exits[0], out, 0);
        let out_k = g.output(1);
        g.wire(exits[3], out_k, 0);
        g.finish_program().unwrap()
    }

    fn promoted(p: &Program) -> usize {
        optimize_at(p, OptLevel::O2).1.invariants_promoted
    }

    fn check_equivalent(p: &Program) {
        let (o2, _) = optimize_at(p, OptLevel::O2);
        for n in [0i64, 1, 2, 7] {
            let inputs = [Value::Int(n), Value::Int(3)];
            let a = Emulator::new(p).run(&inputs).unwrap();
            let b = Emulator::new(&o2).run(&inputs).unwrap();
            assert_eq!(a.outputs, b.outputs, "n = {n}");
        }
    }

    #[test]
    fn invariants_become_constants_and_stop_circulating() {
        let p = scaled_sum(|g, vars| {
            let m = g.instr(OpCode::Alu(AluOp::Mul));
            g.wire(vars[3], m, 0).wire(vars[1], m, 1);
            m
        });
        let (o2, stats) = optimize_at(&p, OptLevel::O2);
        // `n` (read by the predicate) and `k` (read by the multiply).
        assert_eq!(stats.invariants_promoted, 2, "{stats:?}");
        let ops: Vec<OpCode> = o2.blocks[0].instrs.iter().map(|i| i.op).collect();
        assert!(ops.contains(&OpCode::LoopEntry {
            loop_id: 0,
            width: 2
        }));
        assert_eq!(
            ops.iter()
                .filter(|o| matches!(o, OpCode::DGated { .. }))
                .count(),
            2,
            "the accumulator and the induction variable"
        );
        assert!(!ops.iter().any(|o| matches!(o, OpCode::D { .. })));
        check_equivalent(&p);
        // Two variables fewer cost two Switch and two L firings fewer per
        // iteration.
        let fire = |p: &Program| {
            Emulator::new(p)
                .run(&[Value::Int(40), Value::Int(3)])
                .unwrap()
                .instructions
        };
        let (o1, _) = optimize_at(&p, OptLevel::O1);
        let (o2_at_41, o2_at_40) = {
            let at = |n| {
                Emulator::new(&o2)
                    .run(&[Value::Int(n), Value::Int(3)])
                    .unwrap()
                    .instructions
            };
            (at(41), at(40))
        };
        let o1_per_iter = {
            let at = |n| {
                Emulator::new(&o1)
                    .run(&[Value::Int(n), Value::Int(3)])
                    .unwrap()
                    .instructions
            };
            at(41) - at(40)
        };
        assert_eq!(o1_per_iter - (o2_at_41 - o2_at_40), 4);
        assert!(fire(&o2) < fire(&o1));
    }

    #[test]
    fn a_reader_left_without_a_token_input_keeps_the_invariant_circulating() {
        // `k * n` reads two invariants: promoting both would leave the
        // multiply nothing to fire on, so `n` (first in variable order)
        // is promoted and `k` keeps circulating.
        let p = scaled_sum(|g, vars| {
            let m = g.instr(OpCode::Alu(AluOp::Mul));
            g.wire(vars[3], m, 0).wire(vars[2], m, 1);
            m
        });
        assert_eq!(promoted(&p), 1);
        check_equivalent(&p);
        // `k * k`: both ports on one invariant.
        let p = scaled_sum(|g, vars| {
            let m = g.instr(OpCode::Alu(AluOp::Mul));
            g.wire(vars[3], m, 0).wire(vars[3], m, 1);
            m
        });
        assert_eq!(promoted(&p), 1, "only `n`, through the predicate");
        check_equivalent(&p);
    }

    #[test]
    fn a_join_on_the_readers_port_is_refused() {
        // The reader's port 0 takes `k` and the induction variable: a
        // constant operand cannot stand in for one of two token streams.
        let p = scaled_sum(|g, vars| {
            let m = g.instr_lit(OpCode::Alu(AluOp::Add), 1, Value::Int(0));
            g.wire(vars[3], m, 0).wire(vars[1], m, 0);
            let sink = g.instr(OpCode::Sink);
            g.wire(m, sink, 0);
            vars[1]
        });
        assert_eq!(promoted(&p), 1, "only `n`");
    }

    #[test]
    fn rebinding_a_variable_to_an_invariant_is_refused() {
        // `new s = k`: the accumulator's L reads `k` straight from its
        // body input; an L cannot take a constant operand.
        let mut g = GraphBuilder::new("t");
        let n = g.param();
        let k = g.param();
        let zero = g.lit(Value::Int(0));
        let one = g.lit(Value::Int(1));
        g.wire(n, zero, 0).wire(n, one, 0);
        let exits = g
            .dataflow_loop(
                &[zero, one, n, k],
                |g, tops| {
                    let c = g.instr(OpCode::Cmp(CmpOp::Le));
                    g.wire(tops[1], c, 0).wire(tops[2], c, 1);
                    c
                },
                |g, vars| {
                    let i2 = g.instr_lit(OpCode::Alu(AluOp::Add), 1, Value::Int(1));
                    g.wire(vars[1], i2, 0);
                    vec![vars[3], i2, vars[2], vars[3]]
                },
            )
            .unwrap();
        let out = g.output(0);
        g.wire(exits[0], out, 0);
        let p = g.finish_program().unwrap();
        assert_eq!(promoted(&p), 1, "only `n`");
        check_equivalent(&p);
    }

    #[test]
    fn a_while_loop_is_left_alone() {
        // `while i <= n and k > 0`: the predicate is not one compare of
        // loop-top values, so the loop is not a plain `for` loop.
        let mut g = GraphBuilder::new("t");
        let n = g.param();
        let k = g.param();
        let one = g.lit(Value::Int(1));
        g.wire(n, one, 0);
        let exits = g
            .dataflow_loop(
                &[one, n, k],
                |g, tops| {
                    let c = g.instr(OpCode::Cmp(CmpOp::Le));
                    g.wire(tops[0], c, 0).wire(tops[1], c, 1);
                    let pos = g.instr_lit(OpCode::Cmp(CmpOp::Gt), 1, Value::Int(0));
                    g.wire(tops[2], pos, 0);
                    let both = g.instr(OpCode::And);
                    g.wire(c, both, 0).wire(pos, both, 1);
                    both
                },
                |g, vars| {
                    let i2 = g.instr(OpCode::Alu(AluOp::Add));
                    g.wire(vars[0], i2, 0).wire(vars[2], i2, 1);
                    vec![i2, vars[1], vars[2]]
                },
            )
            .unwrap();
        let out = g.output(0);
        g.wire(exits[0], out, 0);
        let p = g.finish_program().unwrap();
        assert_eq!(promoted(&p), 0);
        check_equivalent(&p);
    }

    #[test]
    fn cse_keeps_readers_of_different_slots_apart() {
        // `k + i` and `n + i` differ only in the constant slot they read
        // once both invariants are promoted; CSE must not merge them.
        let p = scaled_sum(|g, vars| {
            let a = g.instr(OpCode::Alu(AluOp::Add));
            g.wire(vars[3], a, 0).wire(vars[1], a, 1);
            let b = g.instr(OpCode::Alu(AluOp::Add));
            g.wire(vars[2], b, 0).wire(vars[1], b, 1);
            let m = g.instr(OpCode::Alu(AluOp::Mul));
            g.wire(a, m, 0).wire(b, m, 1);
            m
        });
        let (o2, stats) = optimize_at(&p, OptLevel::O2);
        assert_eq!(stats.invariants_promoted, 2, "{stats:?}");
        let readers: Vec<_> = o2.blocks[0]
            .instrs
            .iter()
            .filter(|i| i.op == OpCode::Alu(AluOp::Add) && !i.consts.is_empty())
            .map(|i| i.consts.clone())
            .collect();
        assert_eq!(readers.len(), 2, "both adds survive: {readers:?}");
        assert_ne!(readers[0], readers[1]);
        check_equivalent(&p);
    }
}
