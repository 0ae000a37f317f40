//! Constant folding, `Switch` resolution and constant-trigger hoisting.
//!
//! Folding on a *dataflow* graph has a firing-safety obligation that
//! classical CFG folding does not: an instruction's inputs are token
//! streams, and a rewrite must preserve not just the value but *when
//! and how often* tokens flow. The rules, in terms of the
//! [unconditional set](super::analysis::unconditional):
//!
//! * A candidate with **one** incoming edge (everything else literal)
//!   may always fold: the surviving edge becomes the trigger of the
//!   replacement `Const`, which fires exactly when (and with the tag
//!   that) the original fired.
//! * A candidate with **two or more** incoming edges may only fold when
//!   every producer is in the unconditional set — then all tokens are
//!   redundant copies of the same per-activation event, and all but one
//!   edge can be dropped.
//! * A rewrite that keeps every edge (literal-controlled `Switch`
//!   resolution) is safe per-token and needs no membership proof: the
//!   replacement still fires once per incoming token, with that
//!   token's tag.

use crate::graph::{CodeBlock, DestBranch, OpCode};
use crate::tag::Port;
use crate::value::Value;

use super::analysis::{in_edge_table, unconditional, InEdges};
use super::OptStats;

/// What happens to the edges feeding one rewritten instruction, keyed
/// by destination port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PortAct {
    /// Keep the edge as is.
    Keep,
    /// Keep the edge but retarget it to port 0 (the rewritten
    /// instruction is a `Const`, triggered on port 0).
    ToPort0,
    /// Remove the edge (only legal when the producer is unconditional).
    Drop,
}

/// A planned rewrite of one instruction.
#[derive(Debug, Clone)]
struct Rewrite {
    /// The replacement opcode (`Const` or `Identity`; `nt` becomes 1
    /// and any literal is cleared).
    op: OpCode,
    /// For resolved `Switch`es: keep only destinations on this branch,
    /// and clear their selectors.
    take: Option<DestBranch>,
    /// Edge actions, indexed by port (candidates have arity ≤ 2).
    acts: [PortAct; 2],
}

/// Runs one folding sweep. Returns whether anything changed. `table`
/// is the block's in-edge table, if one is current; folding reads only
/// edge counts and lone edges, so the order of each instruction's
/// in-edges does not matter to it.
pub(super) fn run(
    block: &mut CodeBlock,
    table: &mut Option<InEdges>,
    stats: &mut OptStats,
) -> bool {
    let mut changed = hoist_const_triggers(block, table, stats);
    changed |= fold_sweep(block, table, stats);
    changed
}

/// The value statically known to arrive at `(i, port)`, if any: a
/// literal, or the output of a `Const` reached by the port's single
/// `Always` edge.
fn known_at(block: &CodeBlock, ins_of: &InEdges, i: usize, port: u8) -> Option<Value> {
    let ins = &block.instrs[i];
    if let Some((lp, lv)) = &ins.literal {
        if lp.0 == port {
            return Some(*lv);
        }
    }
    let mut feeds = ins_of[i].iter().filter(|e| e.1 == port);
    let (Some(&(src, _, when)), None) = (feeds.next(), feeds.next()) else {
        return None;
    };
    if when != DestBranch::Always {
        return None;
    }
    match block.instrs[src as usize].op {
        OpCode::Const(v) => Some(v),
        _ => None,
    }
}

/// How many in-edges of `i` feed `port`, and the first of them as
/// `(source, selector)`.
fn edges_at(ins_of: &InEdges, i: usize, port: u8) -> (usize, Option<(u32, DestBranch)>) {
    let mut feeds = ins_of[i].iter().filter(|e| e.1 == port);
    let first = feeds.next().map(|&(src, _, when)| (src, when));
    (usize::from(first.is_some()) + feeds.count(), first)
}

fn fold_sweep(block: &mut CodeBlock, table: &mut Option<InEdges>, stats: &mut OptStats) -> bool {
    let ins_of = table.get_or_insert_with(|| in_edge_table(block));
    let uncond = unconditional(block, ins_of);
    let n = block.instrs.len();
    let mut plans: Vec<Option<Rewrite>> = vec![None; n];
    let mut folded = 0usize;
    let mut resolved = 0usize;

    for (i, (ins, plan)) in block.instrs.iter().zip(&mut plans).enumerate() {
        // A loop-constant operand is invisible here (no edge, no
        // literal), so an instruction reading one is never rewritten.
        if block.params.iter().any(|p| p.0 as usize == i) || !ins.consts.is_empty() {
            continue;
        }
        match ins.op {
            OpCode::Alu(_) | OpCode::Cmp(_) | OpCode::Not | OpCode::And | OpCode::Or => {}
            OpCode::Switch => {
                *plan = plan_switch(block, ins_of, &uncond, i);
                resolved += usize::from(plan.is_some());
                continue;
            }
            _ => continue,
        }
        *plan = plan_const_fold(block, ins_of, &uncond, i);
        folded += usize::from(plan.is_some());
    }

    if folded + resolved == 0 {
        return false;
    }
    *table = None;

    // Apply: one sweep over every destination list (composing a
    // resolved Switch's own branch filter with its targets' port
    // actions), then rewrite the planned instructions themselves.
    for i in 0..n {
        let my_take = plans[i].as_ref().and_then(|r| r.take);
        let needs = my_take.is_some()
            || block.instrs[i]
                .dests
                .iter()
                .any(|d| plans[d.instr.0 as usize].is_some());
        if !needs {
            continue;
        }
        let old = std::mem::take(&mut block.instrs[i].dests);
        let mut nd = Vec::with_capacity(old.len());
        for mut d in old {
            if let Some(br) = my_take {
                if d.when != br {
                    continue; // the untaken branch never fired
                }
                d.when = DestBranch::Always;
            }
            match &plans[d.instr.0 as usize] {
                None => nd.push(d),
                Some(rw) => match rw.acts[d.port.0 as usize] {
                    PortAct::Keep => nd.push(d),
                    PortAct::ToPort0 => {
                        d.port = Port(0);
                        nd.push(d);
                    }
                    PortAct::Drop => {}
                },
            }
        }
        block.instrs[i].dests = nd;
    }
    for (ins, rw) in block.instrs.iter_mut().zip(&plans) {
        let Some(rw) = rw else {
            continue;
        };
        ins.op = rw.op;
        ins.nt = 1;
        ins.literal = None;
        if let Some(br) = rw.take {
            // Already filtered above via `my_take`; nothing further —
            // the selector rewrite happened in the dest sweep.
            debug_assert!(
                ins.dests.iter().all(|d| d.when == DestBranch::Always),
                "{br:?}"
            );
        }
    }
    stats.consts_folded += folded;
    stats.switches_resolved += resolved;
    true
}

/// Folds an ALU/compare/boolean instruction whose every operand is
/// statically known.
fn plan_const_fold(
    block: &CodeBlock,
    ins_of: &InEdges,
    uncond: &[bool],
    i: usize,
) -> Option<Rewrite> {
    let ins = &block.instrs[i];
    let arity = ins.op.arity();
    let mut vals: [Option<Value>; 2] = [None, None];
    let mut edged: [bool; 2] = [false, false];
    let mut total_edges = 0usize;
    for p in 0..arity {
        let (feeds, first) = edges_at(ins_of, i, p);
        if feeds > 1 {
            return None; // multi-token port: fires more than once
        }
        if let Some((src, _)) = first {
            if src as usize == i {
                return None;
            }
            edged[p as usize] = true;
            total_edges += 1;
        }
        vals[p as usize] = known_at(block, ins_of, i, p);
        vals[p as usize]?;
    }
    if total_edges == 0 {
        return None; // nothing ever triggers it; leave for DCE
    }
    // With multiple live edges, dropping any requires every producer to
    // be unconditional (all tokens are the same per-activation event).
    if total_edges >= 2 {
        for &(src, _, _) in &ins_of[i] {
            if !uncond[src as usize] {
                return None;
            }
        }
    }
    let result = match ins.op {
        OpCode::Alu(op) => op.apply(&vals[0]?, &vals[1]?).ok()?,
        OpCode::Cmp(op) => op.apply(&vals[0]?, &vals[1]?).ok()?,
        OpCode::Not => match vals[0]? {
            Value::Bool(b) => Value::Bool(!b),
            _ => return None,
        },
        OpCode::And | OpCode::Or => match (vals[0]?, vals[1]?) {
            (Value::Bool(a), Value::Bool(b)) => Value::Bool(if ins.op == OpCode::And {
                a && b
            } else {
                a || b
            }),
            _ => return None,
        },
        _ => return None,
    };
    // Keep the lowest edged port as the trigger; drop the rest.
    let mut acts = [PortAct::Keep; 2];
    let mut kept = false;
    for p in 0..arity as usize {
        if !edged[p] {
            continue;
        }
        if !kept {
            acts[p] = if p == 0 {
                PortAct::Keep
            } else {
                PortAct::ToPort0
            };
            kept = true;
        } else {
            acts[p] = PortAct::Drop;
        }
    }
    Some(Rewrite {
        op: OpCode::Const(result),
        take: None,
        acts,
    })
}

/// Resolves a `Switch` whose control input is statically known.
fn plan_switch(block: &CodeBlock, ins_of: &InEdges, uncond: &[bool], i: usize) -> Option<Rewrite> {
    let ins = &block.instrs[i];
    let data_lit = ins
        .literal
        .as_ref()
        .filter(|(lp, _)| lp.0 == 0)
        .map(|(_, v)| *v);
    let ctl_lit = ins
        .literal
        .as_ref()
        .filter(|(lp, _)| lp.0 == 1)
        .map(|(_, v)| *v);

    if let Some(Value::Bool(b)) = ctl_lit {
        // Literal control: every data token is routed the same way;
        // per-token safe with no edge changes.
        return Some(Rewrite {
            op: OpCode::Identity,
            take: Some(if b {
                DestBranch::IfTrue
            } else {
                DestBranch::IfFalse
            }),
            acts: [PortAct::Keep; 2],
        });
    }

    // Control from a Const: the control token is a single
    // per-activation event, so the data side must be one too (a data
    // stream with other tags would only ever match the one control
    // token — forwarding *all* of it would change behaviour).
    let (1, Some((ctl, ctl_when))) = edges_at(ins_of, i, 1) else {
        return None;
    };
    if ctl_when != DestBranch::Always || !uncond[ctl as usize] {
        return None;
    }
    let OpCode::Const(Value::Bool(b)) = block.instrs[ctl as usize].op else {
        return None;
    };
    let take = Some(if b {
        DestBranch::IfTrue
    } else {
        DestBranch::IfFalse
    });

    if let Some(v) = data_lit {
        // Literal data, Const control: the control edge becomes the
        // trigger of a Const holding the routed value.
        return Some(Rewrite {
            op: OpCode::Const(v),
            take,
            acts: [PortAct::Keep, PortAct::ToPort0],
        });
    }
    let (1, Some((data, data_when))) = edges_at(ins_of, i, 0) else {
        return None;
    };
    if data_when != DestBranch::Always || !uncond[data as usize] {
        return None;
    }
    Some(Rewrite {
        op: OpCode::Identity,
        take,
        acts: [PortAct::Keep, PortAct::Drop],
    })
}

/// Hoists constant triggers: a `Const` triggered by another `Const` is
/// really triggered by whatever fires the chain's root, so the edge can
/// skip the intermediate hops (which then die in DCE). `Const` emits
/// with its trigger token's tag, so hoisting is unconditionally safe.
fn hoist_const_triggers(
    block: &mut CodeBlock,
    table: &mut Option<InEdges>,
    stats: &mut OptStats,
) -> bool {
    let ins_of = table.get_or_insert_with(|| in_edge_table(block));
    let n = block.instrs.len();
    // The one in-edge, as `(source, selector)`, of a `Const` that has
    // exactly one.
    let single_const_trigger = |i: usize| -> Option<(u32, DestBranch)> {
        if !matches!(block.instrs[i].op, OpCode::Const(_)) {
            return None;
        }
        if block.params.iter().any(|p| p.0 as usize == i) {
            return None;
        }
        let &[(src, _, when)] = &ins_of[i] else {
            return None;
        };
        Some((src, when))
    };
    // plan: (const instr, old parent, new root, selector at the root)
    let mut moves: Vec<(usize, usize, usize, DestBranch)> = Vec::new();
    for i in 0..n {
        let Some((src, _)) = single_const_trigger(i) else {
            continue;
        };
        let parent = src as usize;
        if single_const_trigger(parent).is_none() {
            continue;
        }
        // Walk to the root of the constant chain (bounded: a cycle of
        // constants can never fire, so walking it forever would be
        // wasted work, not wrong output — cap at block size).
        let mut cur = parent;
        let mut hops = 0usize;
        let (root, when) = loop {
            match single_const_trigger(cur) {
                Some((up, up_when)) if hops < n => {
                    let upsrc = up as usize;
                    if single_const_trigger(upsrc).is_some() {
                        cur = upsrc;
                        hops += 1;
                    } else {
                        break (upsrc, up_when);
                    }
                }
                _ => break (cur, DestBranch::Always),
            }
        };
        if root == i {
            continue; // constant cycle
        }
        moves.push((i, parent, root, when));
    }
    if moves.is_empty() {
        return false;
    }
    *table = None;
    for &(i, parent, root, when) in &moves {
        // Remove the one parent→i edge, then wire root→i as the new
        // trigger.
        if let Some(pos) = block.instrs[parent]
            .dests
            .iter()
            .position(|d| d.instr.0 as usize == i)
        {
            block.instrs[parent].dests.remove(pos);
        }
        block.instrs[root].dests.push(crate::graph::Dest {
            instr: crate::graph::InstrId(i as u32),
            port: Port(0),
            when,
        });
    }
    stats.consts_folded += moves.len();
    true
}

#[cfg(test)]
mod tests {
    use super::super::{assert_equivalent, optimize_at, OptLevel};
    use crate::builder::GraphBuilder;
    use crate::value::{AluOp, CmpOp};
    use crate::{Emulator, OpCode, Value};

    #[test]
    fn constant_chains_fold_to_a_single_const() {
        // (2 + 3) * 4 -> 20, triggered straight off the parameter.
        let mut g = GraphBuilder::new("t");
        let x = g.param();
        let c2 = g.lit(Value::Int(2));
        let c3 = g.lit(Value::Int(3));
        g.wire(x, c2, 0);
        g.wire(x, c3, 0);
        let add = g.instr(OpCode::Alu(AluOp::Add));
        g.wire(c2, add, 0);
        g.wire(c3, add, 1);
        let mul = g.instr_lit(OpCode::Alu(AluOp::Mul), 1, Value::Int(4));
        g.wire(add, mul, 0);
        let out = g.output(0);
        g.wire(mul, out, 0);
        let p = g.finish_program().unwrap();
        let (opt, stats) = optimize_at(&p, OptLevel::O2);
        assert!(stats.consts_folded >= 2, "{stats:?}");
        assert_equivalent(&p, &opt, &[Value::Int(1)]);
        assert!(opt.instr_count() <= 3, "{}", opt.instr_count());
        let r = Emulator::new(&opt).run(&[Value::Int(1)]).unwrap();
        assert_eq!(r.outputs[&0], Value::Int(20));
    }

    #[test]
    fn literal_controlled_switch_resolves() {
        let mut g = GraphBuilder::new("t");
        let x = g.param();
        let sw = g.instr_lit(OpCode::Switch, 1, Value::Bool(true));
        g.wire(x, sw, 0);
        let t_add = g.instr_lit(OpCode::Alu(AluOp::Add), 1, Value::Int(1));
        let f_sub = g.instr_lit(OpCode::Alu(AluOp::Sub), 1, Value::Int(1));
        g.wire_true(sw, t_add, 0);
        g.wire_false(sw, f_sub, 0);
        let out = g.output(0);
        g.wire(t_add, out, 0);
        let out2 = g.output(1);
        g.wire(f_sub, out2, 0);
        let p = g.finish_program().unwrap();
        let (opt, stats) = optimize_at(&p, OptLevel::O2);
        assert!(stats.switches_resolved >= 1, "{stats:?}");
        let a = Emulator::new(&p).run(&[Value::Int(9)]).unwrap();
        let b = Emulator::new(&opt).run(&[Value::Int(9)]).unwrap();
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(b.outputs.get(&0), Some(&Value::Int(10)));
        assert_eq!(b.outputs.get(&1), None, "false branch never fires");
        assert!(b.instructions < a.instructions);
    }

    #[test]
    fn const_controlled_switch_respects_the_unconditional_guard() {
        // Control comes from a Const; data from the parameter (one
        // token, unconditional) — resolvable.
        let mut g = GraphBuilder::new("t");
        let x = g.param();
        let ctl = g.lit(Value::Bool(false));
        g.wire(x, ctl, 0);
        let sw = g.instr(OpCode::Switch);
        g.wire(x, sw, 0);
        g.wire(ctl, sw, 1);
        let t_id = g.instr_lit(OpCode::Alu(AluOp::Add), 1, Value::Int(7));
        g.wire_true(sw, t_id, 0);
        let f_id = g.instr_lit(OpCode::Alu(AluOp::Sub), 1, Value::Int(7));
        g.wire_false(sw, f_id, 0);
        let out = g.output(0);
        g.wire(t_id, out, 0);
        g.wire(f_id, out, 0);
        let p = g.finish_program().unwrap();
        let (opt, stats) = optimize_at(&p, OptLevel::O2);
        assert!(stats.switches_resolved >= 1, "{stats:?}");
        assert_equivalent(&p, &opt, &[Value::Int(50)]);
    }

    #[test]
    fn a_two_token_join_is_not_folded() {
        // Two integer constants fan into one port: two tokens per
        // activation, so `+ 0` is not a constant fold. O2 still removes
        // the junction.
        let mut g = GraphBuilder::new("t");
        let x = g.param();
        let c3 = g.lit(Value::Int(3));
        let c5 = g.lit(Value::Int(5));
        g.wire(x, c3, 0);
        g.wire(x, c5, 0);
        let j = g.instr(OpCode::Identity);
        g.wire(c3, j, 0);
        g.wire(c5, j, 0);
        let a = g.instr_lit(OpCode::Alu(AluOp::Add), 1, Value::Int(0));
        g.wire(j, a, 0);
        let out = g.output(0);
        g.wire(a, out, 0);
        let p = g.finish_program().unwrap();
        let (opt, _) = optimize_at(&p, OptLevel::O2);
        assert_equivalent(&p, &opt, &[Value::Int(1)]);
        let a_run = Emulator::new(&p).run(&[Value::Int(1)]).unwrap();
        let b_run = Emulator::new(&opt).run(&[Value::Int(1)]).unwrap();
        assert!(b_run.instructions < a_run.instructions);
    }

    #[test]
    fn an_int_literal_promotes_a_folded_float() {
        // 1.5 + 0 folds to Float(1.5), not to an integer: the fold
        // evaluates the add, with the emulator's int→float promotion.
        let mut g = GraphBuilder::new("t");
        let x = g.param();
        let cf = g.lit(Value::Float(1.5));
        g.wire(x, cf, 0);
        let a = g.instr_lit(OpCode::Alu(AluOp::Add), 1, Value::Int(0));
        g.wire(cf, a, 0);
        let out = g.output(0);
        g.wire(a, out, 0);
        let p = g.finish_program().unwrap();
        let (opt, _) = optimize_at(&p, OptLevel::O2);
        let r = Emulator::new(&opt).run(&[Value::Int(1)]).unwrap();
        assert_eq!(r.outputs[&0], Value::Float(1.5));
        assert_equivalent(&p, &opt, &[Value::Int(1)]);
    }

    #[test]
    fn division_and_comparison_errors_never_fold() {
        // 1/0 raises at run time; the fold must not evaluate it (and
        // must not delete it either — the error is observable).
        let mut g = GraphBuilder::new("t");
        let x = g.param();
        let c1 = g.lit(Value::Int(1));
        g.wire(x, c1, 0);
        let div = g.instr_lit(OpCode::Alu(AluOp::Div), 1, Value::Int(0));
        g.wire(c1, div, 0);
        let out = g.output(0);
        g.wire(div, out, 0);
        let p = g.finish_program().unwrap();
        let (opt, stats) = optimize_at(&p, OptLevel::O2);
        assert_eq!(stats.consts_folded, 0, "{stats:?}");
        assert!(Emulator::new(&p).run(&[Value::Int(1)]).is_err());
        assert!(Emulator::new(&opt).run(&[Value::Int(1)]).is_err());
        // Also: ordered comparison of booleans is an error, not `false`.
        let mut g = GraphBuilder::new("t2");
        let x = g.param();
        let cb = g.lit(Value::Bool(true));
        g.wire(x, cb, 0);
        let cmp = g.instr_lit(OpCode::Cmp(CmpOp::Lt), 1, Value::Bool(false));
        g.wire(cb, cmp, 0);
        let out = g.output(0);
        g.wire(cmp, out, 0);
        let p2 = g.finish_program().unwrap();
        let (opt2, stats2) = optimize_at(&p2, OptLevel::O2);
        assert_eq!(stats2.consts_folded, 0, "{stats2:?}");
        assert!(Emulator::new(&opt2).run(&[Value::Int(1)]).is_err());
    }
}
