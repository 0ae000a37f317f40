//! Local common-subexpression elimination.
//!
//! Two instructions in one code block are duplicates when they run the
//! same operation, carry the same literal, and receive their operands
//! from the same sources on the same ports with the same branch
//! selectors — then every activation delivers them identical token
//! streams (with identical tags), so they produce identical outputs and
//! one can absorb the other's destinations. Merging is firing-safe by
//! construction: the survivor's input tokens are untouched, and the
//! victim simply stops receiving tokens (its in-edges are dropped) and
//! dies in DCE.
//!
//! The domain is the pure value ops (`Const`/`Alu`/`Cmp`/`Not`/`And`/
//! `Or`); `Identity` belongs to forwarding, `Switch` routing is shape,
//! and tag operators/parameters are pinned. The pass iterates because a
//! merge makes downstream consumers' keys converge.

use std::collections::{BTreeMap, HashMap};

use crate::graph::{CodeBlock, DestBranch, OpCode};

use super::OptStats;

/// One round of merging. Returns whether anything changed.
pub(super) fn run(block: &mut CodeBlock, stats: &mut OptStats) -> bool {
    let mut any = false;
    loop {
        let n = block.instrs.len();
        // Use-side view, rebuilt per round (merges invalidate it).
        let mut in_edges: Vec<Vec<(u32, u8, DestBranch)>> = vec![Vec::new(); n];
        for (i, ins) in block.instrs.iter().enumerate() {
            for d in &ins.dests {
                in_edges[d.instr.0 as usize].push((i as u32, d.port.0, d.when));
            }
        }
        let key = |i: usize| -> Option<String> {
            let ins = &block.instrs[i];
            if !matches!(
                ins.op,
                OpCode::Const(_)
                    | OpCode::Alu(_)
                    | OpCode::Cmp(_)
                    | OpCode::Not
                    | OpCode::And
                    | OpCode::Or
            ) {
                return None;
            }
            if block.params.iter().any(|p| p.0 as usize == i) {
                return None;
            }
            let mut ports: Vec<Vec<(u32, u8, DestBranch)>> =
                vec![Vec::new(); ins.op.arity() as usize];
            for &(src, port, when) in &in_edges[i] {
                if src as usize == i {
                    return None; // self-loop: not a pure value stream
                }
                ports[port as usize].push((src, port, when));
            }
            for p in &mut ports {
                p.sort_by_key(|&(src, _, when)| (src, when_rank(when)));
            }
            // Float literals render with a stable Debug form, so a
            // string key is deterministic and hash-friendly despite
            // `Value` not implementing `Hash`. Loop-constant operands
            // are part of the key: two readers that differ only in the
            // slot they read compute different values.
            Some(format!(
                "{:?}|{:?}|{:?}|{ports:?}",
                ins.op, ins.literal, ins.consts
            ))
        };

        // First occurrence of a key is the representative; later ones
        // merge into it. A representative can never itself be merged
        // this round (it would have matched an earlier occurrence).
        // Victims are kept in index order: the merge loop below extends
        // the survivors' dest lists, and iterating a hash map there
        // would make the compiled program's edge order — and with it
        // every order-sensitive downstream measurement (timed-machine
        // makespans, token traces) — vary run to run.
        let mut table: HashMap<String, usize> = HashMap::new();
        let mut merged_into: BTreeMap<usize, usize> = BTreeMap::new();
        for i in 0..n {
            let Some(k) = key(i) else { continue };
            match table.get(&k) {
                None => {
                    table.insert(k, i);
                }
                Some(&rep) => {
                    merged_into.insert(i, rep);
                }
            }
        }
        if merged_into.is_empty() {
            return any;
        }
        // The survivor absorbs the victim's destinations; every edge
        // into a victim is dropped (sources fire regardless of fan-out,
        // so dropping a delivery to a now-silent duplicate is safe).
        for (&victim, &rep) in &merged_into {
            let dests = std::mem::take(&mut block.instrs[victim].dests);
            block.instrs[rep].dests.extend(dests);
            // Neutralize the victim so later rounds cannot key two
            // emptied duplicates against each other; DCE reaps Sinks.
            block.instrs[victim].retire();
        }
        for ins in &mut block.instrs {
            ins.dests
                .retain(|d| !merged_into.contains_key(&(d.instr.0 as usize)));
        }
        stats.cse_merged += merged_into.len();
        any = true;
    }
}

fn when_rank(w: DestBranch) -> u8 {
    match w {
        DestBranch::Always => 0,
        DestBranch::IfTrue => 1,
        DestBranch::IfFalse => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::super::{assert_equivalent, optimize_at, OptLevel};
    use crate::builder::GraphBuilder;
    use crate::value::AluOp;
    use crate::{Emulator, OpCode, Value};

    #[test]
    fn duplicate_subexpressions_merge() {
        // (x+y) + (x+y) with the addend computed twice.
        let mut g = GraphBuilder::new("t");
        let x = g.param();
        let y = g.param();
        let a1 = g.instr(OpCode::Alu(AluOp::Add));
        g.wire(x, a1, 0);
        g.wire(y, a1, 1);
        let a2 = g.instr(OpCode::Alu(AluOp::Add));
        g.wire(x, a2, 0);
        g.wire(y, a2, 1);
        let sum = g.instr(OpCode::Alu(AluOp::Add));
        g.wire(a1, sum, 0);
        g.wire(a2, sum, 1);
        let out = g.output(0);
        g.wire(sum, out, 0);
        let p = g.finish_program().unwrap();
        let (opt, stats) = optimize_at(&p, OptLevel::O2);
        assert!(stats.cse_merged >= 1, "{stats:?}");
        assert_equivalent(&p, &opt, &[Value::Int(3), Value::Int(4)]);
        let a = Emulator::new(&p)
            .run(&[Value::Int(3), Value::Int(4)])
            .unwrap();
        let b = Emulator::new(&opt)
            .run(&[Value::Int(3), Value::Int(4)])
            .unwrap();
        assert_eq!(b.outputs[&0], Value::Int(14));
        assert!(
            b.instructions < a.instructions,
            "{} {}",
            b.instructions,
            a.instructions
        );
        assert!(b.alu_ops < a.alu_ops);
    }

    #[test]
    fn different_ports_and_literals_do_not_merge() {
        // x-y vs y-x share sources but not port assignments.
        let mut g = GraphBuilder::new("t");
        let x = g.param();
        let y = g.param();
        let s1 = g.instr(OpCode::Alu(AluOp::Sub));
        g.wire(x, s1, 0);
        g.wire(y, s1, 1);
        let s2 = g.instr(OpCode::Alu(AluOp::Sub));
        g.wire(y, s2, 0);
        g.wire(x, s2, 1);
        let o1 = g.output(0);
        let o2 = g.output(1);
        g.wire(s1, o1, 0);
        g.wire(s2, o2, 0);
        let p = g.finish_program().unwrap();
        let (opt, stats) = optimize_at(&p, OptLevel::O2);
        assert_eq!(stats.cse_merged, 0, "{stats:?}");
        let r = Emulator::new(&opt)
            .run(&[Value::Int(10), Value::Int(3)])
            .unwrap();
        assert_eq!(r.outputs[&0], Value::Int(7));
        assert_eq!(r.outputs[&1], Value::Int(-7));
    }
}
