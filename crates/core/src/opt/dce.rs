//! Dead-code elimination and instruction-id compaction.
//!
//! An instruction is dead if it is pure and has no live destinations;
//! removing it may strand its producers, so the scan iterates to a
//! fixed point before the surviving instructions are renumbered.

use crate::graph::{CodeBlock, InstrId, OpCode};

use super::OptStats;

/// Whether removing a destination-less instance of `op` can never
/// change the program's observable behaviour.
///
/// `IFetch` is deliberately **not** pure: a destination-less fetch
/// still races the matching store at run time, so removing it changes
/// the machine's I-structure traffic — `istore_immediate` vs
/// `istore_deferred` counters and the deferred-read queues the E6
/// experiment measures (a fetch that arrives before its store parks in
/// the deferred list; deleting it deletes that event). Output *values*
/// would survive, but the optimizer's contract for structure traffic is
/// to preserve it whenever the graph shape around stores is preserved.
pub(super) fn is_pure(op: &OpCode) -> bool {
    matches!(
        op,
        OpCode::Identity
            | OpCode::Const(_)
            | OpCode::Alu(_)
            | OpCode::Cmp(_)
            | OpCode::Not
            | OpCode::And
            | OpCode::Or
            | OpCode::Switch
            | OpCode::L
            | OpCode::LInv
            | OpCode::D { .. }
            | OpCode::DGated { .. }
            | OpCode::LoopEntry { .. }
            | OpCode::DInv
            | OpCode::Sink
    )
}

/// Removes dead instructions and compacts ids in place (the pass
/// pipeline runs it last, exactly once).
pub(super) fn run(block: &mut CodeBlock, stats: &mut OptStats) {
    let instrs = &block.instrs;
    let params = &block.params;
    let is_param = |id: usize| params.iter().any(|p| p.0 as usize == id);

    // Destinations mostly lie later in the block, so a backward sweep
    // kills most dead chains in one round; the fixed point does not
    // depend on the order.
    let mut dead = vec![false; instrs.len()];
    loop {
        let mut changed = false;
        for (i, ins) in instrs.iter().enumerate().rev() {
            if dead[i] || is_param(i) {
                continue;
            }
            let live_dests = ins
                .dests
                .iter()
                .filter(|d| !dead[d.instr.0 as usize])
                .count();
            if live_dests == 0 && is_pure(&ins.op) {
                dead[i] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Renumber: live instructions move down over the dead ones and keep
    // only their edges to live instructions.
    let mut remap = vec![DEAD; instrs.len()];
    let mut live = 0u32;
    for (new, &d) in remap.iter_mut().zip(&dead) {
        if !d {
            *new = live;
            live += 1;
        }
    }
    stats.dead_removed += instrs.len() - live as usize;
    let mut i = 0;
    block.instrs.retain_mut(|ins| {
        let keep = remap[i] != DEAD;
        i += 1;
        if keep {
            ins.dests.retain_mut(|d| {
                d.instr = InstrId(remap[d.instr.0 as usize]);
                d.instr.0 != DEAD
            });
        }
        keep
    });
    for p in &mut block.params {
        p.0 = remap[p.0 as usize];
    }
    // Any criticality annotation on the input block describes the old
    // instruction numbering; drop it (annotation runs after the whole
    // pipeline, not inside it).
    block.criticality = Vec::new();
}

/// [`run`]'s new id of a removed instruction.
const DEAD: u32 = u32::MAX;

#[cfg(test)]
mod tests {
    use super::super::{optimize_at, OptLevel};
    use crate::builder::GraphBuilder;
    use crate::{Emulator, OpCode, Value};

    #[test]
    fn destless_ifetch_is_pinned_and_traffic_preserved() {
        // The satellite audit: a destination-less IFetch still races
        // the store, and the E6 deferred-read accounting depends on
        // that event existing. DCE must keep it — and the I-structure
        // counters must match the unoptimized run exactly.
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
        // The audited instruction: a fetch nobody reads.
        let f = g.instr_lit(OpCode::IFetch, 1, Value::Int(0));
        g.wire(alloc, f, 0);
        let out = g.output(0);
        g.wire(x, out, 0);
        let p = g.finish_program().unwrap();
        for level in OptLevel::ALL {
            let (opt, _) = optimize_at(&p, level);
            assert!(
                opt.blocks[0].instrs.iter().any(|i| i.op == OpCode::IFetch),
                "{level}: destless IFetch must survive DCE"
            );
            let a = Emulator::new(&p).run(&[Value::Int(5)]).unwrap();
            let b = Emulator::new(&opt).run(&[Value::Int(5)]).unwrap();
            assert_eq!(a.outputs, b.outputs);
            assert_eq!(
                (a.istore_immediate, a.istore_deferred, a.istore_writes),
                (b.istore_immediate, b.istore_deferred, b.istore_writes),
                "{level}: I-structure traffic must be preserved"
            );
        }
    }
}
