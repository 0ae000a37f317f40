//! Identity forwarding with path compression.
//!
//! An `Identity` with no literal simply re-emits its input, so every
//! edge `S →(w) I` plus `I → T` composes to `S →(w) T`; the junction
//! disappears. (Parameter entries are kept — they are the block's input
//! ports.) The seed implementation rescanned and rewired the whole
//! block once per collapsed junction, an O(n²) cost that a 10k-junction
//! chain turns into ~10⁸ dest-list rebuilds; this version resolves each
//! junction's *flattened* destination list once, in post-order (path
//! compression over the identity subgraph), and then rewires every edge
//! in a single sweep — O(total edges) overall.

use crate::graph::{CodeBlock, Dest, OpCode};

use super::OptStats;

/// Collapses every forwardable `Identity` junction. Returns whether
/// anything changed.
pub(super) fn run(block: &mut CodeBlock, stats: &mut OptStats) -> bool {
    let n = block.instrs.len();
    let mut collapsible: Vec<bool> = block
        .instrs
        .iter()
        .enumerate()
        .map(|(i, ins)| {
            ins.op == OpCode::Identity
                && ins.literal.is_none()
                && !block.params.iter().any(|p| p.0 as usize == i)
        })
        .collect();
    if !collapsible.iter().any(|&c| c) {
        return false;
    }

    // Phase 1: DFS over the identity subgraph for cycle detection and a
    // post-order. A cycle of identities (a self-loop or longer) never
    // delivers a token anywhere new, but collapsing one would silently
    // drop the circulating tokens; any identity that is the target of a
    // back edge stays a real junction.
    const UNSEEN: u8 = 0;
    const OPEN: u8 = 1;
    const DONE: u8 = 2;
    let mut state = vec![UNSEEN; n];
    let mut postorder: Vec<usize> = Vec::new();
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if !collapsible[start] || state[start] != UNSEEN {
            continue;
        }
        stack.push((start, 0));
        state[start] = OPEN;
        while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
            if *idx < block.instrs[node].dests.len() {
                let t = block.instrs[node].dests[*idx].instr.0 as usize;
                *idx += 1;
                if collapsible[t] {
                    match state[t] {
                        UNSEEN => {
                            state[t] = OPEN;
                            stack.push((t, 0));
                        }
                        OPEN => collapsible[t] = false,
                        _ => {}
                    }
                }
            } else {
                state[node] = DONE;
                postorder.push(node);
                stack.pop();
            }
        }
    }

    // Phase 2: flattened destination lists, children before parents,
    // packed into one array (`flat[span[i]]` is junction `i`'s list).
    // An identity's own out-edges are all `Always` (it is not a
    // `Switch`), so the flattening never has branch selectors to
    // compose — the *incoming* edge's selector is applied at rewire
    // time.
    let mut flat: Vec<Dest> = Vec::new();
    let mut span = vec![0..0; n];
    for &node in &postorder {
        if !collapsible[node] {
            continue;
        }
        let begin = flat.len();
        for d in &block.instrs[node].dests {
            let t = d.instr.0 as usize;
            if collapsible[t] {
                flat.extend_from_within(span[t].clone());
            } else {
                flat.push(*d);
            }
        }
        span[node] = begin..flat.len();
    }

    // Phase 3: one rewiring sweep, composing each incoming edge's
    // branch selector over the junction's flattened list.
    for i in 0..n {
        if collapsible[i] {
            continue;
        }
        if !block.instrs[i]
            .dests
            .iter()
            .any(|d| collapsible[d.instr.0 as usize])
        {
            continue;
        }
        let old = std::mem::take(&mut block.instrs[i].dests);
        let mut nd = Vec::with_capacity(old.len());
        for d in old {
            let t = d.instr.0 as usize;
            if collapsible[t] {
                nd.extend(flat[span[t].clone()].iter().map(|vd| Dest {
                    instr: vd.instr,
                    port: vd.port,
                    when: d.when,
                }));
            } else {
                nd.push(d);
            }
        }
        block.instrs[i].dests = nd;
    }

    // The victims keep their slots but become unreachable dead code;
    // DCE compacts them away.
    let mut removed = 0;
    for (i, ins) in block.instrs.iter_mut().enumerate() {
        if collapsible[i] {
            ins.retire();
            removed += 1;
        }
    }
    stats.identities_collapsed += removed;
    removed > 0
}

#[cfg(test)]
mod tests {
    use super::super::{optimize_at, OptLevel};
    use crate::builder::GraphBuilder;
    use crate::{Emulator, OpCode, Value};

    #[test]
    fn ten_thousand_identity_chain_collapses_in_one_pass() {
        // The satellite stress test: the seed's per-victim rescan made
        // this quadratic; path compression makes it linear. No timing
        // assertion — under the seed algorithm this test does not
        // finish in any tolerable budget, so completing at all (within
        // the suite's normal runtime) is the regression check.
        let mut g = GraphBuilder::new("chain");
        let x = g.param();
        let mut prev = x;
        for _ in 0..10_000 {
            let id = g.instr(OpCode::Identity);
            g.wire(prev, id, 0);
            prev = id;
        }
        let out = g.output(0);
        g.wire(prev, out, 0);
        let p = g.finish_program().unwrap();
        let (opt, stats) = optimize_at(&p, OptLevel::O1);
        assert_eq!(stats.identities_collapsed, 10_000);
        assert_eq!(opt.instr_count(), 2, "param and output remain");
        let r = Emulator::new(&opt).run(&[Value::Int(7)]).unwrap();
        assert_eq!(r.outputs[&0], Value::Int(7));
    }

    #[test]
    fn identity_cycles_are_left_alone() {
        // a -> b -> a circulates forever; collapsing it would drop the
        // tokens. The pass must leave the cycle intact (and the rest of
        // the program optimized).
        let mut g = GraphBuilder::new("cycle");
        let x = g.param();
        let a = g.instr(OpCode::Identity);
        let b = g.instr(OpCode::Identity);
        g.wire(x, a, 0);
        g.wire(a, b, 0);
        g.wire(b, a, 0);
        let keep = g.instr(OpCode::Identity);
        g.wire(x, keep, 0);
        let out = g.output(0);
        g.wire(keep, out, 0);
        let p = g.finish_program().unwrap();
        let (opt, stats) = optimize_at(&p, OptLevel::O1);
        // `keep` collapses; at least one cycle member must survive as a
        // junction so the circulating tokens still have somewhere to go.
        assert!(stats.identities_collapsed >= 1);
        assert!(opt.validate().is_ok());
    }
}
