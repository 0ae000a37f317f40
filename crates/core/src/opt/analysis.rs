//! Per-block analyses for the optimizer and the schedulers: the packed
//! in-edge table, critical-path depth and height, and the unconditional
//! set. Outside this crate only [`critical_path`] is public; the `opt`
//! subcommand of ttda-bench and E22 report it.
//!
//! Each is valid only for the exact block it was computed from: **every
//! rewrite invalidates every analysis** (DESIGN.md §14), so passes
//! rebuild what they read after a rewrite instead of patching it. A
//! pass builds only what it reads: the rewrite passes share the
//! in-edge table while the block is unchanged (and folding builds the
//! unconditional set on top of it), while depth and height
//! (`Analysis`) are for the criticality annotation, the schedulers and
//! [`critical_path`].

use std::ops::Index;

use crate::graph::{CodeBlock, DestBranch, OpCode};

/// Per instruction: its in-edges as `(source, port, selector)`, in
/// source order, packed into one array (`ins_of[i]` is a slice). The
/// use-side view of every [`Dest`](crate::graph::Dest): together with
/// the forward `dests` lists these form the block's def-use chains.
/// Building it allocates three vectors, not one per instruction.
pub(super) struct InEdges {
    start: Vec<u32>,
    edges: Vec<(u32, u8, DestBranch)>,
}

impl Index<usize> for InEdges {
    type Output = [(u32, u8, DestBranch)];

    fn index(&self, i: usize) -> &Self::Output {
        &self.edges[self.start[i] as usize..self.start[i + 1] as usize]
    }
}

impl InEdges {
    /// Puts each instruction's in-edges in [`canonical_order`].
    pub(super) fn canonicalize(&mut self) {
        for w in self.start.windows(2) {
            canonical_order(&mut self.edges[w[0] as usize..w[1] as usize]);
        }
    }
}

/// Sorts in-edges by port, then source, then branch selector: two
/// instructions whose inputs are the same multiset of edges then have
/// equal slices.
pub(super) fn canonical_order(edges: &mut [(u32, u8, DestBranch)]) {
    let rank = |w: DestBranch| match w {
        DestBranch::Always => 0u8,
        DestBranch::IfTrue => 1,
        DestBranch::IfFalse => 2,
    };
    edges.sort_unstable_by_key(|&(src, port, when)| (port, src, rank(when)));
}

/// The in-edge table of `block`.
pub(super) fn in_edge_table(block: &CodeBlock) -> InEdges {
    let n = block.instrs.len();
    let mut start = vec![0u32; n + 1];
    for ins in &block.instrs {
        for d in &ins.dests {
            start[d.instr.0 as usize + 1] += 1;
        }
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }
    let mut next = start.clone();
    let mut edges = vec![(0, 0, DestBranch::Always); start[n] as usize];
    for (i, ins) in block.instrs.iter().enumerate() {
        for d in &ins.dests {
            let slot = &mut next[d.instr.0 as usize];
            edges[*slot as usize] = (i as u32, d.port.0, d.when);
            *slot += 1;
        }
    }
    InEdges { start, edges }
}

/// Critical-path depth and height of one code block.
#[derive(Debug, Clone)]
pub(crate) struct Analysis {
    /// Critical-path depth: the longest acyclic path (in instructions)
    /// from any entry to this instruction, ignoring loop back edges.
    /// Entries have depth 0; unreachable instructions report 0.
    pub depth: Vec<u32>,
    /// Critical-path height: the longest path (in instructions) from
    /// this instruction to any exit (a node with no non-back out-edges),
    /// where loop back edges may be traversed **once** — the *remaining*
    /// work below the node, where [`Analysis::depth`] is the acyclic
    /// work above it. Exits have height 0; unreachable instructions
    /// report 0. This is the criticality the schedulers consume: a ready
    /// token aimed at a high-height instruction gates a longer
    /// dependence chain than one aimed at a leaf. The one back-edge
    /// traversal matters for loops: the producer of a loop-carried value
    /// gates the *entire next iteration*, so it (and the chain feeding
    /// it) inherits the loop entry's height instead of the nearly-zero
    /// height a pure DAG view would give it.
    pub height: Vec<u32>,
}

impl Analysis {
    /// Computes depth and height for `block`.
    pub(crate) fn of(block: &CodeBlock) -> Analysis {
        let n = block.instrs.len();
        let ins_of = in_edge_table(block);

        // Entries: parameters plus anything with no incoming edge.
        let mut is_entry: Vec<bool> = (0..n).map(|i| ins_of[i].is_empty()).collect();
        for p in &block.params {
            is_entry[p.0 as usize] = true;
        }
        let entries: Vec<usize> = (0..n).filter(|&i| is_entry[i]).collect();

        // DFS from every entry in index order: reachability, postorder,
        // and back-edge marking (edge into a node still on the stack).
        const UNSEEN: u8 = 0;
        const OPEN: u8 = 1;
        const DONE: u8 = 2;
        let mut state = vec![UNSEEN; n];
        let mut postorder: Vec<usize> = Vec::with_capacity(n);
        let mut back = vec![Vec::new(); n]; // per node: in-edge indexes that are back edges
        for &e in &entries {
            if state[e] != UNSEEN {
                continue;
            }
            let mut stack: Vec<(usize, usize)> = vec![(e, 0)];
            state[e] = OPEN;
            while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
                if *idx < block.instrs[node].dests.len() {
                    let d = block.instrs[node].dests[*idx];
                    *idx += 1;
                    let t = d.instr.0 as usize;
                    match state[t] {
                        UNSEEN => {
                            state[t] = OPEN;
                            stack.push((t, 0));
                        }
                        OPEN => {
                            // A back edge; record it on the *target* as
                            // the index of the first matching in-edge
                            // not already marked (duplicate parallel
                            // edges are each their own back edge).
                            let pos = ins_of[t].iter().enumerate().find_map(|(k, &e)| {
                                (e == (node as u32, d.port.0, d.when) && !back[t].contains(&k))
                                    .then_some(k)
                            });
                            if let Some(k) = pos {
                                back[t].push(k);
                            }
                        }
                        _ => {}
                    }
                } else {
                    state[node] = DONE;
                    postorder.push(node);
                    stack.pop();
                }
            }
        }
        let reachable: Vec<bool> = state.iter().map(|&s| s == DONE).collect();

        // Critical-path depth over the back-edge-free DAG, in reverse
        // postorder (all non-back predecessors of a node precede it).
        let mut depth = vec![0u32; n];
        for &v in postorder.iter().rev() {
            let mut d = 0u32;
            for (k, &(src, _, _)) in ins_of[v].iter().enumerate() {
                if back[v].contains(&k) {
                    continue;
                }
                let p = src as usize;
                if reachable[p] {
                    d = d.max(depth[p] + 1);
                }
            }
            depth[v] = d;
        }

        // Critical-path height over the same DAG, in postorder (all
        // non-back successors of a node are processed before it, so a
        // node's own height is final when it pushes height+1 into its
        // producers).
        let mut height = vec![0u32; n];
        let dag_pass = |height: &mut Vec<u32>| {
            for &v in &postorder {
                for (k, &(src, _, _)) in ins_of[v].iter().enumerate() {
                    if back[v].contains(&k) {
                        continue;
                    }
                    let p = src as usize;
                    if reachable[p] {
                        height[p] = height[p].max(height[v] + 1);
                    }
                }
            }
        };
        dag_pass(&mut height);
        // Loop-carried boost: a back edge's producer gates the whole
        // next iteration, so seed it with the loop entry's height and
        // re-run the DAG pass to flow the boost up the chain feeding
        // it. (One traversal of each back edge; heights only grow, and
        // the second pass sees final consumer heights in postorder, so
        // one re-run reaches the fixed point for these seeds.)
        let mut seeded = false;
        for v in 0..n {
            for &k in &back[v] {
                let p = ins_of[v][k].0 as usize;
                if reachable[p] && height[p] < height[v] + 1 {
                    height[p] = height[v] + 1;
                    seeded = true;
                }
            }
        }
        if seeded {
            dag_pass(&mut height);
        }

        Analysis { depth, height }
    }
}

/// The *unconditional set* of `block`, whose in-edge table is `ins_of`:
/// the instructions proven to fire exactly once per block activation,
/// with the activation's own tag. Membership requires a pure
/// single-token opcode whose every operand is a literal or a single
/// `Always` edge from another member (parameters with no extra in-edges
/// seed the set). Members are the only places a rewrite may *drop* an
/// edge: a member's token is redundant with any other member's token
/// arrival. Grown to a fixed point.
pub(super) fn unconditional(block: &CodeBlock, ins_of: &InEdges) -> Vec<bool> {
    let n = block.instrs.len();
    let mut uncond = vec![false; n];
    for p in &block.params {
        let i = p.0 as usize;
        if ins_of[i].is_empty() {
            uncond[i] = true;
        }
    }
    loop {
        let mut changed = false;
        'node: for (i, ins) in block.instrs.iter().enumerate() {
            if uncond[i] {
                continue;
            }
            if !matches!(
                ins.op,
                OpCode::Identity
                    | OpCode::Const(_)
                    | OpCode::Alu(_)
                    | OpCode::Cmp(_)
                    | OpCode::Not
                    | OpCode::And
                    | OpCode::Or
            ) {
                continue;
            }
            if block.params.iter().any(|p| p.0 as usize == i) {
                continue;
            }
            for p in 0..ins.op.arity() {
                if ins.literal.as_ref().is_some_and(|(lp, _)| lp.0 == p) {
                    continue;
                }
                let mut feeds = ins_of[i].iter().filter(|&&(_, port, _)| port == p);
                let (Some(&(src, _, when)), None) = (feeds.next(), feeds.next()) else {
                    continue 'node;
                };
                if when != DestBranch::Always || !uncond[src as usize] {
                    continue 'node;
                }
            }
            uncond[i] = true;
            changed = true;
        }
        if !changed {
            break;
        }
    }
    uncond
}

/// The graph-level critical path of a whole program: the longest
/// acyclic path (in instructions, ignoring loop back edges) from an
/// entry of any block, i.e. the longest chain of data-dependent
/// instructions within any single activation (a lower bound on
/// end-to-end latency; inter-block `Apply` chains compose on top of it).
pub fn critical_path(program: &crate::graph::Program) -> u32 {
    program
        .blocks
        .iter()
        .map(|b| Analysis::of(b).depth.iter().copied().max().unwrap_or(0))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::value::{AluOp, CmpOp};
    use crate::Value;

    #[test]
    fn diamond_depth_and_height() {
        // x -> a -> c, x -> b -> c: depth(c) = 2.
        let mut g = GraphBuilder::new("t");
        let x = g.param();
        let a = g.instr_lit(OpCode::Alu(AluOp::Add), 1, Value::Int(1));
        let b = g.instr_lit(OpCode::Alu(AluOp::Mul), 1, Value::Int(2));
        let c = g.instr(OpCode::Alu(AluOp::Add));
        g.wire(x, a, 0);
        g.wire(x, b, 0);
        g.wire(a, c, 0);
        g.wire(b, c, 1);
        let out = g.output(0);
        g.wire(c, out, 0);
        let p = g.finish_program().unwrap();
        let an = Analysis::of(&p.blocks[0]);
        assert_eq!(an.depth[x.id.0 as usize], 0);
        assert_eq!(an.depth[c.id.0 as usize], 2);
        assert_eq!(an.depth[out.id.0 as usize], 3);
        // Height mirrors depth from the other end of the DAG: the sink
        // has nothing below it, the entry has the whole path.
        assert_eq!(an.height[out.id.0 as usize], 0);
        assert_eq!(an.height[c.id.0 as usize], 1);
        assert_eq!(an.height[a.id.0 as usize], 2);
        assert_eq!(an.height[b.id.0 as usize], 2);
        assert_eq!(an.height[x.id.0 as usize], 3);
        assert_eq!(critical_path(&p), 3);
        // Def-use: c has exactly two in-edges, one per port.
        let ins_of = in_edge_table(&p.blocks[0]);
        assert_eq!(
            ins_of[c.id.0 as usize],
            [
                (a.id.0, 0, DestBranch::Always),
                (b.id.0, 1, DestBranch::Always)
            ]
        );
    }

    #[test]
    fn uncond_excludes_gated_and_multi_edge_nodes() {
        let mut g = GraphBuilder::new("t");
        let x = g.param();
        let c = g.instr_lit(OpCode::Cmp(CmpOp::Gt), 1, Value::Int(0));
        g.wire(x, c, 0);
        let sw = g.instr(OpCode::Switch);
        g.wire(x, sw, 0);
        g.wire(c, sw, 1);
        let gated = g.instr_lit(OpCode::Alu(AluOp::Add), 1, Value::Int(1));
        g.wire_true(sw, gated, 0);
        let join = g.instr(OpCode::Identity);
        g.wire(gated, join, 0);
        g.wire_false(sw, join, 0);
        let out = g.output(0);
        g.wire(join, out, 0);
        let p = g.finish_program().unwrap();
        let b = &p.blocks[0];
        let uncond = unconditional(b, &in_edge_table(b));
        assert!(uncond[x.id.0 as usize], "parameter is unconditional");
        assert!(uncond[c.id.0 as usize], "straight-line compare is");
        assert!(!uncond[sw.id.0 as usize], "Switch is not a member op");
        assert!(!uncond[gated.id.0 as usize], "branch edge disqualifies");
        assert!(!uncond[join.id.0 as usize], "two edges on one port");
    }
}
