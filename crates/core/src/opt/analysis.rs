//! Per-block analyses for the optimizer (and for anyone else who wants
//! graph structure: the `opt` subcommand of ttda-bench reports critical
//! paths from here, and later scheduling work can consume per-node
//! depth as a criticality hint).
//!
//! Everything is computed in one shot by [`Analysis::of`] and is valid
//! only for the exact block it was computed from: **every rewrite
//! invalidates every analysis** (DESIGN.md §14), so passes rebuild the
//! analysis after each sweep instead of patching it.

use crate::graph::{CodeBlock, DestBranch, InstrId, OpCode};
use crate::tag::Port;
use crate::value::Value;

/// One incoming edge of an instruction (the use-side view of a
/// [`Dest`](crate::graph::Dest); together with the forward `dests` lists
/// these form the block's def-use chains).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InEdge {
    /// The producing instruction.
    pub src: InstrId,
    /// Operand slot at the consumer this edge feeds.
    pub port: Port,
    /// Branch selector on the producing side (`Switch` sources).
    pub when: DestBranch,
}

/// A conservative value type for an instruction's result.
///
/// The lattice is flat: `Int`, `Float`, and `Bool` sit below [`Ty::Any`]
/// and the join of two distinct concrete types is `Any`. Types are
/// propagated pessimistically (everything starts at `Any` and is
/// refined), so a `Ty::Int` verdict is a proof — algebraic rewrites rely
/// on it because `x + 0` is *not* the identity for a float `x` (integer
/// literals promote the operation to float arithmetic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    /// Provably a 64-bit integer.
    Int,
    /// Provably a 64-bit float.
    Float,
    /// Provably a boolean.
    Bool,
    /// Unknown (parameters, I-structure traffic, cross-block values,
    /// loop-circulated values).
    Any,
}

impl Ty {
    fn of_value(v: &Value) -> Ty {
        match v {
            Value::Int(_) => Ty::Int,
            Value::Float(_) => Ty::Float,
            Value::Bool(_) => Ty::Bool,
            _ => Ty::Any,
        }
    }

    fn join(self, other: Ty) -> Ty {
        if self == other {
            self
        } else {
            Ty::Any
        }
    }
}

/// Everything the rewrite passes want to know about one code block.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Incoming edges per instruction, in source-scan order.
    pub in_edges: Vec<Vec<InEdge>>,
    /// Whether the instruction is reachable from the block's entries
    /// (parameters and zero-in-degree instructions).
    pub reachable: Vec<bool>,
    /// Immediate dominator per instruction, computed over the dataflow
    /// graph with the Cooper–Harvey–Kennedy iterative algorithm rooted
    /// at a virtual entry over all parameters and zero-in-degree
    /// instructions. `None` means the instruction is an entry itself
    /// (its only dominator is the virtual root) or unreachable — check
    /// [`Analysis::reachable`] to tell them apart.
    pub idom: Vec<Option<InstrId>>,
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
    /// Proven result type per instruction (see [`Ty`]).
    pub ty: Vec<Ty>,
    /// The *unconditional set*: instructions proven to fire exactly once
    /// per block activation, with the activation's own tag. Membership
    /// requires a pure single-token opcode whose every operand is a
    /// literal or a single `Always` edge from another member (parameters
    /// with no extra in-edges seed the set). Members are the only places
    /// a rewrite may *drop* an edge: a member's token is redundant with
    /// any other member's token arrival.
    pub uncond: Vec<bool>,
}

impl Analysis {
    /// Computes every analysis for `block`.
    pub fn of(block: &CodeBlock) -> Analysis {
        let n = block.instrs.len();
        let mut in_edges: Vec<Vec<InEdge>> = vec![Vec::new(); n];
        for (i, ins) in block.instrs.iter().enumerate() {
            for d in &ins.dests {
                in_edges[d.instr.0 as usize].push(InEdge {
                    src: InstrId(i as u32),
                    port: d.port,
                    when: d.when,
                });
            }
        }

        // Entries: parameters plus anything with no incoming edge.
        let mut is_entry = vec![false; n];
        for p in &block.params {
            is_entry[p.0 as usize] = true;
        }
        for (i, ie) in in_edges.iter().enumerate() {
            if ie.is_empty() {
                is_entry[i] = true;
            }
        }
        let entries: Vec<usize> = (0..n).filter(|&i| is_entry[i]).collect();

        // DFS from the virtual root: reachability, postorder (for RPO),
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
                            let pos = in_edges[t].iter().enumerate().find_map(|(k, ie)| {
                                (ie.src.0 as usize == node
                                    && ie.port == d.port
                                    && ie.when == d.when
                                    && !back[t].contains(&k))
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

        // Reverse postorder numbering over reachable nodes; the virtual
        // root gets number 0.
        let root = n;
        let mut rpo: Vec<usize> = vec![root];
        rpo.extend(postorder.iter().rev().copied());
        let mut rpo_num = vec![usize::MAX; n + 1];
        for (k, &v) in rpo.iter().enumerate() {
            rpo_num[v] = k;
        }

        // Cooper–Harvey–Kennedy iterative dominators.
        let mut idom_ix: Vec<Option<usize>> = vec![None; n + 1];
        idom_ix[root] = Some(root);
        let intersect = |idom_ix: &[Option<usize>], mut a: usize, mut b: usize| {
            while a != b {
                while rpo_num[a] > rpo_num[b] {
                    a = idom_ix[a].expect("processed pred has idom");
                }
                while rpo_num[b] > rpo_num[a] {
                    b = idom_ix[b].expect("processed pred has idom");
                }
            }
            a
        };
        let mut changed = true;
        while changed {
            changed = false;
            for &v in rpo.iter().skip(1) {
                let mut new_idom: Option<usize> = None;
                let mut consider = |p: usize, idom_ix: &[Option<usize>]| {
                    if idom_ix[p].is_none() {
                        return;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(idom_ix, cur, p),
                    });
                };
                if is_entry[v] {
                    consider(root, &idom_ix);
                }
                for ie in &in_edges[v] {
                    let p = ie.src.0 as usize;
                    if reachable[p] {
                        consider(p, &idom_ix);
                    }
                }
                if new_idom.is_some() && idom_ix[v] != new_idom {
                    idom_ix[v] = new_idom;
                    changed = true;
                }
            }
        }
        let idom: Vec<Option<InstrId>> = (0..n)
            .map(|v| match idom_ix[v] {
                Some(d) if d != root => Some(InstrId(d as u32)),
                _ => None,
            })
            .collect();

        // Critical-path depth over the back-edge-free DAG, in reverse
        // postorder (all non-back predecessors of a node precede it).
        let mut depth = vec![0u32; n];
        for &v in rpo.iter().skip(1) {
            let mut d = 0u32;
            for (k, ie) in in_edges[v].iter().enumerate() {
                if back[v].contains(&k) {
                    continue;
                }
                let p = ie.src.0 as usize;
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
            for &v in rpo.iter().skip(1).rev() {
                for (k, ie) in in_edges[v].iter().enumerate() {
                    if back[v].contains(&k) {
                        continue;
                    }
                    let p = ie.src.0 as usize;
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
                let p = in_edges[v][k].src.0 as usize;
                if reachable[p] && height[p] < height[v] + 1 {
                    height[p] = height[v] + 1;
                    seeded = true;
                }
            }
        }
        if seeded {
            dag_pass(&mut height);
        }

        // Pessimistic type refinement to a fixed point.
        let mut ty = vec![Ty::Any; n];
        loop {
            let mut changed = false;
            for (i, ins) in block.instrs.iter().enumerate() {
                let operand = |p: u8| -> Ty {
                    let mut t: Option<Ty> = None;
                    if let Some((lp, lv)) = &ins.literal {
                        if lp.0 == p {
                            t = Some(Ty::of_value(lv));
                        }
                    }
                    for ie in &in_edges[i] {
                        if ie.port.0 == p {
                            let s = ty[ie.src.0 as usize];
                            t = Some(match t {
                                None => s,
                                Some(cur) => cur.join(s),
                            });
                        }
                    }
                    t.unwrap_or(Ty::Any)
                };
                let new = match &ins.op {
                    OpCode::Const(v) => Ty::of_value(v),
                    OpCode::Cmp(_) | OpCode::Not | OpCode::And | OpCode::Or => Ty::Bool,
                    OpCode::Alu(_) => match (operand(0), operand(1)) {
                        (Ty::Int, Ty::Int) => Ty::Int,
                        (Ty::Int | Ty::Float, Ty::Int | Ty::Float) => Ty::Float,
                        _ => Ty::Any,
                    },
                    OpCode::Identity
                    | OpCode::Switch
                    | OpCode::L
                    | OpCode::LInv
                    | OpCode::D { .. }
                    | OpCode::DGated { .. }
                    | OpCode::DInv => operand(0),
                    _ => Ty::Any,
                };
                if new != ty[i] && ty[i] == Ty::Any {
                    ty[i] = new;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // The unconditional set, grown to a fixed point.
        let has_extra_inputs: Vec<bool> = (0..n).map(|i| !in_edges[i].is_empty()).collect();
        let mut uncond = vec![false; n];
        for p in &block.params {
            let i = p.0 as usize;
            if !has_extra_inputs[i] {
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
                    let mut feeds = in_edges[i].iter().filter(|ie| ie.port.0 == p);
                    let (Some(ie), None) = (feeds.next(), feeds.next()) else {
                        continue 'node;
                    };
                    if ie.when != DestBranch::Always || !uncond[ie.src.0 as usize] {
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

        Analysis {
            in_edges,
            reachable,
            idom,
            depth,
            height,
            ty,
            uncond,
        }
    }
}

/// The graph-level critical path of a whole program: the maximum
/// [`Analysis::depth`] over every block, i.e. the longest chain of
/// data-dependent instructions within any single activation (a lower
/// bound on end-to-end latency; inter-block `Apply` chains compose on
/// top of it).
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
    fn diamond_dominators_and_depth() {
        // x -> a -> c, x -> b -> c: c's idom is x; depth(c) = 2.
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
        assert!(an.reachable.iter().all(|&r| r));
        assert_eq!(an.idom[c.id.0 as usize], Some(x.id));
        assert_eq!(an.idom[a.id.0 as usize], Some(x.id));
        assert_eq!(an.idom[x.id.0 as usize], None, "entry");
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
        assert_eq!(an.in_edges[c.id.0 as usize].len(), 2);
    }

    #[test]
    fn types_prove_const_arithmetic_and_nothing_else() {
        let mut g = GraphBuilder::new("t");
        let x = g.param();
        let c3 = g.lit(Value::Int(3));
        g.wire(x, c3, 0);
        let add = g.instr_lit(OpCode::Alu(AluOp::Add), 1, Value::Int(4));
        g.wire(c3, add, 0);
        let mixed = g.instr_lit(OpCode::Alu(AluOp::Add), 1, Value::Float(1.0));
        g.wire(c3, mixed, 0);
        let unknowable = g.instr_lit(OpCode::Alu(AluOp::Add), 1, Value::Int(1));
        g.wire(x, unknowable, 0);
        let cmp = g.instr_lit(OpCode::Cmp(CmpOp::Lt), 1, Value::Int(9));
        g.wire(add, cmp, 0);
        let out = g.output(0);
        g.wire(cmp, out, 0);
        let s = g.instr(OpCode::Sink);
        g.wire(mixed, s, 0);
        let s2 = g.instr(OpCode::Sink);
        g.wire(unknowable, s2, 0);
        let p = g.finish_program().unwrap();
        let an = Analysis::of(&p.blocks[0]);
        assert_eq!(an.ty[add.id.0 as usize], Ty::Int);
        assert_eq!(an.ty[mixed.id.0 as usize], Ty::Float);
        assert_eq!(an.ty[unknowable.id.0 as usize], Ty::Any, "params stay Any");
        assert_eq!(an.ty[cmp.id.0 as usize], Ty::Bool);
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
        let an = Analysis::of(&p.blocks[0]);
        assert!(an.uncond[x.id.0 as usize], "parameter is unconditional");
        assert!(an.uncond[c.id.0 as usize], "straight-line compare is");
        assert!(!an.uncond[sw.id.0 as usize], "Switch is not a member op");
        assert!(!an.uncond[gated.id.0 as usize], "branch edge disqualifies");
        assert!(!an.uncond[join.id.0 as usize], "two edges on one port");
    }
}
