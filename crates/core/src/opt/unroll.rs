//! Full loop unrolling for the codegen schema, and the schema matcher
//! the other loop passes share.
//!
//! The Id compiler (and [`GraphBuilder::dataflow_loop`]) emit one fixed
//! arrangement per loop: each variable enters through a `D` sharing the
//! loop's id, circulates through a loop-top `Identity` that an `L`
//! re-enters, is gated by a `Switch` whose control is the shared `Cmp`
//! predicate, and exits through a `D⁻¹`. This pass pattern-matches that
//! arrangement *exactly* — any deviation (extra edges, a non-`Cmp`
//! predicate, impure or call-bearing body, nested tag operators) makes
//! the loop ineligible and nothing is touched.
//!
//! When the trip count is statically known (constant induction start,
//! constant step on an `Add`, constant bound) and small, the body is
//! cloned once per iteration, straight-line, and the *entire* tag
//! machinery (`D`/`L`/`D⁻¹`, loop tops, gating switches, the predicate)
//! is elided: per iteration that removes the per-variable top, switch,
//! and `L` firings plus the predicate — the paper's per-iteration
//! tag-manipulation overhead — leaving only the body's real arithmetic.
//! The copies hold only per-token operators (no tag ops), so the
//! transform composes with enclosing loops or conditionals. A loop
//! whose trip count is not known, or too long, is left as it is.
//!
//! [`GraphBuilder::dataflow_loop`]: crate::GraphBuilder::dataflow_loop

use std::collections::{BTreeMap, VecDeque};
use std::ops::Bound::{Excluded, Unbounded};

use crate::graph::{CodeBlock, Dest, DestBranch, InstrId, Instruction, OpCode};
use crate::tag::Port;
use crate::value::{AluOp, Value};

use super::analysis::{in_edge_table, InEdges};
use super::OptStats;

/// Schema ceiling: loops with more circulating variables than a human
/// would write by hand are left alone.
const MAX_VARS: usize = 8;
/// Body-size ceiling for full unrolling (clones = body × trips).
const MAX_BODY_UNROLL: usize = 48;
/// Largest statically-known trip count worth unrolling; the trip-count
/// simulation stops there, so bigger (or wrapping) loops are left alone.
const MAX_TRIPS_UNROLL: u64 = 16;

/// One recognized loop instance (all indexes into `block.instrs`;
/// vectors are parallel, one entry per circulating variable). Shared
/// with loop-constant promotion, which needs the machinery but not the
/// body.
pub(super) struct LoopShape {
    pub(super) d: Vec<usize>,
    pub(super) top: Vec<usize>,
    pub(super) l: Vec<usize>,
    pub(super) sw: Vec<usize>,
    pub(super) body_in: Vec<usize>,
    pub(super) dinv: Vec<usize>,
    pub(super) pred: usize,
    /// Source and branch selector of the edge feeding each `D`.
    pub(super) init: Vec<(u32, DestBranch)>,
    /// Source and branch selector of the edge feeding each `L` (a body
    /// node, or a `body_in` for invariant variables).
    pub(super) next: Vec<(u32, DestBranch)>,
    /// The pure body closure ([`recognize`] only; [`machinery`] leaves
    /// it empty).
    body: Vec<usize>,
}

impl LoopShape {
    /// Whether variable `k` is an invariant: its `L` takes its own body
    /// input back unchanged.
    pub(super) fn is_invariant(&self, k: usize) -> bool {
        self.next[k] == (self.body_in[k] as u32, DestBranch::Always)
    }
}

/// Unrolls every eligible loop in the block. `table` is the block's
/// in-edge table, if one is current: the passes of a block share it
/// until one of them rewrites the block.
pub(super) fn run(block: &mut CodeBlock, table: &mut Option<InEdges>, stats: &mut OptStats) {
    // Each loop is a candidate once, in id order: a loop left alone
    // keeps its `D`s, and an unrolled one is gone. Both tables are built
    // again only after an unroll, which invalidates them.
    let mut groups = None;
    let mut visited = None;
    loop {
        let loops = groups.get_or_insert_with(|| loop_groups(block));
        let after = visited.map_or(Unbounded, Excluded);
        let Some((&lid, ds)) = loops.range((after, Unbounded)).next() else {
            return;
        };
        visited = Some(lid);
        let ins_of = table.get_or_insert_with(|| in_edge_table(block));
        let Some(lp) = recognize(block, ins_of, ds) else {
            continue;
        };
        if let Some(trips) = trip_count(block, ins_of, &lp) {
            apply_unroll(block, ins_of, &lp, trips);
            stats.loops_unrolled += 1;
            *table = None;
            groups = None;
        }
    }
}

/// Matches the full codegen schema for one loop-id group, body
/// included, or bails.
fn recognize(block: &CodeBlock, ins_of: &InEdges, ds: &[usize]) -> Option<LoopShape> {
    if ds.len() > MAX_VARS {
        return None;
    }
    let mut lp = machinery(block, ins_of, ds)?;
    lp.body = pure_body(block, ins_of, &lp)?;
    Some(lp)
}

/// Matches the per-variable tag machinery of the codegen schema for one
/// loop-id group — `D`, loop top, `L`, gating `Switch`, body input and
/// `D⁻¹` per variable, all gated by one shared `Cmp` of loop-top values
/// (a plain `for` loop) — or bails. The body is not examined.
pub(super) fn machinery(block: &CodeBlock, ins_of: &InEdges, ds: &[usize]) -> Option<LoopShape> {
    if ds.is_empty() {
        return None;
    }
    let instr = |i: usize| &block.instrs[i];
    let is_param = |i: usize| block.params.iter().any(|p| p.0 as usize == i);

    // Per variable: D -> top <- L, and the edges feeding D and L.
    let d = ds.to_vec();
    let mut top = Vec::with_capacity(d.len());
    let mut l = Vec::with_capacity(d.len());
    let mut init = Vec::with_capacity(d.len());
    let mut next = Vec::with_capacity(d.len());
    for &dk in &d {
        if is_param(dk) {
            return None;
        }
        let &[(isrc, 0, iw)] = &ins_of[dk][..] else {
            return None;
        };
        init.push((isrc, iw));
        let &[dd] = &instr(dk).dests[..] else {
            return None;
        };
        if dd.port != Port(0) || dd.when != DestBranch::Always {
            return None;
        }
        let t = dd.instr.0 as usize;
        if instr(t).op != OpCode::Identity || instr(t).literal.is_some() || is_param(t) {
            return None;
        }
        let tes = &ins_of[t];
        if tes.len() != 2 || !tes.iter().any(|&(s, _, _)| s as usize == dk) {
            return None;
        }
        let mut lk = None;
        for &(s, p, w) in tes {
            if p != 0 || w != DestBranch::Always {
                return None;
            }
            if s as usize == dk {
                continue;
            }
            if instr(s as usize).op != OpCode::L || is_param(s as usize) {
                return None;
            }
            lk = Some(s as usize);
        }
        let lk = lk?;
        if instr(lk).dests[..] != [dd] {
            return None;
        }
        let &[(nsrc, 0, nw)] = &ins_of[lk][..] else {
            return None;
        };
        next.push((nsrc, nw));
        top.push(t);
        l.push(lk);
    }

    // Per variable: top -> Switch (data), everything else top feeds must
    // be the one shared predicate.
    let mut sw = Vec::with_capacity(d.len());
    let mut pred: Option<usize> = None;
    for &t in &top {
        let mut swk = None;
        for dd in &instr(t).dests {
            let tgt = dd.instr.0 as usize;
            if instr(tgt).op == OpCode::Switch && dd.port == Port(0) {
                if swk.replace(tgt).is_some() {
                    return None;
                }
            } else if pred.replace(tgt).is_some_and(|p| p != tgt) {
                return None;
            }
        }
        sw.push(swk?);
    }
    let pred = pred?;

    // The shared predicate: a Cmp fed only by this loop's tops, feeding
    // exactly the per-variable switch control ports.
    if !matches!(instr(pred).op, OpCode::Cmp(_)) || is_param(pred) {
        return None;
    }
    for &(s, _, w) in &ins_of[pred] {
        if w != DestBranch::Always || !top.contains(&(s as usize)) {
            return None;
        }
    }
    let pd = &instr(pred).dests;
    if pd.len() != sw.len() {
        return None;
    }
    for (&swk, _) in sw.iter().zip(0..) {
        if pd
            .iter()
            .filter(|dd| {
                dd.instr.0 as usize == swk && dd.port == Port(1) && dd.when == DestBranch::Always
            })
            .count()
            != 1
        {
            return None;
        }
    }

    // Per variable: Switch -> body_in (true) / DInv (false).
    let mut body_in = Vec::with_capacity(d.len());
    let mut dinv = Vec::with_capacity(d.len());
    for (k, &swk) in sw.iter().enumerate() {
        if is_param(swk) {
            return None;
        }
        let es = &ins_of[swk];
        if es.len() != 2
            || !es.contains(&(top[k] as u32, 0, DestBranch::Always))
            || !es.contains(&(pred as u32, 1, DestBranch::Always))
        {
            return None;
        }
        let &[a, b] = &instr(swk).dests[..] else {
            return None;
        };
        let (tdest, fdest) = match (a.when, b.when) {
            (DestBranch::IfTrue, DestBranch::IfFalse) => (a, b),
            (DestBranch::IfFalse, DestBranch::IfTrue) => (b, a),
            _ => return None,
        };
        let bi = tdest.instr.0 as usize;
        let dv = fdest.instr.0 as usize;
        if tdest.port != Port(0) || fdest.port != Port(0) {
            return None;
        }
        if instr(bi).op != OpCode::Identity
            || instr(bi).literal.is_some()
            || is_param(bi)
            || ins_of[bi].len() != 1
        {
            return None;
        }
        if instr(dv).op != OpCode::DInv || is_param(dv) || ins_of[dv].len() != 1 {
            return None;
        }
        body_in.push(bi);
        dinv.push(dv);
    }

    Some(LoopShape {
        d,
        top,
        l,
        sw,
        body_in,
        dinv,
        pred,
        init,
        next,
        body: Vec::new(),
    })
}

/// The body: the dataflow closure from the body_in junctions down to
/// the L re-entries. Only per-token pure value ops are eligible — a
/// call, a structure op, or another loop's tag machinery bails, and so
/// does a closure of more than [`MAX_BODY_UNROLL`] instructions, as soon
/// as it gets there. Every set here is that small (or the schema's), so
/// each is a vector searched in place.
fn pure_body(block: &CodeBlock, ins_of: &InEdges, lp: &LoopShape) -> Option<Vec<usize>> {
    let instr = |i: usize| &block.instrs[i];
    let is_param = |i: usize| block.params.iter().any(|p| p.0 as usize == i);
    let machinery = |i: usize| {
        i == lp.pred
            || [&lp.d, &lp.top, &lp.l, &lp.sw, &lp.body_in, &lp.dinv]
                .iter()
                .any(|set| set.contains(&i))
    };

    let mut body: Vec<usize> = Vec::new();
    let mut queue: VecDeque<usize> = lp
        .body_in
        .iter()
        .flat_map(|&bi| instr(bi).dests.iter().map(|dd| dd.instr.0 as usize))
        .collect();
    while let Some(x) = queue.pop_front() {
        if lp.l.contains(&x) || body.contains(&x) {
            continue;
        }
        if machinery(x) || is_param(x) || body.len() == MAX_BODY_UNROLL {
            return None;
        }
        match instr(x).op {
            OpCode::Identity
            | OpCode::Const(_)
            | OpCode::Alu(_)
            | OpCode::Cmp(_)
            | OpCode::Not
            | OpCode::And
            | OpCode::Or
            | OpCode::Switch => {}
            _ => return None,
        }
        body.push(x);
        for dd in &instr(x).dests {
            queue.push_back(dd.instr.0 as usize);
        }
    }
    // Closure must be closed: body inputs only from body/body_in, body
    // outputs only into body/L, next values from body/body_in.
    let inside = |s: u32| body.contains(&(s as usize)) || lp.body_in.contains(&(s as usize));
    for &b in &body {
        if ins_of[b].iter().any(|&(s, _, _)| !inside(s)) {
            return None;
        }
        for dd in &instr(b).dests {
            let t = dd.instr.0 as usize;
            if !body.contains(&t) && !lp.l.contains(&t) {
                return None;
            }
        }
    }
    lp.next.iter().all(|&(ns, _)| inside(ns)).then_some(body)
}

/// A statically-known predicate operand during trip simulation.
#[derive(Clone, Copy)]
enum Opnd {
    Lit(Value),
    Var(usize),
}

/// Simulates the induction variable against the predicate: constant
/// `Int` start, constant `Int` step on a single `Add`, and every other
/// predicate operand a loop-invariant constant. `None` when the trip
/// count is not static, or too long to unroll.
fn trip_count(block: &CodeBlock, ins_of: &InEdges, lp: &LoopShape) -> Option<u64> {
    let nvars = lp.d.len();
    let OpCode::Cmp(cmp) = block.instrs[lp.pred].op else {
        return None;
    };
    let invariant: Vec<bool> = (0..nvars)
        .map(|k| lp.next[k].0 as usize == lp.body_in[k])
        .collect();
    let init_const: Vec<Option<Value>> = lp
        .init
        .iter()
        .map(|&(s, _)| match block.instrs[s as usize].op {
            OpCode::Const(v) => Some(v),
            _ => None,
        })
        .collect();

    // Predicate operands by port.
    let mut ops: [Option<Opnd>; 2] = [None, None];
    if let Some((p, v)) = block.instrs[lp.pred].literal {
        ops[p.0 as usize] = Some(Opnd::Lit(v));
    }
    for &(s, p, _) in &ins_of[lp.pred] {
        let slot = &mut ops[p as usize];
        if slot.is_some() {
            return None; // a join on a predicate port
        }
        let k = lp.top.iter().position(|&t| t == s as usize);
        *slot = Some(Opnd::Var(k.expect("the predicate reads loop tops")));
    }
    let (o0, o1) = (ops[0]?, ops[1]?);
    // Exactly one varying operand (the induction variable); the rest
    // must be invariant with constant initial values.
    let mut f: Option<usize> = None;
    for o in [o0, o1] {
        if let Opnd::Var(j) = o {
            if invariant[j] {
                init_const[j]?;
            } else if f != Some(j) {
                if f.is_some() {
                    return None;
                }
                f = Some(j);
            }
        }
    }
    let f = f?;
    let Some(Value::Int(i0)) = init_const[f] else {
        return None;
    };

    // The induction step: next[f] is an Add of body_in[f] and a constant.
    if lp.next[f].1 != DestBranch::Always {
        return None;
    }
    let a_ix = lp.next[f].0 as usize;
    let a = &block.instrs[a_ix];
    if a.op != OpCode::Alu(AluOp::Add) {
        return None;
    }
    let mut aops: [Option<Opnd>; 2] = [None, None];
    if let Some((p, v)) = a.literal {
        aops[p.0 as usize] = Some(Opnd::Lit(v));
    }
    for &(s, p, _) in &ins_of[a_ix] {
        let slot = &mut aops[p as usize];
        if slot.is_some() {
            return None;
        }
        // Fed by another body node: not simple.
        let j = lp.body_in.iter().position(|&b| b == s as usize)?;
        *slot = Some(Opnd::Var(j));
    }
    let step_of = |o: Opnd| -> Option<i64> {
        match o {
            Opnd::Lit(Value::Int(s)) => Some(s),
            Opnd::Var(b) if invariant[b] => match init_const[b] {
                Some(Value::Int(s)) => Some(s),
                _ => None,
            },
            _ => None,
        }
    };
    let step = match (aops[0], aops[1]) {
        (Some(Opnd::Var(j)), Some(other)) if j == f => step_of(other),
        (Some(other), Some(Opnd::Var(j))) if j == f => step_of(other),
        _ => None,
    }?;

    // Concrete simulation (wrapping adds mirror the ALU semantics).
    let eval = |o: Opnd, i: i64| -> Value {
        match o {
            Opnd::Lit(v) => v,
            Opnd::Var(j) if j == f => Value::Int(i),
            Opnd::Var(j) => init_const[j].expect("checked invariant const"),
        }
    };
    let mut i = i0;
    let mut trips: u64 = 0;
    loop {
        let Ok(Value::Bool(cont)) = cmp.apply(&eval(o0, i), &eval(o1, i)) else {
            // A predicate that errors at runtime errors identically in
            // the untransformed loop; just leave it alone.
            return None;
        };
        if !cont {
            break;
        }
        trips += 1;
        if trips > MAX_TRIPS_UNROLL {
            return None;
        }
        i = i.wrapping_add(step);
    }
    Some(trips)
}

/// Clones the loop body once at the end of the block (the copy of
/// `lp.body[j]` is instruction `base + j`), wiring clone-internal edges
/// as in the original and substituting `cur[k]` for each `body_in[k]`
/// source. `ins_of` is the table of the block before the first copy.
/// Returns `base`.
fn clone_body_once(
    block: &mut CodeBlock,
    ins_of: &InEdges,
    lp: &LoopShape,
    cur: &[(u32, DestBranch)],
) -> usize {
    let base = block.instrs.len();
    for &b in &lp.body {
        let o = &block.instrs[b];
        let copy = Instruction {
            op: o.op,
            nt: o.nt,
            literal: o.literal,
            consts: Vec::new(),
            dests: Vec::new(),
        };
        block.instrs.push(copy);
    }
    for (j, &b) in lp.body.iter().enumerate() {
        for &(src, port, when) in &ins_of[b] {
            // A body_in is an Identity, so its out-edge is Always and
            // the substituted edge carries cur's selector instead.
            let (ns, nw) = copied(lp, base, cur, (src, when));
            block.instrs[ns as usize].dests.push(Dest {
                instr: InstrId((base + j) as u32),
                port: Port(port),
                when: nw,
            });
        }
    }
    base
}

/// Where the value an edge from `src` carried comes from in the copy
/// at `base`: its copy, or the current value of the variable whose
/// body input `src` is.
fn copied(
    lp: &LoopShape,
    base: usize,
    cur: &[(u32, DestBranch)],
    (src, when): (u32, DestBranch),
) -> (u32, DestBranch) {
    match lp.body.iter().position(|&b| b == src as usize) {
        Some(j) => ((base + j) as u32, when),
        None => {
            let k = lp.body_in.iter().position(|&b| b == src as usize);
            cur[k.expect("the body reads only itself and its inputs")]
        }
    }
}

/// Replaces the whole loop with `trips` straight-line body copies.
fn apply_unroll(block: &mut CodeBlock, ins_of: &InEdges, lp: &LoopShape, trips: u64) {
    let exits: Vec<Vec<Dest>> = lp
        .dinv
        .iter()
        .map(|&dv| block.instrs[dv].dests.clone())
        .collect();

    let mut cur: Vec<(u32, DestBranch)> = lp.init.clone();
    for _ in 0..trips {
        let base = clone_body_once(block, ins_of, lp, &cur);
        cur = lp.next.iter().map(|&e| copied(lp, base, &cur, e)).collect();
    }
    // After the last iteration each variable's value feeds the old exit
    // consumers directly (for zero trips, that is the init edge itself).
    for (k, ex) in exits.iter().enumerate() {
        for dd in ex {
            debug_assert_eq!(dd.when, DestBranch::Always, "DInv dests are Always");
            block.instrs[cur[k].0 as usize].dests.push(Dest {
                instr: dd.instr,
                port: dd.port,
                when: cur[k].1,
            });
        }
    }
    // Retire the machinery and the original body; DCE reaps the Sinks.
    let mut deleted = vec![false; block.instrs.len()];
    let machinery = [&lp.d, &lp.top, &lp.l, &lp.sw, &lp.body_in, &lp.dinv];
    for &i in machinery
        .into_iter()
        .flatten()
        .chain(&lp.body)
        .chain([&lp.pred])
    {
        deleted[i] = true;
        block.instrs[i].retire();
    }
    for ins in &mut block.instrs {
        ins.dests.retain(|dd| !deleted[dd.instr.0 as usize]);
    }
}

/// Adds `pred₀`, a fresh copy of the loop predicate fed by the init
/// edges exactly as the original is fed by the loop tops — whether an
/// activation runs any iteration at all — and returns its index.
pub(super) fn add_pred0(block: &mut CodeBlock, ins_of: &InEdges, lp: &LoopShape) -> usize {
    let pred0 = block.instrs.len();
    let p = &block.instrs[lp.pred];
    let pred0_instr = Instruction {
        op: p.op,
        nt: p.nt,
        literal: p.literal,
        consts: Vec::new(),
        dests: Vec::new(),
    };
    block.instrs.push(pred0_instr);
    for &(s, port, _) in &ins_of[lp.pred] {
        let k = lp
            .top
            .iter()
            .position(|&t| t == s as usize)
            .expect("fed by a top");
        let (isrc, iw) = lp.init[k];
        block.instrs[isrc as usize].dests.push(Dest {
            instr: InstrId(pred0 as u32),
            port: Port(port),
            when: iw,
        });
    }
    pred0
}

/// Takes variable `k` out of the loop: its exit consumers take the value
/// that feeds its `D` (an invariant exits with its initial value), the
/// predicate stops gating it, and its six schema nodes retire. Every
/// other in-edge of those nodes comes from one of them, except the edge
/// into its `D`, which the caller retargets or drops.
pub(super) fn remove_variable(block: &mut CodeBlock, lp: &LoopShape, k: usize) {
    let (src, when) = lp.init[k];
    let exits = std::mem::take(&mut block.instrs[lp.dinv[k]].dests);
    block.instrs[src as usize]
        .dests
        .extend(exits.iter().map(|x| Dest { when, ..*x }));
    block.instrs[lp.pred]
        .dests
        .retain(|d| d.instr.0 as usize != lp.sw[k]);
    for i in [
        lp.d[k],
        lp.top[k],
        lp.sw[k],
        lp.body_in[k],
        lp.l[k],
        lp.dinv[k],
    ] {
        block.instrs[i].retire();
    }
}

/// The `D` instructions of every loop in the block, grouped by loop id.
pub(super) fn loop_groups(block: &CodeBlock) -> BTreeMap<u32, Vec<usize>> {
    let mut groups: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, ins) in block.instrs.iter().enumerate() {
        if let OpCode::D { loop_id } = ins.op {
            groups.entry(loop_id).or_default().push(i);
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::super::{optimize_at, OptLevel};
    use crate::builder::GraphBuilder;
    use crate::value::{AluOp, CmpOp};
    use crate::{OpCode, Program, Value};

    /// A loop of four static trips whose body contains an IStore: never
    /// unrolled.
    fn impure_loop() -> Program {
        let mut g = GraphBuilder::new("t");
        let n = g.param();
        let one = g.lit(Value::Int(1));
        g.wire(n, one, 0);
        let arr = g.instr(OpCode::IAlloc);
        let size = g.lit(Value::Int(4));
        g.wire(n, size, 0);
        g.wire(size, arr, 0);
        let bound = g.lit(Value::Int(4));
        g.wire(n, bound, 0);
        let exits = g
            .dataflow_loop(
                &[one, bound],
                |g, tops| {
                    let c = g.instr(OpCode::Cmp(CmpOp::Le));
                    g.wire(tops[0], c, 0);
                    g.wire(tops[1], c, 1);
                    c
                },
                |g, vars| {
                    let st = g.instr_lit(OpCode::IStore, 1, Value::Int(0));
                    g.wire(arr, st, 0);
                    g.wire(vars[0], st, 2);
                    let sink = g.instr(OpCode::Sink);
                    g.wire(st, sink, 0);
                    let i2 = g.instr_lit(OpCode::Alu(AluOp::Add), 1, Value::Int(1));
                    g.wire(vars[0], i2, 0);
                    vec![i2, vars[1]]
                },
            )
            .unwrap();
        let out = g.output(0);
        g.wire(exits[0], out, 0);
        g.finish_program().unwrap()
    }

    #[test]
    fn impure_bodies_are_never_transformed() {
        let p = impure_loop();
        let (_, stats) = optimize_at(&p, OptLevel::O2);
        assert_eq!(stats.loops_unrolled, 0, "{stats:?}");
    }

    #[test]
    fn non_cmp_predicates_are_never_transformed() {
        // A predicate built from And (not a bare Cmp) falls outside the
        // schema; the loop must be left alone, though its eight trips
        // are static.
        let mut g = GraphBuilder::new("t");
        let n = g.param();
        let one = g.lit(Value::Int(1));
        g.wire(n, one, 0);
        let bound = g.lit(Value::Int(8));
        g.wire(n, bound, 0);
        let exits = g
            .dataflow_loop(
                &[one, bound],
                |g, tops| {
                    let c1 = g.instr_lit(OpCode::Cmp(CmpOp::Le), 1, Value::Int(8));
                    g.wire(tops[0], c1, 0);
                    let c2 = g.instr(OpCode::Cmp(CmpOp::Le));
                    g.wire(tops[0], c2, 0);
                    g.wire(tops[1], c2, 1);
                    let and = g.instr(OpCode::And);
                    g.wire(c1, and, 0);
                    g.wire(c2, and, 1);
                    and
                },
                |g, vars| {
                    let i2 = g.instr_lit(OpCode::Alu(AluOp::Add), 1, Value::Int(1));
                    g.wire(vars[0], i2, 0);
                    vec![i2, vars[1]]
                },
            )
            .unwrap();
        let out = g.output(0);
        g.wire(exits[0], out, 0);
        let p = g.finish_program().unwrap();
        let (_, stats) = optimize_at(&p, OptLevel::O2);
        assert_eq!(stats.loops_unrolled, 0, "{stats:?}");
    }
}
