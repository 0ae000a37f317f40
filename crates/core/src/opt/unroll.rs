//! Loop unrolling and first-iteration peeling for the codegen schema.
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
//! Two transforms, both output-preserving:
//!
//! * **Full unroll** — when the trip count is statically known (constant
//!   induction start, constant step on an `Add`, constant bound) and
//!   small, the body is cloned once per iteration, straight-line, and
//!   the *entire* tag machinery (`D`/`L`/`D⁻¹`, loop tops, gating
//!   switches, the predicate) is elided: per iteration that removes the
//!   per-variable top, switch, and `L` firings plus the predicate — the
//!   paper's per-iteration tag-manipulation overhead — leaving only the
//!   body's real arithmetic.
//! * **Peel** — when the bound is dynamic, the first iteration is
//!   hoisted in front of the loop behind a fresh predicate + switch
//!   pair, and exits rejoin through per-variable `Identity` joins. The
//!   peeled copy sees the loop's *initial* values directly, which is
//!   exactly where constant folding has leverage; the loop itself
//!   continues from iteration two unchanged.
//!
//! Both transforms insert only per-token operators (no tag ops), so they
//! compose with enclosing loops or conditionals: every new node fires
//! once per activation of the enclosing context, whatever its tag.
//!
//! [`GraphBuilder::dataflow_loop`]: crate::GraphBuilder::dataflow_loop

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use crate::graph::{CodeBlock, Dest, DestBranch, InstrId, Instruction, OpCode};
use crate::tag::Port;
use crate::value::{AluOp, Value};

use super::OptStats;

/// Schema ceiling: loops with more circulating variables than a human
/// would write by hand are left alone.
const MAX_VARS: usize = 8;
/// Body-size ceiling for full unrolling (clones = body × trips).
const MAX_BODY_UNROLL: usize = 48;
/// Body-size ceiling for peeling (one extra clone plus 2 nodes per var).
const MAX_BODY_PEEL: usize = 24;
/// Largest statically-known trip count worth unrolling; bigger static
/// loops are skipped entirely (peeling them buys nothing).
const MAX_TRIPS_UNROLL: u64 = 16;
/// Safety net for the trip-count simulation (wrapping induction).
const MAX_TRIPS_SIM: u64 = 64;

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

enum Trip {
    /// Statically known and small enough to unroll.
    Known(u64),
    /// Statically analyzable but too long (or divergent): leave alone.
    Skip,
    /// Not statically analyzable: a peel candidate.
    Unknown,
}

/// Transforms every eligible loop in the block, at most once each.
pub(super) fn run(block: &mut CodeBlock, stats: &mut OptStats) {
    let mut done: HashSet<u32> = HashSet::new();
    loop {
        // Rebuilt per transform: each apply invalidates edge indexes.
        let ins_of = in_edge_table(block);
        let mut groups: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for (i, ins) in block.instrs.iter().enumerate() {
            if let OpCode::D { loop_id } = ins.op {
                groups.entry(loop_id).or_default().push(i);
            }
        }
        let Some((lid, ds)) = groups.into_iter().find(|(lid, _)| !done.contains(lid)) else {
            return;
        };
        // A peeled loop keeps its `D`s and would re-match the schema;
        // marking the id first makes every loop a one-shot candidate.
        done.insert(lid);
        let Some(lp) = recognize(block, &ins_of, &ds) else {
            continue;
        };
        match trip_count(block, &ins_of, &lp) {
            Trip::Known(trips) => {
                apply_unroll(block, &ins_of, &lp, trips);
                stats.loops_unrolled += 1;
            }
            Trip::Unknown if lp.body.len() <= MAX_BODY_PEEL => {
                apply_peel(block, &ins_of, &lp);
                stats.loops_peeled += 1;
            }
            _ => {}
        }
    }
}

/// Per instruction: its in-edges as `(source, port, selector)`, in
/// source order, packed into one array (`ins_of[i]` is a slice). Built
/// once per loop by both loop passes, so it allocates three vectors,
/// not one per instruction.
pub(super) struct InEdges {
    start: Vec<u32>,
    edges: Vec<(u32, u8, DestBranch)>,
}

impl std::ops::Index<usize> for InEdges {
    type Output = [(u32, u8, DestBranch)];

    fn index(&self, i: usize) -> &Self::Output {
        &self.edges[self.start[i] as usize..self.start[i + 1] as usize]
    }
}

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
    let top_set: HashSet<usize> = top.iter().copied().collect();
    for &(s, _, w) in &ins_of[pred] {
        if w != DestBranch::Always || !top_set.contains(&(s as usize)) {
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
/// call, a structure op, or another loop's tag machinery bails.
fn pure_body(block: &CodeBlock, ins_of: &InEdges, lp: &LoopShape) -> Option<Vec<usize>> {
    let instr = |i: usize| &block.instrs[i];
    let is_param = |i: usize| block.params.iter().any(|p| p.0 as usize == i);
    let mut machinery: HashSet<usize> = HashSet::new();
    machinery.extend(lp.d.iter().chain(&lp.top).chain(&lp.l).chain(&lp.sw));
    machinery.extend(lp.body_in.iter().chain(&lp.dinv));
    machinery.insert(lp.pred);
    let l_set: HashSet<usize> = lp.l.iter().copied().collect();
    let bin_set: HashSet<usize> = lp.body_in.iter().copied().collect();

    let mut body = Vec::new();
    let mut seen: HashSet<usize> = HashSet::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &bi in &lp.body_in {
        for dd in &instr(bi).dests {
            queue.push_back(dd.instr.0 as usize);
        }
    }
    while let Some(x) = queue.pop_front() {
        if l_set.contains(&x) || seen.contains(&x) {
            continue;
        }
        if machinery.contains(&x) || is_param(x) {
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
        seen.insert(x);
        body.push(x);
        for dd in &instr(x).dests {
            queue.push_back(dd.instr.0 as usize);
        }
    }
    if body.len() > MAX_BODY_UNROLL {
        return None;
    }
    // Closure must be closed: body inputs only from body/body_in, body
    // outputs only into body/L, next values from body/body_in.
    for &b in &body {
        for &(s, _, _) in &ins_of[b] {
            let s = s as usize;
            if !seen.contains(&s) && !bin_set.contains(&s) {
                return None;
            }
        }
        for dd in &instr(b).dests {
            let t = dd.instr.0 as usize;
            if !seen.contains(&t) && !l_set.contains(&t) {
                return None;
            }
        }
    }
    for &(ns, _) in &lp.next {
        let ns = ns as usize;
        if !seen.contains(&ns) && !bin_set.contains(&ns) {
            return None;
        }
    }
    Some(body)
}

/// A statically-known predicate operand during trip simulation.
#[derive(Clone, Copy)]
enum Opnd {
    Lit(Value),
    Var(usize),
}

/// Simulates the induction variable against the predicate: constant
/// `Int` start, constant `Int` step on a single `Add`, and every other
/// predicate operand a loop-invariant constant.
fn trip_count(block: &CodeBlock, ins_of: &InEdges, lp: &LoopShape) -> Trip {
    let nvars = lp.d.len();
    let OpCode::Cmp(cmp) = block.instrs[lp.pred].op else {
        return Trip::Unknown;
    };
    let top_var: HashMap<u32, usize> = lp
        .top
        .iter()
        .enumerate()
        .map(|(k, &t)| (t as u32, k))
        .collect();
    let bin_var: HashMap<u32, usize> = lp
        .body_in
        .iter()
        .enumerate()
        .map(|(k, &b)| (b as u32, k))
        .collect();
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
            return Trip::Unknown; // a join on a predicate port
        }
        *slot = Some(Opnd::Var(top_var[&s]));
    }
    let (Some(o0), Some(o1)) = (ops[0], ops[1]) else {
        return Trip::Unknown;
    };
    // Exactly one varying operand (the induction variable); the rest
    // must be invariant with constant initial values.
    let mut f: Option<usize> = None;
    for o in [o0, o1] {
        if let Opnd::Var(j) = o {
            if invariant[j] {
                if init_const[j].is_none() {
                    return Trip::Unknown;
                }
            } else if f != Some(j) {
                if f.is_some() {
                    return Trip::Unknown;
                }
                f = Some(j);
            }
        }
    }
    let Some(f) = f else { return Trip::Unknown };
    let Some(Value::Int(i0)) = init_const[f] else {
        return Trip::Unknown;
    };

    // The induction step: next[f] is an Add of body_in[f] and a constant.
    if lp.next[f].1 != DestBranch::Always {
        return Trip::Unknown;
    }
    let a_ix = lp.next[f].0 as usize;
    let a = &block.instrs[a_ix];
    if a.op != OpCode::Alu(AluOp::Add) {
        return Trip::Unknown;
    }
    let mut aops: [Option<Opnd>; 2] = [None, None];
    if let Some((p, v)) = a.literal {
        aops[p.0 as usize] = Some(Opnd::Lit(v));
    }
    for &(s, p, _) in &ins_of[a_ix] {
        let slot = &mut aops[p as usize];
        if slot.is_some() {
            return Trip::Unknown;
        }
        let Some(&j) = bin_var.get(&s) else {
            return Trip::Unknown; // fed by another body node: not simple
        };
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
    };
    let Some(step) = step else {
        return Trip::Unknown;
    };

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
            return Trip::Skip;
        };
        if !cont {
            break;
        }
        trips += 1;
        if trips > MAX_TRIPS_SIM {
            return Trip::Skip;
        }
        i = i.wrapping_add(step);
    }
    if trips > MAX_TRIPS_UNROLL {
        Trip::Skip
    } else {
        Trip::Known(trips)
    }
}

/// Clones the loop body once, wiring clone-internal edges as in the
/// original and substituting `cur[k]` for each `body_in[k]` source.
/// Returns original-body-index -> clone-index.
fn clone_body_once(
    block: &mut CodeBlock,
    lp: &LoopShape,
    body_edges: &HashMap<usize, Vec<(u32, u8, DestBranch)>>,
    bin_var: &HashMap<u32, usize>,
    cur: &[(u32, DestBranch)],
) -> HashMap<u32, u32> {
    let mut cm: HashMap<u32, u32> = HashMap::new();
    for &b in &lp.body {
        let (op, nt, literal) = {
            let o = &block.instrs[b];
            (o.op, o.nt, o.literal)
        };
        let id = block.instrs.len() as u32;
        block.instrs.push(Instruction {
            op,
            nt,
            literal,
            consts: Vec::new(),
            dests: Vec::new(),
        });
        cm.insert(b as u32, id);
    }
    for &b in &lp.body {
        let tgt = cm[&(b as u32)];
        for &(src, port, when) in &body_edges[&b] {
            // A body_in is an Identity, so its out-edge is Always and
            // the substituted edge carries cur's selector instead.
            let (ns, nw) = match cm.get(&src) {
                Some(&c) => (c, when),
                None => cur[bin_var[&src]],
            };
            block.instrs[ns as usize].dests.push(Dest {
                instr: InstrId(tgt),
                port: Port(port),
                when: nw,
            });
        }
    }
    cm
}

fn resolve_next(
    lp: &LoopShape,
    cm: &HashMap<u32, u32>,
    bin_var: &HashMap<u32, usize>,
    cur: &[(u32, DestBranch)],
) -> Vec<(u32, DestBranch)> {
    lp.next
        .iter()
        .map(|&(ns, nw)| match cm.get(&ns) {
            Some(&c) => (c, nw),
            None => cur[bin_var[&ns]],
        })
        .collect()
}

fn bin_var_map(lp: &LoopShape) -> HashMap<u32, usize> {
    lp.body_in
        .iter()
        .enumerate()
        .map(|(k, &b)| (b as u32, k))
        .collect()
}

fn body_edge_map(ins_of: &InEdges, lp: &LoopShape) -> HashMap<usize, Vec<(u32, u8, DestBranch)>> {
    lp.body.iter().map(|&b| (b, ins_of[b].to_vec())).collect()
}

/// Replaces the whole loop with `trips` straight-line body copies.
fn apply_unroll(block: &mut CodeBlock, ins_of: &InEdges, lp: &LoopShape, trips: u64) {
    let exits: Vec<Vec<Dest>> = lp
        .dinv
        .iter()
        .map(|&dv| block.instrs[dv].dests.clone())
        .collect();
    let bin_var = bin_var_map(lp);
    let body_edges = body_edge_map(ins_of, lp);

    let mut cur: Vec<(u32, DestBranch)> = lp.init.clone();
    for _ in 0..trips {
        let cm = clone_body_once(block, lp, &body_edges, &bin_var, &cur);
        cur = resolve_next(lp, &cm, &bin_var, &cur);
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
    let mut deleted: HashSet<u32> = HashSet::new();
    for set in [
        &lp.d,
        &lp.top,
        &lp.l,
        &lp.sw,
        &lp.body_in,
        &lp.dinv,
        &lp.body,
    ] {
        deleted.extend(set.iter().map(|&i| i as u32));
    }
    deleted.insert(lp.pred as u32);
    for &i in &deleted {
        block.instrs[i as usize].retire();
    }
    for ins in &mut block.instrs {
        ins.dests.retain(|dd| !deleted.contains(&dd.instr.0));
    }
}

/// Hoists the first iteration in front of the loop:
///
/// ```text
///   init ──▶ pred₀ ──▶ S₀ ── true ──▶ body copy #0 ──▶ D (loop as-is)
///              ▲        │
///   init ──────┘        └─ false ──▶ join ◀── D⁻¹ (loop exit)
///                                      │
///                                      ▼ old exit consumers
/// ```
fn apply_peel(block: &mut CodeBlock, ins_of: &InEdges, lp: &LoopShape) {
    let nvars = lp.d.len();
    let top_var: HashMap<u32, usize> = lp
        .top
        .iter()
        .enumerate()
        .map(|(k, &t)| (t as u32, k))
        .collect();
    let bin_var = bin_var_map(lp);
    let body_edges = body_edge_map(ins_of, lp);

    // A fresh copy of the predicate, fed by the init edges exactly as
    // the original is fed by the loop tops.
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
        let k = top_var[&s];
        let (isrc, iw) = lp.init[k];
        block.instrs[isrc as usize].dests.push(Dest {
            instr: InstrId(pred0 as u32),
            port: Port(port),
            when: iw,
        });
    }

    // Per variable: a gating switch on the fresh predicate and an exit
    // join that both the false branch and the loop's DInv feed.
    let mut s0 = Vec::with_capacity(nvars);
    for k in 0..nvars {
        let sk = block.instrs.len();
        block.instrs.push(Instruction::new(OpCode::Switch));
        let (isrc, iw) = lp.init[k];
        block.instrs[isrc as usize].dests.push(Dest {
            instr: InstrId(sk as u32),
            port: Port(0),
            when: iw,
        });
        block.instrs[pred0].dests.push(Dest {
            instr: InstrId(sk as u32),
            port: Port(1),
            when: DestBranch::Always,
        });
        let jk = block.instrs.len();
        let mut join = Instruction::new(OpCode::Identity);
        join.dests = std::mem::take(&mut block.instrs[lp.dinv[k]].dests);
        block.instrs.push(join);
        block.instrs[lp.dinv[k]].dests = vec![Dest {
            instr: InstrId(jk as u32),
            port: Port(0),
            when: DestBranch::Always,
        }];
        block.instrs[sk].dests.push(Dest {
            instr: InstrId(jk as u32),
            port: Port(0),
            when: DestBranch::IfFalse,
        });
        s0.push(sk);
    }

    // The inits no longer feed the Ds directly...
    let d_set: HashSet<u32> = lp.d.iter().map(|&i| i as u32).collect();
    for ins in &mut block.instrs {
        ins.dests.retain(|dd| !d_set.contains(&dd.instr.0));
    }
    // ...the peeled body copy does, with its inputs gated through S₀.
    let cur: Vec<(u32, DestBranch)> = s0
        .iter()
        .map(|&sk| (sk as u32, DestBranch::IfTrue))
        .collect();
    let cm = clone_body_once(block, lp, &body_edges, &bin_var, &cur);
    let next0 = resolve_next(lp, &cm, &bin_var, &cur);
    for (k, &(ns, nw)) in next0.iter().enumerate() {
        block.instrs[ns as usize].dests.push(Dest {
            instr: InstrId(lp.d[k] as u32),
            port: Port(0),
            when: nw,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::super::{optimize_at, OptLevel};
    use crate::builder::GraphBuilder;
    use crate::value::{AluOp, CmpOp};
    use crate::{OpCode, Program, Value};

    /// A loop whose body contains an IStore: never transformed.
    fn impure_loop() -> Program {
        let mut g = GraphBuilder::new("t");
        let n = g.param();
        let one = g.lit(Value::Int(1));
        g.wire(n, one, 0);
        let arr = g.instr(OpCode::IAlloc);
        let size = g.lit(Value::Int(4));
        g.wire(n, size, 0);
        g.wire(size, arr, 0);
        let exits = g
            .dataflow_loop(
                &[one, n],
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
        assert_eq!(stats.loops_peeled, 0, "{stats:?}");
    }

    #[test]
    fn non_cmp_predicates_are_never_transformed() {
        // A predicate built from And (not a bare Cmp) falls outside the
        // schema; the loop must be left alone.
        let mut g = GraphBuilder::new("t");
        let n = g.param();
        let one = g.lit(Value::Int(1));
        g.wire(n, one, 0);
        let exits = g
            .dataflow_loop(
                &[one, n],
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
        assert_eq!(stats.loops_peeled, 0, "{stats:?}");
    }
}
