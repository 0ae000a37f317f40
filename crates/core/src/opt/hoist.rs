//! Loop-invariant code motion: an expression of loop invariants fires
//! once per activation instead of once per iteration.
//!
//! After [`promote`](super::promote) an invariant costs nothing per
//! iteration, but an expression whose operands are all invariants —
//! matmul's `i * n`, wavefront's `(i - 1) * n` — still fires on every
//! iteration, and keeps one of its invariants circulating so that it has
//! a token to fire on. This pass moves every such expression into the
//! code that enters the loop and carries its value in as one more
//! invariant, which promotion then turns into a constant:
//!
//! ```text
//!   before                             after
//!   i, n ─D─▶ … ─▶ i * n ─▶ reader     i ─▶ S ─T─▶ i * n ─▶ join ─D─▶ … ─▶ reader
//!                                      n ─▶ S ─T─▶ ┘        ▲
//!                                           └──────F────────┘ (dummy)
//!                                      each S: a Switch on pred₀
//! ```
//!
//! * **Candidates.** A body instruction is a candidate when it is a
//!   pure value op (`Alu`, `Cmp`, `Not`, `And`, `Or`) and each operand
//!   is its literal or exactly one edge from an invariant's body input
//!   or from another candidate, so chains move together. A `Switch`
//!   whose data and control are both such values is a candidate too, as
//!   is what it feeds, up to an `Identity` that joins both of its sides
//!   again; that is the guard below, one loop further in. A candidate
//!   behind a switch must feed only candidates, because a value that
//!   exists on some iterations only cannot become an invariant. What
//!   sits behind a switch whose control varies (an `if` on the
//!   iteration), a fetch, a call, or anything on a self-loop stays.
//! * **The guard.** A loop can run zero times, and every `Alu` and
//!   `Cmp` can fail (a type error, integer division by zero). So the
//!   hoisted copy reads each invariant through a `Switch` on `pred₀`,
//!   the loop predicate applied to the initial values, and fires only in
//!   activations that run at least one iteration: `O2` never raises an
//!   error that `O0` does not. On the false side the guarded value
//!   itself stands in as a dummy, so the new variable still gets its one
//!   token per activation. A `Const` initial value becomes `pred₀`'s
//!   literal; then, when `pred₀`'s other input is invariant in the
//!   enclosing loop, the guard and the copy are candidates there and
//!   move on out on that loop's visit (loops are visited inner first).
//!   That is how matmul's `i * n` reaches the outer loop's body.
//! * **Bookkeeping.** Each hoisted value the body still reads enters
//!   as a new invariant in the compiler's schema (`D`, top, `Switch`,
//!   body input, `L`, `D⁻¹`); structurally equal candidates share one.
//!   An invariant left with no reader is deleted. A loop is left alone
//!   when the hoist would give it more than [`MAX_LOOP_CONSTS`]
//!   invariants: promotion takes them greedily up to that limit, so the
//!   hoist would cost a promotion.

use std::collections::BTreeSet;

use crate::graph::{CodeBlock, Dest, DestBranch, InstrId, Instruction, OpCode, MAX_LOOP_CONSTS};
use crate::tag::Port;

use super::analysis::{canonical_order, in_edge_table, InEdges};
use super::cse::Key;
use super::unroll::{add_pred0, loop_groups, machinery, remove_variable, LoopShape};
use super::OptStats;

/// Hoists the invariant expressions of every eligible loop. `table` is
/// the block's in-edge table, if one is current.
pub(super) fn run(block: &mut CodeBlock, table: &mut Option<InEdges>, stats: &mut OptStats) {
    // Inner loops first (descending ids, as in promotion): what an inner
    // loop hoists lands in its parent's body, where the parent's own
    // visit can move it further out.
    for (loop_id, ds) in loop_groups(block).into_iter().rev() {
        // Built again only after a hoist, which rewires edges.
        let ins_of = table.get_or_insert_with(|| in_edge_table(block));
        let Some(lp) = machinery(block, ins_of, &ds) else {
            continue;
        };
        let Some(group) = candidates(block, ins_of, &lp) else {
            continue;
        };
        let plan = Plan::of(block, ins_of, &lp, group);
        // Promotion takes invariants greedily, up to the limit: a hoist
        // that pushed the loop past it would cost a promotion.
        let invariants = (0..lp.d.len()).filter(|&k| lp.is_invariant(k)).count();
        if invariants + plan.carried.len() - plan.deleted.len() > MAX_LOOP_CONSTS {
            continue;
        }
        stats.instrs_hoisted += plan.group.len();
        apply(block, ins_of, &lp, &plan, loop_id);
        *table = None;
    }
}

/// No entry in a dense per-instruction index.
const NONE: u32 = u32::MAX;

/// On which iterations a candidate fires: every one (empty), or those
/// on which each `(control, side)` of the switches above it holds.
type Cond = Vec<(u32, bool)>;

enum Class {
    Candidate(Cond),
    Never,
    /// An operand's source is not classified yet.
    Later,
}

/// The candidates of one loop in dependency order, or `None`.
fn candidates(block: &CodeBlock, ins_of: &InEdges, lp: &LoopShape) -> Option<Vec<usize>> {
    let instr = |i: usize| &block.instrs[i];
    let invariant: Vec<usize> = (0..lp.d.len())
        .filter(|&k| lp.is_invariant(k))
        .map(|k| lp.body_in[k])
        .collect();
    // Per instruction: its index in `order` once it is a candidate, and
    // so in `cond`, which holds the condition each candidate fires on.
    let mut place = vec![NONE; block.instrs.len()];
    let mut cond: Vec<Cond> = Vec::new();
    let classify = |x: usize, place: &[u32], cond: &[Cond]| -> Class {
        let ins = instr(x);
        let edges = &ins_of[x];
        if block.params.iter().any(|p| p.0 as usize == x) || !ins.consts.is_empty() {
            return Class::Never;
        }
        // The condition each operand arrives on: the first and second
        // operands' (a join reads both), and whether all are alike.
        let (mut first, mut second): (Option<Cond>, Option<Cond>) = (None, None);
        let mut alike = true;
        for &(s, _, w) in edges {
            let s = s as usize;
            if s == x {
                return Class::Never;
            }
            let c = if invariant.contains(&s) {
                Cond::new()
            } else {
                let Some(c) = cond.get(place[s] as usize) else {
                    return Class::Later;
                };
                let mut c = c.clone();
                match (instr(s).op, w) {
                    (OpCode::Switch, DestBranch::IfTrue | DestBranch::IfFalse) => {
                        let control = ins_of[s]
                            .iter()
                            .find(|e| e.1 == 1)
                            .expect("a switch candidate");
                        c.push((control.0, w == DestBranch::IfTrue));
                    }
                    (OpCode::Switch, _) | (_, DestBranch::IfTrue | DestBranch::IfFalse) => {
                        return Class::Never;
                    }
                    _ => {}
                }
                c
            };
            match &first {
                None => first = Some(c),
                Some(f) => {
                    alike &= *f == c;
                    second.get_or_insert(c);
                }
            }
        }
        let Some(first) = first else {
            return Class::Never;
        };
        // One operand per port, the literal's port included.
        let ports_ok = || {
            (0..ins.op.arity()).all(|p| {
                let fed = edges.iter().filter(|e| e.1 == p).count();
                let lit = ins.literal.is_some_and(|(lp, _)| lp.0 == p);
                fed + usize::from(lit) == 1
            })
        };
        match ins.op {
            OpCode::Alu(_)
            | OpCode::Cmp(_)
            | OpCode::Not
            | OpCode::And
            | OpCode::Or
            | OpCode::Switch
                if ports_ok() && alike =>
            {
                Class::Candidate(first)
            }
            // A join of both sides of one switch decision fires whenever
            // the decision is made.
            OpCode::Identity if ins.literal.is_none() && edges.len() == 2 => {
                let second = second.expect("a join has two operands");
                match (first.split_last(), second.split_last()) {
                    (Some((&(ka, sa), ra)), Some((&(kb, sb), rb)))
                        if ka == kb && sa != sb && ra == rb =>
                    {
                        Class::Candidate(ra.to_vec())
                    }
                    _ => Class::Never,
                }
            }
            _ => Class::Never,
        }
    };

    // Classify by sweeps in index order until nothing changes, so that
    // the order is deterministic and puts every candidate after its
    // operands.
    let mut order = Vec::new();
    let mut frontier: BTreeSet<usize> = invariant
        .iter()
        .flat_map(|&b| instr(b).dests.iter().map(|d| d.instr.0 as usize))
        .collect();
    let mut sweep = Vec::new();
    loop {
        let mut progress = false;
        sweep.clear();
        sweep.extend(&frontier);
        for &x in &sweep {
            match classify(x, &place, &cond) {
                Class::Candidate(c) => {
                    place[x] = order.len() as u32;
                    order.push(x);
                    cond.push(c);
                    frontier.remove(&x);
                    frontier.extend(instr(x).dests.iter().map(|d| d.instr.0 as usize));
                    progress = true;
                }
                Class::Never => {
                    frontier.remove(&x);
                }
                Class::Later => {}
            }
        }
        if !progress {
            break;
        }
    }

    // Drop what cannot move: a conditional value read outside the
    // group, and anything whose operand stays behind.
    let mut kept = vec![true; order.len()];
    loop {
        let mut changed = false;
        for (g, &x) in order.iter().enumerate() {
            let in_group = |t: usize| kept.get(place[t] as usize) == Some(&true);
            let conditional = !cond[g].is_empty() || instr(x).op == OpCode::Switch;
            let stranded =
                conditional && instr(x).dests.iter().any(|d| !in_group(d.instr.0 as usize));
            let orphaned = ins_of[x]
                .iter()
                .any(|&(s, _, _)| !in_group(s as usize) && !invariant.contains(&(s as usize)));
            if (stranded || orphaned) && kept[g] {
                kept[g] = false;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let mut kept = kept.into_iter();
    order.retain(|_| kept.next() == Some(true));
    (!order.is_empty()).then_some(order)
}

/// What moves out of one loop.
struct Plan {
    /// The candidates, in dependency order.
    group: Vec<usize>,
    /// Per instruction of the block: its index in `group`, or [`NONE`].
    slot: Vec<u32>,
    /// Per candidate, the first structurally equal one, as an index into
    /// `reps`: only those are copied, and one variable carries each in
    /// (wavefront computes `i * n` twice).
    rep: Vec<usize>,
    /// The copied candidates, in dependency order.
    reps: Vec<usize>,
    /// The copied candidates the body still reads, as indexes into
    /// `reps`.
    carried: Vec<usize>,
    /// The invariants the group reads, by variable index.
    read: Vec<usize>,
    /// Those of them nothing else reads, which leave the loop.
    deleted: Vec<usize>,
}

impl Plan {
    fn of(block: &CodeBlock, ins_of: &InEdges, lp: &LoopShape, group: Vec<usize>) -> Plan {
        let mut slot = vec![NONE; block.instrs.len()];
        for (g, &x) in group.iter().enumerate() {
            slot[x] = g as u32;
        }
        let mut rep: Vec<usize> = Vec::with_capacity(group.len());
        // Each copied candidate with its in-edges, sources mapped to
        // copied candidates, in canonical order.
        let mut reps: Vec<(usize, Vec<_>)> = Vec::new();
        for &x in &group {
            let mut edges: Vec<(u32, u8, DestBranch)> = ins_of[x]
                .iter()
                .map(|&(s, p, w)| match rep.get(slot[s as usize] as usize) {
                    Some(&r) => (reps[r].0 as u32, p, w),
                    None => (s, p, w),
                })
                .collect();
            canonical_order(&mut edges);
            let same = Key::of(&block.instrs[x], &edges).and_then(|k| {
                reps.iter()
                    .position(|(y, e)| Key::of(&block.instrs[*y], e).as_ref() == Some(&k))
            });
            rep.push(same.unwrap_or(reps.len()));
            if same.is_none() {
                reps.push((x, edges));
            }
        }
        let in_group = |t: usize| slot[t] != NONE;
        let mut carried: Vec<usize> = Vec::new();
        for (g, &x) in group.iter().enumerate() {
            let outside = block.instrs[x]
                .dests
                .iter()
                .any(|d| !in_group(d.instr.0 as usize));
            if outside && !carried.contains(&rep[g]) {
                carried.push(rep[g]);
            }
        }
        let mut read: Vec<usize> = Vec::new();
        for &x in &group {
            for &(s, _, _) in &ins_of[x] {
                match lp.body_in.iter().position(|&b| b == s as usize) {
                    Some(k) if !read.contains(&k) => read.push(k),
                    _ => {}
                }
            }
        }
        let only = |i: usize, to: &dyn Fn(usize) -> bool| {
            block.instrs[i].dests.iter().all(|d| to(d.instr.0 as usize))
        };
        let deleted = read
            .iter()
            .copied()
            .filter(|&k| {
                only(lp.body_in[k], &|t| t == lp.l[k] || in_group(t))
                    && only(lp.top[k], &|t| t == lp.sw[k])
            })
            .collect();
        Plan {
            group,
            slot,
            rep,
            reps: reps.into_iter().map(|(x, _)| x).collect(),
            carried,
            read,
            deleted,
        }
    }
}

/// Moves `plan`'s group out of the loop (see the module docs).
fn apply(block: &mut CodeBlock, ins_of: &InEdges, lp: &LoopShape, plan: &Plan, loop_id: u32) {
    let in_group = |t: u32| plan.slot.get(t as usize).is_some_and(|&g| g != NONE);
    let var_of = |b: u32| lp.body_in.iter().position(|&x| x == b as usize);

    // The guard: pred₀, and a switch on it per initial value read.
    let pred0 = add_pred0(block, ins_of, lp);
    const_to_literal(block, ins_of, lp, pred0);
    let mut guard: Vec<((u32, DestBranch), usize)> = Vec::new();
    for &k in &plan.read {
        let (src, when) = lp.init[k];
        if guard.iter().any(|&(init, _)| init == (src, when)) {
            continue;
        }
        let sw = block.instrs.len();
        block.instrs.push(Instruction::new(OpCode::Switch));
        block.instrs[src as usize].dests.push(edge(sw, 0, when));
        block.instrs[pred0]
            .dests
            .push(edge(sw, 1, DestBranch::Always));
        guard.push(((src, when), sw));
    }

    // The copies, fed by each other and by the guard's true side: the
    // copy of `plan.reps[j]` is instruction `copies + j`.
    let copies = block.instrs.len();
    for &x in &plan.reps {
        let o = &block.instrs[x];
        let c = Instruction {
            op: o.op,
            nt: o.nt,
            literal: o.literal,
            consts: Vec::new(),
            dests: Vec::new(),
        };
        block.instrs.push(c);
    }
    for (j, &x) in plan.reps.iter().enumerate() {
        for &(s, p, w) in &ins_of[x] {
            let (src, when) = match var_of(s) {
                Some(k) => {
                    let init = lp.init[k];
                    let &(_, sw) = guard.iter().find(|&&(i, _)| i == init).expect("guarded");
                    (sw, DestBranch::IfTrue)
                }
                None => (copies + plan.rep[plan.slot[s as usize] as usize], w),
            };
            block.instrs[src].dests.push(edge(copies + j, p, when));
        }
    }

    // What the body still reads enters as a new invariant.
    let dummy = guard[0].1;
    let body_in: Vec<usize> = plan
        .carried
        .iter()
        .map(|&j| add_invariant(block, lp, loop_id, copies + j, dummy))
        .collect();
    for (g, &x) in plan.group.iter().enumerate() {
        let Some(c) = plan.carried.iter().position(|&j| j == plan.rep[g]) else {
            continue;
        };
        // The new body input comes after every original.
        let (originals, added) = block.instrs.split_at_mut(body_in[c]);
        let outside = originals[x].dests.iter().filter(|d| !in_group(d.instr.0));
        added[0].dests.extend(outside);
    }

    // The originals leave, and so does an invariant nothing reads now.
    for &x in &plan.group {
        block.instrs[x].retire();
    }
    for &k in &plan.read {
        block.instrs[lp.body_in[k]]
            .dests
            .retain(|d| !in_group(d.instr.0));
    }
    for &k in &plan.deleted {
        let d = lp.d[k];
        block.instrs[lp.init[k].0 as usize]
            .dests
            .retain(|x| x.instr.0 as usize != d);
        remove_variable(block, lp, k);
    }
}

fn edge(to: usize, port: u8, when: DestBranch) -> Dest {
    Dest {
        instr: InstrId(to as u32),
        port: Port(port),
        when,
    }
}

/// Makes a `Const` initial value `pred₀`'s literal, so that `pred₀`
/// reads only values that may be invariant one loop further out.
fn const_to_literal(block: &mut CodeBlock, ins_of: &InEdges, lp: &LoopShape, pred0: usize) {
    if block.instrs[pred0].literal.is_some() {
        return;
    }
    for &(top, port, _) in &ins_of[lp.pred] {
        let k = lp
            .top
            .iter()
            .position(|&t| t == top as usize)
            .expect("fed by a top");
        let (src, _) = lp.init[k];
        let OpCode::Const(v) = block.instrs[src as usize].op else {
            continue;
        };
        let feeds = &mut block.instrs[src as usize].dests;
        let at = feeds
            .iter()
            .position(|d| d.instr.0 as usize == pred0 && d.port == Port(port))
            .expect("pred₀ is fed by each initial value");
        feeds.remove(at);
        let p = &mut block.instrs[pred0];
        p.literal = Some((Port(port), v));
        p.recount();
        return;
    }
}

/// Adds an invariant variable to the loop, in the compiler's schema, fed
/// by `value` and, when the loop runs no iteration, by `dummy`'s false
/// side. Returns its body input.
fn add_invariant(
    block: &mut CodeBlock,
    lp: &LoopShape,
    loop_id: u32,
    value: usize,
    dummy: usize,
) -> usize {
    let at = block.instrs.len();
    let (join, d, top, sw, body_in, l, dinv) = (at, at + 1, at + 2, at + 3, at + 4, at + 5, at + 6);
    let always = DestBranch::Always;
    for (op, dests) in [
        (OpCode::Identity, vec![edge(d, 0, always)]),
        (OpCode::D { loop_id }, vec![edge(top, 0, always)]),
        (OpCode::Identity, vec![edge(sw, 0, always)]),
        (
            OpCode::Switch,
            vec![
                edge(body_in, 0, DestBranch::IfTrue),
                edge(dinv, 0, DestBranch::IfFalse),
            ],
        ),
        (OpCode::Identity, vec![edge(l, 0, always)]),
        (OpCode::L, vec![edge(top, 0, always)]),
        (OpCode::DInv, Vec::new()),
    ] {
        let mut ins = Instruction::new(op);
        ins.dests = dests;
        block.instrs.push(ins);
    }
    block.instrs[value].dests.push(edge(join, 0, always));
    block.instrs[dummy]
        .dests
        .push(edge(join, 0, DestBranch::IfFalse));
    block.instrs[lp.pred].dests.push(edge(sw, 1, always));
    body_in
}

#[cfg(test)]
mod tests {
    use super::super::{optimize_at, OptLevel, OptStats};
    use crate::builder::GraphBuilder;
    use crate::value::{AluOp, CmpOp};
    use crate::{Emulator, ExecError, NodeId, OpCode, Program, Value};

    /// `for i in 1..=n { s += <term> }` with invariants `n` and the
    /// parameters after it, shaped like the compiler's `for` loops.
    fn sum_of(
        invariants: usize,
        term: impl FnOnce(&mut GraphBuilder, &[NodeId]) -> NodeId,
    ) -> Program {
        let mut g = GraphBuilder::new("t");
        let n = g.param();
        let zero = g.lit(Value::Int(0));
        let one = g.lit(Value::Int(1));
        g.wire(n, zero, 0).wire(n, one, 0);
        let mut inits = vec![zero, one, n];
        inits.extend((0..invariants).map(|_| g.param()));
        let exits = g
            .dataflow_loop(
                &inits,
                |g, tops| {
                    let c = g.instr(OpCode::Cmp(CmpOp::Le));
                    g.wire(tops[1], c, 0).wire(tops[2], c, 1);
                    c
                },
                |g, vars| {
                    let t = term(g, vars);
                    let acc = g.instr(OpCode::Alu(AluOp::Add));
                    g.wire(vars[0], acc, 0).wire(t, acc, 1);
                    let i2 = g.instr_lit(OpCode::Alu(AluOp::Add), 1, Value::Int(1));
                    g.wire(vars[1], i2, 0);
                    let mut next = vec![acc, i2];
                    next.extend(&vars[2..]);
                    next
                },
            )
            .unwrap();
        let out = g.output(0);
        g.wire(exits[0], out, 0);
        g.finish_program().unwrap()
    }

    fn binary(g: &mut GraphBuilder, op: AluOp, a: NodeId, b: NodeId) -> NodeId {
        let x = g.instr(OpCode::Alu(op));
        g.wire(a, x, 0).wire(b, x, 1);
        x
    }

    /// The program after this pass alone.
    fn hoisted(p: &Program) -> (Program, OptStats) {
        let mut q = p.clone();
        let mut stats = OptStats::default();
        for b in &mut q.blocks {
            super::run(b, &mut None, &mut stats);
        }
        assert_eq!(q.validate(), Ok(()));
        (q, stats)
    }

    fn run(p: &Program, inputs: &[i64]) -> Result<Value, ExecError> {
        let inputs: Vec<Value> = inputs.iter().map(|&x| Value::Int(x)).collect();
        Emulator::new(p).run(&inputs).map(|r| r.outputs[&0])
    }

    #[test]
    fn a_chain_of_invariants_fires_once_per_activation() {
        // `(a - 1) * b` moves as one chain; `a` and `b` are then read by
        // nothing in the loop and leave it.
        let p = sum_of(2, |g, v| {
            let d = g.instr_lit(OpCode::Alu(AluOp::Sub), 1, Value::Int(1));
            g.wire(v[3], d, 0);
            binary(g, AluOp::Mul, d, v[4])
        });
        let (_, stats) = hoisted(&p);
        assert_eq!(stats.instrs_hoisted, 2, "{stats:?}");
        let (o2, stats) = optimize_at(&p, OptLevel::O2);
        assert_eq!(stats.instrs_hoisted, 2, "{stats:?}");
        // `n` and the product are the loop's only invariants left.
        assert_eq!(stats.invariants_promoted, 2, "{stats:?}");
        for n in [0, 1, 2, 7] {
            assert_eq!(run(&p, &[n, 4, 5]), run(&o2, &[n, 4, 5]), "n = {n}");
        }
        // Per iteration: `s` and `i` circulate (Switch + L each), then
        // the accumulate, the increment and the predicate.
        let fired = |n| {
            Emulator::new(&o2)
                .run(&[Value::Int(n), Value::Int(4), Value::Int(5)])
                .unwrap()
                .instructions
        };
        assert_eq!(fired(41) - fired(40), 7);
    }

    #[test]
    fn a_hoisted_quotient_is_guarded_by_the_loop_predicate() {
        // `a / b` with `b = 0` fails on the first iteration, so it may
        // fail only when the loop runs one.
        let p = sum_of(2, |g, v| binary(g, AluOp::Div, v[3], v[4]));
        let (q, stats) = hoisted(&p);
        assert_eq!(stats.instrs_hoisted, 1, "{stats:?}");
        assert_eq!(run(&q, &[0, 7, 0]), Ok(Value::Int(0)));
        assert!(matches!(run(&q, &[1, 7, 0]), Err(ExecError::Type(_))));
        assert_eq!(run(&q, &[3, 7, 2]), Ok(Value::Int(9)));
    }

    #[test]
    fn an_iteration_dependent_operand_stays() {
        // `a * i` reads the induction variable.
        let p = sum_of(1, |g, v| binary(g, AluOp::Mul, v[3], v[1]));
        assert_eq!(hoisted(&p).1.instrs_hoisted, 0);
    }

    #[test]
    fn a_hoist_past_the_constant_limit_is_skipped() {
        // `i + k0 + … + k0 * k1`: every `k` is read on its own as well,
        // so with `n` the loop has `ks` + 1 invariants before the hoist
        // and `ks` + 2 after.
        let nest = |ks: usize| {
            sum_of(ks, |g, v| {
                let mut acc = v[1];
                for &k in &v[3..] {
                    acc = binary(g, AluOp::Add, acc, k);
                }
                let product = binary(g, AluOp::Mul, v[3], v[4]);
                binary(g, AluOp::Add, acc, product)
            })
        };
        assert_eq!(hoisted(&nest(6)).1.instrs_hoisted, 1, "8 invariants");
        assert_eq!(hoisted(&nest(7)).1.instrs_hoisted, 0, "9 invariants");
    }
}
