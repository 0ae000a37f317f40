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

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::graph::{CodeBlock, DestBranch, Instruction, OpCode};
use crate::tag::Port;
use crate::value::{AluOp, CmpOp, StructRef, Value};

use super::analysis::{in_edge_table, InEdges};
use super::OptStats;

/// One round of merging. Returns whether anything changed. `table` is
/// the block's in-edge table, if one is current; merging sorts it into
/// canonical order.
pub(super) fn run(
    block: &mut CodeBlock,
    table: &mut Option<InEdges>,
    stats: &mut OptStats,
) -> bool {
    let mut any = false;
    // Whether each instruction has been merged away (a victim).
    let mut victim: Vec<bool> = Vec::new();
    loop {
        // First occurrence of a key is the representative; later ones
        // merge into it. A representative can never itself be merged
        // this round (it would have matched an earlier occurrence).
        // Merges are listed in victim order: the merge loop below
        // extends the survivors' dest lists, so this order becomes the
        // compiled program's edge order, which every order-sensitive
        // downstream measurement (timed-machine makespans, token
        // traces) sees.
        let merges = {
            // Use-side view, rebuilt after a round that merges.
            let ins_of = table.get_or_insert_with(|| in_edge_table(block));
            ins_of.canonicalize();
            let keyed = block
                .instrs
                .iter()
                .filter(|ins| Key::of(ins, &[]).is_some());
            let mut table: HashMap<Key<'_>, usize, BuildHasherDefault<KeyHasher>> =
                HashMap::with_capacity_and_hasher(keyed.count(), Default::default());
            let mut merges: Vec<(usize, usize)> = Vec::new();
            for (i, ins) in block.instrs.iter().enumerate() {
                let edges = &ins_of[i];
                if block.params.iter().any(|p| p.0 as usize == i)
                    || edges.iter().any(|&(src, _, _)| src as usize == i)
                {
                    continue; // pinned, or a self-loop: not a pure value stream
                }
                let Some(k) = Key::of(ins, edges) else {
                    continue;
                };
                match table.entry(k) {
                    Entry::Vacant(e) => {
                        e.insert(i);
                    }
                    Entry::Occupied(e) => merges.push((i, *e.get())),
                }
            }
            merges
        };
        if merges.is_empty() {
            return any;
        }
        *table = None;
        // The survivor absorbs the victim's destinations; every edge
        // into a victim is dropped (sources fire regardless of fan-out,
        // so dropping a delivery to a now-silent duplicate is safe).
        victim.resize(block.instrs.len(), false);
        for &(v, rep) in &merges {
            victim[v] = true;
            let dests = std::mem::take(&mut block.instrs[v].dests);
            block.instrs[rep].dests.extend(dests);
            // Neutralize the victim so later rounds cannot key two
            // emptied duplicates against each other; DCE reaps Sinks.
            block.instrs[v].retire();
        }
        for ins in &mut block.instrs {
            ins.dests.retain(|d| !victim[d.instr.0 as usize]);
        }
        stats.cse_merged += merges.len();
        any = true;
    }
}

/// The hasher of the CSE table: a multiply-and-rotate mix of the key's
/// small integers. The keys come from the program being compiled, not
/// from an adversary, so SipHash's collision resistance buys nothing
/// and its rounds cost more than the rest of a CSE round.
#[derive(Default)]
struct KeyHasher(u64);

impl KeyHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, x: u8) {
        self.mix(u64::from(x));
    }

    fn write_u32(&mut self, x: u32) {
        self.mix(u64::from(x));
    }

    fn write_u64(&mut self, x: u64) {
        self.mix(x);
    }

    fn write_usize(&mut self, x: usize) {
        self.mix(x as u64);
    }

    fn finish(&self) -> u64 {
        // The table picks buckets by the low bits, which the multiply
        // leaves weakest.
        self.0.rotate_left(26)
    }
}

/// The structural identity of a pure value instruction: two
/// instructions with equal keys compute the same value from the same
/// token streams. Loop-constant operands are part of the key: two
/// readers that differ only in the slot they read compute different
/// values.
#[derive(PartialEq, Eq, Hash)]
pub(super) struct Key<'a> {
    op: OpKey,
    literal: Option<(Port, ValueKey)>,
    consts: &'a [(Port, u8)],
    /// The in-edges in canonical order (see `InEdges::canonicalize`).
    ins: &'a [(u32, u8, DestBranch)],
}

impl<'a> Key<'a> {
    /// The key of `ins` given its canonically ordered in-edges, or
    /// `None` outside the domain (`Const`/`Alu`/`Cmp`/`Not`/`And`/`Or`).
    pub(super) fn of(ins: &'a Instruction, edges: &'a [(u32, u8, DestBranch)]) -> Option<Self> {
        let op = match ins.op {
            OpCode::Const(v) => OpKey::Const(v.into()),
            OpCode::Alu(op) => OpKey::Alu(op),
            OpCode::Cmp(op) => OpKey::Cmp(op),
            OpCode::Not => OpKey::Not,
            OpCode::And => OpKey::And,
            OpCode::Or => OpKey::Or,
            _ => return None,
        };
        Some(Key {
            op,
            literal: ins.literal.map(|(p, v)| (p, v.into())),
            consts: &ins.consts,
            ins: edges,
        })
    }
}

/// The opcodes CSE merges, with their payloads.
#[derive(PartialEq, Eq, Hash)]
enum OpKey {
    Const(ValueKey),
    Alu(AluOp),
    Cmp(CmpOp),
    Not,
    And,
    Or,
}

/// A value by its bits: floats compare bitwise (so `0.0` and `-0.0`
/// differ), except that every NaN is one value, as in its `Debug` form.
#[derive(PartialEq, Eq, Hash)]
enum ValueKey {
    Unit,
    Bool(bool),
    Int(i64),
    Float(u64),
    Ptr(StructRef),
}

impl From<Value> for ValueKey {
    fn from(v: Value) -> Self {
        match v {
            Value::Unit => ValueKey::Unit,
            Value::Bool(b) => ValueKey::Bool(b),
            Value::Int(i) => ValueKey::Int(i),
            Value::Float(x) if x.is_nan() => ValueKey::Float(f64::NAN.to_bits()),
            Value::Float(x) => ValueKey::Float(x.to_bits()),
            Value::Ptr(p) => ValueKey::Ptr(p),
        }
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
