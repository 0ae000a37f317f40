//! Struct-of-arrays wave storage (DESIGN.md §15).
//!
//! A wave used to be `Vec<Token>` — an array of three-field structs.
//! The hot loops only ever look at one field at a time: the k-bounding
//! eligibility scan and the shard router read *tags*, the criticality
//! sort reads *tags*, operand delivery reads *ports* and *values*. A
//! struct-of-arrays layout keeps each of those scans on its own packed,
//! contiguous array — the same argument that moved the waiting–matching
//! and I-structure stores to packed layouts in PRs 3/4, applied to the
//! tokens themselves. `ActivityName`, `Port`, and `Value` are all
//! `Copy`, so gathers and permutations are plain word moves.
//!
//! [`Token`] remains the interchange type at every API boundary (sinks,
//! matching store, cross-thread channels); a `Wave` materializes one on
//! demand.

use crate::exec::Emit;
use crate::sched::CritMap;
use crate::tag::{ActivityName, Port, Token};
use crate::value::Value;

/// One wave of in-flight tokens, stored as three parallel arrays.
#[derive(Debug, Clone, Default)]
pub(crate) struct Wave {
    tags: Vec<ActivityName>,
    ports: Vec<Port>,
    values: Vec<Value>,
    /// The sort keys of [`Wave::sort_by_criticality`], kept only so its
    /// storage is reused from wave to wave.
    keys: Vec<u64>,
}

impl Wave {
    /// An empty wave.
    pub(crate) fn new() -> Wave {
        Wave::default()
    }

    /// Tokens currently in the wave.
    pub(crate) fn len(&self) -> usize {
        self.tags.len()
    }

    /// Whether the wave holds no tokens.
    pub(crate) fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Appends one token from its parts.
    pub(crate) fn push(&mut self, tag: ActivityName, port: Port, value: Value) {
        self.tags.push(tag);
        self.ports.push(port);
        self.values.push(value);
    }

    /// Empties the wave, keeping its storage for the next one.
    pub(crate) fn clear(&mut self) {
        self.tags.clear();
        self.ports.clear();
        self.values.clear();
    }

    /// Appends an interchange [`Token`].
    pub(crate) fn push_token(&mut self, t: Token) {
        self.push(t.tag, t.port, t.value);
    }

    /// Appends every token of `ts`.
    pub(crate) fn extend_tokens(&mut self, ts: impl IntoIterator<Item = Token>) {
        for t in ts {
            self.push_token(t);
        }
    }

    /// The packed tag column (the only column the eligibility and
    /// routing scans touch).
    pub(crate) fn tags(&self) -> &[ActivityName] {
        &self.tags
    }

    /// Materializes token `i`.
    pub(crate) fn token(&self, i: usize) -> Token {
        Token::new(self.tags[i], self.ports[i], self.values[i])
    }

    /// Materializing iterator over the wave, front to back.
    #[cfg(test)]
    pub(crate) fn iter_tokens(&self) -> impl Iterator<Item = Token> + '_ {
        (0..self.len()).map(|i| self.token(i))
    }

    /// Keeps the tokens whose *tag* satisfies `keep`, preserving order;
    /// the rejected ones are appended to `spill` (the k-bounding
    /// holding-pen transfer). Compacts all three columns in one pass.
    pub(crate) fn retain_or_spill(
        &mut self,
        mut keep: impl FnMut(&ActivityName) -> bool,
        spill: &mut Vec<Token>,
    ) {
        let mut w = 0usize;
        for r in 0..self.tags.len() {
            if keep(&self.tags[r]) {
                self.tags[w] = self.tags[r];
                self.ports[w] = self.ports[r];
                self.values[w] = self.values[r];
                w += 1;
            } else {
                spill.push(self.token(r));
            }
        }
        self.tags.truncate(w);
        self.ports.truncate(w);
        self.values.truncate(w);
    }

    /// Stably reorders the wave by descending criticality of each
    /// token's target instruction. Stability is the determinism
    /// tie-break: equal-criticality tokens keep their arrival (wave
    /// index) order, so a sequential `Crit` run is a pure function of
    /// the graph and its inputs. Other engines order `Crit` tokens
    /// differently: a relaxed worker pops one priority queue across
    /// waves, so fib 18 at O2 peaks at 2,471 parked tokens here and at
    /// 1,073 on one worker. Only outputs and the confluent counters
    /// agree.
    ///
    /// The sort allocates nothing once the wave's storage has grown: each
    /// key is the inverted criticality over the token's index, so keys are
    /// distinct, an in-place unstable sort gives the stable order, and the
    /// columns are permuted in place, one cycle at a time.
    pub(crate) fn sort_by_criticality(&mut self, crit: &CritMap) {
        if self.len() < 2 {
            return;
        }
        let keys = &mut self.keys;
        keys.clear();
        keys.extend(
            self.tags
                .iter()
                .enumerate()
                .map(|(i, &t)| u64::from(!crit.criticality(t)) << 32 | i as u64),
        );
        keys.sort_unstable();
        // Position `k` takes the token from index `keys[k] as u32`; a
        // filled position's key becomes `u64::MAX`.
        for start in 0..keys.len() {
            if keys[start] == u64::MAX {
                continue;
            }
            let held = (self.tags[start], self.ports[start], self.values[start]);
            let mut k = start;
            loop {
                let from = keys[k] as u32 as usize;
                keys[k] = u64::MAX;
                if from == start {
                    (self.tags[k], self.ports[k], self.values[k]) = held;
                    break;
                }
                self.tags[k] = self.tags[from];
                self.ports[k] = self.ports[from];
                self.values[k] = self.values[from];
                k = from;
            }
        }
    }
}

impl Emit for Wave {
    fn emit(&mut self, tag: ActivityName, port: Port, value: Value) {
        self.push(tag, port, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::graph::{CodeBlockId, InstrId, OpCode};
    use crate::tag::{Ctx, Iter};
    use crate::value::AluOp;

    fn tag(s: u32) -> ActivityName {
        ActivityName {
            u: Ctx(0),
            c: CodeBlockId(0),
            s: InstrId(s),
            i: Iter::ONE,
        }
    }

    #[test]
    fn push_retain_and_materialize_round_trip() {
        let mut w = Wave::new();
        assert!(w.is_empty());
        for s in 0..6u32 {
            w.push(tag(s), Port(0), Value::Int(s as i64));
        }
        assert_eq!(w.len(), 6);
        assert_eq!(w.token(3), Token::new(tag(3), Port(0), Value::Int(3)));
        let mut spill = Vec::new();
        w.retain_or_spill(|t| t.s.0 % 2 == 0, &mut spill);
        assert_eq!(
            w.iter_tokens().map(|t| t.tag.s.0).collect::<Vec<_>>(),
            [0, 2, 4]
        );
        assert_eq!(
            spill.iter().map(|t| t.tag.s.0).collect::<Vec<_>>(),
            [1, 3, 5]
        );
        w.extend_tokens(spill);
        assert_eq!(w.len(), 6);
    }

    #[test]
    fn criticality_sort_is_stable_within_equal_heights() {
        // x -> a -> out: heights x=2, a=1, out=0. Two tokens per target,
        // pushed interleaved; the sort must group by height descending
        // while keeping each pair's push order.
        let mut g = GraphBuilder::new("t");
        let x = g.param();
        let a = g.instr_lit(OpCode::Alu(AluOp::Add), 1, Value::Int(1));
        let out = g.output(0);
        g.wire(x, a, 0);
        g.wire(a, out, 0);
        let p = g.finish_program().unwrap();
        let crit = CritMap::of(&p);
        let mut w = Wave::new();
        for (k, n) in [out.instr(), x.instr(), a.instr(), x.instr(), out.instr()]
            .iter()
            .enumerate()
        {
            w.push(
                ActivityName {
                    u: Ctx(0),
                    c: p.main,
                    s: *n,
                    i: Iter::ONE,
                },
                Port(0),
                Value::Int(k as i64),
            );
        }
        w.sort_by_criticality(&crit);
        let order: Vec<(u32, Value)> = w.iter_tokens().map(|t| (t.tag.s.0, t.value)).collect();
        assert_eq!(
            order,
            vec![
                (x.instr().0, Value::Int(1)),
                (x.instr().0, Value::Int(3)),
                (a.instr().0, Value::Int(2)),
                (out.instr().0, Value::Int(0)),
                (out.instr().0, Value::Int(4)),
            ]
        );
    }
}
