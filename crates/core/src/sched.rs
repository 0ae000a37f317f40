//! Token scheduling policy: FIFO vs criticality-aware (DESIGN.md §15).
//!
//! Every engine holds ready tokens somewhere — the sequential emulator's
//! and each relaxed worker's wave vectors, the timed machine's per-PE
//! input queues. This module decides the *order* those holders release
//! tokens in ([`sort_by_criticality`] reorders a wave, [`BucketQueue`]
//! orders a PE's queue):
//!
//! * [`SchedPolicy::Fifo`] — arrival order, the historical behaviour.
//! * [`SchedPolicy::Crit`] — longest-remaining-path first: tokens aimed
//!   at instructions with greater critical-path *height* (the longest
//!   path below the instruction, each loop back edge taken once; see
//!   [`annotate_criticality`](crate::opt::annotate_criticality)) go
//!   first, because they gate longer dependence chains (Navada &
//!   Krishna's criticality-aware scheduling, applied to a tagged-token
//!   machine). Ties always break by arrival order, so a sequential run
//!   under either policy is deterministic.
//!
//! Every engine defaults to FIFO; code picks `Crit` per engine
//! (`Emulator::with_sched`, `TimedConfig::sched`). No environment
//! variable changes the policy.

use std::collections::VecDeque;

use crate::graph::Program;
use crate::tag::{ActivityName, Token};

/// How an engine orders its ready tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Arrival order (the classic ready queue).
    #[default]
    Fifo,
    /// Greatest remaining critical-path height first, arrival order on
    /// ties.
    Crit,
}

impl std::fmt::Display for SchedPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedPolicy::Fifo => write!(f, "fifo"),
            SchedPolicy::Crit => write!(f, "crit"),
        }
    }
}

/// Per-program criticality lookup: `criticality(tag)` is the remaining
/// critical-path height of the instruction the token is aimed at.
///
/// Annotated blocks ([`CodeBlock::criticality`](crate::CodeBlock) from
/// `annotate_criticality`, attached by `compile_optimized`) are read
/// directly; unannotated blocks (hand-built graphs) get the same heights
/// computed once here, so `Crit` scheduling works on any program.
#[derive(Debug, Clone)]
pub(crate) struct CritMap {
    by_block: Vec<Vec<u32>>,
}

impl CritMap {
    /// Builds the lookup for `program` (only worth doing under
    /// [`SchedPolicy::Crit`]; FIFO engines never consult it).
    pub(crate) fn of(program: &Program) -> CritMap {
        CritMap {
            by_block: program
                .blocks
                .iter()
                .map(|b| {
                    if b.criticality.len() == b.instrs.len() {
                        b.criticality.clone()
                    } else {
                        crate::opt::analysis::Analysis::of(b).height
                    }
                })
                .collect(),
        }
    }

    /// The criticality of the instruction `tag` targets (0 for anything
    /// out of range — bad targets fail later, in execution, with a real
    /// error).
    #[inline]
    pub(crate) fn criticality(&self, tag: ActivityName) -> u32 {
        self.by_block
            .get(tag.c.0 as usize)
            .and_then(|v| v.get(tag.s.0 as usize))
            .copied()
            .unwrap_or(0)
    }
}

/// Stably reorders `tokens` by descending criticality of each token's
/// target instruction (the `Crit` wave order of both untimed engines).
/// Stability is the determinism tie-break: equal-criticality tokens keep
/// their arrival (wave index) order, so a sequential `Crit` run is a
/// pure function of the graph and its inputs. A relaxed worker sorts
/// each of its own waves the same way, so one worker fires exactly as
/// the sequential run; with more, a worker's waves hold only the tokens
/// it owns, and only outputs and the confluent counters agree.
///
/// The sort allocates nothing once `keys`, which the caller reuses from
/// wave to wave, has grown: each key is the inverted criticality over
/// the token's index, so keys are distinct, an in-place unstable sort
/// gives the stable order, and the tokens are permuted in place, one
/// cycle at a time.
pub(crate) fn sort_by_criticality(tokens: &mut [Token], crit: &CritMap, keys: &mut Vec<u64>) {
    if tokens.len() < 2 {
        return;
    }
    keys.clear();
    keys.extend(
        tokens
            .iter()
            .enumerate()
            .map(|(i, t)| u64::from(!crit.criticality(t.tag)) << 32 | i as u64),
    );
    keys.sort_unstable();
    // Position `k` takes the token from index `keys[k] as u32`; a filled
    // position's key becomes `u64::MAX`.
    for start in 0..keys.len() {
        if keys[start] == u64::MAX {
            continue;
        }
        let held = tokens[start].clone();
        let mut k = start;
        loop {
            let from = keys[k] as u32 as usize;
            keys[k] = u64::MAX;
            if from == start {
                tokens[k] = held;
                break;
            }
            tokens[k] = tokens[from].clone();
            k = from;
        }
    }
}

/// A deterministic bucketed priority queue: `pop` returns the
/// highest-priority item, FIFO *within* a priority level, so equal
/// priorities come out in arrival order — the tie-break the
/// deterministic-mode guarantee rests on.
///
/// Priorities are small dense integers (critical-path heights), so the
/// queue is a vector of rings indexed by priority plus a high-watermark:
/// push is O(1), pop is O(1) amortized (the watermark only walks down
/// over levels that were actually occupied). With every priority 0 this
/// is exactly a `VecDeque`, so a FIFO PE pays one extra indirection,
/// nothing else. Only the timed machine's PE queues use it: the untimed
/// engines hold their tokens in waves.
#[derive(Debug, Clone)]
pub(crate) struct BucketQueue<T> {
    buckets: Vec<VecDeque<T>>,
    len: usize,
    /// Highest index that may hold items; everything above is empty.
    hi: usize,
}

impl<T> Default for BucketQueue<T> {
    fn default() -> Self {
        BucketQueue::new()
    }
}

impl<T> BucketQueue<T> {
    /// An empty queue.
    pub(crate) fn new() -> Self {
        BucketQueue {
            buckets: Vec::new(),
            len: 0,
            hi: 0,
        }
    }

    /// Enqueues `item` at `prio` (behind earlier same-priority items).
    // Not `#[inline]`: with hints here and on `pop` (and on the
    // placement hash) `relaxed-matmul` read ×1.09 and ×1.18 in two
    // batches of alternating 3 s runs, against ×1.03 without these two.
    pub(crate) fn push(&mut self, prio: u32, item: T) {
        let p = prio as usize;
        if p >= self.buckets.len() {
            self.buckets.resize_with(p + 1, VecDeque::new);
        }
        self.buckets[p].push_back(item);
        self.hi = self.hi.max(p);
        self.len += 1;
    }

    /// Dequeues the oldest item of the highest occupied priority.
    pub(crate) fn pop(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let mut i = self.hi;
        loop {
            if let Some(x) = self.buckets[i].pop_front() {
                self.hi = i;
                self.len -= 1;
                return Some(x);
            }
            debug_assert!(i > 0, "len > 0 but every bucket empty");
            i -= 1;
        }
    }

    /// Items currently queued, across all priorities.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::graph::OpCode;
    use crate::value::{AluOp, Value};

    #[test]
    fn policies_default_to_fifo_and_display_their_names() {
        assert_eq!(SchedPolicy::default(), SchedPolicy::Fifo);
        assert_eq!(SchedPolicy::Crit.to_string(), "crit");
        assert_eq!(SchedPolicy::Fifo.to_string(), "fifo");
    }

    #[test]
    fn bucket_queue_pops_by_priority_then_arrival() {
        let mut q: BucketQueue<&str> = BucketQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        q.push(1, "b1-first");
        q.push(3, "d3");
        q.push(1, "b1-second");
        q.push(0, "a0");
        q.push(3, "e3");
        assert_eq!(q.len(), 5);
        // Highest priority first; ties in push order.
        assert_eq!(q.pop(), Some("d3"));
        assert_eq!(q.pop(), Some("e3"));
        // Interleave a late high-priority arrival.
        q.push(7, "late7");
        assert_eq!(q.pop(), Some("late7"));
        assert_eq!(q.pop(), Some("b1-first"));
        assert_eq!(q.pop(), Some("b1-second"));
        assert_eq!(q.pop(), Some("a0"));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn bucket_queue_at_one_priority_is_exactly_fifo() {
        let mut q: BucketQueue<u32> = BucketQueue::new();
        for k in 0..100 {
            q.push(0, k);
        }
        for k in 0..100 {
            assert_eq!(q.pop(), Some(k));
        }
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
        let mut wave: Vec<Token> = [out.instr(), x.instr(), a.instr(), x.instr(), out.instr()]
            .iter()
            .enumerate()
            .map(|(k, &s)| {
                let tag = ActivityName {
                    u: crate::tag::Ctx(0),
                    c: p.main,
                    s,
                    i: crate::tag::Iter::ONE,
                };
                Token::new(tag, crate::tag::Port(0), Value::Int(k as i64))
            })
            .collect();
        sort_by_criticality(&mut wave, &crit, &mut Vec::new());
        let order: Vec<(u32, Value)> = wave.iter().map(|t| (t.tag.s.0, t.value)).collect();
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

    #[test]
    fn critmap_prefers_the_annotation_and_recomputes_without_one() {
        let mut g = GraphBuilder::new("t");
        let x = g.param();
        let a = g.instr_lit(OpCode::Alu(AluOp::Add), 1, Value::Int(1));
        let out = g.output(0);
        g.wire(x, a, 0);
        g.wire(a, out, 0);
        let mut p = g.finish_program().unwrap();
        // Unannotated: heights are computed on demand (x=2, a=1, out=0).
        let m = CritMap::of(&p);
        let main = p.main;
        let tag = move |s: crate::graph::InstrId| ActivityName {
            u: crate::tag::Ctx(0),
            c: main,
            s,
            i: crate::tag::Iter::ONE,
        };
        assert_eq!(m.criticality(tag(x.instr())), 2);
        assert_eq!(m.criticality(tag(a.instr())), 1);
        assert_eq!(m.criticality(tag(out.instr())), 0);
        // Annotated: the stored vector is read back verbatim.
        crate::opt::annotate_criticality(&mut p);
        p.blocks[0].criticality[a.instr().0 as usize] = 9;
        let m = CritMap::of(&p);
        assert_eq!(m.criticality(tag(a.instr())), 9);
        // Out-of-range tags cost 0, not a panic.
        let bad = ActivityName {
            u: crate::tag::Ctx(0),
            c: crate::graph::CodeBlockId(99),
            s: crate::graph::InstrId(99),
            i: crate::tag::Iter::ONE,
        };
        assert_eq!(m.criticality(bad), 0);
    }
}
