//! Token scheduling policy: FIFO vs criticality-aware (DESIGN.md §15).
//!
//! Every engine holds ready tokens somewhere — the sequential emulator's
//! wave vector, the relaxed workers' local queues, the timed machine's
//! per-PE input queues. This
//! module decides the *order* those holders release tokens in:
//!
//! * [`SchedPolicy::Fifo`] — arrival order, the historical behaviour.
//! * [`SchedPolicy::Crit`] — longest-remaining-path first: tokens aimed
//!   at instructions with greater critical-path *height*
//!   ([`Analysis::height`](crate::opt::analysis::Analysis::height)) go
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
use crate::tag::ActivityName;

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

/// A deterministic bucketed priority queue: `pop` returns the
/// highest-priority item, FIFO *within* a priority level, so equal
/// priorities come out in arrival order — the tie-break the
/// deterministic-mode guarantee rests on.
///
/// Priorities are small dense integers (critical-path heights), so the
/// queue is a vector of rings indexed by priority plus a high-watermark:
/// push is O(1), pop is O(1) amortized (the watermark only walks down
/// over levels that were actually occupied). With every priority 0 this
/// is exactly a `VecDeque` — the FIFO engines pay one extra indirection,
/// nothing else.
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
