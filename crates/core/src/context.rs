//! The context manager: the flattened implementation of the recursive
//! `u` field.
//!
//! The paper defines the context `u` recursively — "the context itself is
//! specified by an activity name, thus making the definition recursive" —
//! and notes that "names in this space are mapped dynamically into a
//! finite namespace". The [`ContextManager`] is that mapping: it allocates
//! dense context ids and remembers, per context, how to get back out
//! (who invoked it, at which iteration, and where results go).

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use crate::graph::{CodeBlockId, InstrId};
use crate::tag::{Ctx, Iter};

/// Why a context exists, and how to leave it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ContextKind {
    /// The top-level program invocation.
    Root,
    /// A loop activation created by a `D` instruction.
    Loop {
        /// The loop's id (shared by all `D`s of one loop).
        loop_id: u32,
    },
    /// A procedure activation created by `Apply`.
    Call {
        /// The caller's code block (where results return to).
        ret_block: CodeBlockId,
        /// The caller's `Apply` instruction: the result goes to its
        /// destinations.
        ret_instr: InstrId,
    },
}

/// Everything the machine must remember about one context.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContextRecord {
    /// The invoking context.
    pub parent: Ctx,
    /// The iteration number at the invocation site.
    pub parent_iter: Iter,
    /// The code block executing in this context.
    pub block: CodeBlockId,
    /// Loop or call linkage.
    pub kind: ContextKind,
}

/// Allocates and resolves contexts (the `d=2` / PE-controller function of
/// Fig 2-4).
///
/// Loop entry is **memoized**: every `D` instruction of the same loop,
/// firing in the same parent activation `(u, i)`, must observe the *same*
/// fresh context — otherwise tokens for different loop variables would
/// never match inside the body.
///
/// # Example
///
/// ```
/// use ttda_core::{ContextManager, Ctx, Iter};
/// use ttda_core::CodeBlockId;
///
/// let mut cm = ContextManager::new(CodeBlockId(0));
/// let root = ContextManager::ROOT;
/// let a = cm.enter_loop(root, Iter(1), 7, CodeBlockId(0));
/// let b = cm.enter_loop(root, Iter(1), 7, CodeBlockId(0));
/// assert_eq!(a, b, "same activation joins the same context");
/// let c = cm.enter_loop(root, Iter(2), 7, CodeBlockId(0));
/// assert_ne!(a, c, "a different iteration is a different activation");
/// ```
#[derive(Debug, Clone)]
pub struct ContextManager {
    records: Vec<ContextRecord>,
    loop_memo: HashMap<(Ctx, Iter, u32), Ctx>,
}

impl ContextManager {
    /// The context every program starts in.
    pub const ROOT: Ctx = Ctx(0);

    /// Creates a manager whose root context runs `main`.
    pub fn new(main: CodeBlockId) -> Self {
        ContextManager {
            records: vec![ContextRecord {
                parent: Ctx(0),
                parent_iter: Iter::ONE,
                block: main,
                kind: ContextKind::Root,
            }],
            loop_memo: HashMap::new(),
        }
    }

    /// Total contexts allocated so far (a measure of d=2 controller
    /// work).
    pub fn allocated(&self) -> usize {
        self.records.len()
    }

    /// The record for `ctx`, or `None` for a never-allocated id.
    pub fn record(&self, ctx: Ctx) -> Option<&ContextRecord> {
        self.records.get(ctx.0 as usize)
    }

    /// Allocates a fresh root context for an independently launched job
    /// running `block` (multiprogramming: each job gets its own context
    /// tree, so tokens of different jobs can never match).
    pub fn new_root(&mut self, block: CodeBlockId) -> Ctx {
        let c = Ctx(self.records.len() as u32);
        self.records.push(ContextRecord {
            parent: c,
            parent_iter: Iter::ONE,
            block,
            kind: ContextKind::Root,
        });
        c
    }

    /// Enters (or joins) the loop activation of `loop_id` at `(parent,
    /// iter)` inside `block`; returns its context.
    pub fn enter_loop(&mut self, parent: Ctx, iter: Iter, loop_id: u32, block: CodeBlockId) -> Ctx {
        if let Some(&c) = self.loop_memo.get(&(parent, iter, loop_id)) {
            return c;
        }
        let c = Ctx(self.records.len() as u32);
        self.records.push(ContextRecord {
            parent,
            parent_iter: iter,
            block,
            kind: ContextKind::Loop { loop_id },
        });
        self.loop_memo.insert((parent, iter, loop_id), c);
        c
    }

    /// Allocates a fresh procedure-call context: the callee runs in it,
    /// and its `Return` sends the result to the destinations of the
    /// `Apply` at `ret_instr` in `ret_block`, at `(parent, iter)`.
    pub fn enter_call(
        &mut self,
        parent: Ctx,
        iter: Iter,
        ret_block: CodeBlockId,
        callee: CodeBlockId,
        ret_instr: InstrId,
    ) -> Ctx {
        let c = Ctx(self.records.len() as u32);
        self.records.push(ContextRecord {
            parent,
            parent_iter: iter,
            block: callee,
            kind: ContextKind::Call {
                ret_block,
                ret_instr,
            },
        });
        c
    }
}

/// The context operations the shared execution semantics in
/// [`crate::exec`] need: resolving a record and entering loop/call
/// activations. Implemented by the sequential [`ContextManager`] and by
/// the parallel backend's [`WorkerCtx`] (a lease over [`SharedContexts`]),
/// so `D`/`Apply` execute identically on either engine.
pub(crate) trait ContextOps {
    /// The record for `ctx`, or `None` for a never-allocated id.
    fn resolve(&self, ctx: Ctx) -> Option<ContextRecord>;
    /// Enters (or joins) a loop activation; memoized per `(parent, iter,
    /// loop_id)`.
    fn enter_loop(&mut self, parent: Ctx, iter: Iter, loop_id: u32, block: CodeBlockId) -> Ctx;
    /// Allocates a fresh procedure-call context.
    fn enter_call(
        &mut self,
        parent: Ctx,
        iter: Iter,
        ret_block: CodeBlockId,
        callee: CodeBlockId,
        ret_instr: InstrId,
    ) -> Ctx;
}

impl ContextOps for ContextManager {
    fn resolve(&self, ctx: Ctx) -> Option<ContextRecord> {
        self.record(ctx).copied()
    }

    fn enter_loop(&mut self, parent: Ctx, iter: Iter, loop_id: u32, block: CodeBlockId) -> Ctx {
        ContextManager::enter_loop(self, parent, iter, loop_id, block)
    }

    fn enter_call(
        &mut self,
        parent: Ctx,
        iter: Iter,
        ret_block: CodeBlockId,
        callee: CodeBlockId,
        ret_instr: InstrId,
    ) -> Ctx {
        ContextManager::enter_call(self, parent, iter, ret_block, callee, ret_instr)
    }
}

/// Records per lease-refill chunk; also the granularity at which the
/// record table grows.
const CTX_CHUNK: usize = 256;
/// Ids handed to a worker per lease refill.
const CTX_LEASE: u32 = 64;
/// Loop-memo lock shards (racing `D` firings of *different* activations
/// rarely contend).
const MEMO_SHARDS: usize = 16;

type Chunk = [OnceLock<ContextRecord>; CTX_CHUNK];

/// The concurrent context manager of the parallel backend.
///
/// Workers allocate context ids from pre-leased blocks
/// ([`SharedContexts::lease_block`] via [`WorkerCtx`]) and publish the
/// records with a lock-free [`OnceLock`] store into a chunked table, so
/// `D`/`Apply` firings never round-trip through a central thread. Ids are
/// therefore *not* dense in firing order — which is fine, because context
/// ids never escape into an [`EmuResult`](crate::EmuResult): `contexts`
/// is the **semantic allocation count** (tracked exactly, including the
/// loop-memo dedup), and tag values are internal.
///
/// Loop-activation memoization uses a lock-the-shard-first protocol:
/// the winner of a racing `D` pair allocates and inserts while holding
/// the memo shard lock, the loser observes the winner's context — so no
/// leased id is wasted on a lost race and the allocation count matches a
/// sequential run exactly.
pub(crate) struct SharedContexts {
    chunks: RwLock<Vec<Arc<Chunk>>>,
    /// Next unleased id; also guards chunk growth.
    next: Mutex<u32>,
    /// Semantic allocations (root + loop activations + calls) — the
    /// number a sequential run would report.
    allocated: AtomicUsize,
    memo: [MemoShard; MEMO_SHARDS],
}

/// One lock-striped shard of the loop-activation memo, keyed by
/// `(parent context, iteration, code block)`.
type MemoShard = Mutex<HashMap<(Ctx, Iter, u32), Ctx>>;

impl SharedContexts {
    /// A shared manager whose root context (id 0) runs `main`.
    pub(crate) fn new(main: CodeBlockId) -> Self {
        let sc = SharedContexts {
            chunks: RwLock::new(Vec::new()),
            next: Mutex::new(0),
            allocated: AtomicUsize::new(0),
            memo: std::array::from_fn(|_| Mutex::new(HashMap::new())),
        };
        let root = sc.sequential_id();
        debug_assert_eq!(root, ContextManager::ROOT);
        sc.put(
            root,
            ContextRecord {
                parent: root,
                parent_iter: Iter::ONE,
                block: main,
                kind: ContextKind::Root,
            },
        );
        sc.allocated.fetch_add(1, Ordering::Relaxed);
        sc
    }

    /// Allocates the next sequential id (pre-worker root creation), so
    /// job roots get the ids 1, 2, … a sequential run would assign.
    fn sequential_id(&self) -> Ctx {
        let mut next = self.next.lock().expect("context allocator poisoned");
        let id = *next;
        *next += 1;
        self.grow_to(*next);
        Ctx(id)
    }

    /// Leases a block of [`CTX_LEASE`] fresh ids to a worker.
    fn lease_block(&self) -> CtxLease {
        let mut next = self.next.lock().expect("context allocator poisoned");
        let start = *next;
        *next += CTX_LEASE;
        self.grow_to(*next);
        CtxLease {
            next: start,
            end: start + CTX_LEASE,
        }
    }

    /// Ensures chunks back every id below `limit`. Caller holds `next`.
    fn grow_to(&self, limit: u32) {
        let mut chunks = self.chunks.write().expect("context table poisoned");
        while chunks.len() * CTX_CHUNK < limit as usize {
            chunks.push(Arc::new(std::array::from_fn(|_| OnceLock::new())));
        }
    }

    fn put(&self, ctx: Ctx, rec: ContextRecord) {
        let chunks = self.chunks.read().expect("context table poisoned");
        let cell = &chunks[ctx.0 as usize / CTX_CHUNK][ctx.0 as usize % CTX_CHUNK];
        cell.set(rec).expect("context id allocated twice");
    }

    /// The record for `ctx`, or `None` if never allocated/published.
    pub(crate) fn resolve(&self, ctx: Ctx) -> Option<ContextRecord> {
        let chunks = self.chunks.read().expect("context table poisoned");
        chunks
            .get(ctx.0 as usize / CTX_CHUNK)
            .and_then(|c| c[ctx.0 as usize % CTX_CHUNK].get())
            .copied()
    }

    /// Semantic allocation count — equals `ContextManager::allocated()`
    /// of a sequential run of the same program.
    pub(crate) fn allocated(&self) -> usize {
        self.allocated.load(Ordering::Relaxed)
    }

    /// Allocates a fresh root context for an independently launched job
    /// (called on the coordinating thread before workers start, so root
    /// ids match the sequential backend's).
    pub(crate) fn new_root(&self, block: CodeBlockId) -> Ctx {
        let c = self.sequential_id();
        self.put(
            c,
            ContextRecord {
                parent: c,
                parent_iter: Iter::ONE,
                block,
                kind: ContextKind::Root,
            },
        );
        self.allocated.fetch_add(1, Ordering::Relaxed);
        c
    }

    /// A worker-side handle with its own id lease.
    pub(crate) fn handle(&self) -> WorkerCtx<'_> {
        WorkerCtx {
            shared: self,
            lease: CtxLease { next: 0, end: 0 },
        }
    }

    fn memo_shard(
        &self,
        parent: Ctx,
        iter: Iter,
        loop_id: u32,
    ) -> &Mutex<HashMap<(Ctx, Iter, u32), Ctx>> {
        // Cheap deterministic mix; only lock spread depends on it.
        let h = (parent.0 as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(iter.0 as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(loop_id as u64);
        &self.memo[(h >> 32) as usize % MEMO_SHARDS]
    }
}

/// A worker's pre-leased context-id range (refilled in blocks).
pub(crate) struct CtxLease {
    next: u32,
    end: u32,
}

/// A worker-thread view of [`SharedContexts`]: allocations come from the
/// worker's lease, lookups from the shared table.
pub(crate) struct WorkerCtx<'a> {
    shared: &'a SharedContexts,
    lease: CtxLease,
}

impl WorkerCtx<'_> {
    fn take_id(&mut self) -> Ctx {
        if self.lease.next == self.lease.end {
            self.lease = self.shared.lease_block();
        }
        let id = self.lease.next;
        self.lease.next += 1;
        Ctx(id)
    }
}

impl ContextOps for WorkerCtx<'_> {
    fn resolve(&self, ctx: Ctx) -> Option<ContextRecord> {
        self.shared.resolve(ctx)
    }

    fn enter_loop(&mut self, parent: Ctx, iter: Iter, loop_id: u32, block: CodeBlockId) -> Ctx {
        let shard = self.shared.memo_shard(parent, iter, loop_id);
        let mut memo = shard.lock().expect("loop memo poisoned");
        if let Some(&c) = memo.get(&(parent, iter, loop_id)) {
            return c;
        }
        let c = self.take_id();
        self.shared.put(
            c,
            ContextRecord {
                parent,
                parent_iter: iter,
                block,
                kind: ContextKind::Loop { loop_id },
            },
        );
        self.shared.allocated.fetch_add(1, Ordering::Relaxed);
        memo.insert((parent, iter, loop_id), c);
        c
    }

    fn enter_call(
        &mut self,
        parent: Ctx,
        iter: Iter,
        ret_block: CodeBlockId,
        callee: CodeBlockId,
        ret_instr: InstrId,
    ) -> Ctx {
        let c = self.take_id();
        self.shared.put(
            c,
            ContextRecord {
                parent,
                parent_iter: iter,
                block: callee,
                kind: ContextKind::Call {
                    ret_block,
                    ret_instr,
                },
            },
        );
        self.shared.allocated.fetch_add(1, Ordering::Relaxed);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_exists() {
        let cm = ContextManager::new(CodeBlockId(3));
        let r = cm.record(ContextManager::ROOT).unwrap();
        assert_eq!(r.kind, ContextKind::Root);
        assert_eq!(r.block, CodeBlockId(3));
        assert_eq!(cm.allocated(), 1);
        assert!(cm.record(Ctx(9)).is_none());
    }

    #[test]
    fn loop_memoization_is_per_activation() {
        let mut cm = ContextManager::new(CodeBlockId(0));
        let a = cm.enter_loop(Ctx(0), Iter(1), 1, CodeBlockId(0));
        let same = cm.enter_loop(Ctx(0), Iter(1), 1, CodeBlockId(0));
        let other_loop = cm.enter_loop(Ctx(0), Iter(1), 2, CodeBlockId(0));
        let other_iter = cm.enter_loop(Ctx(0), Iter(2), 1, CodeBlockId(0));
        assert_eq!(a, same);
        assert_ne!(a, other_loop);
        assert_ne!(a, other_iter);
        assert_eq!(cm.allocated(), 4); // root + 3 distinct activations
    }

    #[test]
    fn nested_loops_chain_parents() {
        let mut cm = ContextManager::new(CodeBlockId(0));
        let outer = cm.enter_loop(Ctx(0), Iter(1), 1, CodeBlockId(0));
        let inner = cm.enter_loop(outer, Iter(5), 2, CodeBlockId(0));
        let r = cm.record(inner).unwrap();
        assert_eq!(r.parent, outer);
        assert_eq!(r.parent_iter, Iter(5));
    }

    #[test]
    fn calls_are_never_shared() {
        let mut cm = ContextManager::new(CodeBlockId(0));
        let a = cm.enter_call(Ctx(0), Iter(1), CodeBlockId(0), CodeBlockId(1), InstrId(4));
        let b = cm.enter_call(Ctx(0), Iter(1), CodeBlockId(0), CodeBlockId(1), InstrId(4));
        assert_ne!(a, b, "each Apply firing is a fresh activation");
        assert_eq!(
            cm.record(a).unwrap().kind,
            ContextKind::Call {
                ret_block: CodeBlockId(0),
                ret_instr: InstrId(4),
            }
        );
    }
}
