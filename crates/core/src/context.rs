//! The context manager: the flattened implementation of the recursive
//! `u` field.
//!
//! The paper defines the context `u` recursively — "the context itself is
//! specified by an activity name, thus making the definition recursive" —
//! and notes that "names in this space are mapped dynamically into a
//! finite namespace". The [`ContextManager`] is that mapping: it allocates
//! dense context ids and remembers, per context, how to get back out
//! (who invoked it, at which iteration, and where results go).
//!
//! A loop activation entered by an [`OpCode::LoopEntry`] also carries
//! its **constants**: the loop invariants the optimizer stopped
//! circulating (DESIGN.md §18). They are written once, when the entry
//! fires, before the context id appears in any token, and never change
//! afterwards; call and root contexts carry none.
//!
//! The relaxed backend's workers share one table, `SharedContexts`, and
//! each keeps its own loop memo: every entry of one loop activation
//! fires on the same worker.
//!
//! [`OpCode::LoopEntry`]: crate::OpCode::LoopEntry

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use crate::graph::{CodeBlockId, InstrId, MAX_LOOP_CONSTS};
use crate::tag::{Ctx, Iter};
use crate::value::Value;

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
    /// Where each context's constants start in `consts`, one entry per
    /// record; they run to the next context's start. One flat arena
    /// keeps entering a loop free of per-activation allocation.
    const_start: Vec<u32>,
    consts: Vec<Value>,
    loop_memo: HashMap<(Ctx, Iter, u32), Ctx>,
}

impl ContextManager {
    /// The context every program starts in.
    pub const ROOT: Ctx = Ctx(0);

    /// Creates a manager whose root context runs `main`.
    pub fn new(main: CodeBlockId) -> Self {
        ContextManager::with_capacity(main, 0)
    }

    /// [`ContextManager::new`], with room for `n` contexts besides the
    /// root and `n` loop activations before the tables grow.
    pub(crate) fn with_capacity(main: CodeBlockId, n: usize) -> Self {
        let mut records = Vec::with_capacity(1 + n);
        records.push(ContextRecord {
            parent: Ctx(0),
            parent_iter: Iter::ONE,
            block: main,
            kind: ContextKind::Root,
        });
        let mut const_start = Vec::with_capacity(1 + n);
        const_start.push(0);
        ContextManager {
            records,
            const_start,
            consts: Vec::new(),
            loop_memo: HashMap::with_capacity(n),
        }
    }

    /// Appends a record (and its constants) under the next dense id.
    fn push(&mut self, rec: ContextRecord, consts: &[Value]) -> Ctx {
        let c = Ctx(self.records.len() as u32);
        self.records.push(rec);
        self.const_start.push(self.consts.len() as u32);
        self.consts.extend_from_slice(consts);
        c
    }

    /// The constants of `ctx`: empty for a context entered without any
    /// (every call, root and plain `D` activation) and for an unknown
    /// id.
    pub(crate) fn constants(&self, ctx: Ctx) -> &[Value] {
        let i = ctx.0 as usize;
        let Some(&start) = self.const_start.get(i) else {
            return &[];
        };
        let end = self
            .const_start
            .get(i + 1)
            .map_or(self.consts.len(), |&e| e as usize);
        &self.consts[start as usize..end]
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
        self.push(
            ContextRecord {
                parent: c,
                parent_iter: Iter::ONE,
                block,
                kind: ContextKind::Root,
            },
            &[],
        )
    }

    /// Enters (or joins) the loop activation of `loop_id` at `(parent,
    /// iter)` inside `block`; returns its context.
    pub fn enter_loop(&mut self, parent: Ctx, iter: Iter, loop_id: u32, block: CodeBlockId) -> Ctx {
        self.enter_loop_with(parent, iter, loop_id, block, &[])
    }

    /// [`ContextManager::enter_loop`], storing `consts` as the
    /// activation's constants when this call creates it.
    fn enter_loop_with(
        &mut self,
        parent: Ctx,
        iter: Iter,
        loop_id: u32,
        block: CodeBlockId,
        consts: &[Value],
    ) -> Ctx {
        if let Some(&c) = self.loop_memo.get(&(parent, iter, loop_id)) {
            return c;
        }
        let c = self.push(
            ContextRecord {
                parent,
                parent_iter: iter,
                block,
                kind: ContextKind::Loop { loop_id },
            },
            consts,
        );
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
        self.push(
            ContextRecord {
                parent,
                parent_iter: iter,
                block: callee,
                kind: ContextKind::Call {
                    ret_block,
                    ret_instr,
                },
            },
            &[],
        )
    }
}

/// The context operations the shared execution semantics in
/// [`crate::exec`] need: resolving a record, reading an activation's
/// constants, and entering loop/call activations. Implemented by the
/// sequential [`ContextManager`] and by the parallel backend's
/// [`WorkerCtx`] (a lease over [`SharedContexts`]), so `D`/`Apply`
/// execute identically on either engine. Reads take `&mut self` so a
/// worker can refresh its cache of the shared table.
pub(crate) trait ContextOps {
    /// The record for `ctx`, or `None` for a never-allocated id.
    fn resolve(&mut self, ctx: Ctx) -> Option<ContextRecord>;
    /// The constants of `ctx` (empty when it has none or is unknown).
    fn constants(&mut self, ctx: Ctx) -> &[Value];
    /// Enters (or joins) a loop activation; memoized per `(parent, iter,
    /// loop_id)`. The activation that this call creates gets `consts`
    /// as its constants; a join leaves them as they were.
    fn enter_loop(
        &mut self,
        parent: Ctx,
        iter: Iter,
        loop_id: u32,
        block: CodeBlockId,
        consts: &[Value],
    ) -> Ctx;
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
    fn resolve(&mut self, ctx: Ctx) -> Option<ContextRecord> {
        self.record(ctx).copied()
    }

    fn constants(&mut self, ctx: Ctx) -> &[Value] {
        ContextManager::constants(self, ctx)
    }

    fn enter_loop(
        &mut self,
        parent: Ctx,
        iter: Iter,
        loop_id: u32,
        block: CodeBlockId,
        consts: &[Value],
    ) -> Ctx {
        self.enter_loop_with(parent, iter, loop_id, block, consts)
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

/// One published context: its record and its constants (loop
/// activations entered by a `LoopEntry` only; `len` is 0 otherwise).
#[derive(Debug, Clone, Copy)]
struct Published {
    rec: ContextRecord,
    len: u8,
    consts: [Value; MAX_LOOP_CONSTS],
}

impl Published {
    fn new(rec: ContextRecord, consts: &[Value]) -> Self {
        // `exec` refuses a `LoopEntry` wider than the bound, so nothing
        // is ever cut off here.
        let len = consts.len().min(MAX_LOOP_CONSTS);
        let mut p = Published {
            rec,
            len: len as u8,
            consts: [Value::Unit; MAX_LOOP_CONSTS],
        };
        p.consts[..len].copy_from_slice(&consts[..len]);
        p
    }
}

type Chunk = [OnceLock<Published>; CTX_CHUNK];

/// The concurrent context manager of the parallel backend.
///
/// Workers allocate context ids from pre-leased blocks
/// ([`SharedContexts::lease_block`] via [`WorkerCtx`]) and publish the
/// records with a lock-free [`OnceLock`] store into a chunked table, so
/// `D`/`Apply` firings never round-trip through a central thread. A
/// loop activation's constants are published in the same cell as its
/// record, before its id leaves in any token; each worker reads cells
/// through its own snapshot of the chunk list ([`WorkerCtx`]), so a
/// constant or record read takes no lock once the snapshot covers the
/// id. Ids are
/// therefore *not* dense in firing order — which is fine, because context
/// ids never escape into an [`EmuResult`](crate::EmuResult): `contexts`
/// is the **semantic allocation count** (tracked exactly, including the
/// loop-memo dedup), and tag values are internal.
///
/// The loop-activation memo is not shared: each [`WorkerCtx`] keeps its
/// own, and takes no lock to consult it. The relaxed placement is a
/// function of a token's `(u, i)` alone, so every `D`, `DGated` and
/// `LoopEntry` of one parent activation fires on one worker, and two
/// workers never race into one activation. The allocation count
/// therefore matches a sequential run exactly.
pub(crate) struct SharedContexts {
    chunks: RwLock<Vec<Arc<Chunk>>>,
    /// Next unleased id; also guards chunk growth.
    next: Mutex<u32>,
    /// Semantic allocations (root + loop activations + calls) — the
    /// number a sequential run would report.
    allocated: AtomicUsize,
}

impl SharedContexts {
    /// A shared manager whose root context (id 0) runs `main`.
    pub(crate) fn new(main: CodeBlockId) -> Self {
        let sc = SharedContexts {
            chunks: RwLock::new(Vec::new()),
            next: Mutex::new(0),
            allocated: AtomicUsize::new(0),
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
            &[],
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

    fn put(&self, ctx: Ctx, rec: ContextRecord, consts: &[Value]) {
        let chunks = self.chunks.read().expect("context table poisoned");
        let cell = &chunks[ctx.0 as usize / CTX_CHUNK][ctx.0 as usize % CTX_CHUNK];
        if cell.set(Published::new(rec, consts)).is_err() {
            panic!("context id allocated twice");
        }
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
            &[],
        );
        self.allocated.fetch_add(1, Ordering::Relaxed);
        c
    }

    /// A worker-side handle with its own id lease.
    pub(crate) fn handle(&self) -> WorkerCtx<'_> {
        WorkerCtx {
            shared: self,
            lease: CtxLease { next: 0, end: 0 },
            chunks: Vec::new(),
            memo: HashMap::new(),
        }
    }
}

/// A worker's pre-leased context-id range (refilled in blocks).
pub(crate) struct CtxLease {
    next: u32,
    end: u32,
}

/// A worker-thread view of [`SharedContexts`]: allocations come from the
/// worker's lease, lookups from the worker's snapshot of the shared
/// chunk list. Chunks are never dropped or moved while the run lasts,
/// so the snapshot stays valid and only needs extending, under the read
/// lock, when an id past its end arrives.
pub(crate) struct WorkerCtx<'a> {
    shared: &'a SharedContexts,
    lease: CtxLease,
    chunks: Vec<Arc<Chunk>>,
    /// The loop activations this worker entered, keyed by `(parent
    /// context, iteration, loop)` (see [`SharedContexts`] on why no
    /// other worker enters them).
    memo: HashMap<(Ctx, Iter, u32), Ctx>,
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

    /// The published cell of `ctx`, or `None` if never published.
    fn cell(&mut self, ctx: Ctx) -> Option<&Published> {
        let chunk = ctx.0 as usize / CTX_CHUNK;
        if chunk >= self.chunks.len() {
            let shared = self.shared.chunks.read().expect("context table poisoned");
            self.chunks
                .extend(shared[self.chunks.len()..].iter().cloned());
        }
        self.chunks.get(chunk)?[ctx.0 as usize % CTX_CHUNK].get()
    }
}

impl ContextOps for WorkerCtx<'_> {
    fn resolve(&mut self, ctx: Ctx) -> Option<ContextRecord> {
        self.cell(ctx).map(|p| p.rec)
    }

    fn constants(&mut self, ctx: Ctx) -> &[Value] {
        self.cell(ctx).map_or(&[], |p| &p.consts[..p.len as usize])
    }

    fn enter_loop(
        &mut self,
        parent: Ctx,
        iter: Iter,
        loop_id: u32,
        block: CodeBlockId,
        consts: &[Value],
    ) -> Ctx {
        if let Some(&c) = self.memo.get(&(parent, iter, loop_id)) {
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
            consts,
        );
        self.shared.allocated.fetch_add(1, Ordering::Relaxed);
        self.memo.insert((parent, iter, loop_id), c);
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
            &[],
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
    fn loop_constants_belong_to_the_activation_that_created_them() {
        let mut cm = ContextManager::new(CodeBlockId(0));
        let k = [Value::Int(7), Value::Bool(true)];
        let a = cm.enter_loop_with(Ctx(0), Iter(1), 1, CodeBlockId(0), &k);
        // A join (the gated Ds after the entry) keeps the first store.
        let same = cm.enter_loop_with(Ctx(0), Iter(1), 1, CodeBlockId(0), &[]);
        assert_eq!(a, same);
        let call = cm.enter_call(a, Iter(3), CodeBlockId(0), CodeBlockId(1), InstrId(2));
        let b = cm.enter_loop_with(a, Iter(2), 2, CodeBlockId(0), &[Value::Int(-1)]);
        assert_eq!(cm.constants(a), &k);
        assert_eq!(cm.constants(call), &[] as &[Value]);
        assert_eq!(cm.constants(b), &[Value::Int(-1)]);
        assert_eq!(cm.constants(ContextManager::ROOT), &[] as &[Value]);
        assert_eq!(cm.constants(Ctx(99)), &[] as &[Value]);
    }

    #[test]
    fn worker_snapshots_read_constants_published_by_another_worker() {
        let shared = SharedContexts::new(CodeBlockId(0));
        let mut w1 = shared.handle();
        let mut w2 = shared.handle();
        // Enough activations to span several chunks, so the reader's
        // snapshot has to extend more than once.
        let made: Vec<(Ctx, i64)> = (0..(3 * CTX_CHUNK) as i64)
            .map(|k| {
                let c = w1.enter_loop(
                    Ctx(0),
                    Iter(k as u32 + 1),
                    5,
                    CodeBlockId(0),
                    &[Value::Int(k)],
                );
                (c, k)
            })
            .collect();
        for &(c, k) in &made {
            assert_eq!(w2.constants(c), &[Value::Int(k)]);
            // The gated Ds of an activation fire where its entry did.
            assert_eq!(
                w1.enter_loop(Ctx(0), Iter(k as u32 + 1), 5, CodeBlockId(0), &[]),
                c,
                "a gated D joins the entry's activation"
            );
            assert!(matches!(
                w2.resolve(c).map(|r| r.kind),
                Some(ContextKind::Loop { loop_id: 5 })
            ));
        }
        assert_eq!(shared.allocated(), 1 + 3 * CTX_CHUNK);
        assert_eq!(w2.constants(Ctx(u32::MAX)), &[] as &[Value]);
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
