//! The parallel backend of the [`Emulator`](crate::Emulator) —
//! [`RunMode::Relaxed`](crate::RunMode::Relaxed).
//!
//! There is no wave barrier, no ordered merge and **no coordinator in
//! the steady state at all** — the dataflow machine does not execute
//! synchronization or scheduling code. Each worker owns a
//! waiting–matching shard and an I-structure shard; tokens stream
//! worker-to-worker over channels in batches while the producer is
//! still busy, wave fronts overlap freely, no shared atomic is written
//! per token or per firing, and the run ends when a message-counting
//! termination detector sees that no work is left anywhere. A result
//! bit-identical to the sequential interpreter is what
//! [`RunMode::Sequential`](crate::RunMode::Sequential) is for.
//!
//! # What is still guaranteed
//!
//! Dataflow graphs are determinate (Kahn): the *values* computed do not
//! depend on execution order, only the order itself does. Concretely,
//! for any program, a relaxed run agrees with a sequential run on:
//!
//! - program **outputs** (for [`Value::Ptr`] up to the structure *id* —
//!   relaxed ids come from leased blocks and are not dense);
//! - the **error discriminant** when the program faults;
//! - `instructions`, `alu_ops`, `contexts`, `istore_writes`, the total
//!   `istore_immediate + istore_deferred`, and the stranded-token count
//!   of a deadlock (all confluent);
//!
//! while `waves`/`profile` are reported as `0`/empty (there are no
//! waves to count), and `peak_matching`, `peak_deferred` and the
//! immediate/deferred *split* become schedule-dependent approximations
//! (sums of per-shard observations). The differential fuzz oracle and
//! the property suite check exactly this contract against the
//! sequential engine.
//!
//! # Quiescence and errors
//!
//! Termination is a message-counting detector over one shared count,
//! `active`, which holds **busy workers plus batch messages sent but
//! not yet consumed**. Every worker starts busy with its seed tokens, so
//! the count starts at the worker count. It moves only at three points:
//!
//! - a worker adds one *before* it sends a batch;
//! - a busy worker that takes a batch from its channel subtracts one
//!   (the message is consumed, the worker was already counted);
//! - a worker whose local queue is drained and whose batches are all
//!   flushed subtracts one for itself, then parks in a blocking `recv`.
//!   A batch that wakes it costs nothing: the message's unit now stands
//!   for the busy worker.
//!
//! **Zero is stable.** Only a busy worker sends, and it is still
//! counted when it does, so a send never lifts the count from zero; an
//! idle worker becomes busy only by taking a message, and at zero there
//! is none. The count therefore reads zero exactly when every worker
//! is idle and no batch is in any channel, and stays there. The worker
//! whose decrement brings it to zero sends every peer a stop message;
//! parked peers wake on it and exit.
//!
//! The first error (in real time, not program order — this is the
//! relaxation) lands in a shared slot and poisons the run; the first
//! worker to poison also sends every peer a stop message, so a fault
//! never leaves a peer parked. Busy workers read the poison flag once
//! per flush, not per token. Fuel is counted privately: each worker
//! publishes its firings against `fuel` in blocks of [`FUEL_BLOCK`], and
//! a published total above `fuel` poisons the run with `OutOfFuel` —
//! published firings are firings the program needed, so that is never
//! premature. At quiescence the caller sums the exact per-worker counts
//! and raises `OutOfFuel` if they exceed `fuel`, so `OutOfFuel` still
//! means "the program needed more than `fuel` firings", the same
//! condition the sequential interpreter enforces. A program that never
//! terminates may fire up to `workers × FUEL_BLOCK` firings past `fuel`
//! before its last block is published and it stops.
//!
//! **Orderings.** Every read-modify-write of `active` is `AcqRel`. What
//! the detector relies on is the single modification order of one
//! atomic together with the channel: a sender's increment is sequenced
//! before its `send`, the `send` happens-before the matching `recv`
//! (mpsc synchronizes them), and the receiver's decrement is sequenced
//! after it — so the increment precedes the decrement in `active`'s
//! modification order and the count never drops below the work that
//! exists. The release/acquire pairing on top of that makes the
//! terminator's zero observation happen-after every worker's last
//! decrement. The fuel blocks and the poison flag are `Relaxed`: they
//! publish no other data — the error travels under a mutex, and every
//! per-worker result reaches the caller through the scoped-thread
//! join.
//!
//! # Causality of structure traffic
//!
//! An op on a structure must reach the owning shard before any op that
//! causally depends on it (`IAlloc` before a fetch through the pointer,
//! `IStore` before a fetch released by its completion signal). Workers
//! therefore send, in every flush, **ops to every peer first, tokens
//! second**, and dispatch a firing's own op before routing its tokens.
//! Each hop is an mpsc send, and sends ordered by happens-before
//! enqueue in that order at the receiver, so the create is always
//! applied before the dependent fetch arrives. A store's completion
//! signal is sent by the owning shard only once the store is applied,
//! so nothing it unlocks can overtake the store. Flushing every
//! [`FLUSH_EVERY`] tokens as well as before parking does not change
//! the argument: a dependent op queued after its cause on the same
//! peer buffer leaves in the same or a later flush, and a dependent
//! token leaves no earlier than the flush that carries its cause.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Mutex;

use ttda_mem::{shard_of, Addr, IStructureShard, Presence, ReadOutcome};
use ttda_sim::Cycle;
use ttda_trace::{EventBuffer, PresenceState, SharedSink, TraceEvent};

use crate::context::{SharedContexts, WorkerCtx};
use crate::emu::EmuResult;
use crate::exec::{absorb, continuation, dangling, deliver, execute, Emit, StructAction};
use crate::graph::Program;
use crate::matching::MatchingStore;
use crate::sched::{BucketQueue, CritMap, SchedPolicy};
use crate::tag::{ActivityName, Iter, Port, Token};
use crate::value::{StructRef, Value};
use crate::ExecError;

/// Structure ids a worker takes per refill of its private lease. Ids
/// are *not* dense (unused tail ids are simply never created) — they
/// escape only inside [`Value::Ptr`], whose id the relaxed contract
/// does not promise.
const STRUCT_LEASE: u32 = 64;

/// Tokens a busy worker processes between flushes of its outbound
/// batches. Streaming keeps peers fed while the producer is still
/// busy; holding batches until the local queue drains would idle a
/// peer that owns half of the tokens.
const FLUSH_EVERY: u32 = 64;

/// Firings a worker counts privately before publishing them against
/// the shared fuel meter (see the module docs on fuel).
const FUEL_BLOCK: u64 = 1024;

/// Stafford's mix13 finalizer — the same mixer the timed machine uses to
/// spread activity names over PEs. Deterministic across runs/platforms.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// The worker whose waiting–matching shard owns `tag`.
///
/// Deliberately *not* the hash [`crate::matching`] uses for bucket
/// placement: this one mixes a lossy 48-bit packing, the store folds the
/// full 128-bit name through fibonacci multiplies. If they agreed, all
/// keys owned by one shard would collide into one probe chain of that
/// shard's table (`matching::tests::shard_resident_keys_spread_over_buckets`
/// guards the independence).
pub(crate) fn worker_of(tag: ActivityName, workers: usize) -> usize {
    let packed =
        (tag.u.0 as u64) << 48 | (tag.c.0 as u64) << 36 | (tag.s.0 as u64) << 16 | tag.i.0 as u64;
    (mix(packed) % workers as u64) as usize
}

/// A message between workers: a batch of structure ops for the
/// receiver's I-structure shard, a batch of tokens for the receiver's
/// matching shard, or the end of the run. Ops and tokens are separate
/// variants because the flush order between them carries the causality
/// argument (see the module docs). Only batches are counted by the
/// termination detector.
enum Msg {
    Ops(Vec<ShardOp>),
    Tokens(Vec<Token>),
    Stop,
}

/// One unit of structure-shard work: register a freshly allocated id,
/// or apply a fetch/store.
enum ShardOp {
    Create { id: u32, len: u32 },
    Op(StructAction),
}

/// State shared by all workers of one relaxed run. Nothing here is
/// written per token or per firing.
struct Shared<'a> {
    program: &'a Program,
    ctxs: &'a SharedContexts,
    /// The termination detector: busy workers plus batch messages sent
    /// but not yet consumed (see the module docs).
    active: AtomicUsize,
    /// Firings published in whole [`FUEL_BLOCK`]s — a lower bound on the
    /// firings so far, compared against `fuel`.
    published: AtomicU64,
    fuel: u64,
    /// Source of leased structure-id blocks.
    next_struct: AtomicU32,
    /// Set on the first error; workers exit at their next flush.
    poison: AtomicBool,
    first_err: Mutex<Option<ExecError>>,
    threads: usize,
    traced: bool,
    /// `Some` under [`SchedPolicy::Crit`]: workers pop their local
    /// queues longest-remaining-path first instead of in arrival order.
    crit: Option<CritMap>,
}

/// What one worker hands back when it exits.
struct WorkerOut {
    outputs: HashMap<u32, Value>,
    /// Successful firings on this worker (exact; summed at quiescence).
    fired: u64,
    alu_ops: u64,
    /// Peak occupancy of this worker's matching shard.
    peak_matching: usize,
    /// Tokens stranded in this worker's matching shard at quiescence.
    stranded: usize,
    /// Peak and final deferred-reader counts of this worker's shard.
    peak_deferred: usize,
    deferred_outstanding: usize,
    istore: IsCounts,
    traces: EventBuffer,
}

/// Entry point: the relaxed equivalent of `Emulator::submit`. `fuel` is
/// the already-resolved batch budget.
pub(crate) fn submit(
    program: &Program,
    jobs: &[crate::machine::Job],
    threads: usize,
    fuel: u64,
    sched: SchedPolicy,
    sink: Option<SharedSink>,
) -> Result<EmuResult, ExecError> {
    debug_assert!(threads >= 1, "relaxed backend needs at least one worker");
    let ctxs = SharedContexts::new(program.main);
    // Seed tokens, sharded by matching owner. Roots are allocated here,
    // before any worker exists, so they get the same dense leading ids
    // the sequential interpreter assigns.
    let mut seeds: Vec<Vec<Token>> = (0..threads).map(|_| Vec::new()).collect();
    let mut nseeds = 0usize;
    for job in jobs {
        let block = program
            .block(job.block)
            .ok_or_else(|| ExecError::BadTarget {
                activity: job.block.to_string(),
            })?;
        if job.inputs.len() != block.params.len() {
            return Err(ExecError::InputArity {
                expected: block.params.len(),
                got: job.inputs.len(),
            });
        }
        let root = ctxs.new_root(job.block);
        for (k, v) in job.inputs.iter().enumerate() {
            let t = Token::new(
                ActivityName {
                    u: root,
                    c: job.block,
                    s: block.params[k],
                    i: Iter::ONE,
                },
                Port(0),
                *v,
            );
            seeds[worker_of(t.tag, threads)].push(t);
            nseeds += 1;
        }
    }
    if let Some(s) = &sink {
        let mut s = s.borrow_mut();
        for _ in 0..nseeds {
            s.record(Cycle::ZERO, &TraceEvent::TokenEmit { pe: 0 });
        }
    }

    let shared = Shared {
        program,
        ctxs: &ctxs,
        // Every worker starts busy with its seeds (possibly none).
        active: AtomicUsize::new(threads),
        published: AtomicU64::new(0),
        fuel,
        next_struct: AtomicU32::new(0),
        poison: AtomicBool::new(false),
        first_err: Mutex::new(None),
        threads,
        traced: sink.is_some(),
        crit: (sched == SchedPolicy::Crit).then(|| CritMap::of(program)),
    };

    // Worker 0 runs on the calling thread, so a run spawns one thread
    // fewer and a one-worker run spawns none.
    let outs: Vec<WorkerOut> = std::thread::scope(|scope| {
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..threads).map(|_| channel::<Msg>()).unzip();
        let mut workers = rxs.into_iter().zip(seeds).enumerate();
        let (_, (rx0, seed0)) = workers.next().expect("at least one worker");
        let handles: Vec<_> = workers
            .map(|(me, (rx, seed))| {
                let shared = &shared;
                let peers = txs.clone();
                scope.spawn(move || worker(shared, me, seed, rx, peers))
            })
            .collect();
        let first = worker(&shared, 0, seed0, rx0, txs);
        std::iter::once(first)
            .chain(
                handles
                    .into_iter()
                    .map(|h| h.join().expect("relaxed worker panicked")),
            )
            .collect()
    });

    if let Some(e) = shared.first_err.into_inner().expect("error slot poisoned") {
        return Err(e);
    }
    // The exact fuel check: block publishing only ever undercounts.
    let instructions = outs.iter().map(|o| o.fired).sum::<u64>();
    if instructions > fuel {
        return Err(ExecError::OutOfFuel);
    }
    let stranded = outs
        .iter()
        .map(|o| o.stranded + o.deferred_outstanding)
        .sum::<usize>();
    if stranded > 0 {
        return Err(ExecError::Deadlock { stranded });
    }

    let mut outputs = HashMap::new();
    let mut result = EmuResult {
        outputs: HashMap::new(),
        instructions,
        alu_ops: 0,
        waves: 0,
        profile: Vec::new(),
        contexts: ctxs.allocated(),
        peak_matching: 0,
        peak_deferred: 0,
        istore_immediate: 0,
        istore_deferred: 0,
        istore_writes: 0,
    };
    for mut o in outs {
        outputs.extend(o.outputs.drain());
        result.alu_ops += o.alu_ops;
        result.peak_matching += o.peak_matching;
        result.peak_deferred += o.peak_deferred;
        result.istore_immediate += o.istore.immediate;
        result.istore_deferred += o.istore.deferred;
        result.istore_writes += o.istore.writes;
        if let Some(s) = &sink {
            o.traces.replay_into(s);
        }
    }
    result.outputs = outputs;
    if let Some(s) = &sink {
        s.borrow_mut()
            .record(Cycle::ZERO, &TraceEvent::Halt { in_flight: 0 });
    }
    Ok(result)
}

/// Everything one relaxed worker owns.
struct Worker<'a, 'p> {
    shared: &'a Shared<'p>,
    me: usize,
    waiting: MatchingStore,
    shard: IStructureShard<Value, (ActivityName, Port)>,
    wctx: WorkerCtx<'a>,
    /// Private structure-id lease, refilled from the shared counter.
    struct_next: u32,
    struct_end: u32,
    /// Tokens owned by this worker's matching shard, pending
    /// absorption. FIFO under [`SchedPolicy::Fifo`] (everything lands
    /// at priority 0); a criticality-bucketed priority queue under
    /// [`SchedPolicy::Crit`].
    local: BucketQueue<Token>,
    /// Tokens of the firing or structure op in progress, routed before
    /// the next one emits (the storage is reused).
    scratch: Vec<Token>,
    /// The operand set of the firing in progress (the storage is
    /// reused).
    ops: Vec<Value>,
    /// Outbound batches, one slot per peer (own slots stay empty — own
    /// work is dispatched inline).
    obufs: Vec<Vec<ShardOp>>,
    tbufs: Vec<Vec<Token>>,
    /// Drained buffers of received batches, refilling the outbound
    /// slots a flush empties. At most `threads` of each kind — enough to
    /// refill every slot of one flush — so a buffer travels between
    /// workers instead of being allocated by one and freed by another.
    spare_ops: Vec<Vec<ShardOp>>,
    spare_tokens: Vec<Vec<Token>>,
    peers: Vec<Sender<Msg>>,
    out: WorkerOut,
}

/// One relaxed worker: absorb and fire tokens from the local queue,
/// streaming outbound batches, until the run stops.
fn worker(
    shared: &Shared<'_>,
    me: usize,
    seeds: Vec<Token>,
    rx: Receiver<Msg>,
    peers: Vec<Sender<Msg>>,
) -> WorkerOut {
    let threads = shared.threads;
    let mut w = Worker {
        shared,
        me,
        waiting: MatchingStore::new(),
        shard: IStructureShard::new(),
        wctx: shared.ctxs.handle(),
        struct_next: 0,
        struct_end: 0,
        local: BucketQueue::new(),
        scratch: Vec::new(),
        ops: Vec::new(),
        obufs: (0..threads).map(|_| Vec::new()).collect(),
        tbufs: (0..threads).map(|_| Vec::new()).collect(),
        spare_ops: Vec::new(),
        spare_tokens: Vec::new(),
        peers,
        out: WorkerOut {
            outputs: HashMap::new(),
            fired: 0,
            alu_ops: 0,
            peak_matching: 0,
            stranded: 0,
            peak_deferred: 0,
            deferred_outstanding: 0,
            istore: IsCounts::default(),
            traces: EventBuffer::new(),
        },
    };
    for t in seeds {
        w.local.push(w.prio(t.tag), t);
    }
    w.run(&rx);
    w.out.stranded = w.waiting.len();
    w.out.deferred_outstanding = w.shard.deferred_outstanding();
    w.out
}

impl Worker<'_, '_> {
    /// The worker loop: busy while it has tokens or batches, parked in
    /// `recv` otherwise, and returning on a stop message, on poison, or
    /// when its own decrement brings the detector to zero.
    fn run(&mut self, rx: &Receiver<Msg>) {
        let active = &self.shared.active;
        loop {
            let mut since_flush = 0;
            while let Some(t) = self.local.pop() {
                self.process_token(t);
                since_flush += 1;
                if since_flush == FLUSH_EVERY {
                    since_flush = 0;
                    if !self.flush() {
                        return;
                    }
                }
            }
            if !self.flush() {
                return;
            }
            match rx.try_recv() {
                Ok(Msg::Stop) | Err(TryRecvError::Disconnected) => return,
                Ok(batch) => {
                    active.fetch_sub(1, Ordering::AcqRel);
                    self.handle(batch);
                    continue;
                }
                Err(TryRecvError::Empty) => {}
            }
            if active.fetch_sub(1, Ordering::AcqRel) == 1 {
                self.stop_peers();
                return;
            }
            match rx.recv() {
                Ok(Msg::Stop) | Err(_) => return,
                Ok(batch) => self.handle(batch),
            }
        }
    }

    fn trace(&mut self, ev: TraceEvent) {
        if self.shared.traced {
            self.out.traces.push(Cycle::ZERO, ev);
        }
    }

    /// Local-queue priority of a token: its target's remaining
    /// critical-path height under `Crit`, a constant 0 under `Fifo`
    /// (which makes [`BucketQueue`] exactly a FIFO ring).
    fn prio(&self, tag: ActivityName) -> u32 {
        self.shared.crit.as_ref().map_or(0, |c| c.criticality(tag))
    }

    /// Records `e` as the run's error if it is the first, and poisons
    /// the run; the first worker to poison it stops every peer.
    fn fail(&self, e: ExecError) {
        {
            let mut slot = self.shared.first_err.lock().expect("error slot poisoned");
            if slot.is_none() {
                *slot = Some(e);
            }
        }
        if !self.shared.poison.swap(true, Ordering::Relaxed) {
            self.stop_peers();
        }
    }

    fn stop_peers(&self) {
        for (w, tx) in self.peers.iter().enumerate() {
            if w != self.me {
                // A peer that already exited needs no stop.
                let _ = tx.send(Msg::Stop);
            }
        }
    }

    /// Routes a freshly produced token to its matching shard's owner.
    fn route(&mut self, t: Token) {
        self.trace(TraceEvent::TokenEmit { pe: self.me as u32 });
        let w = worker_of(t.tag, self.shared.threads);
        if w == self.me {
            self.local.push(self.prio(t.tag), t);
        } else {
            self.tbufs[w].push(t);
        }
    }

    /// Routes and empties [`Worker::scratch`], keeping its storage.
    fn route_scratch(&mut self) {
        let mut tokens = std::mem::take(&mut self.scratch);
        for t in tokens.drain(..) {
            self.route(t);
        }
        self.scratch = tokens;
    }

    /// Dispatches a structure op to its owning shard — inline when this
    /// worker owns the structure, batched otherwise.
    fn dispatch_op(&mut self, action: StructAction) {
        let (StructAction::Fetch { ptr, .. } | StructAction::Store { ptr, .. }) = action else {
            unreachable!("allocations are resolved by the firer");
        };
        let owner = shard_of(ptr.id, self.shared.threads);
        if owner == self.me {
            self.apply_op(action);
        } else {
            self.obufs[owner].push(ShardOp::Op(action));
        }
    }

    /// Registers a newly allocated structure with its owning shard.
    fn dispatch_create(&mut self, id: u32, len: u32) {
        let owner = shard_of(id, self.shared.threads);
        if owner == self.me {
            self.shard.create(id, len as usize);
        } else {
            self.obufs[owner].push(ShardOp::Create { id, len });
        }
    }

    /// Applies one fetch/store against the local shard, routing any
    /// produced tokens (fetched values, released readers, the store's
    /// completion signal).
    fn apply_op(&mut self, action: StructAction) {
        let res = apply_one(
            self.shared.program,
            &mut self.shard,
            action,
            &mut self.out.istore,
            &mut self.scratch,
            self.shared.traced.then_some(&mut self.out.traces),
        );
        match res {
            Ok(()) => {
                self.route_scratch();
                self.out.peak_deferred = self
                    .out
                    .peak_deferred
                    .max(self.shard.deferred_outstanding());
            }
            Err(e) => {
                self.scratch.clear();
                self.fail(e);
            }
        }
    }

    /// Takes a structure id from the private lease, refilling it from
    /// the shared counter when exhausted.
    fn take_struct_id(&mut self) -> u32 {
        if self.struct_next == self.struct_end {
            self.struct_next = self
                .shared
                .next_struct
                .fetch_add(STRUCT_LEASE, Ordering::SeqCst);
            self.struct_end = self.struct_next + STRUCT_LEASE;
        }
        let id = self.struct_next;
        self.struct_next += 1;
        id
    }

    /// Absorbs one token into the local matching shard and executes the
    /// firing it enables, if any.
    fn process_token(&mut self, token: Token) {
        self.trace(TraceEvent::TokenConsume { pe: self.me as u32 });
        let enabled = match absorb(
            self.shared.program,
            &mut self.waiting,
            &mut self.wctx,
            token,
            &mut self.ops,
        ) {
            Ok(enabled) => enabled,
            Err(e) => {
                self.fail(e);
                return;
            }
        };
        self.out.peak_matching = self.out.peak_matching.max(self.waiting.len());
        let Some((tag, instr)) = enabled else {
            let occupancy = self.waiting.len() as u64;
            self.trace(TraceEvent::MatchWait {
                pe: self.me as u32,
                occupancy,
            });
            return;
        };
        let program = self.shared.program;
        let eff = match execute(
            program,
            &mut self.wctx,
            tag,
            instr,
            &self.ops,
            &mut self.scratch,
        ) {
            Ok(eff) => eff,
            Err(e) => {
                self.fail(e);
                return;
            }
        };
        self.out.fired += 1;
        if self.out.fired.is_multiple_of(FUEL_BLOCK) {
            let published = self
                .shared
                .published
                .fetch_add(FUEL_BLOCK, Ordering::Relaxed)
                + FUEL_BLOCK;
            if published > self.shared.fuel {
                self.scratch.clear();
                self.fail(ExecError::OutOfFuel);
                return;
            }
        }
        if eff.is_alu {
            self.out.alu_ops += 1;
        }
        self.trace(TraceEvent::MatchFire {
            pe: self.me as u32,
            alu: eff.is_alu,
            busy: 0,
        });
        if let Some((slot, v)) = eff.output {
            self.out.outputs.insert(slot, v);
        }
        // Dispatch the structure op *before* routing any token of this
        // firing: a consumer reached through a token may issue a
        // dependent op, and the dependency must already be in the
        // owner's queue (see the module docs on causality).
        match eff.action {
            None => {}
            Some(StructAction::Alloc { tag, len }) => {
                let id = self.take_struct_id();
                self.dispatch_create(id, len);
                deliver(
                    program,
                    tag,
                    Value::Ptr(StructRef { id, len }),
                    &mut self.scratch,
                );
            }
            Some(action) => self.dispatch_op(action),
        }
        self.route_scratch();
    }

    /// Sends outbound batches — ops to every peer first, then tokens,
    /// the order the causality argument rests on — each counted by the
    /// detector before it is sent. Returns `false` once the run is
    /// poisoned.
    fn flush(&mut self) -> bool {
        for w in 0..self.shared.threads {
            if !self.obufs[w].is_empty() {
                let fresh = self.spare_ops.pop().unwrap_or_default();
                let batch = std::mem::replace(&mut self.obufs[w], fresh);
                self.send(w, Msg::Ops(batch));
            }
        }
        for w in 0..self.shared.threads {
            if !self.tbufs[w].is_empty() {
                let fresh = self.spare_tokens.pop().unwrap_or_default();
                let batch = std::mem::replace(&mut self.tbufs[w], fresh);
                self.send(w, Msg::Tokens(batch));
            }
        }
        !self.shared.poison.load(Ordering::Relaxed)
    }

    fn send(&self, w: usize, batch: Msg) {
        self.shared.active.fetch_add(1, Ordering::AcqRel);
        // A failed send means the peer exited on poison; the batch no
        // longer matters.
        let _ = self.peers[w].send(batch);
    }

    /// Applies a received batch: ops against the local shard, tokens
    /// onto the local queue. The drained buffer joins the spares.
    fn handle(&mut self, batch: Msg) {
        let threads = self.shared.threads;
        match batch {
            Msg::Ops(mut ops) => {
                for op in ops.drain(..) {
                    match op {
                        ShardOp::Create { id, len } => self.shard.create(id, len as usize),
                        ShardOp::Op(op) => self.apply_op(op),
                    }
                }
                if self.spare_ops.len() < threads {
                    self.spare_ops.push(ops);
                }
            }
            Msg::Tokens(mut ts) => {
                for t in ts.drain(..) {
                    self.local.push(self.prio(t.tag), t);
                }
                if self.spare_tokens.len() < threads {
                    self.spare_tokens.push(ts);
                }
            }
            Msg::Stop => unreachable!("the worker loop handles stop messages"),
        }
    }
}

/// I-structure reads satisfied at once, reads deferred, and writes.
#[derive(Debug, Default, Clone, Copy)]
struct IsCounts {
    immediate: u64,
    deferred: u64,
    writes: u64,
}

/// Applies one fetch/store to its owning shard, mirroring the
/// sequential backend's inline handling — tokens go to `out` and trace
/// events to `traces` (when tracing) in the sequential per-op order.
fn apply_one(
    program: &Program,
    shard: &mut IStructureShard<Value, (ActivityName, Port)>,
    action: StructAction,
    counts: &mut IsCounts,
    out: &mut impl Emit,
    mut traces: Option<&mut EventBuffer>,
) -> Result<(), ExecError> {
    let traced = traces.is_some();
    let mut note = |ev: TraceEvent| {
        if let Some(t) = traces.as_deref_mut() {
            t.push(Cycle::ZERO, ev);
        }
    };
    match action {
        StructAction::Alloc { .. } => {
            unreachable!("allocations are resolved by the firing worker")
        }
        StructAction::Fetch { tag, ptr, idx } => {
            for (rtag, port) in continuation(program, tag) {
                let before = if traced {
                    shard
                        .store(ptr.id)
                        .ok_or_else(|| dangling(tag, ptr))?
                        .presence(Addr(idx))?
                } else {
                    Presence::Empty
                };
                let outcome = shard
                    .read(ptr.id, Addr(idx), (rtag, port))
                    .ok_or_else(|| dangling(tag, ptr))??;
                match outcome {
                    ReadOutcome::Value(v) => {
                        counts.immediate += 1;
                        out.emit(rtag, port, v);
                        note(TraceEvent::IStoreRead {
                            module: ptr.id,
                            immediate: true,
                        });
                    }
                    ReadOutcome::Deferred => {
                        counts.deferred += 1;
                        if traced {
                            note(TraceEvent::IStoreRead {
                                module: ptr.id,
                                immediate: false,
                            });
                            let depth = shard
                                .store(ptr.id)
                                .expect("structure present")
                                .deferred_count(Addr(idx))?
                                as u64;
                            note(TraceEvent::DeferEnqueue {
                                module: ptr.id,
                                depth,
                            });
                            if before != Presence::Deferred {
                                note(TraceEvent::Presence {
                                    module: ptr.id,
                                    from: before.as_trace(),
                                    to: PresenceState::Deferred,
                                });
                            }
                        }
                    }
                }
            }
        }
        StructAction::Store {
            tag,
            ptr,
            idx,
            value,
        } => {
            let before = if traced {
                shard
                    .store(ptr.id)
                    .ok_or_else(|| dangling(tag, ptr))?
                    .presence(Addr(idx))?
            } else {
                Presence::Empty
            };
            // Released readers stream straight to `out` (the packed
            // store's zero-allocation release path).
            let released = shard
                .write_with(ptr.id, Addr(idx), value, |(rtag, port)| {
                    out.emit(rtag, port, value);
                })
                .ok_or_else(|| dangling(tag, ptr))??;
            counts.writes += 1;
            note(TraceEvent::IStoreWrite { module: ptr.id });
            note(TraceEvent::Presence {
                module: ptr.id,
                from: before.as_trace(),
                to: PresenceState::Present,
            });
            if released > 0 {
                note(TraceEvent::DeferRelease {
                    module: ptr.id,
                    released: released as u64,
                });
            }
            deliver(program, tag, Value::Unit, out);
        }
    }
    Ok(())
}
