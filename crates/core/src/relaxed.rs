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
//! # Waves
//!
//! A worker fires through the sequential interpreter's step,
//! [`Run::step`], in waves as that interpreter does: it walks the
//! current wave, every firing emits into the next, and at each wave
//! boundary the two swap and, under [`SchedPolicy::Crit`], the new wave
//! is sorted. A peer-owned token waits in the next wave until the worker
//! hands it to its owner's batch, at every flush and wave boundary;
//! batches leave only at a flush, every [`FLUSH_EVERY`] tokens and
//! before the worker parks. One worker routes nothing and fires exactly
//! as the sequential run under either policy.
//!
//! # Placement
//!
//! A token's owner is [`MappingPolicy::ByIteration`] over its tag — the
//! timed machine's default mapping, computed by the same function: one
//! iteration of one activation stays on one worker, and iterations and
//! activations spread. Only the tokens that cross into another
//! iteration or activation can take a channel hop, about one in eight
//! at two workers on matmul, wavefront and fib; hashing the whole tag
//! sent half of them. The price is that a program with no loop and no
//! call — one activation, one iteration — runs on one worker, as it
//! would on one PE of the timed machine. The causality and termination
//! arguments below hold for any function of the tag, but the placement
//! must stay a function of `(u, i)` alone: every `D`, `DGated` and
//! `LoopEntry` of one parent activation then fires on one worker, which
//! is what lets each worker keep its own loop memo, with no lock (see
//! [`SharedContexts`]).
//!
//! # What is still guaranteed
//!
//! Dataflow graphs are determinate (Kahn): the *values* computed do not
//! depend on execution order, only the order itself does. Concretely,
//! for any program, a relaxed run agrees with a sequential run on:
//!
//! - program **outputs** (for [`Value::Ptr`](crate::Value::Ptr) up to
//!   the structure *id* — relaxed ids come from leased blocks and are
//!   not dense);
//! - the **error discriminant** when the program faults;
//! - `instructions`, `alu_ops`, `contexts`, `istore_writes`, the total
//!   `istore_immediate + istore_deferred`, and the stranded-token count
//!   of a deadlock (all confluent);
//!
//! while `waves`/`profile` are reported as `0`/empty (there are no
//! waves to count), and `peak_matching`, `peak_deferred` and the
//! immediate/deferred *split* become schedule-dependent approximations
//! (sums of per-shard observations; a shard's deferred readers are
//! sampled at its worker's wave boundaries, as the sequential run
//! samples them at its own, and after each batch of ops). The
//! differential fuzz oracle and the property suite check exactly this
//! contract against the sequential engine.
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
//! - a worker whose waves are empty and whose batches are all flushed
//!   subtracts one for itself, then parks in a blocking `recv`.
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
//! never leaves a peer parked. A worker whose own firing fails returns
//! at once; the others read the poison flag once per flush, not per
//! token. Fuel is counted privately: each worker publishes its
//! firings against `fuel` in blocks of [`FUEL_BLOCK`], and
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
//! second**. A firing's op is batched as the firing runs, and its
//! tokens are handed off no earlier than the next flush or wave
//! boundary, so the op is always queued before them. Each hop is an
//! mpsc send, and sends ordered by happens-before
//! enqueue in that order at the receiver, so the create is always
//! applied before the dependent fetch arrives. The owning shard applies
//! each fetch and store through `exec::structure_op`, the controller
//! every engine shares, which emits a store's completion signal only
//! after the store is applied, so nothing it unlocks can overtake the
//! store. An index out of range never travels: the firing that
//! computed it fails in `exec::execute`, as on every engine. Flushing
//! every [`FLUSH_EVERY`] tokens as well as before parking does not
//! change the argument: a dependent op queued after its cause on the
//! same peer buffer leaves in the same or a later flush, and a
//! dependent token leaves no earlier than the flush that carries its
//! cause.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Mutex;

use ttda_mem::shard_of;
use ttda_sim::Cycle;
use ttda_trace::{EventBuffer, SharedSink, TraceEvent};

use crate::context::{SharedContexts, WorkerCtx};
use crate::emu::{EmuResult, Host, Run};
use crate::exec::{load_jobs, size_hint, structure_op, IsCounts, StructAction, Structures};
use crate::graph::Program;
use crate::placement::MappingPolicy;
use crate::sched::{sort_by_criticality, CritMap, SchedPolicy};
use crate::tag::Token;
use crate::ExecError;

/// Structure ids a worker takes per refill of its private lease. Ids
/// are *not* dense (unused tail ids are simply never created) — they
/// escape only inside [`Value::Ptr`](crate::Value::Ptr), whose id the relaxed contract
/// does not promise.
const STRUCT_LEASE: u32 = 64;

/// Tokens a busy worker processes between flushes of its outbound
/// batches. Streaming keeps peers fed while the producer is still
/// busy; holding batches until the worker's waves drain would idle a
/// peer that owns half of the tokens.
const FLUSH_EVERY: u32 = 64;

/// Firings a worker counts privately before publishing them against
/// the shared fuel meter (see the module docs on fuel).
const FUEL_BLOCK: u64 = 1024;

/// How tokens are placed on workers (see the module docs on placement).
const PLACEMENT: MappingPolicy = MappingPolicy::ByIteration;

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
    /// `Some` under [`SchedPolicy::Crit`]: workers sort each wave
    /// longest-remaining-path first instead of keeping arrival order.
    crit: Option<CritMap>,
    /// What each worker reserves in its matching shard, operand buffer
    /// and waves before it starts (`exec::size_hint`).
    hint: usize,
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
    let hint = size_hint(program, jobs);
    let ctxs = SharedContexts::new(program.main);
    // Seed tokens, sharded by matching owner. Roots are allocated here,
    // before any worker exists, so they get the same dense leading ids
    // the sequential interpreter assigns.
    let mut seeds: Vec<Vec<Token>> = (0..threads).map(|_| Vec::new()).collect();
    load_jobs(
        program,
        jobs,
        |block| ctxs.new_root(block),
        |t| {
            seeds[PLACEMENT.owner(t.tag, threads)].push(t);
            if let Some(s) = &sink {
                s.borrow_mut()
                    .record(Cycle::ZERO, &TraceEvent::TokenEmit { pe: 0 });
            }
        },
    )?;

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
        hint,
    };

    // Worker 0 runs on the calling thread, so a run spawns one thread
    // fewer and a one-worker run spawns none.
    let runs: Vec<_> = std::thread::scope(|scope| {
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

    if let Some(e) = shared.first_err.lock().expect("error slot poisoned").take() {
        return Err(e);
    }
    // The exact fuel check: block publishing only ever undercounts.
    let instructions = runs.iter().map(|r| r.instructions).sum::<u64>();
    if instructions > fuel {
        return Err(ExecError::OutOfFuel);
    }
    let stranded = runs
        .iter()
        .map(|r| r.waiting.len() + r.host.shard.deferred_outstanding())
        .sum::<usize>();
    if stranded > 0 {
        return Err(ExecError::Deadlock { stranded });
    }

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
    for mut r in runs {
        result.outputs.extend(r.outputs);
        result.alu_ops += r.alu_ops;
        result.peak_matching += r.waiting.high_water();
        result.peak_deferred += r.host.peak_deferred;
        result.istore_immediate += r.host.istore.immediate;
        result.istore_deferred += r.host.istore.deferred;
        result.istore_writes += r.host.istore.writes;
        if let Some(s) = &sink {
            r.host.traces.replay_into(s);
        }
    }
    if let Some(s) = &sink {
        s.borrow_mut()
            .record(Cycle::ZERO, &TraceEvent::Halt { in_flight: 0 });
    }
    Ok(result)
}

/// One relaxed worker's [`Host`]: its structure shard and id lease,
/// its outbound batches and its peers' channels, and its trace buffer.
/// The rest of its state — matching shard, context handle, outputs and
/// counters — is the [`Run`] it fires through.
struct Worker<'a, 'p> {
    shared: &'a Shared<'p>,
    me: usize,
    shard: Structures,
    istore: IsCounts,
    /// Peak deferred-reader count of the shard, sampled at each wave
    /// boundary and after each batch of ops.
    peak_deferred: usize,
    /// Private structure-id lease, refilled from the shared counter.
    struct_next: u32,
    struct_end: u32,
    /// How many leading tokens of the next wave are known to be this
    /// worker's own; the rest have not been handed off yet.
    routed: usize,
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
    traces: EventBuffer,
}

/// One relaxed worker: fires its seeds and everything they lead to, in
/// waves, streaming outbound batches, until the run stops; then hands
/// back what it fired through.
fn worker<'a, 'p>(
    shared: &'a Shared<'p>,
    me: usize,
    seeds: Vec<Token>,
    rx: Receiver<Msg>,
    peers: Vec<Sender<Msg>>,
) -> Run<'p, WorkerCtx<'a>, Worker<'a, 'p>> {
    let threads = shared.threads;
    let mut run = Run::new(
        shared.program,
        shared.ctxs.handle(),
        shared.hint,
        Worker {
            shared,
            me,
            shard: Structures::new(),
            istore: IsCounts::default(),
            peak_deferred: 0,
            struct_next: 0,
            struct_end: 0,
            // The seeds were placed on their owner.
            routed: seeds.len(),
            obufs: (0..threads).map(|_| Vec::new()).collect(),
            tbufs: (0..threads).map(|_| Vec::new()).collect(),
            spare_ops: Vec::new(),
            spare_tokens: Vec::new(),
            peers,
            traces: EventBuffer::new(),
        },
    );
    let mut next = seeds;
    next.reserve(shared.hint);
    drive(&mut run, &rx, next);
    run
}

/// The worker loop: fires wave after wave while it holds tokens (see
/// the module docs on waves; a wave boundary hands tokens off but sends
/// nothing, since sending there too measured slower at two workers).
/// With no tokens left it flushes, takes a batch if one is waiting, and
/// otherwise parks in `recv`; it returns on a stop message, on an
/// error, or when its own decrement brings the detector to zero.
fn drive(
    run: &mut Run<'_, WorkerCtx<'_>, Worker<'_, '_>>,
    rx: &Receiver<Msg>,
    mut next: Vec<Token>,
) {
    let shared = run.host.shared;
    let mut wave: Vec<Token> = Vec::with_capacity(shared.hint);
    let mut keys: Vec<u64> = Vec::new();
    let mut since_flush = 0;
    loop {
        run.host.hand_off(&mut next);
        if !next.is_empty() {
            std::mem::swap(&mut wave, &mut next);
            run.host.routed = 0;
            if let Some(crit) = &shared.crit {
                sort_by_criticality(&mut wave, crit, &mut keys);
            }
            for token in &wave {
                let fired = match run.step(token.clone(), &mut next) {
                    Ok(fired) => fired,
                    Err(e) => {
                        run.host.fail(e);
                        return;
                    }
                };
                if fired && run.instructions.is_multiple_of(FUEL_BLOCK) && !run.host.publish() {
                    return;
                }
                since_flush += 1;
                if since_flush == FLUSH_EVERY {
                    since_flush = 0;
                    if !run.host.flush(&mut next) {
                        return;
                    }
                }
            }
            wave.clear();
            run.host.note_deferred();
            continue;
        }
        if !run.host.flush(&mut next) {
            return;
        }
        let batch = match rx.try_recv() {
            Ok(Msg::Stop) | Err(TryRecvError::Disconnected) => return,
            Ok(batch) => {
                shared.active.fetch_sub(1, Ordering::AcqRel);
                batch
            }
            Err(TryRecvError::Empty) => {
                if shared.active.fetch_sub(1, Ordering::AcqRel) == 1 {
                    run.host.stop_peers();
                    return;
                }
                match rx.recv() {
                    Ok(Msg::Stop) | Err(_) => return,
                    Ok(batch) => batch,
                }
            }
        };
        if let Err(e) = run.host.handle(run.program, batch, &mut next) {
            run.host.fail(e);
            return;
        }
    }
}

impl Host for Worker<'_, '_> {
    fn tracing(&self) -> Option<u32> {
        self.shared.traced.then_some(self.me as u32)
    }

    fn record(&mut self, ev: TraceEvent) {
        self.traces.push(Cycle::ZERO, ev);
    }

    /// Takes an id from the private lease, refilling it from the shared
    /// counter when exhausted, and registers the structure with its
    /// owning shard.
    fn alloc(&mut self, len: u32) -> u32 {
        if self.struct_next == self.struct_end {
            self.struct_next = self
                .shared
                .next_struct
                .fetch_add(STRUCT_LEASE, Ordering::SeqCst);
            self.struct_end = self.struct_next + STRUCT_LEASE;
        }
        let id = self.struct_next;
        self.struct_next += 1;
        let owner = shard_of(id, self.shared.threads);
        if owner == self.me {
            self.shard.create(id, len as usize);
        } else {
            self.obufs[owner].push(ShardOp::Create { id, len });
        }
        id
    }

    /// Batches the op for the worker that owns the structure — before
    /// any token of the firing can leave (see the module docs on
    /// causality) — or, when that is this worker, applies it to the
    /// local shard, emitting what it produces (fetched values, released
    /// readers, the store's completion signal) into `out`.
    #[inline]
    fn apply(
        &mut self,
        program: &Program,
        action: StructAction,
        out: &mut Vec<Token>,
    ) -> Result<(), ExecError> {
        let (ptr, _) = action.element();
        let owner = shard_of(ptr.id, self.shared.threads);
        if owner != self.me {
            self.obufs[owner].push(ShardOp::Op(action));
            return Ok(());
        }
        let trace = self
            .shared
            .traced
            .then_some((&mut self.traces, Cycle::ZERO, ptr.id));
        structure_op(
            program,
            &mut self.shard,
            action,
            &mut self.istore,
            out,
            trace,
        )
    }
}

impl Worker<'_, '_> {
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

    /// Publishes a block of firings against the fuel; once the published
    /// total passes it, poisons the run with `OutOfFuel` and returns
    /// `false`.
    fn publish(&self) -> bool {
        let shared = self.shared;
        let over =
            shared.published.fetch_add(FUEL_BLOCK, Ordering::Relaxed) + FUEL_BLOCK > shared.fuel;
        if over {
            self.fail(ExecError::OutOfFuel);
        }
        !over
    }

    fn stop_peers(&self) {
        for (w, tx) in self.peers.iter().enumerate() {
            if w != self.me {
                // A peer that already exited needs no stop.
                let _ = tx.send(Msg::Stop);
            }
        }
    }

    fn note_deferred(&mut self) {
        self.peak_deferred = self.peak_deferred.max(self.shard.deferred_outstanding());
    }

    /// Moves the peer-owned tokens of `next` past [`Worker::routed`] to
    /// their owners' outbound batches, keeping this worker's own in
    /// order. One worker owns every token, so it skips the scan.
    fn hand_off(&mut self, next: &mut Vec<Token>) {
        let threads = self.shared.threads;
        if threads == 1 {
            return;
        }
        let mut keep = self.routed;
        for k in self.routed..next.len() {
            let w = PLACEMENT.owner(next[k].tag, threads);
            if w == self.me {
                next.swap(keep, k);
                keep += 1;
            } else {
                self.tbufs[w].push(next[k].clone());
            }
        }
        next.truncate(keep);
        self.routed = keep;
    }

    /// Hands off the peer-owned tokens of `next`, then sends outbound
    /// batches — ops to every peer first, then tokens, the order the
    /// causality argument rests on — each counted by the detector before
    /// it is sent. Returns `false` once the run is poisoned.
    fn flush(&mut self, next: &mut Vec<Token>) -> bool {
        self.hand_off(next);
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

    /// Applies a received batch to an empty `next` wave: ops against the
    /// local shard, emitting what they produce, and tokens, which are
    /// all this worker's own, appended as they are. The drained buffer
    /// joins the spares.
    fn handle(
        &mut self,
        program: &Program,
        batch: Msg,
        next: &mut Vec<Token>,
    ) -> Result<(), ExecError> {
        debug_assert!(next.is_empty());
        let threads = self.shared.threads;
        match batch {
            Msg::Ops(mut ops) => {
                for op in ops.drain(..) {
                    match op {
                        ShardOp::Create { id, len } => self.shard.create(id, len as usize),
                        ShardOp::Op(op) => self.apply(program, op, next)?,
                    }
                }
                if let Some(pe) = self.tracing() {
                    for _ in 0..next.len() {
                        self.record(TraceEvent::TokenEmit { pe });
                    }
                }
                self.note_deferred();
                if self.spare_ops.len() < threads {
                    self.spare_ops.push(ops);
                }
            }
            Msg::Tokens(mut ts) => {
                next.append(&mut ts);
                self.routed = next.len();
                if self.spare_tokens.len() < threads {
                    self.spare_tokens.push(ts);
                }
            }
            Msg::Stop => unreachable!("the worker loop handles stop messages"),
        }
        Ok(())
    }
}
