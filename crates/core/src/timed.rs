//! The detailed machine model (the *simulation* prong of Fig 3-1).
//!
//! A [`TimedMachine`] is `n` processing elements — each with its own
//! waiting–matching store, ALU, output section and attached I-structure
//! module — connected by any [`Topology`] from `ttda-net`. The model
//! charges explicit service times to each pipeline section (Fig 2-4) and
//! routes every inter-PE token and every `d=1` I-structure packet through
//! the network, so it "accounts for communication as well as processing
//! simulated time".
//!
//! The headline measurements are ALU utilization
//! ([`MachineStats::alu_utilization`]) and the latency-tolerance
//! behaviour: because a PE never waits for a response — it just keeps
//! consuming tokens from its input queue — utilization stays high as
//! network latency grows, *provided the program has parallelism to spare*
//! (the paper's claim, tested in E1/E14).
//!
//! # Events and payloads
//!
//! The run is one loop over a [`ttda_sim::EventQueue`]. An event
//! (`Ev`, 12 bytes) names what happens and where — a token reaches a
//! PE, a PE wakes, a packet reaches an I-structure module — and refers
//! to its payload by a 4-byte handle. Tokens and I-structure packets in
//! flight live in two per-run slabs, which recycle freed slots through
//! a free list. A token is copied into its slab once, when it is
//! routed, and out once, when its PE services it; in between, the
//! event queue and the PE's input queue move only its handle. An
//! unroutable destination (a partitioned or faulty network) ends the
//! run with [`ExecError::Unroutable`].

use std::collections::HashMap;

use ttda_mem::{Addr, IStructurePort};
use ttda_net::{Fabric, FabricConfig, Ideal, NodeId, Topology};
use ttda_sim::{Cycle, EventQueue};
use ttda_trace::{SharedSink, TraceEvent};

use crate::context::ContextManager;
use crate::exec::{
    absorb, dangling, deliver, execute, load_jobs, structure_op, IsCounts, StructAction, Structures,
};
use crate::graph::Program;
use crate::matching::MatchingStore;
use crate::placement::MappingPolicy;
use crate::sched::{BucketQueue, CritMap, SchedPolicy};
use crate::tag::{ActivityName, Token};
use crate::value::{StructRef, Value};
use crate::ExecError;

/// Where an I-structure's elements live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StructPlacement {
    /// Element `i` of structure `s` lives on module `(s + i) mod n`: the
    /// TTDA arrangement, spreading one structure's traffic across every
    /// module.
    Interleaved,
    /// All of structure `s` lives on module `s mod n`: simpler
    /// controllers, but a heavily shared structure turns its home module
    /// into a hot spot (ablation A3).
    SingleModule,
}

/// Waiting–matching section service per token.
const MATCH_TIME: Cycle = Cycle(1);
/// Instruction-fetch + ALU service per firing.
const ALU_TIME: Cycle = Cycle(1);
/// Output section service per emitted token (new tag + routing
/// translation).
const OUTPUT_TIME: Cycle = Cycle(1);
/// Delay for a token that stays on its own PE (the PE-internal loopback
/// path of Fig 2-4).
const LOCAL_DELAY: Cycle = Cycle(1);

/// Service times and sizing for a [`TimedMachine`]. Matching, the ALU,
/// each emitted token and the PE-internal loopback cost one cycle each.
#[derive(Debug, Clone, Copy)]
pub struct TimedConfig {
    /// Base access time of an I-structure module's port: a read holds
    /// it for this long and a write for twice as long (§2.1, priced by
    /// [`IStructurePort`]).
    pub istore_access: Cycle,
    /// Activity→PE mapping policy.
    pub mapping: MappingPolicy,
    /// Waiting–matching store capacity per PE (0 = unbounded). The real
    /// machine's associative store was finite; entries beyond capacity
    /// overflow to a slower backing store, modelled as
    /// [`TimedConfig::match_overflow_penalty`] extra cycles per access
    /// that lands while the store is over capacity.
    pub match_capacity: usize,
    /// Extra service time per token handled while the PE's
    /// waiting–matching store is over capacity.
    pub match_overflow_penalty: Cycle,
    /// I-structure element placement across modules.
    pub placement: StructPlacement,
    /// How each PE orders its input queue: FIFO (arrival order) or
    /// criticality-aware (longest remaining critical path first, ties in
    /// arrival order — see [`SchedPolicy`]). The default is FIFO.
    pub sched: SchedPolicy,
    /// Network queueing parameters.
    pub fabric: FabricConfig,
    /// Hard wall-clock limit.
    pub max_cycles: Cycle,
}

impl Default for TimedConfig {
    fn default() -> Self {
        TimedConfig {
            istore_access: Cycle(4),
            mapping: MappingPolicy::ByIteration,
            match_capacity: 0,
            match_overflow_penalty: Cycle(4),
            placement: StructPlacement::Interleaved,
            sched: SchedPolicy::Fifo,
            fabric: FabricConfig::default(),
            max_cycles: Cycle(100_000_000),
        }
    }
}

/// Aggregate measurements from one timed run.
#[derive(Debug, Clone)]
pub struct MachineStats {
    /// Number of processing elements.
    pub pes: usize,
    /// Completion time.
    pub cycles: Cycle,
    /// Instruction firings.
    pub instructions: u64,
    /// Firings that were ALU work.
    pub alu_ops: u64,
    /// Summed ALU busy time across PEs.
    pub alu_busy: Cycle,
    /// Per-PE ALU busy time.
    pub per_pe_alu_busy: Vec<Cycle>,
    /// Tokens delivered to PE input queues.
    pub tokens_delivered: u64,
    /// Tokens that crossed the network (vs PE-local loopback).
    pub tokens_remote: u64,
    /// Contexts allocated.
    pub contexts: usize,
    /// Peak total waiting–matching occupancy across PEs.
    pub peak_matching: usize,
    /// Tokens serviced while their PE's matching store was over its
    /// configured capacity (each paid the overflow penalty).
    pub match_overflows: u64,
    /// Peak PE input-queue depth (token backlog).
    pub peak_queue: usize,
    /// I-structure reads satisfied immediately, counted per reader (a
    /// fetch whose value goes to two instructions is two reads).
    pub istore_immediate: u64,
    /// I-structure reads deferred, counted per reader.
    pub istore_deferred: u64,
    /// I-structure writes.
    pub istore_writes: u64,
    /// Packets the network carried.
    pub net_packets: u64,
    /// Mean hops per network packet.
    pub net_mean_hops: f64,
}

impl MachineStats {
    /// Mean ALU utilization: total ALU-busy time over `pes × cycles` —
    /// the paper's figure of merit for multiprocessors.
    pub fn alu_utilization(&self) -> f64 {
        let denom = self.cycles.as_u64().saturating_mul(self.pes as u64);
        if denom == 0 {
            0.0
        } else {
            self.alu_busy.as_u64() as f64 / denom as f64
        }
    }

    /// Fraction of tokens that crossed the network.
    pub fn remote_fraction(&self) -> f64 {
        if self.tokens_delivered == 0 {
            0.0
        } else {
            self.tokens_remote as f64 / self.tokens_delivered as f64
        }
    }
}

/// Outputs plus measurements.
#[derive(Debug, Clone)]
pub struct TimedResult {
    /// Program outputs by slot.
    pub outputs: HashMap<u32, Value>,
    /// Machine measurements.
    pub stats: MachineStats,
}

/// An index into one of the run's payload [`Slab`]s.
type Handle = u32;

/// One scheduled event: what happens, where, and a handle to its
/// payload, if it has one.
#[derive(Debug)]
enum Ev {
    /// A `d=0` token reaches a PE's input.
    Deliver { pe: u32, token: Handle },
    /// A PE is ready to service its queue.
    Wake { pe: u32 },
    /// A `d=1` packet reaches an I-structure module.
    IsOp { module: u32, action: Handle },
}

// Handle-sized: the event queue moves these, never a token.
const _: () = assert!(std::mem::size_of::<Ev>() == 12);

/// Payloads in flight, addressed by [`Handle`]s. A freed slot goes on
/// the free list and is reused before the slab grows, so a run holds at
/// most its peak number of payloads in flight.
struct Slab<T> {
    items: Vec<T>,
    free: Vec<Handle>,
}

impl<T: Clone> Slab<T> {
    fn new() -> Self {
        Slab {
            items: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Stores `x`, returning its handle.
    #[inline]
    fn put(&mut self, x: T) -> Handle {
        match self.free.pop() {
            Some(h) => {
                self.items[h as usize] = x;
                h
            }
            None => {
                let h =
                    Handle::try_from(self.items.len()).expect("fewer than 2^32 payloads in flight");
                self.items.push(x);
                h
            }
        }
    }

    /// The payload behind `h`.
    fn get(&self, h: Handle) -> &T {
        &self.items[h as usize]
    }

    /// Copies out the payload behind `h` and frees its slot.
    #[inline]
    fn take(&mut self, h: Handle) -> T {
        self.free.push(h);
        self.items[h as usize].clone()
    }
}

/// A run's pending events and the payloads they refer to.
struct InFlight {
    events: EventQueue<Ev>,
    tokens: Slab<Token>,
    packets: Slab<StructAction>,
}

impl InFlight {
    /// Schedules `token`'s arrival at `pe`'s input at `at`.
    #[inline]
    fn deliver(&mut self, at: Cycle, pe: usize, token: Token) {
        let token = self.tokens.put(token);
        self.events.push(
            at,
            Ev::Deliver {
                pe: pe as u32,
                token,
            },
        );
    }
}

#[derive(Debug, Default)]
struct PeState {
    /// Handles of the input tokens: a FIFO ring under
    /// [`SchedPolicy::Fifo`] (everything arrives at priority 0), a
    /// criticality-bucketed priority queue under [`SchedPolicy::Crit`].
    queue: BucketQueue<Handle>,
    waiting: MatchingStore,
    busy_until: Cycle,
    wake_scheduled: bool,
    alu_busy: Cycle,
}

/// One I-structure storage module: its slice of every structure, held
/// in the same store the other engines keep and materialized on first
/// access, plus its single service port. Ops reach the slice only
/// through [`structure_op`], the controller every engine shares; the
/// module adds the port's timing and the mapping from an element to its
/// local cell.
#[derive(Debug)]
struct ModState {
    store: Structures,
    port: IStructurePort,
}

/// The detailed multi-PE tagged-token machine.
///
/// # Example
///
/// ```
/// use ttda_core::{AluOp, GraphBuilder, OpCode, TimedConfig, TimedMachine, Value};
/// use ttda_sim::Cycle;
///
/// let mut g = GraphBuilder::new("add");
/// let a = g.param();
/// let b = g.param();
/// let add = g.instr(OpCode::Alu(AluOp::Add));
/// let out = g.output(0);
/// g.wire(a, add, 0).wire(b, add, 1).wire(add, out, 0);
/// let p = g.finish_program().unwrap();
///
/// let mut m = TimedMachine::ideal(p, 4, Cycle(10), TimedConfig::default());
/// let r = m.run(&[Value::Int(3), Value::Int(4)]).unwrap();
/// assert_eq!(r.outputs[&0], Value::Int(7));
/// assert!(r.stats.cycles > Cycle(0));
/// ```
pub struct TimedMachine<T> {
    program: Program,
    config: TimedConfig,
    fabric: Fabric<T>,
    sink: Option<SharedSink>,
    /// Hard firing limit.
    fuel: u64,
}

impl<T: std::fmt::Debug> std::fmt::Debug for TimedMachine<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimedMachine")
            .field("config", &self.config)
            .field("fuel", &self.fuel)
            .field("fabric", &self.fabric)
            .field("traced", &self.sink.is_some())
            .finish_non_exhaustive()
    }
}

impl TimedMachine<Ideal> {
    /// Convenience: a machine whose `pes` PEs are joined by an
    /// [`Ideal`] network of the given latency (used by latency sweeps).
    pub fn ideal(program: Program, pes: usize, latency: Cycle, config: TimedConfig) -> Self {
        TimedMachine::new(program, Ideal::new(pes, latency), config)
    }
}

impl<T: Topology> TimedMachine<T> {
    /// Builds a machine over `topology`; the PE count is the topology's
    /// port count (each port hosts one PE + one I-structure module, as in
    /// Fig 2-3's "PE, PE, ... I-structure storage" arrangement).
    pub fn new(program: Program, topology: T, config: TimedConfig) -> Self {
        TimedMachine {
            program,
            config,
            fabric: Fabric::new(topology, config.fabric),
            sink: None,
            fuel: 50_000_000,
        }
    }

    /// Attaches a trace sink. The sink is also threaded into the network
    /// fabric, so one sink observes token lifecycle, I-structure and
    /// packet events for the whole machine.
    pub fn with_sink(mut self, sink: SharedSink) -> Self {
        self.fabric.set_sink(Some(sink.clone()));
        self.sink = Some(sink);
        self
    }

    /// Overrides the firing budget (default 5×10⁷).
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// Number of processing elements.
    pub fn pes(&self) -> usize {
        self.fabric.topology().ports()
    }

    /// The program loaded into program memory.
    pub fn program(&self) -> &Program {
        &self.program
    }

    fn pe_of(&self, tag: ActivityName) -> usize {
        self.config.mapping.owner(tag, self.pes())
    }

    fn module_of(&self, ptr: StructRef, idx: usize) -> usize {
        match self.config.placement {
            StructPlacement::Interleaved => (ptr.id as usize + idx) % self.pes(),
            StructPlacement::SingleModule => ptr.id as usize % self.pes(),
        }
    }

    /// The owning module's (local cell, local slice size) for element
    /// `idx` of `ptr`. Interleaved placement strides elements round-robin
    /// across modules, so a module holds every `pes`-th element and the
    /// local index is `idx / pes`; a single-module structure maps 1:1.
    /// `idx` is in bounds: `exec::execute` rejects any other.
    fn local_slot(&self, ptr: StructRef, idx: usize) -> (Addr, usize) {
        match self.config.placement {
            StructPlacement::Interleaved => {
                let n = self.pes();
                (Addr(idx / n), (ptr.len as usize).div_ceil(n))
            }
            StructPlacement::SingleModule => (Addr(idx), ptr.len as usize),
        }
    }

    /// Executes the program on `inputs`.
    ///
    /// # Errors
    ///
    /// The same error conditions as [`Emulator::run`](crate::Emulator),
    /// plus [`ExecError::OutOfFuel`] when the cycle horizon is exceeded
    /// and [`ExecError::Unroutable`] when the network has no route
    /// between two PEs that must exchange a token or packet, or has no
    /// PE at all.
    pub fn run(&mut self, inputs: &[Value]) -> Result<TimedResult, ExecError> {
        let main = self.program.main;
        self.submit(&[crate::machine::Job::new(main, inputs.to_vec())])
    }

    /// Multiprogramming: launches a batch of independent [`Job`]s (each
    /// a block and its inputs, typically former mains from
    /// [`Program::merge`]) under
    /// fresh root contexts and runs the machine to joint quiescence —
    /// tokens of different jobs interleave freely through the same PEs,
    /// matching stores and network, and can never collide. A job's
    /// `tenant` label is accounting metadata for schedulers and is
    /// ignored here; the whole batch runs under the machine's fuel.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TimedMachine::run`].
    ///
    /// [`Job`]: crate::machine::Job
    pub fn submit(&mut self, jobs: &[crate::machine::Job]) -> Result<TimedResult, ExecError> {
        self.fabric.reset();
        let n = self.pes();
        // A topology with no ports (`Ideal::new(0, ..)`) leaves no PE to
        // route the first token to.
        if n == 0 {
            return Err(ExecError::Unroutable { from: 0, to: 0 });
        }
        let cfg = self.config;
        let fuel = self.fuel;
        // A local clone keeps the disabled-tracing cost at one branch per
        // event site and sidesteps borrows of `self` held below.
        let sink = self.sink.clone();
        let trace = |at: Cycle, ev: &TraceEvent| {
            if let Some(s) = &sink {
                s.borrow_mut().record(at, ev);
            }
        };

        let mut ctx = ContextManager::new(self.program.main);
        // Criticality lookup for the PE input queues; `None` under FIFO,
        // where every token lands at priority 0 and the bucket queue
        // degenerates to the historical ring.
        let crit = (cfg.sched == SchedPolicy::Crit).then(|| CritMap::of(&self.program));
        let prio = |t: &Token| crit.as_ref().map_or(0, |c| c.criticality(t.tag));
        let mut pes: Vec<PeState> = (0..n).map(|_| PeState::default()).collect();
        let mut modules: Vec<ModState> = (0..n)
            .map(|_| ModState {
                store: Structures::new(),
                port: IStructurePort::new(cfg.istore_access),
            })
            .collect();
        let mut next_struct: u32 = 0;
        let mut outputs = HashMap::new();
        let mut fl = InFlight {
            events: EventQueue::new(),
            tokens: Slab::new(),
            packets: Slab::new(),
        };
        // Every firing and structure reply emits into this one buffer,
        // which is routed and drained before the next emits; every
        // firing's operands land in the other.
        let mut scratch: Vec<Token> = Vec::new();
        let mut ops: Vec<Value> = Vec::new();

        let mut instructions: u64 = 0;
        let mut alu_ops: u64 = 0;
        let mut tokens_delivered: u64 = 0;
        let mut tokens_remote: u64 = 0;
        // Tokens parked across every PE's store, kept as a running total:
        // only the serviced PE's occupancy moves.
        let mut parked: usize = 0;
        let mut peak_matching: usize = 0;
        let mut match_overflows: u64 = 0;
        let mut peak_queue: usize = 0;
        let mut istore = IsCounts::default();
        let mut end = Cycle::ZERO;

        // Inject every job's inputs at time zero, each under its own
        // fresh root context.
        load_jobs(
            &self.program,
            jobs,
            |block| ctx.new_root(block),
            |t| {
                let pe = self.pe_of(t.tag);
                fl.deliver(Cycle::ZERO, pe, t);
                trace(Cycle::ZERO, &TraceEvent::TokenEmit { pe: pe as u32 });
            },
        )?;

        while let Some((now, ev)) = fl.events.pop() {
            end = end.max(now);
            if now > cfg.max_cycles {
                return Err(ExecError::OutOfFuel);
            }
            match ev {
                Ev::Deliver { pe, token } => {
                    tokens_delivered += 1;
                    let p = &mut pes[pe as usize];
                    p.queue.push(prio(fl.tokens.get(token)), token);
                    peak_queue = peak_queue.max(p.queue.len());
                    if !p.wake_scheduled {
                        p.wake_scheduled = true;
                        fl.events.push(now.max(p.busy_until), Ev::Wake { pe });
                    }
                }
                Ev::Wake { pe } => {
                    let pe = pe as usize;
                    let Some(token) = pes[pe].queue.pop() else {
                        pes[pe].wake_scheduled = false;
                        continue;
                    };
                    let token = fl.tokens.take(token);
                    let mut busy = MATCH_TIME;
                    if cfg.match_capacity > 0 && pes[pe].waiting.len() >= cfg.match_capacity {
                        busy += cfg.match_overflow_penalty;
                        match_overflows += 1;
                    }
                    let before = pes[pe].waiting.len();
                    let enabled = absorb(
                        &self.program,
                        &mut pes[pe].waiting,
                        &mut ctx,
                        token,
                        &mut ops,
                    )?;
                    parked = parked - before + pes[pe].waiting.len();
                    if sink.is_some() {
                        trace(now, &TraceEvent::TokenConsume { pe: pe as u32 });
                        if enabled.is_none() {
                            trace(
                                now,
                                &TraceEvent::MatchWait {
                                    pe: pe as u32,
                                    occupancy: pes[pe].waiting.len() as u64,
                                },
                            );
                        }
                    }
                    if let Some((tag, instr)) = enabled {
                        instructions += 1;
                        if instructions > fuel {
                            return Err(ExecError::OutOfFuel);
                        }
                        let eff = execute(&self.program, &mut ctx, tag, instr, &ops, &mut scratch)?;
                        busy += ALU_TIME;
                        if eff.is_alu {
                            alu_ops += 1;
                            pes[pe].alu_busy += ALU_TIME;
                        }
                        let emit_count = scratch.len() as u64;
                        busy += OUTPUT_TIME.saturating_mul(emit_count);
                        let done = now + busy;
                        trace(
                            now,
                            &TraceEvent::MatchFire {
                                pe: pe as u32,
                                alu: eff.is_alu,
                                busy: busy.as_u64(),
                            },
                        );
                        self.route_all(&mut fl, done, pe, &mut scratch, &mut tokens_remote)?;
                        if let Some((slot, v)) = eff.output {
                            outputs.insert(slot, v);
                        }
                        if let Some(action) = eff.action {
                            match action {
                                StructAction::Alloc { tag, len } => {
                                    // Allocation is a controller (d=2) job
                                    // at the firing PE.
                                    let ptr = Value::Ptr(StructRef {
                                        id: next_struct,
                                        len,
                                    });
                                    next_struct += 1;
                                    deliver(&self.program, tag, ptr, &mut scratch);
                                    self.route_all(
                                        &mut fl,
                                        done,
                                        pe,
                                        &mut scratch,
                                        &mut tokens_remote,
                                    )?;
                                }
                                StructAction::Fetch { tag, ptr, idx }
                                | StructAction::Store { tag, ptr, idx, .. } => {
                                    // A module materializes a structure on
                                    // first access, so a pointer this run
                                    // never allocated (a forged input) is
                                    // refused here, as the other engines
                                    // refuse an id no shard holds.
                                    if ptr.id >= next_struct {
                                        return Err(dangling(tag, ptr));
                                    }
                                    let module = self.module_of(ptr, idx);
                                    let arrive = if module == pe {
                                        done + LOCAL_DELAY
                                    } else {
                                        tokens_remote += 1;
                                        self.send(done, pe, module)?
                                    };
                                    let action = fl.packets.put(action);
                                    fl.events.push(
                                        arrive,
                                        Ev::IsOp {
                                            module: module as u32,
                                            action,
                                        },
                                    );
                                }
                            }
                        }
                        pes[pe].busy_until = done;
                    } else {
                        pes[pe].busy_until = now + busy;
                    }
                    peak_matching = peak_matching.max(parked);
                    let wake_at = pes[pe].busy_until;
                    if pes[pe].queue.is_empty() {
                        pes[pe].wake_scheduled = false;
                    } else {
                        fl.events.push(wake_at, Ev::Wake { pe: pe as u32 });
                    }
                }
                Ev::IsOp { module, action } => {
                    let action = fl.packets.take(action);
                    let (ptr, idx) = action.element();
                    let (cell, size) = self.local_slot(ptr, idx);
                    let m = &mut modules[module as usize];
                    let write = matches!(action, StructAction::Store { .. });
                    let done = m.port.serve(now, write);
                    m.store.ensure(ptr.id, size);
                    let mut guard = sink.as_ref().map(|s| s.borrow_mut());
                    let trace = guard.as_deref_mut().map(|s| (s, done, module));
                    structure_op(
                        &self.program,
                        &mut m.store,
                        action,
                        cell,
                        &mut istore,
                        &mut scratch,
                        trace,
                    )?;
                    drop(guard);
                    let from = module as usize;
                    self.route_all(&mut fl, done, from, &mut scratch, &mut tokens_remote)?;
                }
            }
        }

        // Quiescent: verify nothing is stranded. Deferred *readers* are
        // counted (not deferred cells), matching the emulator's figure.
        let stranded: usize = pes.iter().map(|p| p.waiting.len()).sum::<usize>()
            + modules
                .iter()
                .map(|m| m.store.deferred_outstanding())
                .sum::<usize>();
        if stranded > 0 {
            return Err(ExecError::Deadlock { stranded });
        }
        // The event queue drained and nothing is parked: every emitted
        // token has been consumed.
        trace(end, &TraceEvent::Halt { in_flight: 0 });

        let per_pe_alu_busy: Vec<Cycle> = pes.iter().map(|p| p.alu_busy).collect();
        let alu_busy = per_pe_alu_busy.iter().copied().sum();
        let net = self.fabric.stats();
        Ok(TimedResult {
            outputs,
            stats: MachineStats {
                pes: n,
                cycles: end,
                instructions,
                alu_ops,
                alu_busy,
                per_pe_alu_busy,
                tokens_delivered,
                tokens_remote,
                contexts: ctx.allocated(),
                peak_matching,
                match_overflows,
                peak_queue,
                istore_immediate: istore.immediate,
                istore_deferred: istore.deferred,
                istore_writes: istore.writes,
                net_packets: net.packets.get(),
                net_mean_hops: net.mean_hops(),
            },
        })
    }

    /// Routes every token of `tokens` from `from`, in order, leaving
    /// `tokens` empty with its storage kept.
    fn route_all(
        &mut self,
        fl: &mut InFlight,
        at: Cycle,
        from: usize,
        tokens: &mut Vec<Token>,
        tokens_remote: &mut u64,
    ) -> Result<(), ExecError> {
        for token in tokens.drain(..) {
            let pe = self.pe_of(token.tag);
            if let Some(s) = &self.sink {
                s.borrow_mut()
                    .record(at, &TraceEvent::TokenEmit { pe: pe as u32 });
            }
            let arrive = if pe == from {
                at + LOCAL_DELAY
            } else {
                *tokens_remote += 1;
                self.send(at, from, pe)?
            };
            fl.deliver(arrive, pe, token);
        }
        Ok(())
    }

    /// Sends one network packet from PE `from` to PE `to`, returning its
    /// arrival time.
    fn send(&mut self, at: Cycle, from: usize, to: usize) -> Result<Cycle, ExecError> {
        self.fabric
            .try_send(at, NodeId(from), NodeId(to))
            .map_err(|_| ExecError::Unroutable { from, to })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::graph::OpCode;
    use crate::value::{AluOp, CmpOp};
    use crate::Emulator;

    fn sum_loop_program(upto: i64) -> (Program, Value) {
        let mut g = GraphBuilder::new("sum");
        let n = g.param();
        let zero = g.lit(Value::Int(0));
        let one = g.lit(Value::Int(1));
        g.wire(n, zero, 0);
        g.wire(n, one, 0);
        let exits = g
            .dataflow_loop(
                &[zero, one, n],
                |g, tops| {
                    let c = g.instr(OpCode::Cmp(CmpOp::Le));
                    g.wire(tops[1], c, 0);
                    g.wire(tops[2], c, 1);
                    c
                },
                |g, vars| {
                    let acc = g.instr(OpCode::Alu(AluOp::Add));
                    g.wire(vars[0], acc, 0);
                    g.wire(vars[1], acc, 1);
                    let i2 = g.instr_lit(OpCode::Alu(AluOp::Add), 1, Value::Int(1));
                    g.wire(vars[1], i2, 0);
                    vec![acc, i2, vars[2]]
                },
            )
            .unwrap();
        let out = g.output(0);
        g.wire(exits[0], out, 0);
        (
            g.finish_program().unwrap(),
            Value::Int(upto * (upto + 1) / 2),
        )
    }

    #[test]
    fn timed_matches_emulator_on_loop() {
        let (p, expect) = sum_loop_program(30);
        let emu_out = Emulator::new(&p).run(&[Value::Int(30)]).unwrap().outputs[&0];
        for pes in [1, 2, 4, 8] {
            let mut m = TimedMachine::ideal(p.clone(), pes, Cycle(5), TimedConfig::default());
            let r = m.run(&[Value::Int(30)]).unwrap();
            assert_eq!(r.outputs[&0], expect, "pes={pes}");
            assert_eq!(r.outputs[&0], emu_out);
        }
    }

    #[test]
    fn all_mapping_policies_agree_on_results() {
        let (p, expect) = sum_loop_program(15);
        for mapping in [
            MappingPolicy::ByIteration,
            MappingPolicy::ByContext,
            MappingPolicy::Spread,
        ] {
            let cfg = TimedConfig {
                mapping,
                ..TimedConfig::default()
            };
            let mut m = TimedMachine::ideal(p.clone(), 4, Cycle(3), cfg);
            let r = m.run(&[Value::Int(15)]).unwrap();
            assert_eq!(r.outputs[&0], expect, "{mapping:?}");
        }
    }

    #[test]
    fn istructure_traffic_is_split_phase() {
        // Producer chain delays the store; the fetch is deferred at the
        // module and delivered later, without any PE idling on it.
        let mut g = GraphBuilder::new("t");
        let x = g.param();
        let size = g.lit(Value::Int(1));
        g.wire(x, size, 0);
        let alloc = g.instr(OpCode::IAlloc);
        g.wire(size, alloc, 0);
        let fetch = g.instr_lit(OpCode::IFetch, 1, Value::Int(0));
        g.wire(alloc, fetch, 0);
        let out = g.output(0);
        g.wire(fetch, out, 0);
        let mut v = x;
        for _ in 0..8 {
            let id = g.instr(OpCode::Identity);
            g.wire(v, id, 0);
            v = id;
        }
        let store = g.instr_lit(OpCode::IStore, 1, Value::Int(0));
        g.wire(alloc, store, 0);
        g.wire(v, store, 2);
        let sink = g.instr(OpCode::Sink);
        g.wire(store, sink, 0);
        let p = g.finish_program().unwrap();

        let mut m = TimedMachine::ideal(p, 2, Cycle(4), TimedConfig::default());
        let r = m.run(&[Value::Int(7)]).unwrap();
        assert_eq!(r.outputs[&0], Value::Int(7));
        assert_eq!(r.stats.istore_deferred, 1);
        assert_eq!(r.stats.istore_writes, 1);
    }

    #[test]
    fn sink_ledger_balances_on_timed_runs() {
        use ttda_trace::{shared, CountingSink};

        let (p, expect) = sum_loop_program(25);
        let sink = shared(CountingSink::new());
        let mut m =
            TimedMachine::ideal(p, 4, Cycle(3), TimedConfig::default()).with_sink(sink.clone());
        let r = m.run(&[Value::Int(25)]).unwrap();
        assert_eq!(r.outputs[&0], expect);
        let s = sink.borrow();
        let c = s.as_any().downcast_ref::<CountingSink>().unwrap();
        assert!(
            c.token_conservation_holds(),
            "emitted {} consumed {}",
            c.tokens_emitted(),
            c.tokens_consumed()
        );
        assert!(c.quiescent());
        assert_eq!(c.tokens_emitted(), r.stats.tokens_delivered);
        assert_eq!(
            c.metrics().counter_value("match_fire"),
            r.stats.instructions
        );
        // Every remote token and istore packet crossed the traced fabric.
        assert_eq!(c.packets(), r.stats.net_packets);
    }

    #[test]
    fn utilization_tolerates_latency_with_parallelism() {
        // Many independent iterations: utilization on 2 PEs should not
        // collapse when network latency rises 10x.
        let (p, _) = sum_loop_program(200);
        let run_at = |lat: u64| {
            let mut m = TimedMachine::ideal(p.clone(), 2, Cycle(lat), TimedConfig::default());
            m.run(&[Value::Int(200)]).unwrap().stats.cycles
        };
        let t_fast = run_at(1).as_u64() as f64;
        let t_slow = run_at(20).as_u64() as f64;
        // A blocking design would slow down ~linearly in latency for its
        // remote fraction; the TTDA should degrade far less than 3x.
        assert!(
            t_slow / t_fast < 3.0,
            "latency 20x slowed the machine {}x",
            t_slow / t_fast
        );
    }

    #[test]
    fn stats_are_coherent() {
        let (p, _) = sum_loop_program(20);
        let mut m = TimedMachine::ideal(p, 4, Cycle(2), TimedConfig::default());
        let r = m.run(&[Value::Int(20)]).unwrap();
        let s = &r.stats;
        assert!(s.instructions > 40);
        assert!(s.alu_ops > 0 && s.alu_ops < s.instructions);
        assert!(s.alu_utilization() > 0.0 && s.alu_utilization() <= 1.0);
        assert!(s.tokens_remote <= s.tokens_delivered);
        assert!(s.remote_fraction() <= 1.0);
        assert!(s.contexts >= 2);
        assert_eq!(s.per_pe_alu_busy.len(), 4);
        assert!(s.net_packets > 0);
    }

    #[test]
    fn fuel_and_horizon_enforced() {
        let (p, _) = sum_loop_program(1000);
        let mut m =
            TimedMachine::ideal(p.clone(), 2, Cycle(1), TimedConfig::default()).with_fuel(100);
        assert_eq!(
            m.run(&[Value::Int(1000)]).unwrap_err(),
            ExecError::OutOfFuel
        );

        let cfg = TimedConfig {
            max_cycles: Cycle(50),
            ..TimedConfig::default()
        };
        let mut m = TimedMachine::ideal(p, 2, Cycle(1), cfg);
        assert_eq!(
            m.run(&[Value::Int(1000)]).unwrap_err(),
            ExecError::OutOfFuel
        );
    }

    #[test]
    fn write_write_race_detected_in_timed_mode() {
        let mut g = GraphBuilder::new("t");
        let x = g.param();
        let size = g.lit(Value::Int(1));
        g.wire(x, size, 0);
        let alloc = g.instr(OpCode::IAlloc);
        g.wire(size, alloc, 0);
        for _ in 0..2 {
            let store = g.instr_lit(OpCode::IStore, 1, Value::Int(0));
            g.wire(alloc, store, 0);
            g.wire(x, store, 2);
            let sink = g.instr(OpCode::Sink);
            g.wire(store, sink, 0);
        }
        let p = g.finish_program().unwrap();
        let mut m = TimedMachine::ideal(p, 2, Cycle(1), TimedConfig::default());
        assert!(matches!(
            m.run(&[Value::Int(1)]).unwrap_err(),
            ExecError::IStructure(_)
        ));
    }

    #[test]
    fn unroutable_istructure_packet_is_an_error() {
        // Under `ByContext` mapping every token of `main` stays on one
        // PE, so the only network traffic is the `d=1` packets to the
        // modules holding the eight elements, one per module, and their
        // replies. Half the modules sit across the partition.
        let mut g = GraphBuilder::new("t");
        let x = g.param();
        let size = g.lit(Value::Int(8));
        g.wire(x, size, 0);
        let alloc = g.instr(OpCode::IAlloc);
        g.wire(size, alloc, 0);
        for i in 0..8 {
            let store = g.instr_lit(OpCode::IStore, 1, Value::Int(i));
            g.wire(alloc, store, 0);
            g.wire(x, store, 2);
            let sink = g.instr(OpCode::Sink);
            g.wire(store, sink, 0);
        }
        let p = g.finish_program().unwrap();
        let cfg = TimedConfig {
            mapping: MappingPolicy::ByContext,
            ..TimedConfig::default()
        };
        let whole = ttda_net::Hypercube::new(3).unwrap();
        let mut m = TimedMachine::new(p.clone(), whole.clone(), cfg);
        let r = m.run(&[Value::Int(1)]).unwrap();
        assert_eq!(r.stats.istore_writes, 8);
        // A store packet out to each of the seven remote modules and its
        // acknowledgement token back.
        assert_eq!(r.stats.net_packets, 14);

        let mut split = whole;
        split.partition(1).unwrap();
        let mut m = TimedMachine::new(p, split, cfg);
        let err = m.run(&[Value::Int(1)]).unwrap_err();
        let ExecError::Unroutable { from, to } = err else {
            panic!("expected Unroutable, got {err:?}");
        };
        assert_ne!(from / 4, to / 4, "{from} -> {to} is inside one half");
        assert!(err.to_string().contains("no route"), "{err}");
    }

    #[test]
    fn a_machine_with_no_pes_is_unroutable() {
        let (p, _) = sum_loop_program(3);
        let mut m = TimedMachine::ideal(p, 0, Cycle(1), TimedConfig::default());
        assert_eq!(m.pes(), 0);
        assert_eq!(
            m.run(&[Value::Int(3)]).unwrap_err(),
            ExecError::Unroutable { from: 0, to: 0 }
        );
    }

    #[test]
    fn input_arity_checked() {
        let mut g = GraphBuilder::new("t");
        let x = g.param();
        let out = g.output(0);
        g.wire(x, out, 0);
        let p = g.finish_program().unwrap();
        let mut m = TimedMachine::ideal(p, 1, Cycle(1), TimedConfig::default());
        assert_eq!(
            m.run(&[]).unwrap_err(),
            ExecError::InputArity {
                expected: 1,
                got: 0
            }
        );
    }

    #[test]
    fn more_pes_scale_parallel_work() {
        // A wide program (many independent chains) should finish faster
        // on more PEs.
        let mut g = GraphBuilder::new("wide");
        let x = g.param();
        for k in 0..32u32 {
            let mut v = g.instr_lit(OpCode::Alu(AluOp::Add), 1, Value::Int(k as i64));
            g.wire(x, v, 0);
            for _ in 0..8 {
                let nx = g.instr_lit(OpCode::Alu(AluOp::Add), 1, Value::Int(1));
                g.wire(v, nx, 0);
                v = nx;
            }
            let out = g.output(k);
            g.wire(v, out, 0);
        }
        let p = g.finish_program().unwrap();
        let time = |pes: usize| {
            // Spread mapping so independent chains land on distinct PEs.
            let cfg = TimedConfig {
                mapping: MappingPolicy::Spread,
                ..TimedConfig::default()
            };
            let mut m = TimedMachine::ideal(p.clone(), pes, Cycle(1), cfg);
            m.run(&[Value::Int(0)]).unwrap().stats.cycles.as_u64()
        };
        let t1 = time(1);
        let t8 = time(8);
        assert!(t8 * 2 < t1, "8 PEs should be >2x faster: t1={t1} t8={t8}");
    }
}
