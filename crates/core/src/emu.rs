//! The fast graph interpreter (the *emulation* prong of Fig 3-1).
//!
//! The emulator executes a program in **waves**: every instruction that
//! is enabled fires simultaneously, its output tokens enabling the next
//! wave — the behaviour of an idealized machine with unbounded processing
//! elements and unit-time everything. Besides the program's results, it
//! therefore yields the *parallelism profile* (enabled instructions per
//! wave) and the *critical path* (number of waves), the two quantities
//! the paper's group built a 32–128-processor emulation facility to
//! measure for "very large application programs".
//!
//! A wave is a `Vec<Token>`: each firing appends its output tokens to
//! the next wave, and the two vectors swap when a wave ends. A firing is
//! one call of `Run::step`, the step every relaxed worker fires through
//! too, compiled once per engine for its context table and its `Host`
//! (trace target and structure store). Everything a run builds
//! (contexts, the matching store, structures, outputs, counters, the
//! wave vectors and the trace clock) lives in that run alone, as it does
//! on the relaxed and timed engines; an [`Emulator`] holds only
//! configuration.

use std::collections::HashMap;

use ttda_sim::Cycle;
use ttda_trace::{SharedSink, TraceEvent};

use crate::context::{ContextManager, ContextOps};
use crate::exec::{
    absorb, deliver, execute, load_jobs, size_hint, structure_op, IsCounts, StructAction,
    Structures,
};
use crate::graph::Program;
use crate::machine::Job;
use crate::matching::MatchingStore;
use crate::sched::{sort_by_criticality, CritMap, SchedPolicy};
use crate::tag::{ActivityName, Ctx, Token};
use crate::value::{StructRef, Value};
use crate::ExecError;

/// Everything a finished emulation run reports.
///
/// `PartialEq` compares every field; the determinism tests use it to
/// check that repeated sequential runs agree bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct EmuResult {
    /// Program outputs by slot.
    pub outputs: HashMap<u32, Value>,
    /// Total instruction firings.
    pub instructions: u64,
    /// Firings that were real ALU work (arithmetic/relational/boolean).
    pub alu_ops: u64,
    /// Critical-path length in waves (idealized time).
    pub waves: u64,
    /// Enabled-instruction count per wave — the parallelism profile.
    pub profile: Vec<usize>,
    /// Contexts allocated (loop activations + procedure calls).
    pub contexts: usize,
    /// Peak occupancy of the waiting–matching store.
    pub peak_matching: usize,
    /// Peak number of simultaneously outstanding deferred reads across
    /// all I-structures (consumers running ahead of producers).
    pub peak_deferred: usize,
    /// I-structure reads satisfied immediately, counted per reader (a
    /// fetch whose value goes to two instructions is two reads).
    pub istore_immediate: u64,
    /// I-structure reads deferred (consumer arrived before producer),
    /// counted per reader.
    pub istore_deferred: u64,
    /// I-structure writes.
    pub istore_writes: u64,
}

impl EmuResult {
    /// Average parallelism: firings / waves.
    pub fn mean_parallelism(&self) -> f64 {
        if self.waves == 0 {
            0.0
        } else {
            self.instructions as f64 / self.waves as f64
        }
    }

    /// Peak parallelism: the widest wave.
    pub fn peak_parallelism(&self) -> usize {
        self.profile.iter().copied().max().unwrap_or(0)
    }
}

/// How the emulator schedules a run. See [`Emulator::with_mode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// The single-threaded reference interpreter: the full
    /// [`EmuResult`] (wave profile, peaks, read split) is deterministic.
    Sequential,
    /// The parallel backend: no wave barrier, no ordered merge, tokens
    /// flow worker-to-worker as they are produced and waves overlap
    /// freely. Program *outputs*, instruction/ALU counts, the context
    /// count, `istore_writes`, total reads and the error discriminant
    /// match [`RunMode::Sequential`] (dataflow confluence); wave
    /// structure (`waves`, `profile`), peak occupancies and the
    /// immediate-vs-deferred read split are schedule-dependent. See
    /// `DESIGN.md` §13 for the exact guarantees.
    Relaxed,
}

/// The untimed tagged-token interpreter.
///
/// An emulator holds only its configuration: every run builds its own
/// contexts, matching store, structures and counters, so a reused
/// emulator reports what a fresh one does.
///
/// See the [crate docs](crate) for an end-to-end example.
pub struct Emulator<'p> {
    program: &'p Program,
    fuel: u64,
    loop_bound: Option<u32>,
    threads: usize,
    mode: Option<RunMode>,
    sched: SchedPolicy,
    sink: Option<SharedSink>,
}

impl std::fmt::Debug for Emulator<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Emulator")
            .field("loop_bound", &self.loop_bound)
            .field("traced", &self.sink.is_some())
            .finish_non_exhaustive()
    }
}

impl<'p> Emulator<'p> {
    /// Creates an emulator for `program` (which should have passed
    /// [`Program::validate`], as anything from
    /// [`GraphBuilder`](crate::GraphBuilder) has).
    pub fn new(program: &'p Program) -> Self {
        Emulator {
            program,
            fuel: 100_000_000,
            loop_bound: None,
            threads: 1,
            mode: None,
            sched: SchedPolicy::Fifo,
            sink: None,
        }
    }

    /// Overrides the firing budget (default 10⁸).
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// Selects the worker count: `1` (the default) runs the sequential
    /// interpreter; `n > 1` runs the relaxed parallel backend
    /// ([`RunMode::Relaxed`]) on `n` scoped worker threads with the
    /// waiting–matching store and the structure table sharded between
    /// them. `0` runs one worker, as `1` does.
    ///
    /// The relaxed backend agrees with the sequential one on outputs and
    /// the confluent counters, not on wave structure or peaks (see
    /// [`RunMode::Relaxed`]). [`with_loop_bound`] (k-bounded loops)
    /// forces the sequential backend regardless — its holding-pen
    /// scheduling is a global order-sensitive fixpoint.
    ///
    /// [`with_loop_bound`]: Emulator::with_loop_bound
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Pins the execution backend explicitly instead of deriving it from
    /// the thread count. The automatic default is
    /// [`RunMode::Sequential`] at one thread and [`RunMode::Relaxed`]
    /// above; pinning `Relaxed` at one thread runs the parallel protocol
    /// with a single worker (the `par` bench suite's overhead arm).
    ///
    /// [`with_loop_bound`](Emulator::with_loop_bound) forces the
    /// sequential interpreter regardless of the pinned mode: k-bounded
    /// scheduling is a global, order-sensitive fixpoint.
    pub fn with_mode(mut self, mode: RunMode) -> Self {
        self.mode = Some(mode);
        self
    }

    /// Selects the token scheduling policy (see [`SchedPolicy`]):
    /// [`SchedPolicy::Fifo`] (the default) fires each wave in arrival
    /// order, [`SchedPolicy::Crit`] fires greatest remaining
    /// critical-path height first, arrival order on ties.
    ///
    /// Scheduling never changes program outputs (dataflow confluence).
    /// What a policy *does* change is intra-wave firing order, which
    /// the timed machine turns into makespan (the `sched` bench suite
    /// and E23 measure it).
    pub fn with_sched(mut self, policy: SchedPolicy) -> Self {
        self.sched = policy;
        self
    }

    /// Attaches a trace sink. The emulator reports every token's emit
    /// and consume, waiting–matching traffic, wave widths, I-structure
    /// activity and the final halt; timestamps are wave indices (the
    /// idealized machine's clock).
    pub fn with_sink(mut self, sink: SharedSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Enables **k-bounded loops**: at most `k` consecutive iterations of
    /// any loop activation may be in flight at once. Tokens of iteration
    /// `i` are held back until every iteration before `i − k` has drained
    /// from the context.
    ///
    /// The paper's unbounded-iteration execution model exposes maximal
    /// parallelism but also maximal waiting–matching occupancy; bounding
    /// loops was the classic follow-on resource-management mechanism for
    /// tagged-token machines, and ablation A4 measures the trade here.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn with_loop_bound(mut self, k: u32) -> Self {
        assert!(k > 0, "loop bound must be at least 1");
        self.loop_bound = Some(k);
        self
    }

    /// Runs the program on `inputs` (one value per `main` parameter).
    ///
    /// # Errors
    ///
    /// - [`ExecError::InputArity`] for the wrong number of inputs;
    /// - [`ExecError::Type`] / [`ExecError::IStructure`] for runtime
    ///   errors (including detected write-write races);
    /// - [`ExecError::Deadlock`] if execution quiesces with tokens still
    ///   unmatched or reads still deferred;
    /// - [`ExecError::OutOfFuel`] past the firing budget.
    pub fn run(&mut self, inputs: &[Value]) -> Result<EmuResult, ExecError> {
        self.submit(&[Job::new(self.program.main, inputs.to_vec())])
    }

    /// Multiprogramming: launches a batch of independent [`Job`]s — each
    /// a code block (typically a former `main` from [`Program::merge`])
    /// with its own inputs — under fresh root contexts, and runs them to
    /// joint completion. Tagged tokens guarantee the jobs cannot
    /// interfere: their activity names differ in `u` from the first wave
    /// on. A job's `tenant` label is accounting metadata for schedulers
    /// and is ignored here; the whole batch runs under the emulator's
    /// fuel.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Emulator::run`]; `InputArity` refers to the
    /// offending job's block.
    pub fn submit(&mut self, jobs: &[Job]) -> Result<EmuResult, ExecError> {
        let threads = self.threads.max(1);
        let mode = match self.mode {
            // k-bounded scheduling is a global, order-sensitive
            // fixpoint; it always runs on the reference interpreter.
            _ if self.loop_bound.is_some() => RunMode::Sequential,
            Some(m) => m,
            None if threads > 1 => RunMode::Relaxed,
            None => RunMode::Sequential,
        };
        match mode {
            RunMode::Relaxed => crate::relaxed::submit(
                self.program,
                jobs,
                threads,
                self.fuel,
                self.sched,
                self.sink.clone(),
            ),
            RunMode::Sequential => self.run_sequential(jobs),
        }
    }

    /// One run of the reference interpreter, from fresh state.
    fn run_sequential(&self, jobs: &[Job]) -> Result<EmuResult, ExecError> {
        // Room for one activation of every job, reserved once: a short
        // run (a service burst) would otherwise spend much of its time
        // regrowing these buffers from empty.
        let hint = size_hint(self.program, jobs);
        let mut run = Run::new(
            self.program,
            ContextManager::with_capacity(self.program.main, hint),
            hint,
            Whole {
                structures: Structures::new(),
                next_struct: 0,
                istore: IsCounts::default(),
                sink: self.sink.clone(),
                now: Cycle::ZERO,
            },
        );
        // Built once per run; FIFO never consults it.
        let crit = (self.sched == SchedPolicy::Crit).then(|| CritMap::of(self.program));
        let mut wave: Vec<Token> = Vec::with_capacity(hint);
        load_jobs(
            self.program,
            jobs,
            |block| run.ctx.new_root(block),
            |t| {
                wave.push(t);
                if let Some(s) = &run.host.sink {
                    s.borrow_mut()
                        .record(run.host.now, &TraceEvent::TokenEmit { pe: 0 });
                }
            },
        )?;

        // The next wave's storage is reused wave after wave, so a
        // steady-state firing emits without allocating; so are the
        // sort keys, the holding pen and its per-context minima.
        let mut next: Vec<Token> = Vec::with_capacity(hint);
        let mut profile = Vec::with_capacity(hint);
        let mut keys: Vec<u64> = Vec::new();
        let mut held: Vec<Token> = Vec::new();
        let mut oldest: HashMap<Ctx, u32> = HashMap::new();
        let mut peak_deferred = 0usize;

        while !wave.is_empty() || !held.is_empty() {
            // k-bounded loops: a token of iteration i in context u is
            // eligible only while i is within k of the oldest live
            // iteration of u. Oldest = min over every pending place
            // (this wave, the holding pen, and the matching store).
            if let Some(k) = self.loop_bound {
                oldest.clear();
                let mut note = |tag: &ActivityName| {
                    oldest
                        .entry(tag.u)
                        .and_modify(|m| *m = (*m).min(tag.i.0))
                        .or_insert(tag.i.0);
                };
                for t in wave.iter().chain(&held) {
                    note(&t.tag);
                }
                run.waiting.for_each_key(|tag| note(&tag));
                // Deferred readers are live too: their iteration has not
                // finished until the datum arrives.
                run.host.structures.for_each_deferred(|(tag, _)| note(tag));
                let eligible = |t: &Token| t.tag.i.0 <= oldest[&t.tag.u].saturating_add(k);
                // The wave keeps its eligible tokens and gains the pen's,
                // each in order; the pen keeps its ineligible tokens and
                // gains the wave's.
                let arrived = wave.len();
                wave.extend(held.iter().filter(|t| eligible(t)).cloned());
                held.retain(|t| !eligible(t));
                held.extend(wave[..arrived].iter().filter(|t| !eligible(t)).cloned());
                wave.retain(eligible);
                if wave.is_empty() {
                    if held.is_empty() {
                        break;
                    }
                    // Nothing eligible: release the oldest held iteration
                    // to guarantee progress.
                    let min_i = held.iter().map(|t| t.tag.i.0).min().expect("nonempty");
                    wave.extend(held.iter().filter(|t| t.tag.i.0 == min_i).cloned());
                    held.retain(|t| t.tag.i.0 != min_i);
                }
            }

            // Criticality scheduling: fire the longest-remaining-path
            // tokens first. The wave *partition* is untouched (same
            // tokens, same wave), only the intra-wave order moves —
            // which is what decides transient matching occupancy and
            // the immediate-vs-deferred read split.
            if let Some(crit) = &crit {
                sort_by_criticality(&mut wave, crit, &mut keys);
            }

            let mut fired = 0usize;
            for token in &wave {
                if run.step(token.clone(), &mut next)? {
                    fired += 1;
                    if run.instructions > self.fuel {
                        return Err(ExecError::OutOfFuel);
                    }
                }
            }
            peak_deferred = peak_deferred.max(run.host.structures.deferred_outstanding());
            if fired > 0 {
                profile.push(fired);
                run.host.record(TraceEvent::WaveEnd {
                    fired: fired as u64,
                });
                run.host.now = run.host.now.saturating_add(Cycle(1));
            }
            std::mem::swap(&mut wave, &mut next);
            next.clear();
        }

        let stranded = run.waiting.len() + run.host.structures.deferred_outstanding();
        if stranded > 0 {
            return Err(ExecError::Deadlock { stranded });
        }
        // Clean quiescence: the wave and holding pen are both empty, so
        // nothing is in flight.
        run.host.record(TraceEvent::Halt { in_flight: 0 });

        Ok(EmuResult {
            outputs: run.outputs,
            instructions: run.instructions,
            alu_ops: run.alu_ops,
            waves: profile.len() as u64,
            profile,
            contexts: run.ctx.allocated(),
            // The store is fresh for every run and its occupancy only
            // rises at an insertion, where it takes its high water.
            peak_matching: run.waiting.high_water(),
            peak_deferred,
            istore_immediate: run.host.istore.immediate,
            istore_deferred: run.host.istore.deferred,
            istore_writes: run.host.istore.writes,
        })
    }
}

/// What an untimed engine supplies to [`Run::step`]: its trace target
/// and its I-structure store, which the sequential run keeps whole and
/// a relaxed worker shards. Each engine's host is a concrete type, so
/// the step is compiled once per engine and calls no function pointer.
pub(crate) trait Host {
    /// The PE label of this engine's trace events, or `None` when the
    /// run is not traced.
    fn tracing(&self) -> Option<u32>;
    /// Records `ev`; the step calls it only while [`Host::tracing`].
    fn record(&mut self, ev: TraceEvent);
    /// Creates a structure of `len` cells and returns its id.
    fn alloc(&mut self, len: u32) -> u32;
    /// Carries out a fetch or a store, emitting what it produces into
    /// `out`, or sends it where its structure is kept.
    fn apply(
        &mut self,
        program: &Program,
        action: StructAction,
        out: &mut Vec<Token>,
    ) -> Result<(), ExecError>;
}

/// The state one untimed run fires through: its matching store, its
/// context table `C`, its outputs and counters, and its engine's
/// [`Host`]. The sequential run holds one, and so does each relaxed
/// worker; both are built when a run starts and gone when it returns.
pub(crate) struct Run<'p, C, H> {
    pub(crate) program: &'p Program,
    pub(crate) waiting: MatchingStore,
    pub(crate) ctx: C,
    /// The operand set of the firing in progress (the storage is
    /// reused).
    ops: Vec<Value>,
    pub(crate) outputs: HashMap<u32, Value>,
    pub(crate) instructions: u64,
    pub(crate) alu_ops: u64,
    pub(crate) host: H,
}

impl<'p, C: ContextOps, H: Host> Run<'p, C, H> {
    /// A run with room for `hint` parked tokens and operands.
    pub(crate) fn new(program: &'p Program, ctx: C, hint: usize, host: H) -> Self {
        Run {
            program,
            waiting: MatchingStore::with_capacity(hint),
            ctx,
            ops: Vec::with_capacity(hint),
            outputs: HashMap::new(),
            instructions: 0,
            alu_ops: 0,
            host,
        }
    }

    /// The firing step of both untimed engines: absorbs `token` into the
    /// waiting–matching section and, if that enables its instruction,
    /// executes it through the shared semantics in [`crate::exec`],
    /// counts it, records its output and its trace events, and emits
    /// its tokens into `out`, the caller's next wave. Returns whether
    /// the token fired an instruction.
    #[inline]
    pub(crate) fn step(&mut self, token: Token, out: &mut Vec<Token>) -> Result<bool, ExecError> {
        let program = self.program;
        let tracing = self.host.tracing();
        let enabled = absorb(
            program,
            &mut self.waiting,
            &mut self.ctx,
            token,
            &mut self.ops,
        )?;
        if let Some(pe) = tracing {
            self.host.record(TraceEvent::TokenConsume { pe });
        }
        let Some((tag, instr)) = enabled else {
            if let Some(pe) = tracing {
                self.host.record(TraceEvent::MatchWait {
                    pe,
                    occupancy: self.waiting.len() as u64,
                });
            }
            return Ok(false);
        };
        self.instructions += 1;
        let out_before = out.len();
        let eff = execute(program, &mut self.ctx, tag, instr, &self.ops, out)?;
        if eff.is_alu {
            self.alu_ops += 1;
        }
        if let Some(pe) = tracing {
            self.host.record(TraceEvent::MatchFire {
                pe,
                alu: eff.is_alu,
                busy: 0,
            });
        }
        if let Some((slot, v)) = eff.output {
            self.outputs.insert(slot, v);
        }
        match eff.action {
            None => {}
            Some(StructAction::Alloc { tag, len }) => {
                let id = self.host.alloc(len);
                deliver(program, tag, Value::Ptr(StructRef { id, len }), out);
            }
            Some(action) => self.host.apply(program, action, out)?,
        }
        if let Some(pe) = tracing {
            for _ in out_before..out.len() {
                self.host.record(TraceEvent::TokenEmit { pe });
            }
        }
        Ok(true)
    }
}

/// The sequential run's [`Host`]: one structure store with dense ids,
/// and the session's sink, stamped with the wave index.
struct Whole {
    structures: Structures,
    /// The next structure id to allocate.
    next_struct: u32,
    istore: IsCounts,
    sink: Option<SharedSink>,
    /// Trace timestamp: the current wave index (idealized time).
    now: Cycle,
}

impl Host for Whole {
    fn tracing(&self) -> Option<u32> {
        self.sink.as_ref().map(|_| 0)
    }

    #[inline]
    fn record(&mut self, ev: TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.borrow_mut().record(self.now, &ev);
        }
    }

    fn alloc(&mut self, len: u32) -> u32 {
        let id = self.next_struct;
        self.next_struct += 1;
        self.structures.create(id, len as usize);
        id
    }

    #[inline]
    fn apply(
        &mut self,
        program: &Program,
        action: StructAction,
        out: &mut Vec<Token>,
    ) -> Result<(), ExecError> {
        let (ptr, _) = action.element();
        let mut sink = self.sink.as_ref().map(|s| s.borrow_mut());
        let trace = sink.as_deref_mut().map(|s| (s, self.now, ptr.id));
        structure_op(
            program,
            &mut self.structures,
            action,
            &mut self.istore,
            out,
            trace,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::graph::{CodeBlockId, OpCode};
    use crate::value::{AluOp, CmpOp};

    fn run(g: GraphBuilder, inputs: &[Value]) -> EmuResult {
        let p = g.finish_program().expect("build");
        Emulator::new(&p).run(inputs).expect("run")
    }

    #[test]
    fn straight_line_arithmetic() {
        let mut g = GraphBuilder::new("t");
        let a = g.param();
        let b = g.param();
        let add = g.instr(OpCode::Alu(AluOp::Add));
        let sq = g.instr(OpCode::Alu(AluOp::Mul));
        let out = g.output(0);
        g.wire(a, add, 0).wire(b, add, 1);
        g.wire(add, sq, 0).wire(add, sq, 1);
        g.wire(sq, out, 0);
        let r = run(g, &[Value::Int(3), Value::Int(4)]);
        assert_eq!(r.outputs[&0], Value::Int(49));
        assert_eq!(r.instructions, 5); // 2 params + add + mul + output
        assert_eq!(r.alu_ops, 2);
    }

    #[test]
    fn parallel_adds_show_in_profile() {
        // Eight independent additions fire in one wave.
        let mut g = GraphBuilder::new("t");
        let x = g.param();
        for k in 0..8 {
            let add = g.instr_lit(OpCode::Alu(AluOp::Add), 1, Value::Int(k));
            let out = g.output(k as u32);
            g.wire(x, add, 0);
            g.wire(add, out, 0);
        }
        let r = run(g, &[Value::Int(10)]);
        assert_eq!(r.peak_parallelism(), 8);
        assert_eq!(r.outputs.len(), 8);
        assert_eq!(r.outputs[&7], Value::Int(17));
    }

    #[test]
    fn switch_routes_by_control() {
        let build = |flag: bool| {
            let mut g = GraphBuilder::new("t");
            let x = g.param();
            let c = g.lit(Value::Bool(flag));
            g.wire(x, c, 0);
            let sw = g.instr(OpCode::Switch);
            g.wire(x, sw, 0).wire(c, sw, 1);
            let t_out = g.output(0);
            let f_out = g.output(1);
            g.wire_true(sw, t_out, 0);
            g.wire_false(sw, f_out, 0);
            run(g, &[Value::Int(5)])
        };
        let r = build(true);
        assert_eq!(r.outputs.get(&0), Some(&Value::Int(5)));
        assert_eq!(r.outputs.get(&1), None);
        let r = build(false);
        assert_eq!(r.outputs.get(&0), None);
        assert_eq!(r.outputs.get(&1), Some(&Value::Int(5)));
    }

    #[test]
    fn loop_schema_runs_many_iterations() {
        // factorial via the full D/L/Switch/DInv schema
        let mut g = GraphBuilder::new("fact");
        let n = g.param();
        let one = g.lit(Value::Int(1));
        g.wire(n, one, 0);
        let exits = g
            .dataflow_loop(
                &[one, n],
                |g, tops| {
                    let c = g.instr_lit(OpCode::Cmp(CmpOp::Gt), 1, Value::Int(1));
                    g.wire(tops[1], c, 0);
                    c
                },
                |g, vars| {
                    let acc = g.instr(OpCode::Alu(AluOp::Mul));
                    g.wire(vars[0], acc, 0);
                    g.wire(vars[1], acc, 1);
                    let m = g.instr_lit(OpCode::Alu(AluOp::Sub), 1, Value::Int(1));
                    g.wire(vars[1], m, 0);
                    vec![acc, m]
                },
            )
            .unwrap();
        let out = g.output(0);
        g.wire(exits[0], out, 0);
        let r = run(g, &[Value::Int(10)]);
        assert_eq!(r.outputs[&0], Value::Int(3_628_800));
        assert!(r.contexts >= 2, "loop allocated a context");
    }

    #[test]
    fn procedure_call_roundtrips() {
        let mut g = GraphBuilder::new("main");
        // f(x) = x * x, called on 6
        let f = {
            let f = g.begin_block("square");
            let x = g.param();
            let m = g.instr(OpCode::Alu(AluOp::Mul));
            let ret = g.instr(OpCode::Return);
            g.wire(x, m, 0).wire(x, m, 1).wire(m, ret, 0);
            f
        };
        g.select_block(CodeBlockId(0));
        let a = g.param();
        let call = g.instr(OpCode::Apply { callee: f, argc: 1 });
        let out = g.output(0);
        g.wire(a, call, 0).wire(call, out, 0);
        let r = run(g, &[Value::Int(6)]);
        assert_eq!(r.outputs[&0], Value::Int(36));
        assert_eq!(r.contexts, 3); // program root + job root + one call
    }

    #[test]
    fn recursive_procedure() {
        // fib via recursion: fib(n) = n < 2 ? n : fib(n-1)+fib(n-2)
        let mut g = GraphBuilder::new("main");
        let fb = g.begin_block("fib");
        let n = g.param();
        let isbase = g.instr_lit(OpCode::Cmp(CmpOp::Lt), 1, Value::Int(2));
        g.wire(n, isbase, 0);
        let sw = g.instr(OpCode::Switch);
        g.wire(n, sw, 0).wire(isbase, sw, 1);
        // base: return n
        let ret_base = g.instr(OpCode::Return);
        g.wire_true(sw, ret_base, 0);
        // recursive: two applies
        let n1 = g.instr_lit(OpCode::Alu(AluOp::Sub), 1, Value::Int(1));
        let n2 = g.instr_lit(OpCode::Alu(AluOp::Sub), 1, Value::Int(2));
        g.wire_false(sw, n1, 0);
        g.wire_false(sw, n2, 0);
        let c1 = g.instr(OpCode::Apply {
            callee: fb,
            argc: 1,
        });
        let c2 = g.instr(OpCode::Apply {
            callee: fb,
            argc: 1,
        });
        g.wire(n1, c1, 0).wire(n2, c2, 0);
        let add = g.instr(OpCode::Alu(AluOp::Add));
        let ret = g.instr(OpCode::Return);
        g.wire(c1, add, 0).wire(c2, add, 1).wire(add, ret, 0);

        g.select_block(CodeBlockId(0));
        let x = g.param();
        let call = g.instr(OpCode::Apply {
            callee: fb,
            argc: 1,
        });
        let out = g.output(0);
        g.wire(x, call, 0).wire(call, out, 0);

        let r = run(g, &[Value::Int(12)]);
        assert_eq!(r.outputs[&0], Value::Int(144));
        // fib spawns exponentially many contexts; parallelism shows up.
        assert!(r.peak_parallelism() > 8);
    }

    /// Allocates a one-cell structure and fetches cell 0 for `readers`
    /// outputs, while the store that fills it waits behind a chain of
    /// five `Identity`s: every reader parks before the write.
    fn late_store(readers: u32) -> crate::graph::Program {
        let mut g = GraphBuilder::new("t");
        let x = g.param();
        let size = g.lit(Value::Int(1));
        g.wire(x, size, 0);
        let alloc = g.instr(OpCode::IAlloc);
        g.wire(size, alloc, 0);
        let fetch = g.instr_lit(OpCode::IFetch, 1, Value::Int(0));
        g.wire(alloc, fetch, 0);
        for slot in 0..readers {
            let out = g.output(slot);
            g.wire(fetch, out, 0);
        }
        let mut v = x;
        for _ in 0..5 {
            let id = g.instr(OpCode::Identity);
            g.wire(v, id, 0);
            v = id;
        }
        let store = g.instr_lit(OpCode::IStore, 1, Value::Int(0));
        g.wire(alloc, store, 0);
        g.wire(v, store, 2);
        let sink = g.instr(OpCode::Sink);
        g.wire(store, sink, 0);
        g.finish_program().expect("build")
    }

    /// Runs `p` on 99 with a counting sink attached.
    fn counted(p: &crate::graph::Program) -> (EmuResult, ttda_trace::SharedSink) {
        let sink = ttda_trace::shared(ttda_trace::CountingSink::new());
        let r = Emulator::new(p)
            .with_sink(sink.clone())
            .run(&[Value::Int(99)])
            .expect("run");
        (r, sink)
    }

    #[test]
    fn istructure_producer_consumer_defers() {
        // The fetch arrives before the store; the deferred read must
        // still deliver.
        let r = Emulator::new(&late_store(1))
            .run(&[Value::Int(99)])
            .expect("run");
        assert_eq!(r.outputs[&0], Value::Int(99));
        assert_eq!(r.istore_deferred, 1, "the fetch must have been deferred");
        assert_eq!(r.istore_writes, 1);
    }

    #[test]
    fn sink_sees_a_conserved_token_ledger() {
        use ttda_trace::CountingSink;

        // Same producer/consumer graph as above, but traced: every token
        // the emulator creates must be consumed by halt, the deferred
        // read must appear and drain, and the fire count must match the
        // instruction count.
        let (r, sink) = counted(&late_store(1));
        let s = sink.borrow();
        let c = s.as_any().downcast_ref::<CountingSink>().unwrap();
        assert!(
            c.token_conservation_holds(),
            "emitted {} consumed {}",
            c.tokens_emitted(),
            c.tokens_consumed()
        );
        assert!(c.quiescent(), "deferred reads must drain by halt");
        let m = c.metrics();
        assert_eq!(m.counter_value("match_fire"), r.instructions);
        assert_eq!(m.counter_value("istore_read"), 1);
        assert_eq!(m.counter_value("istore_write"), 1);
        assert_eq!(m.counter_value("defer_enqueue"), 1);
        assert_eq!(m.counter_value("defer_release"), 1);
    }

    #[test]
    fn sink_sees_every_presence_transition_of_a_shared_cell() {
        use ttda_trace::CountingSink;

        // Two readers of one fetch park on the cell before its write: the
        // first turns it from empty to deferred, the second only deepens
        // its list, and the write turns it present and releases both.
        let (r, sink) = counted(&late_store(2));
        assert_eq!(r.outputs[&0], Value::Int(99));
        assert_eq!(r.outputs[&1], Value::Int(99));
        assert_eq!(r.istore_deferred, 2);
        let s = sink.borrow();
        let c = s.as_any().downcast_ref::<CountingSink>().unwrap();
        assert_eq!(c.metrics().counter_value("presence"), 2);
        assert_eq!(c.peak_defer_depth(), 2);
        assert_eq!(c.deferred_outstanding(), 0);
        assert!(c.quiescent());
    }

    #[test]
    fn write_write_race_is_detected() {
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
        let err = Emulator::new(&p).run(&[Value::Int(1)]).unwrap_err();
        assert!(matches!(err, ExecError::IStructure(_)));
    }

    #[test]
    fn deadlock_reported_for_missing_operand() {
        let mut g = GraphBuilder::new("t");
        let x = g.param();
        let add = g.instr(OpCode::Alu(AluOp::Add)); // port 1 never arrives
        let out = g.output(0);
        g.wire(x, add, 0).wire(add, out, 0);
        let p = g.finish_program().unwrap();
        let err = Emulator::new(&p).run(&[Value::Int(1)]).unwrap_err();
        assert_eq!(err, ExecError::Deadlock { stranded: 1 });
    }

    #[test]
    fn input_arity_checked() {
        let mut g = GraphBuilder::new("t");
        let x = g.param();
        let out = g.output(0);
        g.wire(x, out, 0);
        let p = g.finish_program().unwrap();
        let err = Emulator::new(&p).run(&[]).unwrap_err();
        assert_eq!(
            err,
            ExecError::InputArity {
                expected: 1,
                got: 0
            }
        );
    }

    #[test]
    fn fuel_limit_enforced() {
        // Infinite loop: always-true predicate.
        let mut g = GraphBuilder::new("t");
        let n = g.param();
        let _ = g
            .dataflow_loop(
                &[n],
                |g, tops| {
                    let c = g.instr_lit(OpCode::Cmp(CmpOp::Ge), 1, Value::Int(0));
                    g.wire(tops[0], c, 0);
                    c
                },
                |g, vars| {
                    let inc = g.instr_lit(OpCode::Alu(AluOp::Add), 1, Value::Int(1));
                    g.wire(vars[0], inc, 0);
                    vec![inc]
                },
            )
            .unwrap();
        let p = g.finish_program().unwrap();
        let err = Emulator::new(&p)
            .with_fuel(10_000)
            .run(&[Value::Int(0)])
            .unwrap_err();
        assert_eq!(err, ExecError::OutOfFuel);
    }

    #[test]
    fn type_error_surfaces() {
        let mut g = GraphBuilder::new("t");
        let x = g.param();
        let not = g.instr(OpCode::Not);
        let out = g.output(0);
        g.wire(x, not, 0).wire(not, out, 0);
        let p = g.finish_program().unwrap();
        let err = Emulator::new(&p).run(&[Value::Int(3)]).unwrap_err();
        assert!(matches!(err, ExecError::Type(_)));
        assert!(err.to_string().contains("boolean"));
    }

    #[test]
    fn zero_threads_run_one_worker() {
        let mut g = GraphBuilder::new("t");
        let x = g.param();
        let out = g.output(0);
        g.wire(x, out, 0);
        let p = g.finish_program().unwrap();
        let run = |mut e: Emulator| e.run(&[Value::Int(7)]).unwrap();
        let seq = run(Emulator::new(&p).with_threads(0));
        assert_eq!(seq, run(Emulator::new(&p)));
        assert_eq!(
            seq.waves, 2,
            "left to choose, zero runs the sequential engine"
        );
        let one = |t| {
            run(Emulator::new(&p)
                .with_threads(t)
                .with_mode(RunMode::Relaxed))
        };
        assert_eq!(one(0), one(1), "pinned to relaxed, zero runs one worker");
    }

    #[test]
    fn nested_loops_multiply() {
        // sum_{i=1..=3} sum_{j=1..=4} 1  == 12
        let mut g = GraphBuilder::new("t");
        let trig = g.param();
        let zero = g.lit(Value::Int(0));
        let one_i = g.lit(Value::Int(1));
        g.wire(trig, zero, 0);
        g.wire(trig, one_i, 0);
        let exits = g
            .dataflow_loop(
                &[zero, one_i],
                |g, tops| {
                    let c = g.instr_lit(OpCode::Cmp(CmpOp::Le), 1, Value::Int(3));
                    g.wire(tops[1], c, 0);
                    c
                },
                |g, vars| {
                    // inner loop: add 1 four times to the accumulator
                    let one_j = g.lit(Value::Int(1));
                    g.wire(vars[1], one_j, 0);
                    let inner = g
                        .dataflow_loop(
                            &[vars[0], one_j],
                            |g, tops| {
                                let c = g.instr_lit(OpCode::Cmp(CmpOp::Le), 1, Value::Int(4));
                                g.wire(tops[1], c, 0);
                                c
                            },
                            |g, ivars| {
                                let acc = g.instr_lit(OpCode::Alu(AluOp::Add), 1, Value::Int(1));
                                g.wire(ivars[0], acc, 0);
                                let j = g.instr_lit(OpCode::Alu(AluOp::Add), 1, Value::Int(1));
                                g.wire(ivars[1], j, 0);
                                vec![acc, j]
                            },
                        )
                        .unwrap();
                    let i = g.instr_lit(OpCode::Alu(AluOp::Add), 1, Value::Int(1));
                    g.wire(vars[1], i, 0);
                    vec![inner[0], i]
                },
            )
            .unwrap();
        let out = g.output(0);
        g.wire(exits[0], out, 0);
        let r = run(g, &[Value::Unit]);
        assert_eq!(r.outputs[&0], Value::Int(12));
    }
}

#[cfg(test)]
mod loop_bound_tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::graph::OpCode;
    use crate::value::{AluOp, CmpOp};

    /// A counting loop whose iterations are coupled only by the control
    /// ring — the shape whose in-flight iteration count k-bounding
    /// exists to control.
    fn wide_loop() -> crate::graph::Program {
        let mut g = GraphBuilder::new("sum");
        let n_node = g.param();
        let zero = g.lit(Value::Int(0));
        let one = g.lit(Value::Int(1));
        g.wire(n_node, zero, 0);
        g.wire(n_node, one, 0);
        let exits = g
            .dataflow_loop(
                &[zero, one, n_node],
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
        g.finish_program().unwrap()
    }

    #[test]
    fn bounded_loops_compute_the_same_answers() {
        let p = wide_loop();
        let want = Emulator::new(&p).run(&[Value::Int(50)]).unwrap().outputs[&0];
        for k in [1u32, 2, 4, 16, 1000] {
            let r = Emulator::new(&p)
                .with_loop_bound(k)
                .run(&[Value::Int(50)])
                .unwrap();
            assert_eq!(r.outputs[&0], want, "k={k}");
        }
    }

    #[test]
    fn tighter_bounds_lower_matching_occupancy() {
        let p = wide_loop();
        let run = |k: Option<u32>| {
            let mut e = Emulator::new(&p);
            if let Some(k) = k {
                e = e.with_loop_bound(k);
            }
            e.run(&[Value::Int(60)]).unwrap()
        };
        let unbounded = run(None);
        let k2 = run(Some(2));
        assert!(
            k2.peak_matching <= unbounded.peak_matching,
            "k=2 peak {} vs unbounded {}",
            k2.peak_matching,
            unbounded.peak_matching
        );
        // Bounding cannot shorten the critical path.
        assert!(k2.waves >= unbounded.waves);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_bound_panics() {
        let p = wide_loop();
        let _ = Emulator::new(&p).with_loop_bound(0);
    }
}
