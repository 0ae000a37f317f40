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

use std::collections::HashMap;

use ttda_mem::Addr;
use ttda_sim::Cycle;
use ttda_trace::{SharedSink, TraceEvent};

use crate::context::ContextManager;
use crate::exec::{
    deliver, execute, load_jobs, structure_op, Enabled, IsCounts, StructAction, Structures,
};
use crate::graph::{Instruction, Program};
use crate::matching::MatchingStore;
use crate::sched::{CritMap, SchedPolicy};
use crate::tag::{ActivityName, Token};
use crate::value::{StructRef, Value};
use crate::wave::Wave;
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
/// See the [crate docs](crate) for an end-to-end example.
pub struct Emulator<'p> {
    program: &'p Program,
    ctx: ContextManager,
    waiting: MatchingStore,
    structures: Structures,
    /// The next structure id to allocate.
    next_struct: u32,
    outputs: HashMap<u32, Value>,
    fuel: u64,
    loop_bound: Option<u32>,
    threads: usize,
    mode: Option<RunMode>,
    sched: SchedPolicy,
    instructions: u64,
    alu_ops: u64,
    peak_matching: usize,
    istore: IsCounts,
    sink: Option<SharedSink>,
    /// Trace timestamp: the current wave index (idealized time).
    now: Cycle,
    /// Whether a sequential run has used the per-run state above, so
    /// that the next one must clear it first.
    ran: bool,
}

impl std::fmt::Debug for Emulator<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Emulator")
            .field("instructions", &self.instructions)
            .field("waiting", &self.waiting.len())
            .field("structures", &self.next_struct)
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
            ctx: ContextManager::new(program.main),
            waiting: MatchingStore::new(),
            structures: Structures::new(),
            next_struct: 0,
            outputs: HashMap::new(),
            fuel: 100_000_000,
            loop_bound: None,
            threads: 1,
            mode: None,
            sched: SchedPolicy::Fifo,
            instructions: 0,
            alu_ops: 0,
            peak_matching: 0,
            istore: IsCounts::default(),
            sink: None,
            now: Cycle::ZERO,
            ran: false,
        }
    }

    /// Clears everything a run leaves behind — contexts, parked tokens,
    /// structures, outputs, counters, peaks and the trace clock — and
    /// keeps the configuration.
    fn reset(&mut self) {
        self.ctx = ContextManager::new(self.program.main);
        self.waiting = MatchingStore::new();
        self.structures = Structures::new();
        self.next_struct = 0;
        self.outputs.clear();
        self.instructions = 0;
        self.alu_ops = 0;
        self.peak_matching = 0;
        self.istore = IsCounts::default();
        self.now = Cycle::ZERO;
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
    /// them; `0` means one worker per available core.
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

    /// The resolved worker count: `0` → available cores.
    fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(usize::from)
                .unwrap_or(1)
        } else {
            self.threads
        }
    }

    /// Attaches a trace sink. The emulator reports every token's emit
    /// and consume, waiting–matching traffic, wave widths, I-structure
    /// activity and the final halt; timestamps are wave indices (the
    /// idealized machine's clock).
    pub fn with_sink(mut self, sink: SharedSink) -> Self {
        self.sink = Some(sink);
        self
    }

    #[inline]
    fn trace(&self, ev: TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.borrow_mut().record(self.now, &ev);
        }
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
        self.submit(&[crate::machine::Job::new(self.program.main, inputs.to_vec())])
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
    ///
    /// [`Job`]: crate::machine::Job
    pub fn submit(&mut self, jobs: &[crate::machine::Job]) -> Result<EmuResult, ExecError> {
        let threads = self.effective_threads();
        let mode = match self.mode {
            // k-bounded scheduling is a global, order-sensitive
            // fixpoint; it always runs on the reference interpreter.
            _ if self.loop_bound.is_some() => RunMode::Sequential,
            Some(m) => m,
            None if threads > 1 => RunMode::Relaxed,
            None => RunMode::Sequential,
        };
        if mode == RunMode::Relaxed {
            return crate::relaxed::submit(
                self.program,
                jobs,
                threads,
                self.fuel,
                self.sched,
                self.sink.clone(),
            );
        }
        // Every run starts fresh, as a relaxed or timed one does.
        if std::mem::replace(&mut self.ran, true) {
            self.reset();
        }
        // Built once per run; FIFO never consults it.
        let crit = (self.sched == SchedPolicy::Crit).then(|| CritMap::of(self.program));
        let mut wave = Wave::new();
        let ctx = &mut self.ctx;
        load_jobs(
            self.program,
            jobs,
            |block| ctx.new_root(block),
            |t| {
                wave.push_token(t);
                if let Some(s) = &self.sink {
                    s.borrow_mut()
                        .record(self.now, &TraceEvent::TokenEmit { pe: 0 });
                }
            },
        )?;

        // The next wave's storage is reused wave after wave, so a
        // steady-state firing emits without allocating.
        let mut next = Wave::new();
        // One operand buffer serves every firing of the run.
        let mut ops: Vec<Value> = Vec::new();
        let mut profile = Vec::new();
        let mut held: Vec<Token> = Vec::new();
        let mut peak_deferred = 0usize;

        while !wave.is_empty() || !held.is_empty() {
            // k-bounded loops: a token of iteration i in context u is
            // eligible only while i is within k of the oldest live
            // iteration of u. Oldest = min over every pending place
            // (this wave, the holding pen, and the matching store).
            if let Some(k) = self.loop_bound {
                let mut oldest: HashMap<crate::tag::Ctx, u32> = HashMap::new();
                let mut note = |tag: &ActivityName| {
                    oldest
                        .entry(tag.u)
                        .and_modify(|m| *m = (*m).min(tag.i.0))
                        .or_insert(tag.i.0);
                };
                for tag in wave.tags() {
                    note(tag);
                }
                for t in held.iter() {
                    note(&t.tag);
                }
                self.waiting.for_each_key(|tag| note(&tag));
                // Deferred readers are live too: their iteration has not
                // finished until the datum arrives.
                self.structures.for_each_deferred(|(tag, _)| note(tag));
                let eligible = |tag: &ActivityName| tag.i.0 <= oldest[&tag.u].saturating_add(k);
                wave.retain_or_spill(&eligible, &mut held);
                let mut released: Vec<Token> = Vec::new();
                held.retain(|t| {
                    if eligible(&t.tag) {
                        released.push(t.clone());
                        false
                    } else {
                        true
                    }
                });
                wave.extend_tokens(released);
                if wave.is_empty() {
                    if held.is_empty() {
                        break;
                    }
                    // Nothing eligible: release the oldest held iteration
                    // to guarantee progress.
                    let min_i = held.iter().map(|t| t.tag.i.0).min().expect("nonempty");
                    let mut released: Vec<Token> = Vec::new();
                    held.retain(|t| {
                        if t.tag.i.0 == min_i {
                            released.push(t.clone());
                            false
                        } else {
                            true
                        }
                    });
                    wave.extend_tokens(released);
                }
            }

            // Criticality scheduling: fire the longest-remaining-path
            // tokens first. The wave *partition* is untouched (same
            // tokens, same wave), only the intra-wave order moves —
            // which is what decides transient matching occupancy and
            // the immediate-vs-deferred read split.
            if let Some(crit) = &crit {
                wave.sort_by_criticality(crit);
            }

            let mut fired = 0usize;
            for i in 0..wave.len() {
                if let Some((tag, instr)) = self.absorb(wave.token(i), &mut ops)? {
                    fired += 1;
                    self.fire(tag, &ops, instr, &mut next)?;
                    if self.instructions > self.fuel {
                        return Err(ExecError::OutOfFuel);
                    }
                }
            }
            self.peak_matching = self.peak_matching.max(self.waiting.len());
            peak_deferred = peak_deferred.max(self.structures.deferred_outstanding());
            if fired > 0 {
                profile.push(fired);
                self.trace(TraceEvent::WaveEnd {
                    fired: fired as u64,
                });
                self.now = self.now.saturating_add(Cycle(1));
            }
            std::mem::swap(&mut wave, &mut next);
            next.clear();
        }

        let stranded = self.waiting.len() + self.structures.deferred_outstanding();
        if stranded > 0 {
            return Err(ExecError::Deadlock { stranded });
        }
        // Clean quiescence: the wave and holding pen are both empty, so
        // nothing is in flight.
        self.trace(TraceEvent::Halt { in_flight: 0 });

        Ok(EmuResult {
            outputs: self.outputs.clone(),
            instructions: self.instructions,
            alu_ops: self.alu_ops,
            waves: profile.len() as u64,
            profile,
            contexts: self.ctx.allocated(),
            peak_matching: self.peak_matching,
            peak_deferred,
            istore_immediate: self.istore.immediate,
            istore_deferred: self.istore.deferred,
            istore_writes: self.istore.writes,
        })
    }

    /// The waiting–matching section: inserts a token; writes the full
    /// operand set into `ops` and returns the instruction when it
    /// becomes enabled.
    fn absorb(
        &mut self,
        token: Token,
        ops: &mut Vec<Value>,
    ) -> Result<Option<Enabled<'p>>, ExecError> {
        let r = crate::exec::absorb(self.program, &mut self.waiting, &mut self.ctx, token, ops)?;
        self.peak_matching = self.peak_matching.max(self.waiting.len());
        if self.sink.is_some() {
            self.trace(TraceEvent::TokenConsume { pe: 0 });
            if r.is_none() {
                self.trace(TraceEvent::MatchWait {
                    pe: 0,
                    occupancy: self.waiting.len() as u64,
                });
            }
        }
        Ok(r)
    }

    /// The instruction-fetch + ALU + output sections: executes one
    /// enabled instruction via the shared semantics in [`crate::exec`],
    /// emitting straight into the next wave and applying I-structure
    /// actions inline.
    fn fire(
        &mut self,
        tag: ActivityName,
        ops: &[Value],
        instr: &Instruction,
        out: &mut Wave,
    ) -> Result<(), ExecError> {
        self.instructions += 1;
        let out_before = out.len();
        let eff = execute(self.program, &mut self.ctx, tag, instr, ops, out)?;
        if eff.is_alu {
            self.alu_ops += 1;
        }
        self.trace(TraceEvent::MatchFire {
            pe: 0,
            alu: eff.is_alu,
            busy: 0,
        });
        if let Some((slot, v)) = eff.output {
            self.outputs.insert(slot, v);
        }
        match eff.action {
            None => {}
            Some(StructAction::Alloc { tag, len }) => {
                let id = self.next_struct;
                self.next_struct += 1;
                self.structures.create(id, len as usize);
                deliver(self.program, tag, Value::Ptr(StructRef { id, len }), out);
            }
            Some(action) => {
                let (ptr, idx) = action.element();
                let mut sink = self.sink.as_ref().map(|s| s.borrow_mut());
                let trace = sink.as_deref_mut().map(|s| (s, self.now, ptr.id));
                structure_op(
                    self.program,
                    &mut self.structures,
                    action,
                    Addr(idx),
                    &mut self.istore,
                    out,
                    trace,
                )?;
            }
        }
        if self.sink.is_some() {
            for _ in out_before..out.len() {
                self.trace(TraceEvent::TokenEmit { pe: 0 });
            }
        }
        Ok(())
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

    #[test]
    fn istructure_producer_consumer_defers() {
        // Alloc a[1]; fetch a[0] *before* storing it; the deferred read
        // must still deliver.
        let mut g = GraphBuilder::new("t");
        let x = g.param();
        let size = g.lit(Value::Int(1));
        g.wire(x, size, 0);
        let alloc = g.instr(OpCode::IAlloc);
        g.wire(size, alloc, 0);
        // Fetch immediately (producer delayed through a chain of 5 ids).
        let fetch = g.instr_lit(OpCode::IFetch, 1, Value::Int(0));
        g.wire(alloc, fetch, 0);
        let out = g.output(0);
        g.wire(fetch, out, 0);
        // Slow producer path.
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

        let r = run(g, &[Value::Int(99)]);
        assert_eq!(r.outputs[&0], Value::Int(99));
        assert_eq!(r.istore_deferred, 1, "the fetch must have been deferred");
        assert_eq!(r.istore_writes, 1);
    }

    #[test]
    fn sink_sees_a_conserved_token_ledger() {
        use ttda_trace::{shared, CountingSink};

        // Same producer/consumer graph as above, but traced: every token
        // the emulator creates must be consumed by halt, the deferred
        // read must appear and drain, and the fire count must match the
        // instruction count.
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
        for _ in 0..5 {
            let id = g.instr(OpCode::Identity);
            g.wire(v, id, 0);
            v = id;
        }
        let store = g.instr_lit(OpCode::IStore, 1, Value::Int(0));
        g.wire(alloc, store, 0);
        g.wire(v, store, 2);
        let snk = g.instr(OpCode::Sink);
        g.wire(store, snk, 0);
        let p = g.finish_program().expect("build");

        let sink = shared(CountingSink::new());
        let r = Emulator::new(&p)
            .with_sink(sink.clone())
            .run(&[Value::Int(99)])
            .expect("run");
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
