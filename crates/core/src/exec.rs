//! Shared operational semantics for all three executors.
//!
//! [`execute`] implements the instruction-fetch + ALU + output-section
//! behaviour of one enabled instruction, *independent of timing*: it
//! appends the output tokens to the executor's token vector and returns
//! any I-structure action to perform. [`structure_op`] is the one
//! I-structure controller (§2.1, Fig 2-1) that applies a fetch or a
//! store, and [`load_jobs`] is the one loader that seeds a batch of
//! jobs. The engines differ only in *where* and *when* they call them:
//! the sequential [`Emulator`](crate::Emulator) emits straight into its
//! next wave and applies structure ops inline; the relaxed parallel
//! backend ships each op to the worker whose shard owns the structure;
//! the [`TimedMachine`](crate::TimedMachine) turns it into a `d=1`
//! packet that travels the network to the I-structure module serving
//! the element, and applies it at that module's port time. The
//! sequential and timed engines keep the same two stores, one
//! [`MatchingStore`] and one [`Structures`] per run, and address a
//! structure by the element index. Keeping one copy of the semantics
//! and of the state guarantees the executors can never disagree on
//! *what* a program computes, only on *when*.
//!
//! # The firing path does not allocate
//!
//! [`absorb`] hands back the `&Instruction` it looked up, so nothing is
//! looked up twice or cloned, and writes the operand set into a buffer
//! the executor reuses. [`execute`] emits tokens in place, and the
//! [`Effect`] it returns is `Copy`. A [`StructAction`] names the firing
//! that asked for it, not a list of readers: [`structure_op`] expands
//! the readers from the program with [`continuation`]. Context records
//! are `Copy` and name the caller's `Apply` instead of copying its
//! destinations. Errors build their messages only when they occur.
//! With an output vector whose storage is reused across firings, a
//! steady-state firing therefore touches no heap at all
//! (`tests/alloc_free.rs` pins this).

use ttda_mem::{Addr, IStructureError, IStructureShard, ReadOutcome};
use ttda_sim::Cycle;
use ttda_trace::{PresenceState, TraceEvent, TraceSink};

use crate::context::{ContextKind, ContextOps};
use crate::graph::{CodeBlockId, Dest, DestBranch, Instruction, OpCode, Program, MAX_LOOP_CONSTS};
use crate::machine::Job;
use crate::matching::{MatchingStore, PortOutOfRange, Preset};
use crate::tag::{ActivityName, Ctx, Iter, Port, Token};
use crate::value::{as_bool, as_int, as_ptr, StructRef, Value};
use crate::ExecError;

/// An I-structure operation requested by the firing `tag`. The value it
/// produces goes to that instruction's [`continuation`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum StructAction {
    /// Allocate `len` cells; send the pointer on.
    Alloc {
        /// The requesting firing.
        tag: ActivityName,
        /// Element count (what a [`StructRef`] can record).
        len: u32,
    },
    /// Fetch element `idx` of `ptr` (possibly deferred).
    Fetch {
        /// The requesting firing.
        tag: ActivityName,
        /// The structure.
        ptr: StructRef,
        /// Element index.
        idx: usize,
    },
    /// Store `value` at element `idx` of `ptr`; then signal completion.
    Store {
        /// The requesting firing.
        tag: ActivityName,
        /// The structure.
        ptr: StructRef,
        /// Element index.
        idx: usize,
        /// The element value.
        value: Value,
    },
}

impl StructAction {
    /// The structure and element index a fetch or store names.
    pub(crate) fn element(self) -> (StructRef, usize) {
        match self {
            StructAction::Fetch { ptr, idx, .. } | StructAction::Store { ptr, idx, .. } => {
                (ptr, idx)
            }
            StructAction::Alloc { .. } => unreachable!("an allocation names no element"),
        }
    }
}

/// Everything one firing produces besides its tokens.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Effect {
    /// At most one structure (`d=1`) action.
    pub action: Option<StructAction>,
    /// A program output, if the instruction was `Output`.
    pub output: Option<(u32, Value)>,
    /// Whether this firing counts as ALU work.
    pub is_alu: bool,
}

// `execute` calls it on nearly every firing and is inlined into each
// engine's crate; without the hint this, like `deliver`, stayed a call
// back into ttda-core.
#[inline]
fn retag(tag: ActivityName, dests: &[Dest], want: DestBranch, value: Value, out: &mut Vec<Token>) {
    for d in dests {
        if d.when == want {
            let target = ActivityName { s: d.instr, ..tag };
            out.push(Token::new(target, d.port, value));
        }
    }
}

/// The fully tagged token slots that a value produced for the firing
/// `tag` goes to: the `Always` destinations of its instruction, in
/// program order. Empty for a tag that names no instruction.
pub(crate) fn continuation(
    program: &Program,
    tag: ActivityName,
) -> impl Iterator<Item = (ActivityName, Port)> + '_ {
    program
        .block(tag.c)
        .and_then(|b| b.instr(tag.s))
        .into_iter()
        .flat_map(|i| &i.dests)
        .filter(|d| d.when == DestBranch::Always)
        .map(move |d| (ActivityName { s: d.instr, ..tag }, d.port))
}

/// Sends `value` to every slot of the firing `tag`'s [`continuation`].
#[inline]
pub(crate) fn deliver(program: &Program, tag: ActivityName, value: Value, out: &mut Vec<Token>) {
    for (rtag, port) in continuation(program, tag) {
        out.push(Token::new(rtag, port, value));
    }
}

fn bad_target(tag: ActivityName) -> ExecError {
    ExecError::BadTarget {
        activity: tag.to_string(),
    }
}

/// The error for a structure operation through a pointer no shard or
/// store knows.
pub(crate) fn dangling(tag: ActivityName, ptr: StructRef) -> ExecError {
    ExecError::BadTarget {
        activity: format!("{tag} (dangling {ptr:?})"),
    }
}

/// The error for element `idx` of `ptr` lying past the end of its
/// structure. It names the pointer's length, which is the structure's
/// own unless the pointer was forged.
pub(crate) fn out_of_range(ptr: StructRef, idx: usize) -> ExecError {
    ExecError::IStructure(IStructureError::OutOfRange {
        addr: Addr(idx),
        size: ptr.len as usize,
    })
}

/// Element `idx` of `ptr`, checked against both ends of the structure
/// here, once, so that every engine reports the same error.
fn element_index(tag: ActivityName, ptr: StructRef, idx: i64) -> Result<usize, ExecError> {
    let idx = usize::try_from(idx).map_err(|_| ExecError::BadTarget {
        activity: format!("{tag} (negative i-structure index {idx})"),
    })?;
    if idx < ptr.len as usize {
        Ok(idx)
    } else {
        Err(out_of_range(ptr, idx))
    }
}

/// The constants of the token's activation that `instr` reads, checked
/// against every slot it names.
fn constants_for<'c, C: ContextOps>(
    ctx: &'c mut C,
    tag: ActivityName,
    instr: &Instruction,
) -> Result<&'c [Value], ExecError> {
    let values = ctx.constants(tag.u);
    if instr
        .consts
        .iter()
        .all(|&(_, slot)| (slot as usize) < values.len())
    {
        Ok(values)
    } else {
        Err(ExecError::BadTarget {
            activity: format!("{tag} (no such loop constant)"),
        })
    }
}

/// The waiting–matching section, shared by every executor: inserts a
/// token into `waiting`; when the target instruction becomes enabled,
/// writes its complete operand set, in port order, into `ops` and
/// returns the firing's activity name and instruction. An instruction that needs exactly one token
/// (`nt = 1`) never touches the store, as in Fig 2-3: its operands are
/// the token, its literal and its loop constants, read from `ctx` for
/// the token's activation.
// Inlined for the reason `execute` is: out of line, the enabled firing
// came back through memory and the caller's reload stalled (2.9% of
// `emu-matmul` samples once `execute` was inlined; inlining this too cut
// `run_ms_best5` by a further 7%, lower in 9 of 10 pairs).
#[inline]
pub(crate) fn absorb<'p, C: ContextOps>(
    program: &'p Program,
    waiting: &mut MatchingStore,
    ctx: &mut C,
    token: Token,
    ops: &mut Vec<Value>,
) -> Result<Option<(ActivityName, &'p Instruction)>, ExecError> {
    let tag = token.tag;
    let instr = program
        .block(tag.c)
        .and_then(|b| b.instr(tag.s))
        .ok_or_else(|| bad_target(tag))?;
    let arity = instr.op.arity();

    if instr.nt <= 1 {
        ops.clear();
        if arity <= 1 {
            ops.push(token.value);
        } else {
            if token.port.0 >= arity {
                return Err(bad_target(tag));
            }
            ops.resize(arity as usize, Value::Unit);
            ops[token.port.0 as usize] = token.value;
        }
        if let Some((p, lv)) = instr.literal {
            if let Some(o) = ops.get_mut(p.0 as usize) {
                *o = lv;
            }
        }
        if !instr.consts.is_empty() {
            let values = constants_for(ctx, tag, instr)?;
            for &(p, slot) in &instr.consts {
                if let Some(o) = ops.get_mut(p.0 as usize) {
                    *o = values[slot as usize];
                }
            }
        }
        return Ok(Some((tag, instr)));
    }

    let values = if instr.consts.is_empty() {
        &[]
    } else {
        constants_for(ctx, tag, instr)?
    };
    let preset = Preset {
        literal: instr.literal,
        consts: &instr.consts,
        values,
    };
    match waiting.absorb(tag, arity, &preset, token.port, token.value, ops) {
        Ok(true) => Ok(Some((tag, instr))),
        Ok(false) => Ok(None),
        Err(PortOutOfRange) => Err(bad_target(tag)),
    }
}

/// Executes one enabled instruction, appending its output tokens to
/// `out`. See the module docs. No token is emitted by a firing that
/// fails; an executor that needs the emit count (the timed machine
/// charges output time per token) compares lengths before and after.
///
/// Only the loop entries (`D`, `DGated`, `LoopEntry`) and `Apply`
/// *mutate* the context table (entering a loop or a call); `DInv` and
/// `Return` read the records of contexts created by strictly earlier
/// firings. On the parallel backend workers execute
/// every opcode, drawing ids from leased blocks of a
/// [`crate::context::SharedContexts`] table — context id *values* then
/// differ from a sequential run, but they never escape an
/// [`EmuResult`](crate::EmuResult) (`contexts` is the semantic
/// allocation count, kept exact by each worker's loop memo).
// Inlined into each engine's loop, the `Result<Effect, _>` stays in
// registers. Out of line it went through memory: the 80-byte value,
// stored field by field here and reloaded whole by the caller, stalled
// store forwarding on every firing (14% of `emu-matmul` samples; the
// inlining alone cut its `run_ms_best5` by 7%). Plain `#[inline]`
// inlines it into all three engines. `#[inline(always)]` bought nothing
// measurable over it (3 s runs, 4–6 pairs: emu-matmul −5%,
// relaxed-matmul 0%, timed-fib +5%), so the weaker hint stays.
#[inline]
pub(crate) fn execute<C: ContextOps>(
    program: &Program,
    ctx: &mut C,
    tag: ActivityName,
    instr: &Instruction,
    ops: &[Value],
    out: &mut Vec<Token>,
) -> Result<Effect, ExecError> {
    let mut eff = Effect {
        is_alu: instr.op.is_alu_work(),
        ..Effect::default()
    };
    let dests = &instr.dests;
    let always = DestBranch::Always;
    match &instr.op {
        OpCode::Identity => retag(tag, dests, always, ops[0], out),
        OpCode::Const(v) => retag(tag, dests, always, *v, out),
        OpCode::Alu(op) => retag(tag, dests, always, op.apply(&ops[0], &ops[1])?, out),
        OpCode::Cmp(op) => retag(tag, dests, always, op.apply(&ops[0], &ops[1])?, out),
        OpCode::Not => {
            let v = Value::Bool(!as_bool(&ops[0])?);
            retag(tag, dests, always, v, out);
        }
        OpCode::And => {
            let v = Value::Bool(as_bool(&ops[0])? && as_bool(&ops[1])?);
            retag(tag, dests, always, v, out);
        }
        OpCode::Or => {
            let v = Value::Bool(as_bool(&ops[0])? || as_bool(&ops[1])?);
            retag(tag, dests, always, v, out);
        }
        OpCode::Switch => {
            let want = if as_bool(&ops[1])? {
                DestBranch::IfTrue
            } else {
                DestBranch::IfFalse
            };
            retag(tag, dests, want, ops[0], out);
        }
        OpCode::D { loop_id } | OpCode::DGated { loop_id } => {
            let inner = ctx.enter_loop(tag.u, tag.i, *loop_id, tag.c, &[]);
            let ntag = ActivityName {
                u: inner,
                i: Iter::ONE,
                ..tag
            };
            retag(ntag, dests, always, ops[0], out);
        }
        OpCode::LoopEntry { loop_id, .. } => {
            // Every token of the activation descends from this firing's
            // release tokens, so the constants are in place before any
            // reader can look for them (DESIGN.md §18).
            if ops.len() > MAX_LOOP_CONSTS {
                return Err(ExecError::BadTarget {
                    activity: format!("{tag} (more than {MAX_LOOP_CONSTS} loop constants)"),
                });
            }
            ctx.enter_loop(tag.u, tag.i, *loop_id, tag.c, ops);
            retag(tag, dests, always, Value::Unit, out);
        }
        OpCode::Apply { callee, argc } => {
            let cb = program.block(*callee).ok_or_else(|| bad_target(tag))?;
            let new_ctx = ctx.enter_call(tag.u, tag.i, tag.c, *callee, tag.s);
            for (k, &op) in ops.iter().enumerate().take(*argc as usize) {
                let param = ActivityName {
                    u: new_ctx,
                    c: *callee,
                    s: cb.params[k],
                    i: Iter::ONE,
                };
                out.push(Token::new(param, Port(0), op));
            }
        }
        OpCode::DInv => {
            let rec = ctx.resolve(tag.u).ok_or_else(|| bad_target(tag))?;
            let ntag = ActivityName {
                u: rec.parent,
                i: rec.parent_iter,
                ..tag
            };
            retag(ntag, dests, always, ops[0], out);
        }
        OpCode::L => {
            let ntag = ActivityName {
                i: tag.i.next(),
                ..tag
            };
            retag(ntag, dests, always, ops[0], out);
        }
        OpCode::LInv => {
            let ntag = ActivityName {
                i: Iter::ONE,
                ..tag
            };
            retag(ntag, dests, always, ops[0], out);
        }
        OpCode::Return => {
            let rec = ctx.resolve(tag.u).ok_or_else(|| bad_target(tag))?;
            let ContextKind::Call {
                ret_block,
                ret_instr,
            } = rec.kind
            else {
                return Err(ExecError::BadTarget {
                    activity: format!("{tag} (Return outside a call context)"),
                });
            };
            // The result goes where the caller's `Apply` (which fired, so
            // exists) sends its value, in the caller's activation.
            let apply = ActivityName {
                u: rec.parent,
                c: ret_block,
                s: ret_instr,
                i: rec.parent_iter,
            };
            deliver(program, apply, ops[0], out);
        }
        OpCode::IAlloc => {
            let len = as_int(&ops[0])?;
            if len < 0 {
                return Err(ExecError::Type(crate::value::TypeError {
                    expected: "a nonnegative size",
                    got: len.to_string(),
                }));
            }
            // A pointer records its length as a `u32`; a bigger size
            // would be silently truncated by every engine.
            let len = u32::try_from(len).map_err(|_| ExecError::AllocTooLarge { len })?;
            eff.action = Some(StructAction::Alloc { tag, len });
        }
        OpCode::IFetch => {
            let ptr = as_ptr(&ops[0])?;
            let idx = element_index(tag, ptr, as_int(&ops[1])?)?;
            eff.action = Some(StructAction::Fetch { tag, ptr, idx });
        }
        OpCode::IStore => {
            let ptr = as_ptr(&ops[0])?;
            let idx = element_index(tag, ptr, as_int(&ops[1])?)?;
            eff.action = Some(StructAction::Store {
                tag,
                ptr,
                idx,
                value: ops[2],
            });
        }
        OpCode::Output(slot) => {
            eff.output = Some((*slot, ops[0]));
        }
        OpCode::Sink => {}
    }
    Ok(eff)
}

/// I-structure traffic, counted per reader: a fetch whose value goes to
/// two instructions is two reads.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IsCounts {
    /// Reads satisfied at once.
    pub immediate: u64,
    /// Reads parked on a deferred list.
    pub deferred: u64,
    /// Writes.
    pub writes: u64,
}

/// The I-structure store every engine keeps: cells hold values, and a
/// deferred reader is the token slot its value will go to.
pub(crate) type Structures = IStructureShard<Value, (ActivityName, Port)>;

/// The I-structure controller (§2.1, Fig 2-1) every engine applies a
/// fetch or a store through, to the element the action names.
///
/// A fetch reads once per reader of the requesting firing's
/// [`continuation`]: a present value goes straight to the reader, an
/// absent one parks it on the cell's deferred list. A store releases
/// the parked readers with its value, in arrival order, then signals
/// its own continuation. Tokens go to `out` and counts to `counts`;
/// when `trace` names a sink, each event is recorded at its time and
/// names its module label. An element past the end of the structure is
/// reported with the pointer's length, as the firing that checked the
/// index reports it.
#[inline]
pub(crate) fn structure_op<S: TraceSink + ?Sized>(
    program: &Program,
    store: &mut Structures,
    action: StructAction,
    counts: &mut IsCounts,
    out: &mut Vec<Token>,
    mut trace: Option<(&mut S, Cycle, u32)>,
) -> Result<(), ExecError> {
    let (ptr, idx) = action.element();
    let cell = Addr(idx);
    let traced = trace.is_some();
    let module = trace.as_ref().map_or(0, |t| t.2);
    let mut note = |ev: TraceEvent| {
        if let Some((sink, at, _)) = trace.as_mut() {
            sink.record(*at, &ev);
        }
    };
    let exec_err = |e: IStructureError| match e {
        IStructureError::OutOfRange { .. } => out_of_range(ptr, idx),
        e => ExecError::IStructure(e),
    };
    match action {
        StructAction::Fetch { tag, .. } => {
            // A fetch names a structure even when nothing reads it.
            if store.store(ptr.id).is_none() {
                return Err(dangling(tag, ptr));
            }
            for (rtag, port) in continuation(program, tag) {
                let read = store.read(ptr.id, cell, (rtag, port));
                match read.ok_or_else(|| dangling(tag, ptr))?.map_err(exec_err)? {
                    ReadOutcome::Value(v) => {
                        counts.immediate += 1;
                        out.push(Token::new(rtag, port, v));
                        note(TraceEvent::IStoreRead {
                            module,
                            immediate: true,
                        });
                    }
                    ReadOutcome::Deferred => {
                        counts.deferred += 1;
                        if traced {
                            let st = store.store(ptr.id).expect("a reader just parked here");
                            let depth = st.deferred_count(cell).map_err(exec_err)? as u64;
                            note(TraceEvent::IStoreRead {
                                module,
                                immediate: false,
                            });
                            note(TraceEvent::DeferEnqueue { module, depth });
                            // The first reader to park is what turns the
                            // cell from empty to deferred.
                            if depth == 1 {
                                note(TraceEvent::Presence {
                                    module,
                                    from: PresenceState::Empty,
                                    to: PresenceState::Deferred,
                                });
                            }
                        }
                    }
                }
            }
        }
        StructAction::Store { tag, value, .. } => {
            // Released readers stream straight to `out` (the packed
            // store's zero-allocation release path).
            let released = store
                .write_with(ptr.id, cell, value, |(rtag, port)| {
                    out.push(Token::new(rtag, port, value))
                })
                .ok_or_else(|| dangling(tag, ptr))?
                .map_err(exec_err)?;
            counts.writes += 1;
            // A write succeeds only on an empty cell or on a deferred one,
            // and a deferred cell holds at least one reader.
            let from = if released > 0 {
                PresenceState::Deferred
            } else {
                PresenceState::Empty
            };
            note(TraceEvent::IStoreWrite { module });
            note(TraceEvent::Presence {
                module,
                from,
                to: PresenceState::Present,
            });
            if released > 0 {
                note(TraceEvent::DeferRelease {
                    module,
                    released: released as u64,
                });
            }
            deliver(program, tag, Value::Unit, out);
        }
        StructAction::Alloc { .. } => unreachable!("allocations are resolved where they fire"),
    }
    Ok(())
}

/// The most a [`size_hint`] asks for: a batch of many jobs reserves no
/// more than this and grows from there, as every run did before it was
/// sized.
const MAX_SIZE_HINT: usize = 4096;

/// How much a run of `jobs` reserves up front in each of its growing
/// buffers (waves, queues, matching stores, context tables): one
/// activation of every job, counted as the instructions of the block
/// it starts in. A job naming no block adds nothing; [`load_jobs`]
/// refuses it. Sized this way, a short run such as a service burst
/// does not regrow its buffers from empty, and a one-instruction run
/// reserves almost nothing.
pub(crate) fn size_hint(program: &Program, jobs: &[Job]) -> usize {
    jobs.iter()
        .filter_map(|job| program.block(job.block))
        .map(|block| block.instrs.len())
        .sum::<usize>()
        .min(MAX_SIZE_HINT)
}

/// The job loader every engine's `submit` seeds through. For each job,
/// in order: look its block up, check its arity, allocate its root
/// context with `new_root`, and hand `seed` one token per parameter,
/// which `seed` places where its engine keeps tokens.
pub(crate) fn load_jobs(
    program: &Program,
    jobs: &[Job],
    mut new_root: impl FnMut(CodeBlockId) -> Ctx,
    mut seed: impl FnMut(Token),
) -> Result<(), ExecError> {
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
        let u = new_root(job.block);
        for (&s, &value) in block.params.iter().zip(&job.inputs) {
            let tag = ActivityName {
                u,
                c: job.block,
                s,
                i: Iter::ONE,
            };
            seed(Token::new(tag, Port(0), value));
        }
    }
    Ok(())
}
