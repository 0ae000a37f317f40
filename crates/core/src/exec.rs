//! Shared operational semantics for all three executors.
//!
//! [`execute`] implements the instruction-fetch + ALU + output-section
//! behaviour of one enabled instruction, *independent of timing*: it
//! writes the output tokens through an [`Emit`] sink and returns any
//! I-structure action to perform. The sequential
//! [`Emulator`](crate::Emulator) emits straight into its next wave and
//! applies structure actions inline; the relaxed parallel backend ships
//! them to the shard that owns the structure; the
//! [`TimedMachine`](crate::TimedMachine) turns them into `d=1` packets
//! that travel the network to I-structure storage. Keeping one copy of
//! the semantics guarantees the executors can never disagree on *what*
//! a program computes, only on *when*.
//!
//! # The firing path does not allocate
//!
//! [`absorb`] hands back the `&Instruction` it looked up, so nothing is
//! looked up twice or cloned. [`execute`] emits tokens in place, and the
//! [`Effect`] it returns is `Copy`. A [`StructAction`] names the firing
//! that asked for it, not a list of readers: whoever applies the action
//! expands the readers from the program with [`continuation`]. Context
//! records are `Copy` and name the caller's `Apply` instead of copying
//! its destinations. Errors build their messages only when they occur.
//! With an [`Emit`] sink whose storage is reused across firings, a
//! steady-state firing therefore touches no heap at all
//! (`tests/alloc_free.rs` pins this).

use crate::context::{ContextKind, ContextOps};
use crate::graph::{Dest, DestBranch, Instruction, OpCode, Program};
use crate::matching::{Absorbed, MatchingStore, Operands, PortOutOfRange};
use crate::tag::{ActivityName, Iter, Port, Token};
use crate::value::{as_bool, as_int, as_ptr, StructRef, Value};
use crate::ExecError;

/// Where a firing's output tokens go. Implementations only append: an
/// executor that needs the emit count (the timed machine charges output
/// time per token) compares lengths before and after.
pub(crate) trait Emit {
    /// Appends one fully tagged token.
    fn emit(&mut self, tag: ActivityName, port: Port, value: Value);
}

impl Emit for Vec<Token> {
    fn emit(&mut self, tag: ActivityName, port: Port, value: Value) {
        self.push(Token::new(tag, port, value));
    }
}

/// An I-structure operation requested by the firing `tag`. The value it
/// produces goes to that instruction's [`continuation`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum StructAction {
    /// Allocate `len` cells; send the pointer on.
    Alloc {
        /// The requesting firing.
        tag: ActivityName,
        /// Element count.
        len: usize,
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

fn retag(tag: ActivityName, dests: &[Dest], want: DestBranch, value: Value, out: &mut impl Emit) {
    for d in dests {
        if d.when == want {
            out.emit(ActivityName { s: d.instr, ..tag }, d.port, value);
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
pub(crate) fn deliver(program: &Program, tag: ActivityName, value: Value, out: &mut impl Emit) {
    for (rtag, port) in continuation(program, tag) {
        out.emit(rtag, port, value);
    }
}

/// A firing the waiting–matching section just enabled: its activity
/// name, its operands, and the instruction it names.
pub(crate) type Enabled<'p> = (ActivityName, Operands, &'p Instruction);

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

fn nonneg_index(tag: ActivityName, idx: i64) -> Result<usize, ExecError> {
    usize::try_from(idx).map_err(|_| ExecError::BadTarget {
        activity: format!("{tag} (negative i-structure index {idx})"),
    })
}

/// The waiting–matching section, shared by every executor: inserts a
/// token into `waiting`; returns the complete operand set, and the
/// instruction it enables, when the target instruction becomes enabled.
/// Tokens for `nt = 1` instructions bypass the store, as in Fig 2-3.
pub(crate) fn absorb<'p>(
    program: &'p Program,
    waiting: &mut MatchingStore,
    token: Token,
) -> Result<Option<Enabled<'p>>, ExecError> {
    let tag = token.tag;
    let instr = program
        .block(tag.c)
        .and_then(|b| b.instr(tag.s))
        .ok_or_else(|| bad_target(tag))?;
    let arity = instr.op.arity();
    let literal = instr.literal;

    if instr.nt <= 1 && arity <= 1 {
        let v = match literal {
            Some((_, lv)) => lv,
            None => token.value,
        };
        return Ok(Some((tag, Operands::one(v), instr)));
    }

    match waiting.absorb(tag, arity, literal, token.port, token.value) {
        Ok(Absorbed::Parked) => Ok(None),
        Ok(Absorbed::Enabled(operands)) => Ok(Some((tag, operands, instr))),
        Err(PortOutOfRange) => Err(bad_target(tag)),
    }
}

/// Executes one enabled instruction, writing its output tokens to `out`.
/// See the module docs. No token is emitted by a firing that fails.
///
/// Only `D` and `Apply` *mutate* the context table (entering a loop or
/// a call); `DInv` and `Return` read the records of contexts created by
/// strictly earlier firings. On the parallel backend workers execute
/// every opcode, drawing ids from leased blocks of a
/// [`crate::context::SharedContexts`] table — context id *values* then
/// differ from a sequential run, but they never escape an
/// [`EmuResult`](crate::EmuResult) (`contexts` is the semantic
/// allocation count, kept exact by the shared loop memo).
pub(crate) fn execute<C: ContextOps>(
    program: &Program,
    ctx: &mut C,
    tag: ActivityName,
    instr: &Instruction,
    ops: &[Value],
    out: &mut impl Emit,
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
        OpCode::D { loop_id } => {
            let inner = ctx.enter_loop(tag.u, tag.i, *loop_id, tag.c);
            let ntag = ActivityName {
                u: inner,
                i: Iter::ONE,
                ..tag
            };
            retag(ntag, dests, always, ops[0], out);
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
                out.emit(param, Port(0), op);
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
            eff.action = Some(StructAction::Alloc {
                tag,
                len: len as usize,
            });
        }
        OpCode::IFetch => {
            let ptr = as_ptr(&ops[0])?;
            let idx = nonneg_index(tag, as_int(&ops[1])?)?;
            eff.action = Some(StructAction::Fetch { tag, ptr, idx });
        }
        OpCode::IStore => {
            let ptr = as_ptr(&ops[0])?;
            let idx = nonneg_index(tag, as_int(&ops[1])?)?;
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
