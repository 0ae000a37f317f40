//! The Tagged-Token Dataflow Architecture (TTDA) — the paper's §2.
//!
//! This crate implements the machine of Figs 2-3 and 2-4: programs are
//! directed graphs ([`Program`], [`CodeBlock`], [`Instruction`]); data
//! values travel on [`Token`]s carrying *activity names*
//! ([`ActivityName`] = the paper's `(u, c, s, i)` tag); instructions fire
//! when the waiting–matching section has paired all their operands; and
//! I-structure references travel as `d=1` packets to I-structure storage.
//!
//! Two execution engines share the graph representation, mirroring the
//! two prongs of the paper's Fig 3-1 development plan:
//!
//! - [`Emulator`] — the *emulation* prong: a fast, untimed interpreter
//!   that executes graphs in enabled-instruction waves. It yields results
//!   plus an **idealized parallelism profile** (enabled instructions per
//!   wave under infinite processors), which is what the paper's group
//!   used their 32–128-processor facility to study.
//! - [`TimedMachine`] — the *simulation* prong: a detailed cycle model of
//!   `n` processing elements (waiting–matching store, instruction fetch,
//!   ALU, output section with routing translation), each with an attached
//!   I-structure module, connected by any `ttda-net` topology. It
//!   "accounts for communication as well as processing simulated time"
//!   and reports the ALU utilization the critique is argued in terms of.
//!
//! # Example: 3 + 4 on the TTDA
//!
//! ```
//! use ttda_core::{Emulator, GraphBuilder, OpCode, AluOp, Value};
//!
//! let mut g = GraphBuilder::new("add");
//! let a = g.param();                     // program input 0
//! let b = g.param();                     // program input 1
//! let add = g.instr(OpCode::Alu(AluOp::Add));
//! let out = g.output(0);
//! g.wire(a, add, 0);
//! g.wire(b, add, 1);
//! g.wire(add, out, 0);
//! let program = g.finish_program().unwrap();
//!
//! let mut emu = Emulator::new(&program);
//! let result = emu.run(&[Value::Int(3), Value::Int(4)]).unwrap();
//! assert_eq!(result.outputs[&0], Value::Int(7));
//! ```

#![warn(missing_docs)]
// Firing paths must not build error values they throw away.
#![warn(clippy::or_fun_call)]

mod builder;
mod context;
mod emu;
mod exec;
mod graph;
mod machine;
pub mod matching;
pub mod opt;
mod placement;
mod relaxed;
mod sched;
mod tag;
mod timed;
mod value;

pub use builder::{BuildError, GraphBuilder, NodeId};
pub use context::{ContextManager, ContextRecord};
pub use emu::{EmuResult, Emulator, RunMode};
pub use graph::{
    CodeBlock, CodeBlockId, Dest, DestBranch, GraphError, InstrId, Instruction, OpCode, Program,
    MAX_LOOP_CONSTS,
};
pub use machine::Job;
pub use matching::MatchingStore;
pub use placement::MappingPolicy;
pub use sched::SchedPolicy;
pub use tag::{ActivityName, Ctx, Iter, Port, Token};
pub use timed::{MachineStats, StructPlacement, TimedConfig, TimedMachine, TimedResult};
pub use value::{AluOp, CmpOp, StructRef, TypeError, Value};

use std::error::Error;
use std::fmt;

/// Errors surfaced while executing a dataflow program.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// A value had the wrong type for the operation that consumed it.
    Type(TypeError),
    /// An I-structure operation failed (write-write race, bad index).
    IStructure(ttda_mem::IStructureError),
    /// A token referenced a nonexistent code block or instruction.
    BadTarget {
        /// The offending activity name, rendered.
        activity: String,
    },
    /// The number of input values did not match the main block's
    /// parameter count.
    InputArity {
        /// Parameters declared by `main`.
        expected: usize,
        /// Inputs supplied.
        got: usize,
    },
    /// The program terminated with tokens still unmatched in the
    /// waiting–matching store (a graph bug: some instruction never
    /// received all its operands).
    Deadlock {
        /// How many tokens were stranded.
        stranded: usize,
    },
    /// Execution exceeded the configured step/cycle budget.
    OutOfFuel,
    /// An `IAlloc` asked for more cells than a structure pointer can
    /// address (`u32::MAX`).
    AllocTooLarge {
        /// The requested size.
        len: i64,
    },
    /// The timed machine's network has no route between two PEs that
    /// must exchange a token or an I-structure packet (a partitioned or
    /// faulty topology), or no PE at all (reported as PE 0 to PE 0).
    Unroutable {
        /// The sending PE.
        from: usize,
        /// The PE or I-structure module it could not reach.
        to: usize,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Type(e) => write!(f, "type error: {e}"),
            ExecError::IStructure(e) => write!(f, "i-structure error: {e}"),
            ExecError::BadTarget { activity } => write!(f, "bad token target: {activity}"),
            ExecError::InputArity { expected, got } => {
                write!(f, "program takes {expected} inputs, got {got}")
            }
            ExecError::Deadlock { stranded } => {
                write!(
                    f,
                    "deadlock: {stranded} tokens stranded in waiting-matching"
                )
            }
            ExecError::OutOfFuel => write!(f, "execution exceeded its fuel"),
            ExecError::AllocTooLarge { len } => write!(
                f,
                "an i-structure of {len} cells is larger than a pointer can address"
            ),
            ExecError::Unroutable { from, to } => {
                write!(f, "the network has no route from PE {from} to PE {to}")
            }
        }
    }
}

impl Error for ExecError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExecError::Type(e) => Some(e),
            ExecError::IStructure(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TypeError> for ExecError {
    fn from(e: TypeError) -> Self {
        ExecError::Type(e)
    }
}

impl From<ttda_mem::IStructureError> for ExecError {
    fn from(e: ttda_mem::IStructureError) -> Self {
        ExecError::IStructure(e)
    }
}
