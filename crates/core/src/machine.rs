//! [`Job`]: one unit of work for either engine's `submit`.

use crate::graph::CodeBlockId;
use crate::value::Value;

/// One unit of submitted work: an entry code block (typically a former
/// `main` from [`Program::merge`](crate::Program::merge)), its input
/// values, and the tenant it belongs to.
///
/// The tenant label exists for the callers that *schedule* jobs rather
/// than merely run them (the `ttda-workloads` service scheduler,
/// admission-control experiments): the engines themselves execute every
/// job of a batch to joint completion under their own fuel and do not
/// dispatch on `tenant`.
///
/// ```
/// use ttda_core::{Emulator, GraphBuilder, Job, OpCode, AluOp, Value};
///
/// let mut g = GraphBuilder::new("add");
/// let a = g.param();
/// let b = g.param();
/// let add = g.instr(OpCode::Alu(AluOp::Add));
/// let out = g.output(0);
/// g.wire(a, add, 0).wire(b, add, 1).wire(add, out, 0);
/// let p = g.finish_program().unwrap();
///
/// let job = Job::new(p.main, vec![Value::Int(3), Value::Int(4)]).for_tenant(7);
/// let r = Emulator::new(&p).submit(&[job]).unwrap();
/// assert_eq!(r.outputs[&0], Value::Int(7));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// The code block this job starts in.
    pub block: CodeBlockId,
    /// One input value per parameter of `block`.
    pub inputs: Vec<Value>,
    /// Owning tenant — an accounting label carried through schedulers
    /// and reports. Execution ignores it: isolation between jobs comes
    /// from tagged tokens, not from this field.
    pub tenant: u32,
}

impl Job {
    /// A job for `block` on `inputs`, tenant 0.
    pub fn new(block: CodeBlockId, inputs: Vec<Value>) -> Self {
        Job {
            block,
            inputs,
            tenant: 0,
        }
    }

    /// Labels the job with a tenant id (builder-style).
    #[must_use]
    pub fn for_tenant(mut self, tenant: u32) -> Self {
        self.tenant = tenant;
        self
    }
}
