//! The unified builder/run surface shared by both execution engines.
//!
//! Historically the two engines grew divergent APIs — the [`Emulator`]
//! attached a sink with a consuming `with_sink` builder while the
//! [`TimedMachine`] mutated through `set_sink(Option<…>)`, and there was
//! no way to write engine-generic harness code. [`Machine`] is the
//! common surface: construct an engine however you like, then configure
//! it with the shared builders and run it. Both engines implement it.
//!
//! ```
//! use ttda_core::{AluOp, Emulator, GraphBuilder, Machine, OpCode, TimedConfig, TimedMachine, Value};
//! use ttda_sim::Cycle;
//!
//! let mut g = GraphBuilder::new("add");
//! let a = g.param();
//! let b = g.param();
//! let add = g.instr(OpCode::Alu(AluOp::Add));
//! let out = g.output(0);
//! g.wire(a, add, 0).wire(b, add, 1).wire(add, out, 0);
//! let p = g.finish_program().unwrap();
//!
//! // One generic harness drives either engine.
//! fn first_output<M: Machine>(mut m: M, inputs: &[Value]) -> Value {
//!     let r = m.run(inputs).unwrap();
//!     M::outputs(&r)[&0]
//! }
//!
//! let emu = Emulator::new(&p).with_fuel(10_000);
//! let timed = TimedMachine::ideal(p.clone(), 4, Cycle(10), TimedConfig::default());
//! assert_eq!(first_output(emu, &[Value::Int(3), Value::Int(4)]), Value::Int(7));
//! assert_eq!(first_output(timed, &[Value::Int(3), Value::Int(4)]), Value::Int(7));
//! ```

use std::collections::HashMap;

use ttda_trace::SharedSink;

use ttda_net::Topology;

use crate::emu::{EmuResult, Emulator};
use crate::graph::CodeBlockId;
use crate::timed::{TimedMachine, TimedResult};
use crate::value::Value;
use crate::ExecError;

/// One unit of submitted work: an entry code block (typically a former
/// `main` from [`Program::merge`](crate::Program::merge)), its input
/// values, and scheduling metadata.
///
/// `Job` replaces the positional `(CodeBlockId, Vec<Value>)` tuples the
/// engines used to take. The extra fields exist for the callers that
/// *schedule* jobs rather than merely run them (the `ttda-workloads`
/// service scheduler, admission-control experiments): the engines
/// themselves execute every job of a batch to joint completion and do
/// not dispatch on `tenant`.
///
/// ```
/// use ttda_core::{Emulator, GraphBuilder, Job, Machine, OpCode, AluOp, Value};
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
    /// Optional firing-budget share. Within one submitted batch the
    /// shares pool: when *every* job carries a share, the batch runs
    /// under `min(machine fuel, sum of shares)`; any job without a
    /// share falls back to the machine's configured fuel for the whole
    /// batch. Firings interleave freely, so the share is a reservation
    /// against the joint budget, not a per-job meter.
    pub fuel: Option<u64>,
}

impl Job {
    /// A job for `block` on `inputs`, tenant 0, no fuel share.
    pub fn new(block: CodeBlockId, inputs: Vec<Value>) -> Self {
        Job {
            block,
            inputs,
            tenant: 0,
            fuel: None,
        }
    }

    /// Labels the job with a tenant id (builder-style).
    #[must_use]
    pub fn for_tenant(mut self, tenant: u32) -> Self {
        self.tenant = tenant;
        self
    }

    /// Reserves a firing-budget share for this job (builder-style); see
    /// [`Job::fuel`] for how shares pool across a batch.
    #[must_use]
    pub fn with_fuel_share(mut self, fuel: u64) -> Self {
        self.fuel = Some(fuel);
        self
    }
}

impl From<(CodeBlockId, Vec<Value>)> for Job {
    fn from((block, inputs): (CodeBlockId, Vec<Value>)) -> Self {
        Job::new(block, inputs)
    }
}

/// The effective firing budget for one submitted batch: the sum of the
/// jobs' fuel shares when every job declares one (capped by the
/// machine's own fuel), otherwise the machine fuel unchanged.
pub(crate) fn batch_fuel(machine_fuel: u64, jobs: &[Job]) -> u64 {
    let mut total: u64 = 0;
    for job in jobs {
        match job.fuel {
            Some(f) => total = total.saturating_add(f),
            None => return machine_fuel,
        }
    }
    if jobs.is_empty() {
        machine_fuel
    } else {
        machine_fuel.min(total)
    }
}

/// An execution engine for dataflow programs: the untimed [`Emulator`]
/// or the cycle-accurate [`TimedMachine`], behind one builder surface.
///
/// The builders are consuming (`self -> Self`) so configuration chains
/// read the same for both engines; `run`/`submit` take `&mut self` and
/// report through the engine's own result type ([`Machine::Output`]).
pub trait Machine: Sized {
    /// What a finished run reports ([`EmuResult`] or [`TimedResult`]).
    type Output;

    /// Runs the program's `main` block on `inputs`.
    ///
    /// # Errors
    ///
    /// The engine's usual [`ExecError`] conditions (arity, type and
    /// structure errors, deadlock, fuel).
    fn run(&mut self, inputs: &[Value]) -> Result<Self::Output, ExecError>;

    /// Multiprogramming: runs a batch of [`Job`]s under fresh root
    /// contexts to joint completion.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Machine::run`].
    fn submit(&mut self, jobs: &[Job]) -> Result<Self::Output, ExecError>;

    /// Attaches a trace sink observing the whole machine.
    fn with_sink(self, sink: SharedSink) -> Self;

    /// Overrides the firing budget.
    fn with_fuel(self, fuel: u64) -> Self;

    /// The program outputs of a finished run, by slot — the piece of the
    /// result every engine shares, so generic harnesses can check
    /// answers without knowing the engine.
    fn outputs(result: &Self::Output) -> &HashMap<u32, Value>;
}

impl Machine for Emulator<'_> {
    type Output = EmuResult;

    fn run(&mut self, inputs: &[Value]) -> Result<EmuResult, ExecError> {
        Emulator::run(self, inputs)
    }

    fn submit(&mut self, jobs: &[Job]) -> Result<EmuResult, ExecError> {
        Emulator::submit(self, jobs)
    }

    fn with_sink(self, sink: SharedSink) -> Self {
        Emulator::with_sink(self, sink)
    }

    fn with_fuel(self, fuel: u64) -> Self {
        Emulator::with_fuel(self, fuel)
    }

    fn outputs(result: &EmuResult) -> &HashMap<u32, Value> {
        &result.outputs
    }
}

impl<T: Topology> Machine for TimedMachine<T> {
    type Output = TimedResult;

    fn run(&mut self, inputs: &[Value]) -> Result<TimedResult, ExecError> {
        TimedMachine::run(self, inputs)
    }

    fn submit(&mut self, jobs: &[Job]) -> Result<TimedResult, ExecError> {
        TimedMachine::submit(self, jobs)
    }

    fn with_sink(self, sink: SharedSink) -> Self {
        TimedMachine::with_sink(self, sink)
    }

    fn with_fuel(self, fuel: u64) -> Self {
        TimedMachine::with_fuel(self, fuel)
    }

    fn outputs(result: &TimedResult) -> &HashMap<u32, Value> {
        &result.outputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::graph::OpCode;
    use crate::value::AluOp;

    fn add_program() -> crate::Program {
        let mut g = GraphBuilder::new("add");
        let a = g.param();
        let b = g.param();
        let add = g.instr(OpCode::Alu(AluOp::Add));
        let out = g.output(0);
        g.wire(a, add, 0).wire(b, add, 1).wire(add, out, 0);
        g.finish_program().unwrap()
    }

    #[test]
    fn batch_fuel_pools_only_when_every_job_has_a_share() {
        let p = add_program();
        let job = |fuel: Option<u64>| Job {
            block: p.main,
            inputs: vec![],
            tenant: 0,
            fuel,
        };
        // Empty batch and share-less jobs fall back to machine fuel.
        assert_eq!(batch_fuel(100, &[]), 100);
        assert_eq!(batch_fuel(100, &[job(None), job(Some(5))]), 100);
        // All-share batches pool, capped by the machine fuel.
        assert_eq!(batch_fuel(100, &[job(Some(30)), job(Some(40))]), 70);
        assert_eq!(batch_fuel(50, &[job(Some(30)), job(Some(40))]), 50);
        assert_eq!(batch_fuel(100, &[job(Some(u64::MAX)), job(Some(1))]), 100);
    }

    #[test]
    fn tuple_conversion_matches_explicit_job() {
        let p = add_program();
        let tuple = (p.main, vec![Value::Int(3), Value::Int(4)]);
        let job: Job = tuple.clone().into();
        assert_eq!(job, Job::new(p.main, tuple.1));
        let got = Machine::submit(&mut Emulator::new(&p), &[job]).unwrap();
        assert_eq!(got.outputs[&0], Value::Int(7));
    }
}
