//! Program representation: dataflow graphs (§2.2.1).

use std::error::Error;
use std::fmt;

use crate::tag::Port;
use crate::value::{AluOp, CmpOp, Value};

/// Identifies a code block (`c` in the activity name). "Each procedure
/// and each loop has a unique code block name."
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CodeBlockId(pub u32);

impl fmt::Display for CodeBlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Identifies an instruction within a code block (`s` in the activity
/// name).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct InstrId(pub u32);

impl fmt::Display for InstrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// When a destination receives the output token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DestBranch {
    /// Unconditional (every opcode except `Switch`).
    #[default]
    Always,
    /// `Switch` output taken when the control input is true.
    IfTrue,
    /// `Switch` output taken when the control input is false.
    IfFalse,
}

/// One outgoing edge of an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dest {
    /// Target instruction (same code block; cross-block transfers happen
    /// only through `Apply`/`Return` and the context operators).
    pub instr: InstrId,
    /// Operand slot at the target.
    pub port: Port,
    /// Branch selector (used by `Switch`).
    pub when: DestBranch,
}

/// Machine operation codes.
///
/// Alongside the arithmetic/relational/conditional operators, the set
/// includes the paper's tag-manipulating instructions `D`, `D⁻¹`, `L`,
/// `L⁻¹` ("included to provide proper entry, iteration, and exit by
/// manipulating context-identifying information"), procedure linkage
/// (`Apply`/`Return`), and the I-structure operations of §2.2.4 (SELECT
/// becomes `IFetch`, APPEND becomes `IStore`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OpCode {
    /// Pass the input through (used for parameters and forks).
    Identity,
    /// Emit the embedded constant when the (ignored) trigger token
    /// arrives at port 0. Compilers use this to release loop constants
    /// into an activation.
    Const(Value),
    /// Binary arithmetic.
    Alu(AluOp),
    /// Binary comparison (produces a boolean).
    Cmp(CmpOp),
    /// Boolean negation.
    Not,
    /// Boolean conjunction.
    And,
    /// Boolean disjunction.
    Or,
    /// The conditional router: port 0 is data, port 1 is the boolean
    /// control; the data token is forwarded to the `IfTrue` or `IfFalse`
    /// destinations.
    Switch,
    /// Loop entry: allocates (or joins) the loop context for this
    /// activation and re-tags the token with `i = 1`. All `D`
    /// instructions of one loop share a `loop_id` so every circulating
    /// variable lands in the *same* new context.
    D {
        /// Which loop this entry belongs to (unique per loop in a block).
        loop_id: u32,
    },
    /// Loop entry with constants: fires once all `width` loop constants
    /// of one activation have arrived (operand `k` is constant slot
    /// `k`), enters the loop activation exactly as `D` does (same
    /// `loop_id` memo), stores the operands as that activation's
    /// constants, and then releases the loop's [`OpCode::DGated`]
    /// entries with a `Unit` token in the enclosing activation. Emitted
    /// by the optimizer's loop-constant promotion (DESIGN.md §18).
    LoopEntry {
        /// Which loop this entry belongs to.
        loop_id: u32,
        /// Number of constants (= operands).
        width: u8,
    },
    /// A `D` held back until its loop's [`OpCode::LoopEntry`] has
    /// fired: port 0 is the loop-carried value, port 1 the release
    /// token. Joins the activation the entry created and re-tags the
    /// value with `i = 1`, exactly like `D`.
    DGated {
        /// Which loop this entry belongs to.
        loop_id: u32,
    },
    /// Loop exit: restores the context (and iteration number) saved by
    /// the matching `D`.
    DInv,
    /// Next iteration: `i ← i + 1`.
    L,
    /// Iteration reset: `i ← 1` within the same context.
    LInv,
    /// Procedure invocation: fires when all `argc` arguments have
    /// arrived, allocates a fresh callee context, and sends each argument
    /// to the callee's corresponding parameter instruction. The caller's
    /// destinations receive the value sent by the callee's `Return`.
    Apply {
        /// The code block to invoke.
        callee: CodeBlockId,
        /// Number of arguments (= callee parameter count).
        argc: u8,
    },
    /// Returns a value from a code block to whatever `Apply` created this
    /// context.
    Return,
    /// Allocates an I-structure of the size given by the integer input;
    /// outputs the pointer.
    IAlloc,
    /// SELECT: fetch element `index` (port 1) of the structure pointed to
    /// by port 0. Split-phase: the request travels to I-structure storage
    /// and the *response* token carries the element to the destinations,
    /// possibly much later (or deferred).
    IFetch,
    /// APPEND: store port 2's value at element `index` (port 1) of the
    /// structure at port 0. Produces a unit signal token.
    IStore,
    /// Writes the input value to a program output slot and produces
    /// nothing.
    Output(u32),
    /// Absorbs the input token (signal termination).
    Sink,
}

impl OpCode {
    /// Total operand slots this opcode consumes.
    pub fn arity(&self) -> u8 {
        match self {
            OpCode::Identity
            | OpCode::Const(_)
            | OpCode::Not
            | OpCode::D { .. }
            | OpCode::DInv
            | OpCode::L
            | OpCode::LInv
            | OpCode::Return
            | OpCode::IAlloc
            | OpCode::Output(_)
            | OpCode::Sink => 1,
            OpCode::Alu(_)
            | OpCode::Cmp(_)
            | OpCode::And
            | OpCode::Or
            | OpCode::Switch
            | OpCode::DGated { .. }
            | OpCode::IFetch => 2,
            OpCode::IStore => 3,
            OpCode::Apply { argc, .. } => *argc,
            OpCode::LoopEntry { width, .. } => *width,
        }
    }

    /// Whether this opcode is executed by the ALU proper (counted toward
    /// ALU utilization) as opposed to tag manipulation / routing /
    /// storage traffic.
    pub fn is_alu_work(&self) -> bool {
        matches!(
            self,
            OpCode::Alu(_) | OpCode::Cmp(_) | OpCode::Not | OpCode::And | OpCode::Or
        )
    }
}

/// Most constants one loop activation holds: the width of a
/// [`OpCode::LoopEntry`] and the bound on every constant slot.
pub const MAX_LOOP_CONSTS: usize = 8;

/// One vertex of the dataflow graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Instruction {
    /// The operation.
    pub op: OpCode,
    /// Number of *tokens* required to enable the instruction (the
    /// paper's `nt`): the opcode's arity minus the literal and constant
    /// operands.
    pub nt: u8,
    /// An optional compile-time constant occupying one operand slot.
    pub literal: Option<(Port, Value)>,
    /// Operand slots read from the current loop activation's constants:
    /// `(port, slot)` takes constant `slot` of the activation named by
    /// the token's context, the way `literal` takes a compile-time
    /// value. Empty except after loop-constant promotion.
    pub consts: Vec<(Port, u8)>,
    /// Outgoing edges.
    pub dests: Vec<Dest>,
}

impl Instruction {
    /// Creates an instruction with no literal and no destinations.
    pub fn new(op: OpCode) -> Self {
        let nt = op.arity();
        Instruction {
            op,
            nt,
            literal: None,
            consts: Vec::new(),
            dests: Vec::new(),
        }
    }

    /// Attaches a literal operand at `port`, reducing `nt` by one.
    pub fn with_literal(mut self, port: Port, value: Value) -> Self {
        self.literal = Some((port, value));
        self.recount();
        self
    }

    /// Recomputes `nt` from the arity, the literal and the constant
    /// operands.
    pub(crate) fn recount(&mut self) {
        let fixed = usize::from(self.literal.is_some()) + self.consts.len();
        self.nt = self.op.arity().saturating_sub(fixed.min(255) as u8);
    }

    /// Turns the instruction into a destination-less `Sink`, the shape
    /// every rewriting pass leaves behind for dead-code elimination.
    pub(crate) fn retire(&mut self) {
        self.op = OpCode::Sink;
        self.nt = 1;
        self.literal = None;
        self.consts.clear();
        self.dests.clear();
    }

    /// Whether operand `port` is filled without a token (the literal or
    /// a loop constant).
    pub(crate) fn is_fixed(&self, port: Port) -> bool {
        self.literal.is_some_and(|(p, _)| p == port) || self.consts.iter().any(|&(p, _)| p == port)
    }
}

/// A compiled procedure or top-level expression.
#[derive(Debug, Clone, PartialEq)]
pub struct CodeBlock {
    /// Human-readable name (for diagnostics and dot output).
    pub name: String,
    /// The instructions; index == [`InstrId`].
    pub instrs: Vec<Instruction>,
    /// Entry instructions, one per parameter: argument `k` of an
    /// invocation is delivered to `params[k]` at port 0.
    pub params: Vec<InstrId>,
    /// Per-instruction scheduling criticality: the remaining
    /// critical-path height of each instruction (see
    /// [`Analysis::height`](crate::opt::analysis::Analysis::height)),
    /// attached by [`annotate_criticality`](crate::opt::annotate_criticality)
    /// — `compile_optimized` does this for every compiled program.
    /// Empty means "not annotated"; schedulers recompute on demand.
    /// Stale after any graph rewrite, like every other analysis.
    pub criticality: Vec<u32>,
}

impl CodeBlock {
    /// Looks up an instruction.
    pub fn instr(&self, id: InstrId) -> Option<&Instruction> {
        self.instrs.get(id.0 as usize)
    }
}

/// Errors found by [`Program::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// A destination pointed at a nonexistent instruction.
    BadDest {
        /// Block containing the edge.
        block: CodeBlockId,
        /// Source instruction.
        from: InstrId,
        /// The dangling target.
        to: InstrId,
    },
    /// A destination port exceeded the target's operand count.
    BadPort {
        /// Block containing the edge.
        block: CodeBlockId,
        /// Target instruction.
        to: InstrId,
        /// The offending port.
        port: Port,
    },
    /// A `Switch` destination used `Always`, or a non-`Switch` used a
    /// branch selector.
    BadBranch {
        /// Block containing the edge.
        block: CodeBlockId,
        /// Source instruction.
        from: InstrId,
    },
    /// `Apply` referenced a missing code block or wrong argument count.
    BadApply {
        /// Block containing the apply.
        block: CodeBlockId,
        /// The apply instruction.
        at: InstrId,
    },
    /// A code block used as an `Apply` target has no `Return`.
    NoReturn {
        /// The offending callee.
        callee: CodeBlockId,
    },
    /// A loop-constant operand named a port the opcode lacks, a port
    /// already fixed, or a slot past [`MAX_LOOP_CONSTS`]; or a
    /// `LoopEntry` was wider than that.
    BadConst {
        /// Block containing the instruction.
        block: CodeBlockId,
        /// The offending instruction.
        at: InstrId,
    },
    /// A parameter entry pointed at a nonexistent instruction.
    BadParam {
        /// The offending block.
        block: CodeBlockId,
    },
    /// The `main` block id does not exist.
    BadMain,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::BadDest { block, from, to } => {
                write!(f, "{block}:{from} targets nonexistent {to}")
            }
            GraphError::BadPort { block, to, port } => {
                write!(f, "{block}:{to} has no operand {port}")
            }
            GraphError::BadBranch { block, from } => {
                write!(f, "{block}:{from} has an inconsistent branch selector")
            }
            GraphError::BadApply { block, at } => {
                write!(f, "{block}:{at} applies a bad code block or arg count")
            }
            GraphError::BadConst { block, at } => {
                write!(f, "{block}:{at} has a bad loop-constant operand")
            }
            GraphError::NoReturn { callee } => write!(f, "callee {callee} has no Return"),
            GraphError::BadParam { block } => write!(f, "{block} has a dangling parameter"),
            GraphError::BadMain => write!(f, "main code block does not exist"),
        }
    }
}

impl Error for GraphError {}

/// A complete dataflow program: code blocks plus the distinguished main
/// block whose parameters are the program inputs and whose `Output`
/// instructions are the program results.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// All code blocks; index == [`CodeBlockId`].
    pub blocks: Vec<CodeBlock>,
    /// The entry block.
    pub main: CodeBlockId,
}

impl Program {
    /// Looks up a code block.
    pub fn block(&self, id: CodeBlockId) -> Option<&CodeBlock> {
        self.blocks.get(id.0 as usize)
    }

    /// Total instruction count across blocks.
    pub fn instr_count(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len()).sum()
    }

    /// Merges several programs into one multiprogrammed image.
    ///
    /// Every block of every input program is copied (with `Apply` callee
    /// ids re-based); program `k`'s main block's `Output(slot)`
    /// instructions are renumbered to `k * slot_stride + slot` so result
    /// slots never collide. The merged program's main is a trivial
    /// launcher — callers start each job themselves via
    /// [`Emulator`](crate::Emulator)/[`TimedMachine`](crate::TimedMachine)
    /// `submit`, which injects each job's inputs into its own main
    /// block under a fresh context.
    ///
    /// This is the §1.2.4 counterpoint made executable: a lockstep VLIW
    /// cannot multiprogram at all, while tagged tokens let unrelated
    /// programs interleave instruction-by-instruction with no
    /// interference — their activity names can never match.
    ///
    /// Returns the merged program plus, per input program, the id of its
    /// (former) main block.
    ///
    /// # Panics
    ///
    /// Panics if `programs` is empty.
    pub fn merge(programs: &[Program], slot_stride: u32) -> (Program, Vec<CodeBlockId>) {
        assert!(!programs.is_empty(), "need at least one program");
        let mut blocks = Vec::new();
        let mut mains = Vec::new();
        let mut base: u32 = 0;
        for (k, p) in programs.iter().enumerate() {
            mains.push(CodeBlockId(base + p.main.0));
            for b in &p.blocks {
                let mut nb = b.clone();
                for ins in &mut nb.instrs {
                    match &mut ins.op {
                        OpCode::Apply { callee, .. } => callee.0 += base,
                        OpCode::Output(slot) => *slot += k as u32 * slot_stride,
                        _ => {}
                    }
                }
                blocks.push(nb);
            }
            base += p.blocks.len() as u32;
        }
        let main = mains[0];
        (Program { blocks, main }, mains)
    }

    /// Structural validation; a `Program` that passes can be executed
    /// without per-token bounds checks failing.
    ///
    /// # Errors
    ///
    /// Returns the first [`GraphError`] found.
    pub fn validate(&self) -> Result<(), GraphError> {
        if self.block(self.main).is_none() {
            return Err(GraphError::BadMain);
        }
        for (bi, block) in self.blocks.iter().enumerate() {
            let bid = CodeBlockId(bi as u32);
            for &p in &block.params {
                if block.instr(p).is_none() {
                    return Err(GraphError::BadParam { block: bid });
                }
            }
            for (si, ins) in block.instrs.iter().enumerate() {
                let sid = InstrId(si as u32);
                if let OpCode::Apply { callee, argc } = ins.op {
                    match self.block(callee) {
                        Some(cb) if cb.params.len() == argc as usize => {
                            if !cb.instrs.iter().any(|i| i.op == OpCode::Return) {
                                return Err(GraphError::NoReturn { callee });
                            }
                        }
                        _ => {
                            return Err(GraphError::BadApply {
                                block: bid,
                                at: sid,
                            })
                        }
                    }
                }
                if let OpCode::LoopEntry { width, .. } = ins.op {
                    if width as usize > MAX_LOOP_CONSTS {
                        return Err(GraphError::BadConst {
                            block: bid,
                            at: sid,
                        });
                    }
                }
                for (k, &(port, slot)) in ins.consts.iter().enumerate() {
                    let clash = ins.literal.is_some_and(|(p, _)| p == port)
                        || ins.consts[..k].iter().any(|&(p, _)| p == port);
                    if port.0 >= ins.op.arity() || slot as usize >= MAX_LOOP_CONSTS || clash {
                        return Err(GraphError::BadConst {
                            block: bid,
                            at: sid,
                        });
                    }
                }
                let is_switch = ins.op == OpCode::Switch;
                for d in &ins.dests {
                    let Some(target) = block.instr(d.instr) else {
                        return Err(GraphError::BadDest {
                            block: bid,
                            from: sid,
                            to: d.instr,
                        });
                    };
                    if d.port.0 >= target.op.arity() {
                        return Err(GraphError::BadPort {
                            block: bid,
                            to: d.instr,
                            port: d.port,
                        });
                    }
                    if target.is_fixed(d.port) {
                        return Err(GraphError::BadPort {
                            block: bid,
                            to: d.instr,
                            port: d.port,
                        });
                    }
                    let branch_ok = if is_switch {
                        d.when != DestBranch::Always
                    } else {
                        d.when == DestBranch::Always
                    };
                    if !branch_ok {
                        return Err(GraphError::BadBranch {
                            block: bid,
                            from: sid,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Renders the program as Graphviz dot (one cluster per code block) —
    /// the stylized-graph view of Fig 2-2.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("digraph ttda {\n  rankdir=TB;\n");
        for (bi, block) in self.blocks.iter().enumerate() {
            let _ = writeln!(s, "  subgraph cluster_{bi} {{");
            let _ = writeln!(
                s,
                "    label=\"{} ({})\";",
                block.name,
                CodeBlockId(bi as u32)
            );
            for (si, ins) in block.instrs.iter().enumerate() {
                let label = format!("{:?}", ins.op)
                    .replace('"', "'")
                    .replace('{', "(")
                    .replace('}', ")");
                let _ = writeln!(s, "    b{bi}s{si} [label=\"s{si}: {label}\"];");
            }
            for (si, ins) in block.instrs.iter().enumerate() {
                for d in &ins.dests {
                    let style = match d.when {
                        DestBranch::Always => "",
                        DestBranch::IfTrue => " [label=T]",
                        DestBranch::IfFalse => " [label=F]",
                    };
                    let _ = writeln!(s, "    b{bi}s{si} -> b{bi}s{}{};", d.instr.0, style);
                }
            }
            let _ = writeln!(s, "  }}");
        }
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_block(instrs: Vec<Instruction>, params: Vec<InstrId>) -> Program {
        Program {
            blocks: vec![CodeBlock {
                name: "t".into(),
                instrs,
                params,
                criticality: Vec::new(),
            }],
            main: CodeBlockId(0),
        }
    }

    #[test]
    fn arity_table() {
        assert_eq!(OpCode::Identity.arity(), 1);
        assert_eq!(OpCode::Alu(AluOp::Add).arity(), 2);
        assert_eq!(OpCode::IStore.arity(), 3);
        assert_eq!(
            OpCode::Apply {
                callee: CodeBlockId(0),
                argc: 4
            }
            .arity(),
            4
        );
        assert!(OpCode::Alu(AluOp::Add).is_alu_work());
        assert!(!OpCode::Switch.is_alu_work());
    }

    #[test]
    fn literal_reduces_nt() {
        let i = Instruction::new(OpCode::Alu(AluOp::Add)).with_literal(Port(1), Value::Int(5));
        assert_eq!(i.nt, 1);
        assert_eq!(Instruction::new(OpCode::Alu(AluOp::Add)).nt, 2);
    }

    #[test]
    fn validate_catches_dangling_dest() {
        let mut i = Instruction::new(OpCode::Identity);
        i.dests.push(Dest {
            instr: InstrId(9),
            port: Port(0),
            when: DestBranch::Always,
        });
        let p = one_block(vec![i], vec![]);
        assert!(matches!(p.validate(), Err(GraphError::BadDest { .. })));
    }

    #[test]
    fn validate_catches_bad_port_and_literal_collision() {
        let mut src = Instruction::new(OpCode::Identity);
        src.dests.push(Dest {
            instr: InstrId(1),
            port: Port(5),
            when: DestBranch::Always,
        });
        let tgt = Instruction::new(OpCode::Alu(AluOp::Add));
        let p = one_block(vec![src.clone(), tgt], vec![]);
        assert!(matches!(p.validate(), Err(GraphError::BadPort { .. })));

        // Wiring into a literal-occupied port is also an error.
        src.dests[0].port = Port(1);
        let tgt = Instruction::new(OpCode::Alu(AluOp::Add)).with_literal(Port(1), Value::Int(0));
        let p = one_block(vec![src, tgt], vec![]);
        assert!(matches!(p.validate(), Err(GraphError::BadPort { .. })));
    }

    #[test]
    fn validate_checks_switch_branches() {
        let mut sw = Instruction::new(OpCode::Switch);
        sw.dests.push(Dest {
            instr: InstrId(1),
            port: Port(0),
            when: DestBranch::Always,
        });
        let sink = Instruction::new(OpCode::Sink);
        let p = one_block(vec![sw, sink], vec![]);
        assert!(matches!(p.validate(), Err(GraphError::BadBranch { .. })));

        let mut id = Instruction::new(OpCode::Identity);
        id.dests.push(Dest {
            instr: InstrId(1),
            port: Port(0),
            when: DestBranch::IfTrue,
        });
        let sink = Instruction::new(OpCode::Sink);
        let p = one_block(vec![id, sink], vec![]);
        assert!(matches!(p.validate(), Err(GraphError::BadBranch { .. })));
    }

    #[test]
    fn validate_checks_apply() {
        let apply = Instruction::new(OpCode::Apply {
            callee: CodeBlockId(7),
            argc: 1,
        });
        let p = one_block(vec![apply], vec![]);
        assert!(matches!(p.validate(), Err(GraphError::BadApply { .. })));
    }

    #[test]
    fn validate_requires_return_in_callee() {
        let callee = CodeBlock {
            name: "f".into(),
            instrs: vec![Instruction::new(OpCode::Identity)],
            params: vec![InstrId(0)],
            criticality: Vec::new(),
        };
        let apply = Instruction::new(OpCode::Apply {
            callee: CodeBlockId(1),
            argc: 1,
        });
        let main = CodeBlock {
            name: "m".into(),
            instrs: vec![apply],
            params: vec![],
            criticality: Vec::new(),
        };
        let p = Program {
            blocks: vec![main, callee],
            main: CodeBlockId(0),
        };
        assert_eq!(
            p.validate(),
            Err(GraphError::NoReturn {
                callee: CodeBlockId(1)
            })
        );
    }

    #[test]
    fn validate_bad_main_and_param() {
        let p = Program {
            blocks: vec![],
            main: CodeBlockId(0),
        };
        assert_eq!(p.validate(), Err(GraphError::BadMain));
        let p = one_block(vec![], vec![InstrId(3)]);
        assert!(matches!(p.validate(), Err(GraphError::BadParam { .. })));
    }

    #[test]
    fn dot_output_mentions_blocks() {
        let p = one_block(vec![Instruction::new(OpCode::Identity)], vec![InstrId(0)]);
        let dot = p.to_dot();
        assert!(dot.contains("digraph"));
        assert!(dot.contains("s0: Identity"));
    }
}
