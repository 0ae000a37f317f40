//! A checked construction API for dataflow graphs.

use std::error::Error;
use std::fmt;

use crate::graph::{
    CodeBlock, CodeBlockId, Dest, DestBranch, GraphError, InstrId, Instruction, OpCode, Program,
};
use crate::tag::Port;
use crate::value::Value;

/// A handle to an instruction under construction. Carries its code block
/// so cross-block wiring (which the machine cannot execute) is caught at
/// build time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeId {
    pub(crate) block: CodeBlockId,
    pub(crate) id: InstrId,
}

impl NodeId {
    /// The instruction id this node will have in the finished program.
    pub fn instr(&self) -> InstrId {
        self.id
    }

    /// The code block this node belongs to.
    pub fn block(&self) -> CodeBlockId {
        self.block
    }
}

/// Errors detected while building a program.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// An edge connected instructions in different code blocks.
    CrossBlockWire {
        /// Source block.
        from: CodeBlockId,
        /// Destination block.
        to: CodeBlockId,
    },
    /// A loop body returned the wrong number of next-iteration values.
    LoopArity {
        /// Number of loop variables.
        vars: usize,
        /// Number of values the body produced.
        produced: usize,
    },
    /// Structural validation of the finished program failed.
    Graph(GraphError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::CrossBlockWire { from, to } => {
                write!(f, "cannot wire across code blocks ({from} -> {to})")
            }
            BuildError::LoopArity { vars, produced } => {
                write!(
                    f,
                    "loop body produced {produced} values for {vars} variables"
                )
            }
            BuildError::Graph(e) => write!(f, "invalid graph: {e}"),
        }
    }
}

impl Error for BuildError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BuildError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for BuildError {
    fn from(e: GraphError) -> Self {
        BuildError::Graph(e)
    }
}

/// Builds [`Program`]s instruction by instruction, with label-free
/// wiring, literal operands, and a helper that expands the paper's
/// complete loop schema (Fig 2-2's `D` / `L` / `Switch` / `D⁻¹`
/// arrangement).
///
/// The builder starts with one code block (which becomes `main`);
/// [`GraphBuilder::begin_block`] opens further blocks for procedures.
///
/// # Example
///
/// ```
/// use ttda_core::{AluOp, CmpOp, Emulator, GraphBuilder, OpCode, Value};
///
/// // sum 1..=n with the full tagged-token loop schema
/// let mut g = GraphBuilder::new("sum");
/// let n = g.param();
/// let one = g.lit(Value::Int(1));
/// let zero = g.lit(Value::Int(0));
/// g.wire(n, one, 0); // trigger the literals when input arrives
/// g.wire(n, zero, 0);
/// let exits = g
///     .dataflow_loop(
///         &[zero, one, n], // acc, i, n circulate
///         |g, tops| {
///             let c = g.instr(OpCode::Cmp(CmpOp::Le));
///             g.wire(tops[1], c, 0);
///             g.wire(tops[2], c, 1);
///             c
///         },
///         |g, vars| {
///             let acc = g.instr(OpCode::Alu(AluOp::Add));
///             g.wire(vars[0], acc, 0);
///             g.wire(vars[1], acc, 1);
///             let i2 = g.instr_lit(OpCode::Alu(AluOp::Add), 1, Value::Int(1));
///             g.wire(vars[1], i2, 0);
///             vec![acc, i2, vars[2]]
///         },
///     )
///     .unwrap();
/// let out = g.output(0);
/// g.wire(exits[0], out, 0);
/// let p = g.finish_program().unwrap();
///
/// let mut emu = Emulator::new(&p);
/// let r = emu.run(&[Value::Int(100)]).unwrap();
/// assert_eq!(r.outputs[&0], Value::Int(5050));
/// ```
#[derive(Debug)]
pub struct GraphBuilder {
    blocks: Vec<CodeBlock>,
    current: usize,
    next_loop_id: u32,
    errors: Vec<BuildError>,
}

impl GraphBuilder {
    /// Creates a builder whose first (current) block is `main_name`.
    pub fn new(main_name: &str) -> Self {
        GraphBuilder {
            blocks: vec![CodeBlock {
                name: main_name.to_string(),
                instrs: Vec::new(),
                params: Vec::new(),
                criticality: Vec::new(),
            }],
            current: 0,
            next_loop_id: 0,
            errors: Vec::new(),
        }
    }

    /// Opens a new code block and makes it current; returns its id (for
    /// `Apply`).
    pub fn begin_block(&mut self, name: &str) -> CodeBlockId {
        self.blocks.push(CodeBlock {
            name: name.to_string(),
            instrs: Vec::new(),
            params: Vec::new(),
            criticality: Vec::new(),
        });
        self.current = self.blocks.len() - 1;
        CodeBlockId((self.blocks.len() - 1) as u32)
    }

    /// Switches the current block.
    ///
    /// # Panics
    ///
    /// Panics if `block` was never created.
    pub fn select_block(&mut self, block: CodeBlockId) {
        assert!(
            (block.0 as usize) < self.blocks.len(),
            "unknown block {block}"
        );
        self.current = block.0 as usize;
    }

    /// The current block's id.
    pub fn current_block(&self) -> CodeBlockId {
        CodeBlockId(self.current as u32)
    }

    fn add(&mut self, instr: Instruction) -> NodeId {
        let block = self.current_block();
        let id = InstrId(self.blocks[self.current].instrs.len() as u32);
        self.blocks[self.current].instrs.push(instr);
        NodeId { block, id }
    }

    /// Adds an instruction.
    pub fn instr(&mut self, op: OpCode) -> NodeId {
        self.add(Instruction::new(op))
    }

    /// Adds an instruction with a literal operand at `port`.
    pub fn instr_lit(&mut self, op: OpCode, port: u8, value: Value) -> NodeId {
        self.add(Instruction::new(op).with_literal(Port(port), value))
    }

    /// Adds a constant generator: its *input* is a trigger token (value
    /// ignored) and its output is `value`. Wire any token into it to
    /// release the constant into the activation.
    pub fn lit(&mut self, value: Value) -> NodeId {
        self.add(Instruction::new(OpCode::Const(value)))
    }

    /// Adds a parameter entry to the current block; argument `k` of an
    /// invocation arrives at the `k`-th `param()`.
    pub fn param(&mut self) -> NodeId {
        let n = self.instr(OpCode::Identity);
        self.blocks[self.current].params.push(n.id);
        n
    }

    /// Adds a program output instruction for `slot`.
    pub fn output(&mut self, slot: u32) -> NodeId {
        self.instr(OpCode::Output(slot))
    }

    /// Wires `from`'s output to `to`'s operand `port`.
    pub fn wire(&mut self, from: NodeId, to: NodeId, port: u8) -> &mut Self {
        self.wire_when(from, to, port, DestBranch::Always)
    }

    /// Wires a `Switch`'s true output.
    pub fn wire_true(&mut self, from: NodeId, to: NodeId, port: u8) -> &mut Self {
        self.wire_when(from, to, port, DestBranch::IfTrue)
    }

    /// Wires a `Switch`'s false output.
    pub fn wire_false(&mut self, from: NodeId, to: NodeId, port: u8) -> &mut Self {
        self.wire_when(from, to, port, DestBranch::IfFalse)
    }

    fn wire_when(&mut self, from: NodeId, to: NodeId, port: u8, when: DestBranch) -> &mut Self {
        if from.block != to.block {
            self.errors.push(BuildError::CrossBlockWire {
                from: from.block,
                to: to.block,
            });
            return self;
        }
        self.blocks[from.block.0 as usize].instrs[from.id.0 as usize]
            .dests
            .push(Dest {
                instr: to.id,
                port: Port(port),
                when,
            });
        self
    }

    /// Expands the complete tagged-token loop schema around `inits`:
    ///
    /// ```text
    ///   inits ─D─▶ top ─┬─▶ cond(tops) ─────────┐ (control)
    ///                   └─▶ Switch ◀────────────┘
    ///                        │ true        │ false
    ///                        ▼             ▼
    ///                   body(vars)       D⁻¹ ─▶ exits
    ///                        │ next
    ///                        ▼
    ///                        L ──▶ top (i+1)
    /// ```
    ///
    /// `cond` builds the continuation predicate from the loop-top values;
    /// `body` builds the next-iteration values from the switch-gated
    /// variables. Returns the exit nodes (post-`D⁻¹`, tagged back in the
    /// enclosing context), one per variable. The schema is the three
    /// steps [`GraphBuilder::loop_enter`], [`GraphBuilder::loop_gate`]
    /// and [`GraphBuilder::loop_close`], which a caller that builds its
    /// predicate and body with more than the builder in hand (a
    /// compiler) takes itself.
    ///
    /// # Errors
    ///
    /// Records [`BuildError::LoopArity`] (surfaced at
    /// [`GraphBuilder::finish_program`]) if `body` returns the wrong
    /// number of values; cross-block wires are detected as usual.
    pub fn dataflow_loop(
        &mut self,
        inits: &[NodeId],
        cond: impl FnOnce(&mut Self, &[NodeId]) -> NodeId,
        body: impl FnOnce(&mut Self, &[NodeId]) -> Vec<NodeId>,
    ) -> Result<Vec<NodeId>, BuildError> {
        let tops = self.loop_enter(inits);
        let p = cond(self, &tops);
        let (switches, vars) = self.loop_gate(&tops, p);
        let next = body(self, &vars);
        self.loop_close(&tops, &switches, &next)
    }

    /// The loop schema's entry: one `D` per value of `inits`, all
    /// sharing a fresh loop id, each feeding a loop-top junction
    /// (`Identity`) that [`GraphBuilder::loop_close`] wires `L` back
    /// into. Returns the loop tops, one per variable.
    pub fn loop_enter(&mut self, inits: &[NodeId]) -> Vec<NodeId> {
        let loop_id = self.next_loop_id;
        self.next_loop_id += 1;
        inits
            .iter()
            .map(|&init| {
                let d = self.instr(OpCode::D { loop_id });
                self.wire(init, d, 0);
                let top = self.instr(OpCode::Identity);
                self.wire(d, top, 0);
                top
            })
            .collect()
    }

    /// The loop schema's gate: one `Switch` per loop top, all gated by
    /// the predicate `pred`, each passing its true side to a body-input
    /// junction. Returns the switches and the body inputs, one of each
    /// per variable.
    pub fn loop_gate(&mut self, tops: &[NodeId], pred: NodeId) -> (Vec<NodeId>, Vec<NodeId>) {
        let mut switches = Vec::with_capacity(tops.len());
        let mut vars = Vec::with_capacity(tops.len());
        for &top in tops {
            let sw = self.instr(OpCode::Switch);
            self.wire(top, sw, 0);
            self.wire(pred, sw, 1);
            let body_in = self.instr(OpCode::Identity);
            self.wire_true(sw, body_in, 0);
            switches.push(sw);
            vars.push(body_in);
        }
        (switches, vars)
    }

    /// Closes the loop schema: each of `next` (one next-iteration value
    /// per variable) goes through `L` back to its loop top, and each
    /// switch's false side leaves through `D⁻¹`. Returns the exit nodes,
    /// tagged back in the enclosing context, one per variable.
    ///
    /// # Errors
    ///
    /// Records and returns [`BuildError::LoopArity`] if `next` has not
    /// one value per loop top.
    ///
    /// # Panics
    ///
    /// Panics if `switches` has not one switch per loop top: they come
    /// from [`GraphBuilder::loop_gate`] over the same tops.
    pub fn loop_close(
        &mut self,
        tops: &[NodeId],
        switches: &[NodeId],
        next: &[NodeId],
    ) -> Result<Vec<NodeId>, BuildError> {
        assert_eq!(switches.len(), tops.len(), "one switch per loop top");
        if next.len() != tops.len() {
            let err = BuildError::LoopArity {
                vars: tops.len(),
                produced: next.len(),
            };
            self.errors.push(err.clone());
            return Err(err);
        }
        let mut exits = Vec::with_capacity(tops.len());
        for ((&nv, &top), &sw) in next.iter().zip(tops).zip(switches) {
            let l = self.instr(OpCode::L);
            self.wire(nv, l, 0);
            self.wire(l, top, 0);
            let dinv = self.instr(OpCode::DInv);
            self.wire_false(sw, dinv, 0);
            exits.push(dinv);
        }
        Ok(exits)
    }

    /// Finishes and validates the program.
    ///
    /// # Errors
    ///
    /// Returns the first recorded wiring error, or any structural
    /// [`GraphError`] found by [`Program::validate`].
    pub fn finish_program(self) -> Result<Program, BuildError> {
        if let Some(e) = self.errors.into_iter().next() {
            return Err(e);
        }
        let p = Program {
            blocks: self.blocks,
            main: CodeBlockId(0),
        };
        p.validate()?;
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::AluOp;

    #[test]
    fn simple_wiring_builds() {
        let mut g = GraphBuilder::new("t");
        let a = g.param();
        let b = g.param();
        let add = g.instr(OpCode::Alu(AluOp::Add));
        let out = g.output(0);
        g.wire(a, add, 0).wire(b, add, 1).wire(add, out, 0);
        let p = g.finish_program().unwrap();
        assert_eq!(p.instr_count(), 4);
        assert_eq!(p.blocks[0].params.len(), 2);
    }

    #[test]
    fn cross_block_wire_rejected() {
        let mut g = GraphBuilder::new("m");
        let a = g.param();
        g.begin_block("f");
        let b = g.param();
        g.wire(a, b, 0);
        assert!(matches!(
            g.finish_program(),
            Err(BuildError::CrossBlockWire { .. })
        ));
    }

    #[test]
    fn node_accessors() {
        let mut g = GraphBuilder::new("m");
        let a = g.param();
        assert_eq!(a.block(), CodeBlockId(0));
        assert_eq!(a.instr(), InstrId(0));
        let f = g.begin_block("f");
        assert_eq!(g.current_block(), f);
        g.select_block(CodeBlockId(0));
        assert_eq!(g.current_block(), CodeBlockId(0));
    }

    #[test]
    fn loop_arity_mismatch_caught() {
        let mut g = GraphBuilder::new("m");
        let n = g.param();
        let r = g.dataflow_loop(
            &[n],
            |g, tops| {
                let c = g.instr_lit(OpCode::Cmp(crate::value::CmpOp::Lt), 1, Value::Int(10));
                g.wire(tops[0], c, 0);
                c
            },
            |_, _| vec![], // wrong: zero next values for one var
        );
        assert!(matches!(
            r,
            Err(BuildError::LoopArity {
                vars: 1,
                produced: 0
            })
        ));
        let e = r.unwrap_err();
        assert!(e.to_string().contains("loop body"));
    }

    #[test]
    fn invalid_graph_surfaces_at_finish() {
        let mut g = GraphBuilder::new("m");
        let apply = g.instr(OpCode::Apply {
            callee: CodeBlockId(9),
            argc: 0,
        });
        let out = g.output(0);
        g.wire(apply, out, 0);
        assert!(matches!(g.finish_program(), Err(BuildError::Graph(_))));
    }

    #[test]
    #[should_panic(expected = "unknown block")]
    fn select_unknown_block_panics() {
        let mut g = GraphBuilder::new("m");
        g.select_block(CodeBlockId(4));
    }
}
