//! Code generation: AST → tagged-token dataflow graphs.
//!
//! The interesting schemas:
//!
//! - **Loops** expand to the paper's Fig 2-2 arrangement, the shape
//!   [`GraphBuilder::dataflow_loop`] builds, through the builder's
//!   three steps of it: `D` entry ([`GraphBuilder::loop_enter`]),
//!   per-variable `Switch`es gated by one predicate
//!   ([`GraphBuilder::loop_gate`]), `L` for the next iteration and `D⁻¹`
//!   on exit ([`GraphBuilder::loop_close`]).
//!   Loop-invariant free variables (and the `for` bound and step) are
//!   *circulated* as extra loop variables, exactly as the boxes riding
//!   through `L` in the paper's figure. All `new` bindings see the
//!   previous iteration's values (simultaneous rebinding — the semantics
//!   the paper's own trapezoid program depends on).
//! - **Conditionals** gate every variable a branch uses (plus a trigger
//!   for constants) through a shared `Switch` per variable; branch
//!   results converge on an `Identity` junction — only one side fires
//!   per activation, so tokens never collide.
//! - **Arrays** lower `array(n)` → `IAlloc`, `a[i]` → `IFetch`,
//!   `a[i] <- e` → `IStore` (+ a `Sink` for the completion signal).

use std::collections::{HashMap, HashSet};

use ttda_core::{AluOp, CmpOp, CodeBlockId, GraphBuilder, NodeId, OpCode, Program, Value};

use crate::ast::{BinOp, Binding, Def, Expr, SourceProgram, UnOp};
use crate::CompileError;

/// Compiles a parsed program. See [`crate::compile`].
///
/// # Errors
///
/// Returns [`CompileError::Codegen`] for name/arity problems and
/// propagates graph-construction failures.
pub fn compile_ast(sp: &SourceProgram) -> Result<Program, CompileError> {
    let main = sp
        .defs
        .iter()
        .find(|d| d.name == "main")
        .ok_or_else(|| CompileError::Codegen("no `def main(...)` found".into()))?;

    let mut cg = Cg {
        g: GraphBuilder::new("main"),
        sigs: HashMap::new(),
    };

    // Pre-register every signature so definitions can call forward (and
    // themselves).
    cg.sigs
        .insert("main".to_string(), (CodeBlockId(0), main.params.len()));
    for def in &sp.defs {
        if def.name == "main" {
            continue;
        }
        if cg.sigs.contains_key(&def.name) {
            return Err(CompileError::Codegen(format!(
                "duplicate definition of `{}`",
                def.name
            )));
        }
        let id = cg.g.begin_block(&def.name);
        cg.sigs.insert(def.name.clone(), (id, def.params.len()));
    }

    for def in &sp.defs {
        cg.compile_def(def)?;
    }

    cg.g.finish_program()
        .map_err(|e| CompileError::Codegen(e.to_string()))
}

struct Cg {
    g: GraphBuilder,
    sigs: HashMap<String, (CodeBlockId, usize)>,
}

#[derive(Clone)]
struct Scope {
    vars: HashMap<String, NodeId>,
    /// A node guaranteed to fire exactly once per activation in the
    /// current context — used to trigger `Const` generators.
    trigger: NodeId,
}

impl Cg {
    fn compile_def(&mut self, def: &Def) -> Result<(), CompileError> {
        if def.params.is_empty() {
            return Err(CompileError::Codegen(format!(
                "`{}` needs at least one parameter (dataflow activations are data-driven)",
                def.name
            )));
        }
        let (block, _) = self.sigs[&def.name];
        self.g.select_block(block);
        let mut vars = HashMap::new();
        let mut trigger = None;
        for p in &def.params {
            let n = self.g.param();
            if trigger.is_none() {
                trigger = Some(n);
            }
            if vars.insert(p.clone(), n).is_some() {
                return Err(CompileError::Codegen(format!(
                    "duplicate parameter `{p}` in `{}`",
                    def.name
                )));
            }
        }
        let scope = Scope {
            vars,
            trigger: trigger.expect("at least one param"),
        };
        let result = self.expr(&scope, &def.body)?;
        if def.name == "main" {
            let out = self.g.output(0);
            self.g.wire(result, out, 0);
        } else {
            let ret = self.g.instr(OpCode::Return);
            self.g.wire(result, ret, 0);
        }
        Ok(())
    }

    fn constant(&mut self, scope: &Scope, v: Value) -> NodeId {
        let c = self.g.lit(v);
        self.g.wire(scope.trigger, c, 0);
        c
    }

    /// A literal value, if the expression is one (enables the `nt=1` +
    /// literal-operand instruction encoding).
    fn try_const(e: &Expr) -> Option<Value> {
        match e {
            Expr::Int(v) => Some(Value::Int(*v)),
            Expr::Float(v) => Some(Value::Float(*v)),
            Expr::Bool(v) => Some(Value::Bool(*v)),
            Expr::Unary(UnOp::Neg, inner) => match Self::try_const(inner)? {
                Value::Int(v) => Some(Value::Int(-v)),
                Value::Float(v) => Some(Value::Float(-v)),
                _ => None,
            },
            _ => None,
        }
    }

    fn binop_opcode(op: BinOp) -> OpCode {
        match op {
            BinOp::Add => OpCode::Alu(AluOp::Add),
            BinOp::Sub => OpCode::Alu(AluOp::Sub),
            BinOp::Mul => OpCode::Alu(AluOp::Mul),
            BinOp::Div => OpCode::Alu(AluOp::Div),
            BinOp::Eq => OpCode::Cmp(CmpOp::Eq),
            BinOp::Ne => OpCode::Cmp(CmpOp::Ne),
            BinOp::Lt => OpCode::Cmp(CmpOp::Lt),
            BinOp::Le => OpCode::Cmp(CmpOp::Le),
            BinOp::Gt => OpCode::Cmp(CmpOp::Gt),
            BinOp::Ge => OpCode::Cmp(CmpOp::Ge),
            BinOp::And => OpCode::And,
            BinOp::Or => OpCode::Or,
        }
    }

    fn expr(&mut self, scope: &Scope, e: &Expr) -> Result<NodeId, CompileError> {
        match e {
            Expr::Int(_) | Expr::Float(_) | Expr::Bool(_) => {
                let v = Self::try_const(e).expect("literal");
                Ok(self.constant(scope, v))
            }
            Expr::Var(name) => scope
                .vars
                .get(name)
                .copied()
                .ok_or_else(|| CompileError::Codegen(format!("unknown variable `{name}`"))),
            Expr::Unary(UnOp::Neg, inner) => {
                if let Some(v) = Self::try_const(e) {
                    return Ok(self.constant(scope, v));
                }
                let x = self.expr(scope, inner)?;
                let n = self.g.instr_lit(OpCode::Alu(AluOp::Sub), 0, Value::Int(0));
                self.g.wire(x, n, 1);
                Ok(n)
            }
            Expr::Unary(UnOp::Not, inner) => {
                let x = self.expr(scope, inner)?;
                let n = self.g.instr(OpCode::Not);
                self.g.wire(x, n, 0);
                Ok(n)
            }
            Expr::Binary(op, lhs, rhs) => {
                let opcode = Self::binop_opcode(*op);
                match (Self::try_const(lhs), Self::try_const(rhs)) {
                    (_, Some(rv)) => {
                        let l = self.expr(scope, lhs)?;
                        let n = self.g.instr_lit(opcode, 1, rv);
                        self.g.wire(l, n, 0);
                        Ok(n)
                    }
                    (Some(lv), None) => {
                        let r = self.expr(scope, rhs)?;
                        let n = self.g.instr_lit(opcode, 0, lv);
                        self.g.wire(r, n, 1);
                        Ok(n)
                    }
                    (None, None) => {
                        let l = self.expr(scope, lhs)?;
                        let r = self.expr(scope, rhs)?;
                        let n = self.g.instr(opcode);
                        self.g.wire(l, n, 0);
                        self.g.wire(r, n, 1);
                        Ok(n)
                    }
                }
            }
            Expr::If(c, t, el) => self.compile_if(scope, c, t, el),
            Expr::Call(name, args) => {
                let &(callee, argc) = self
                    .sigs
                    .get(name)
                    .ok_or_else(|| CompileError::Codegen(format!("unknown function `{name}`")))?;
                if args.len() != argc {
                    return Err(CompileError::Codegen(format!(
                        "`{name}` takes {argc} arguments, got {}",
                        args.len()
                    )));
                }
                let apply = self.g.instr(OpCode::Apply {
                    callee,
                    argc: argc as u8,
                });
                for (k, a) in args.iter().enumerate() {
                    let an = self.expr(scope, a)?;
                    self.g.wire(an, apply, k as u8);
                }
                Ok(apply)
            }
            Expr::Let(bindings, body) => {
                let mut inner = scope.clone();
                for b in bindings {
                    match b {
                        Binding::Bind(name, e) => {
                            let n = self.expr(&inner, e)?;
                            inner.vars.insert(name.clone(), n);
                        }
                        Binding::Store { target, idx, value } => {
                            self.compile_store(&inner, target, idx, value)?;
                        }
                    }
                }
                self.expr(&inner, body)
            }
            Expr::Array(size) => {
                let s = self.expr(scope, size)?;
                let a = self.g.instr(OpCode::IAlloc);
                self.g.wire(s, a, 0);
                Ok(a)
            }
            Expr::Select(arr, idx) => {
                let a = self.expr(scope, arr)?;
                let f = if let Some(iv) = Self::try_const(idx) {
                    let f = self.g.instr_lit(OpCode::IFetch, 1, iv);
                    self.g.wire(a, f, 0);
                    f
                } else {
                    let i = self.expr(scope, idx)?;
                    let f = self.g.instr(OpCode::IFetch);
                    self.g.wire(a, f, 0);
                    self.g.wire(i, f, 1);
                    f
                };
                Ok(f)
            }
            Expr::Loop { .. } => self.compile_loop(scope, e),
        }
    }

    fn compile_store(
        &mut self,
        scope: &Scope,
        target: &str,
        idx: &Expr,
        value: &Expr,
    ) -> Result<(), CompileError> {
        let a = scope
            .vars
            .get(target)
            .copied()
            .ok_or_else(|| CompileError::Codegen(format!("unknown array `{target}`")))?;
        let st = if let Some(iv) = Self::try_const(idx) {
            let st = self.g.instr_lit(OpCode::IStore, 1, iv);
            self.g.wire(a, st, 0);
            st
        } else {
            let i = self.expr(scope, idx)?;
            let st = self.g.instr(OpCode::IStore);
            self.g.wire(a, st, 0);
            self.g.wire(i, st, 1);
            st
        };
        let v = self.expr(scope, value)?;
        self.g.wire(v, st, 2);
        let sink = self.g.instr(OpCode::Sink);
        self.g.wire(st, sink, 0);
        Ok(())
    }

    fn compile_if(
        &mut self,
        scope: &Scope,
        c: &Expr,
        t: &Expr,
        el: &Expr,
    ) -> Result<NodeId, CompileError> {
        let p = self.expr(scope, c)?;

        let mut used_t = HashSet::new();
        t.free_vars(&mut used_t);
        let mut used_e = HashSet::new();
        el.free_vars(&mut used_e);
        let mut all: Vec<String> = used_t
            .union(&used_e)
            .filter(|v| scope.vars.contains_key(*v))
            .cloned()
            .collect();
        all.sort();

        let mut then_scope = Scope {
            vars: HashMap::new(),
            trigger: scope.trigger, // replaced below
        };
        let mut else_scope = then_scope.clone();

        for name in &all {
            let sw = self.g.instr(OpCode::Switch);
            self.g.wire(scope.vars[name], sw, 0);
            self.g.wire(p, sw, 1);
            if used_t.contains(name) {
                let id = self.g.instr(OpCode::Identity);
                self.g.wire_true(sw, id, 0);
                then_scope.vars.insert(name.clone(), id);
            }
            if used_e.contains(name) {
                let id = self.g.instr(OpCode::Identity);
                self.g.wire_false(sw, id, 0);
                else_scope.vars.insert(name.clone(), id);
            }
        }

        // The trigger is gated too, so branch-local constants fire only
        // on the taken side.
        let tsw = self.g.instr(OpCode::Switch);
        self.g.wire(scope.trigger, tsw, 0);
        self.g.wire(p, tsw, 1);
        let t_trig = self.g.instr(OpCode::Identity);
        self.g.wire_true(tsw, t_trig, 0);
        then_scope.trigger = t_trig;
        let e_trig = self.g.instr(OpCode::Identity);
        self.g.wire_false(tsw, e_trig, 0);
        else_scope.trigger = e_trig;

        let tv = self.expr(&then_scope, t)?;
        let ev = self.expr(&else_scope, el)?;
        let join = self.g.instr(OpCode::Identity);
        self.g.wire(tv, join, 0);
        self.g.wire(ev, join, 0);
        Ok(join)
    }

    fn compile_loop(&mut self, scope: &Scope, e: &Expr) -> Result<NodeId, CompileError> {
        let Expr::Loop {
            inits,
            for_clause,
            while_clause,
            body,
            ret,
        } = e
        else {
            unreachable!("compile_loop on non-loop");
        };

        // Names of the circulating variables, in a fixed order:
        //   [inits..., for-var?, #to?, #by?, invariants...]
        let mut names: Vec<String> = inits.iter().map(|(n, _)| n.clone()).collect();
        let mut init_nodes: Vec<NodeId> = Vec::new();
        for (_, ie) in inits {
            init_nodes.push(self.expr(scope, ie)?);
        }

        let mut for_idx = None;
        let mut to_idx = None;
        let mut by_idx = None;
        if let Some(fc) = for_clause {
            for_idx = Some(names.len());
            names.push(fc.var.clone());
            init_nodes.push(self.expr(scope, &fc.from)?);
            to_idx = Some(names.len());
            names.push("#to".into());
            init_nodes.push(self.expr(scope, &fc.to)?);
            by_idx = Some(names.len());
            names.push("#by".into());
            let by_node = match &fc.by {
                Some(b) => self.expr(scope, b)?,
                None => self.constant(scope, Value::Int(1)),
            };
            init_nodes.push(by_node);
        }

        // Loop-invariant free variables of the body + while-condition are
        // circulated (the return expression runs *outside*, after D⁻¹).
        let mut inner_free = HashSet::new();
        for b in body {
            match b {
                Binding::Bind(_, be) => be.free_vars(&mut inner_free),
                Binding::Store { target, idx, value } => {
                    inner_free.insert(target.clone());
                    idx.free_vars(&mut inner_free);
                    value.free_vars(&mut inner_free);
                }
            }
        }
        if let Some(w) = while_clause {
            w.free_vars(&mut inner_free);
        }
        let mut invariants: Vec<String> = inner_free
            .into_iter()
            .filter(|n| !names.contains(n) && scope.vars.contains_key(n))
            .collect();
        invariants.sort();
        for inv in &invariants {
            names.push(inv.clone());
            init_nodes.push(scope.vars[inv]);
        }

        let rebinds: HashMap<&str, &Expr> = body
            .iter()
            .filter_map(|b| match b {
                Binding::Bind(n, e) => Some((n.as_str(), e)),
                Binding::Store { .. } => None,
            })
            .collect();
        for name in rebinds.keys() {
            if !names.iter().any(|n| n == name) {
                return Err(CompileError::Codegen(format!(
                    "`new {name}` rebinds a name that is not a loop variable"
                )));
            }
        }
        let stores: Vec<&Binding> = body
            .iter()
            .filter(|b| matches!(b, Binding::Store { .. }))
            .collect();

        // The Fig 2-2 schema, in the builder's three steps around the
        // predicate and body compiled here.
        let tops = self.g.loop_enter(&init_nodes);

        // Predicate from the loop-top values: `i <= #to` (step must be
        // positive), ANDed with any while-condition.
        let top_scope = Scope {
            vars: names.iter().cloned().zip(tops.iter().copied()).collect(),
            trigger: for_idx.map(|fi| tops[fi]).unwrap_or(tops[0]),
        };
        let mut pred = None;
        if let (Some(fi), Some(ti)) = (for_idx, to_idx) {
            let c = self.g.instr(OpCode::Cmp(CmpOp::Le));
            self.g.wire(tops[fi], c, 0);
            self.g.wire(tops[ti], c, 1);
            pred = Some(c);
        }
        if let Some(w) = while_clause {
            let wn = self.expr(&top_scope, w)?;
            pred = Some(match pred {
                None => wn,
                Some(p0) => {
                    let a = self.g.instr(OpCode::And);
                    self.g.wire(p0, a, 0);
                    self.g.wire(wn, a, 1);
                    a
                }
            });
        }
        let pred = pred.expect("parser guarantees for or while");
        let (switches, vars) = self.g.loop_gate(&tops, pred);

        // Trigger selection matters for parallelism: constants (and thus
        // nested-loop launches) inside the body fire when the trigger
        // token arrives. The induction variable's ring circulates without
        // waiting on slow accumulator chains, so triggering from it lets
        // iteration k's body start as soon as `i = k` exists — the
        // pipelining Fig 2-2's graph exhibits. Falling back to vars[0]
        // (while-loops) is safe but can serialize nested launches behind
        // the first variable's chain.
        let body_trigger = for_idx.map(|fi| vars[fi]).unwrap_or(vars[0]);
        let body_scope = Scope {
            vars: names.iter().cloned().zip(vars.iter().copied()).collect(),
            trigger: body_trigger,
        };
        // Stores fire inside the body.
        for b in &stores {
            if let Binding::Store { target, idx, value } = b {
                self.compile_store(&body_scope, target, idx, value)?;
            }
        }
        // Next values: simultaneous rebinding from old values.
        let mut next = Vec::with_capacity(vars.len());
        for (k, name) in names.iter().enumerate() {
            if Some(k) == for_idx {
                let inc = self.g.instr(OpCode::Alu(AluOp::Add));
                self.g.wire(vars[k], inc, 0);
                self.g.wire(vars[by_idx.expect("for implies by")], inc, 1);
                next.push(inc);
            } else if let Some(be) = rebinds.get(name.as_str()) {
                next.push(self.expr(&body_scope, be)?);
            } else {
                next.push(vars[k]);
            }
        }

        let exits = self
            .g
            .loop_close(&tops, &switches, &next)
            .map_err(|e| CompileError::Codegen(e.to_string()))?;

        // The return expression sees the exit values plus the outer scope.
        let mut ret_scope = scope.clone();
        for (name, exit) in names.iter().zip(exits.iter()) {
            ret_scope.vars.insert(name.clone(), *exit);
        }
        ret_scope.trigger = for_idx.map(|fi| exits[fi]).unwrap_or(exits[0]);
        self.expr(&ret_scope, ret)
    }
}

#[cfg(test)]
mod tests {
    use ttda_core::{Emulator, TimedConfig, TimedMachine, Value};
    use ttda_sim::Cycle;

    fn run(src: &str, inputs: &[Value]) -> Value {
        let p = crate::compile(src).expect("compile");
        let r = Emulator::new(&p).run(inputs).expect("run");
        r.outputs[&0]
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(
            run("def main(x) = x + 2 * 3;", &[Value::Int(4)]),
            Value::Int(10)
        );
        assert_eq!(
            run("def main(x) = (x + 2) * 3;", &[Value::Int(4)]),
            Value::Int(18)
        );
        assert_eq!(
            run("def main(x) = -x + 1;", &[Value::Int(4)]),
            Value::Int(-3)
        );
        assert_eq!(
            run("def main(x) = 10.0 / x;", &[Value::Int(4)]),
            Value::Float(2.5)
        );
    }

    #[test]
    fn booleans_and_conditionals() {
        assert_eq!(
            run("def main(x) = if x > 0 then x else -x;", &[Value::Int(-5)]),
            Value::Int(5)
        );
        assert_eq!(
            run(
                "def main(x) = if x > 0 and x < 10 then 1 else 0;",
                &[Value::Int(5)]
            ),
            Value::Int(1)
        );
        assert_eq!(
            run(
                "def main(x) = if not (x == 3) then 1 else 0;",
                &[Value::Int(3)]
            ),
            Value::Int(0)
        );
        assert_eq!(
            run(
                "def main(x) = if x > 0 then if x > 10 then 2 else 1 else 0;",
                &[Value::Int(20)]
            ),
            Value::Int(2)
        );
    }

    #[test]
    fn let_blocks_shadow_sequentially() {
        assert_eq!(
            run(
                "def main(x) = { y = x + 1; y = y * 2; y };",
                &[Value::Int(3)]
            ),
            Value::Int(8)
        );
    }

    #[test]
    fn for_loop_sums() {
        let src = "def main(n) =
            (initial s = 0 for i from 1 to n do new s = s + i return s);";
        assert_eq!(run(src, &[Value::Int(100)]), Value::Int(5050));
        // Zero-trip loop: from 1 to 0.
        assert_eq!(run(src, &[Value::Int(0)]), Value::Int(0));
    }

    #[test]
    fn for_loop_with_step() {
        let src = "def main(n) =
            (initial s = 0 for i from 0 to n by 2 do new s = s + i return s);";
        assert_eq!(run(src, &[Value::Int(10)]), Value::Int(30)); // 0+2+4+6+8+10
    }

    #[test]
    fn while_loop_halves() {
        let src = "def main(n) =
            (initial x = n; steps = 0
             while x > 1 do
               new x = x / 2;
               new steps = steps + 1
             return steps);";
        assert_eq!(run(src, &[Value::Int(1024)]), Value::Int(10));
    }

    #[test]
    fn loop_uses_invariant_from_outer_scope() {
        let src = "def main(n) =
            { k = n * 2;
              (initial s = 0 for i from 1 to 3 do new s = s + k return s) };";
        assert_eq!(run(src, &[Value::Int(5)]), Value::Int(30));
    }

    #[test]
    fn paper_trapezoid_program() {
        // The exact shape of Fig 2-2, with f(x) = x*x from 0 to 2:
        // integral = 8/3.
        let src = "
            def f(x) = x * x;
            def main(a, b, n) =
              { h = (b - a) / n;
                (initial s = (f(a) + f(b)) / 2.0; x = a + h
                 for i from 1 to n - 1 do
                   new x = x + h;
                   new s = s + f(x)
                 return s) * h };";
        let v = run(
            src,
            &[Value::Float(0.0), Value::Float(2.0), Value::Int(200)],
        );
        let Value::Float(got) = v else {
            panic!("float expected, got {v}")
        };
        assert!((got - 8.0 / 3.0).abs() < 1e-3, "got {got}");
    }

    #[test]
    fn recursion_fib() {
        let src = "
            def fib(n) = if n < 2 then n else fib(n - 1) + fib(n - 2);
            def main(k) = fib(k);";
        assert_eq!(run(src, &[Value::Int(15)]), Value::Int(610));
    }

    #[test]
    fn arrays_producer_consumer() {
        // Fill a[i] = i*i in one loop, sum it in another; the consumer
        // loop's fetches may race ahead of the producer's stores —
        // I-structures make that safe.
        let src = "
            def main(n) =
              { a = array(n);
                len = (initial j = 0 for i from 0 to n - 1 do
                         a[i] <- i * i;
                         new j = j + 1
                       return j);
                (initial s = 0 for i from 0 to len - 1 do
                   new s = s + a[i]
                 return s) };";
        // 0 + 1 + 4 + ... + 81 = 285 for n = 10
        assert_eq!(run(src, &[Value::Int(10)]), Value::Int(285));
    }

    #[test]
    fn store_then_select_in_block() {
        let src = "def main(x) =
            { a = array(2);
              a[0] <- x + 1;
              a[1] <- x + 2;
              a[0] * a[1] };";
        assert_eq!(run(src, &[Value::Int(10)]), Value::Int(132));
    }

    #[test]
    fn compiled_code_runs_on_timed_machine_too() {
        let src = "
            def f(x) = 4.0 / (1.0 + x * x);
            def main(a, b, n) =
              { h = (b - a) / n;
                (initial s = (f(a) + f(b)) / 2.0; x = a + h
                 for i from 1 to n - 1 do
                   new x = x + h;
                   new s = s + f(x)
                 return s) * h };";
        let p = crate::compile(src).unwrap();
        let mut m = TimedMachine::ideal(p, 4, Cycle(4), TimedConfig::default());
        let r = m
            .run(&[Value::Float(0.0), Value::Float(1.0), Value::Int(50)])
            .unwrap();
        let Value::Float(pi) = r.outputs[&0] else {
            panic!()
        };
        assert!((pi - std::f64::consts::PI).abs() < 1e-2, "got {pi}");
        assert!(r.stats.alu_utilization() > 0.0);
    }

    #[test]
    fn codegen_errors() {
        let check = |src: &str, needle: &str| {
            let err = crate::compile(src).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "`{src}` gave `{err}`, wanted `{needle}`"
            );
        };
        check("def f(x) = x;", "no `def main");
        check("def main(x) = y;", "unknown variable");
        check("def main(x) = g(x);", "unknown function");
        check("def f(x) = x; def main(x) = f(x, x);", "takes 1 arguments");
        check("def main() = 1;", "at least one parameter");
        check("def main(x, x) = x;", "duplicate parameter");
        check(
            "def f(x) = x; def f(x) = x; def main(x) = 1;",
            "duplicate definition",
        );
        check(
            "def main(x) = (initial s = 0 for i from 1 to 3 do new q = 1 return s);",
            "not a loop variable",
        );
        check(
            "def main(x) = { a = array(2); b[0] <- 1; a[0] };",
            "unknown array",
        );
    }
}
