//! Adversarial scenario generators for the differential fuzzer.
//!
//! Each [`Family`] targets a specific stress axis of the token machines:
//!
//! - [`Family::Expr`]: random closed expressions (the baseline family,
//!   sharing [`super::xexpr`] with `tests/properties.rs`);
//! - [`Family::HotSkew`]: Zipf-skewed I-structure read addresses where
//!   the hottest cell's producer is delayed behind a dependency chain,
//!   so deferred reads pile up on one shard;
//! - [`Family::DeferChain`]: `a[i] <- a[i+1] + 1` cascades — every read
//!   defers until a single seed write at the far end resolves the whole
//!   chain in a wavefront;
//! - [`Family::TagRecursion`]: deep (optionally mutual) recursion, one
//!   fresh context and tag domain per call;
//! - [`Family::FanoutJoin`]: one input fanning out to many parallel
//!   calls whose results join in a reduction tree;
//! - [`Family::MultiTenant`]: several independent expression programs
//!   merged with [`ttda_core::Program::merge`] and launched as
//!   concurrent jobs;
//! - [`Family::StoreSkew`]: raw I-structure operation sequences with
//!   Zipf-hot addresses, replayed in lockstep against the enum
//!   reference store and a HEP full/empty memory (no Id program);
//! - [`Family::LoopNest`]: `for`/`while` nests one to three deep whose
//!   bodies, predicates, inner-loop bounds and `return` expressions read
//!   outer variables — the loop schema that unrolling, hoisting and
//!   loop-constant promotion rewrite.
//!
//! A [`Scenario`] is produced deterministically from `(family, seed)` by
//! [`Scenario::generate`]; [`Scenario::shrink`] yields strictly simpler
//! candidate scenarios for delta-debug minimization.

use ttda_sim::{SimRng, Zipf};

use super::xexpr::{self, XExpr};

/// The generator families, in corpus-file order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Random closed arithmetic expressions over two inputs.
    Expr,
    /// Zipf-hot I-structure reads against a slow producer.
    HotSkew,
    /// Linear deferred-read cascades.
    DeferChain,
    /// Deep/mutual recursion (context and tag pressure).
    TagRecursion,
    /// Wide fan-out with a join reduction.
    FanoutJoin,
    /// Merged multiprogram tenants under `submit`.
    MultiTenant,
    /// Raw store op-sequences (packed vs enum vs HEP oracle).
    StoreSkew,
    /// Nested `for`/`while` loops reading outer variables.
    LoopNest,
}

impl Family {
    /// Every family, in a fixed order (used by corpus tables and CLI).
    pub const ALL: [Family; 8] = [
        Family::Expr,
        Family::HotSkew,
        Family::DeferChain,
        Family::TagRecursion,
        Family::FanoutJoin,
        Family::MultiTenant,
        Family::StoreSkew,
        Family::LoopNest,
    ];

    /// The stable name used in corpus files and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            Family::Expr => "expr",
            Family::HotSkew => "hot-skew",
            Family::DeferChain => "defer-chain",
            Family::TagRecursion => "tag-recursion",
            Family::FanoutJoin => "fanout-join",
            Family::MultiTenant => "multi-tenant",
            Family::StoreSkew => "store-skew",
            Family::LoopNest => "loop-nest",
        }
    }

    /// Parses a [`Family::name`] back (used by the corpus parser and the
    /// `--families` CLI flag).
    pub fn parse(s: &str) -> Option<Family> {
        Family::ALL.iter().copied().find(|f| f.name() == s)
    }
}

impl std::fmt::Display for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A random expression program: `def main(x, y) = <expr>;`.
#[derive(Debug, Clone, PartialEq)]
pub struct ExprSpec {
    /// The expression body.
    pub expr: XExpr,
    /// Value for input `x`.
    pub x: i64,
    /// Value for input `y`.
    pub y: i64,
}

impl ExprSpec {
    /// Renders the Id source.
    pub fn source(&self) -> String {
        format!("def main(x, y) = {};", xexpr::to_src(&self.expr))
    }

    /// The reference answer.
    pub fn expected(&self) -> i64 {
        xexpr::eval(&self.expr, self.x, self.y, 0)
    }

    fn gen(rng: &mut SimRng) -> ExprSpec {
        let depth = rng.gen_range(2usize..=5);
        ExprSpec {
            expr: xexpr::gen_expr(rng, depth, false),
            x: rng.gen_range(-1000i64..=1000),
            y: rng.gen_range(-1000i64..=1000),
        }
    }

    fn shrink(&self) -> Vec<ExprSpec> {
        let mut out: Vec<ExprSpec> = xexpr::shrink(&self.expr)
            .into_iter()
            .map(|e| ExprSpec {
                expr: e,
                ..self.clone()
            })
            .collect();
        if self.x != 0 {
            out.push(ExprSpec {
                x: 0,
                ..self.clone()
            });
            out.push(ExprSpec {
                x: self.x / 2,
                ..self.clone()
            });
        }
        if self.y != 0 {
            out.push(ExprSpec {
                y: 0,
                ..self.clone()
            });
            out.push(ExprSpec {
                y: self.y / 2,
                ..self.clone()
            });
        }
        out
    }
}

/// Hot-key skew: `reads` are Zipf-sampled addresses into an array whose
/// cell 0 (the Zipf head) is produced only after an addition chain of
/// `chain.len()` dependent steps — consumers of the hot cell all defer.
#[derive(Debug, Clone, PartialEq)]
pub struct HotSkewSpec {
    /// Array length.
    pub size: usize,
    /// Read addresses (Zipf-hot toward 0), each one read term.
    pub reads: Vec<usize>,
    /// Constants of the hot cell's producer chain `((t + c0) + c1) …`.
    pub chain: Vec<i64>,
    /// The single program input `t`.
    pub t: i64,
}

impl HotSkewSpec {
    /// Renders the Id source.
    pub fn source(&self) -> String {
        let mut body = format!("  {{ a = array({});\n", self.size);
        let mut hot = String::from("t");
        for c in &self.chain {
            hot = format!("({hot} + {c})");
        }
        body.push_str(&format!("    a[0] <- {hot};\n"));
        for i in 1..self.size {
            body.push_str(&format!("    a[{i}] <- (t + {i});\n"));
        }
        let sum = self
            .reads
            .iter()
            .map(|r| format!("a[{r}]"))
            .reduce(|acc, term| format!("({acc} + {term})"))
            .expect("at least one read");
        body.push_str(&format!("    {sum} }}"));
        format!("def main(t) =\n{body};")
    }

    /// The reference answer.
    pub fn expected(&self) -> i64 {
        let hot = self.chain.iter().fold(self.t, |v, c| v.wrapping_add(*c));
        self.reads
            .iter()
            .map(|&r| {
                if r == 0 {
                    hot
                } else {
                    self.t.wrapping_add(r as i64)
                }
            })
            .fold(0i64, |acc, v| acc.wrapping_add(v))
    }

    fn gen(rng: &mut SimRng) -> HotSkewSpec {
        let size = rng.gen_range(4usize..=16);
        let zipf = Zipf::new(size, 0.8 + rng.f64() * 1.7);
        let reads = (0..rng.gen_range(8usize..=40))
            .map(|_| zipf.sample(rng))
            .collect();
        let chain = (0..rng.gen_range(4usize..=24))
            .map(|_| rng.gen_range(1i64..=9))
            .collect();
        HotSkewSpec {
            size,
            reads,
            chain,
            t: rng.gen_range(-100i64..=100),
        }
    }

    fn shrink(&self) -> Vec<HotSkewSpec> {
        let mut out = Vec::new();
        if self.reads.len() > 1 {
            out.push(HotSkewSpec {
                reads: self.reads[..self.reads.len() / 2].to_vec(),
                ..self.clone()
            });
            out.push(HotSkewSpec {
                reads: self.reads[1..].to_vec(),
                ..self.clone()
            });
        }
        if !self.chain.is_empty() {
            out.push(HotSkewSpec {
                chain: self.chain[..self.chain.len() / 2].to_vec(),
                ..self.clone()
            });
        }
        if self.reads.iter().any(|&r| r != 0) {
            out.push(HotSkewSpec {
                reads: vec![0; self.reads.len()],
                ..self.clone()
            });
        }
        if self.t != 0 {
            out.push(HotSkewSpec {
                t: 0,
                ..self.clone()
            });
        }
        out
    }
}

/// A linear deferral cascade: every cell's producer reads its neighbour,
/// so all `n - 1` reads defer until the seed write at `a[n-1]` lands and
/// the chain unwinds front-to-back.
#[derive(Debug, Clone, PartialEq)]
pub struct DeferChainSpec {
    /// Number of array cells (chain length), at least 2.
    pub n: usize,
    /// Constants of the seed write's delay chain.
    pub chain: Vec<i64>,
    /// The single program input `t`.
    pub t: i64,
}

impl DeferChainSpec {
    /// Renders the Id source.
    pub fn source(&self) -> String {
        let mut body = format!("  {{ a = array({});\n", self.n);
        for i in 0..self.n - 1 {
            body.push_str(&format!("    a[{i}] <- (a[{}] + 1);\n", i + 1));
        }
        let mut seed = String::from("t");
        for c in &self.chain {
            seed = format!("({seed} + {c})");
        }
        body.push_str(&format!("    a[{}] <- {seed};\n", self.n - 1));
        body.push_str("    a[0] }");
        format!("def main(t) =\n{body};")
    }

    /// The reference answer.
    pub fn expected(&self) -> i64 {
        self.chain
            .iter()
            .fold(self.t, |v, c| v.wrapping_add(*c))
            .wrapping_add(self.n as i64 - 1)
    }

    fn gen(rng: &mut SimRng) -> DeferChainSpec {
        DeferChainSpec {
            n: rng.gen_range(4usize..=64),
            chain: (0..rng.gen_range(2usize..=12))
                .map(|_| rng.gen_range(1i64..=9))
                .collect(),
            t: rng.gen_range(-100i64..=100),
        }
    }

    fn shrink(&self) -> Vec<DeferChainSpec> {
        let mut out = Vec::new();
        if self.n > 2 {
            out.push(DeferChainSpec {
                n: (self.n / 2).max(2),
                ..self.clone()
            });
            out.push(DeferChainSpec {
                n: self.n - 1,
                ..self.clone()
            });
        }
        if !self.chain.is_empty() {
            out.push(DeferChainSpec {
                chain: self.chain[..self.chain.len() / 2].to_vec(),
                ..self.clone()
            });
        }
        if self.t != 0 {
            out.push(DeferChainSpec {
                t: 0,
                ..self.clone()
            });
        }
        out
    }
}

/// Deep recursion: either a self-recursive accumulator or a mutually
/// recursive pair. Every call allocates a context, so `depth` directly
/// stresses tag allocation and the matching store.
#[derive(Debug, Clone, PartialEq)]
pub struct TagRecursionSpec {
    /// Recursion depth.
    pub depth: u32,
    /// Mutual (`f`/`g`) rather than self-recursion.
    pub mutual: bool,
    /// Offset folded into the accumulator.
    pub offset: i64,
    /// The single program input `t`.
    pub t: i64,
}

impl TagRecursionSpec {
    /// Renders the Id source.
    pub fn source(&self) -> String {
        if self.mutual {
            format!(
                "def f(n) = if n > 0 then (g(n - 1) + 1) else 0;\n\
                 def g(n) = if n > 0 then (f(n - 1) + 2) else 1;\n\
                 def main(t) = (f({}) + (t + {}));",
                self.depth, self.offset
            )
        } else {
            format!(
                "def f(n, acc) = if n > 0 then f(n - 1, (acc + n)) else acc;\n\
                 def main(t) = f({}, (t + {}));",
                self.depth, self.offset
            )
        }
    }

    /// The reference answer.
    pub fn expected(&self) -> i64 {
        if self.mutual {
            let (mut f, mut g) = (0i64, 1i64);
            for _ in 0..self.depth {
                let nf = g.wrapping_add(1);
                let ng = f.wrapping_add(2);
                f = nf;
                g = ng;
            }
            f.wrapping_add(self.t.wrapping_add(self.offset))
        } else {
            let d = self.depth as i64;
            self.t
                .wrapping_add(self.offset)
                .wrapping_add(d.wrapping_mul(d + 1) / 2)
        }
    }

    fn gen(rng: &mut SimRng) -> TagRecursionSpec {
        TagRecursionSpec {
            depth: rng.gen_range(8u32..=96),
            mutual: rng.chance(0.4),
            offset: rng.gen_range(-50i64..=50),
            t: rng.gen_range(-100i64..=100),
        }
    }

    fn shrink(&self) -> Vec<TagRecursionSpec> {
        let mut out = Vec::new();
        if self.depth > 1 {
            out.push(TagRecursionSpec {
                depth: self.depth / 2,
                ..self.clone()
            });
            out.push(TagRecursionSpec {
                depth: self.depth - 1,
                ..self.clone()
            });
        }
        if self.mutual {
            out.push(TagRecursionSpec {
                mutual: false,
                ..self.clone()
            });
        }
        if self.offset != 0 {
            out.push(TagRecursionSpec {
                offset: 0,
                ..self.clone()
            });
        }
        if self.t != 0 {
            out.push(TagRecursionSpec {
                t: 0,
                ..self.clone()
            });
        }
        out
    }
}

/// Wide fan-out: `width` parallel calls of a small leaf function over
/// staggered inputs, joined by an unrolled reduction.
#[derive(Debug, Clone, PartialEq)]
pub struct FanoutJoinSpec {
    /// Number of parallel leaf calls.
    pub width: usize,
    /// Leaf multiplier.
    pub mul: i64,
    /// The single program input `t`.
    pub t: i64,
}

impl FanoutJoinSpec {
    /// Renders the Id source.
    pub fn source(&self) -> String {
        let sum = (0..self.width)
            .map(|i| format!("leaf((t + {i}))"))
            .reduce(|acc, term| format!("({acc} + {term})"))
            .expect("width >= 1");
        format!(
            "def leaf(v) = ((v * {}) + 1);\ndef main(t) = {sum};",
            self.mul
        )
    }

    /// The reference answer.
    pub fn expected(&self) -> i64 {
        (0..self.width)
            .map(|i| {
                self.t
                    .wrapping_add(i as i64)
                    .wrapping_mul(self.mul)
                    .wrapping_add(1)
            })
            .fold(0i64, |acc, v| acc.wrapping_add(v))
    }

    fn gen(rng: &mut SimRng) -> FanoutJoinSpec {
        FanoutJoinSpec {
            width: rng.gen_range(4usize..=48),
            mul: rng.gen_range(-7i64..=7),
            t: rng.gen_range(-100i64..=100),
        }
    }

    fn shrink(&self) -> Vec<FanoutJoinSpec> {
        let mut out = Vec::new();
        if self.width > 1 {
            out.push(FanoutJoinSpec {
                width: self.width / 2,
                ..self.clone()
            });
            out.push(FanoutJoinSpec {
                width: self.width - 1,
                ..self.clone()
            });
        }
        if self.mul != 1 {
            out.push(FanoutJoinSpec {
                mul: 1,
                ..self.clone()
            });
        }
        if self.t != 0 {
            out.push(FanoutJoinSpec {
                t: 0,
                ..self.clone()
            });
        }
        out
    }
}

/// A variable a [`NestLoop`] reads: a program input, one of the
/// small `b` bindings, or the accumulator `s`, counter `i` or
/// rebound variable `c` of the loop at a nesting level (0 = outermost).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NestRef {
    /// Input `x`.
    X,
    /// Input `y`.
    Y,
    /// `b{k}`, bound to [`LoopNestSpec::bounds`]`[k]`.
    B(u8),
    /// `s{d}`.
    S(u8),
    /// `i{d}`.
    I(u8),
    /// `c{d}`.
    C(u8),
}

impl NestRef {
    fn src(self) -> String {
        match self {
            NestRef::X => "x".into(),
            NestRef::Y => "y".into(),
            NestRef::B(k) => format!("b{k}"),
            NestRef::S(d) => format!("s{d}"),
            NestRef::I(d) => format!("i{d}"),
            NestRef::C(d) => format!("c{d}"),
        }
    }
}

/// The value a [`NestLoop`] adds to its accumulator each iteration,
/// before the inner loop's result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NestTerm {
    /// One variable.
    Var(NestRef),
    /// The product of two variables.
    Mul(NestRef, NestRef),
    /// The quotient of two variables: a type error on an iteration
    /// that divides by zero.
    Div(NestRef, NestRef),
    /// `a[i + 2]`: a read of the array the program's fill loop writes
    /// (`a[k] = x + k`), indexed by the loop's own counter.
    Fetch,
}

/// One loop of a [`LoopNestSpec`] at nesting level `d`:
///
/// ```text
/// (initial s{d} = 0; c{d} = 0                 (; i{d} = from for while)
///  for i{d} from <from> to <to> do            (while i{d} <= <to> do)
///    new s{d} = s{d} + <term> [+ <inner loop>];
///    [new c{d} = <rebind>;]                   (; new i{d} = i{d} + 1)
///  return s{d} + c{d} + <ret>)
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NestLoop {
    /// A `for` loop (else the equivalent `while` loop).
    pub is_for: bool,
    /// Counter start: a `b` binding or an outer counter (always small).
    pub from: NestRef,
    /// Counter bound, inclusive (same choices as `from`).
    pub to: NestRef,
    /// What the body adds.
    pub term: NestTerm,
    /// `Some((k, other))`: the term becomes `if i{d} > b{k} then <term>
    /// else <other>`.
    pub cond: Option<(u8, NestRef)>,
    /// Pass the term through a fresh one-cell I-structure each
    /// iteration: `{ t = array(1); t[0] <- <term>; t[0] }`.
    pub store: bool,
    /// `new c{d} = <ref>` each iteration (rebinding to a value that
    /// never changes inside the loop).
    pub rebind: Option<NestRef>,
    /// The next loop down, whose result the body also adds.
    pub inner: Option<Box<NestLoop>>,
    /// The outer variable the `return` expression adds.
    pub ret: NestRef,
}

/// A loop nest over inputs `x`, `y`, three small bindings and an
/// eight-cell array filled by a loop of its own:
///
/// ```text
/// def main(x, y) =
///   { a = array(8);
///     fill = (initial j = 0 for k from 0 to 7 do a[k] <- x + k; new j = j + 1 return j);
///     b0 = ..; b1 = ..; b2 = ..;
///     <root loop> };
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LoopNestSpec {
    /// Input `x`.
    pub x: i64,
    /// Input `y`.
    pub y: i64,
    /// The values of `b0`, `b1`, `b2` (from -1 to 4, so loops bounded by
    /// them run zero to six times).
    pub bounds: [i64; 3],
    /// The outermost loop.
    pub root: NestLoop,
}

/// The evaluation state of [`LoopNestSpec::expected`]: `(s, i, c)` of
/// every enclosing loop, current iteration.
struct NestEnv<'a> {
    spec: &'a LoopNestSpec,
    levels: Vec<(i64, i64, i64)>,
}

impl NestEnv<'_> {
    fn get(&self, r: NestRef) -> i64 {
        match r {
            NestRef::X => self.spec.x,
            NestRef::Y => self.spec.y,
            NestRef::B(k) => self.spec.bounds[k as usize],
            NestRef::S(d) => self.levels[d as usize].0,
            NestRef::I(d) => self.levels[d as usize].1,
            NestRef::C(d) => self.levels[d as usize].2,
        }
    }

    /// Runs loop `l` at level `d` the way Id does: every `new` reads
    /// the values the iteration started with. `None` when an iteration
    /// divides by zero: only the iterations that run, and only the
    /// branch of a conditional term that is taken, divide.
    fn run(&mut self, l: &NestLoop, d: u8) -> Option<i64> {
        let to = self.get(l.to);
        let (mut s, mut i, mut c) = (0i64, self.get(l.from), 0i64);
        self.levels.push((s, i, c));
        while i <= to {
            self.levels[d as usize] = (s, i, c);
            let t = match l.cond {
                Some((k, other)) if i <= self.spec.bounds[k as usize] => self.get(other),
                _ => match l.term {
                    NestTerm::Var(r) => self.get(r),
                    NestTerm::Mul(a, b) => self.get(a).wrapping_mul(self.get(b)),
                    NestTerm::Div(a, b) => match self.get(b) {
                        0 => return None,
                        divisor => self.get(a).wrapping_div(divisor),
                    },
                    // Cell k holds x + k; the counter stays in -1..=4.
                    NestTerm::Fetch => self.spec.x.wrapping_add(i + 2),
                },
            };
            let inner = match &l.inner {
                Some(il) => self.run(il, d + 1)?,
                None => 0,
            };
            let next_c = l.rebind.map_or(c, |r| self.get(r));
            s = s.wrapping_add(t).wrapping_add(inner);
            c = next_c;
            i += 1;
        }
        self.levels.pop();
        Some(s.wrapping_add(c).wrapping_add(self.get(l.ret)))
    }
}

impl LoopNestSpec {
    /// Renders the Id source.
    pub fn source(&self) -> String {
        let [b0, b1, b2] = self.bounds.map(|b| {
            if b < 0 {
                format!("(0 - {})", -b)
            } else {
                b.to_string()
            }
        });
        format!(
            "def main(x, y) =\n  {{ a = array(8);\n    fill = (initial j = 0 for k from 0 to 7 do \
             a[k] <- x + k; new j = j + 1 return j);\n    b0 = {b0}; b1 = {b1}; b2 = {b2};\n    {} }};",
            Self::loop_src(&self.root, 0)
        )
    }

    fn loop_src(l: &NestLoop, d: u8) -> String {
        let term = match l.term {
            NestTerm::Var(r) => r.src(),
            NestTerm::Mul(a, b) => format!("({} * {})", a.src(), b.src()),
            NestTerm::Div(a, b) => format!("({} / {})", a.src(), b.src()),
            NestTerm::Fetch => format!("a[i{d} + 2]"),
        };
        let term = match l.cond {
            Some((k, other)) => format!("(if i{d} > b{k} then {term} else {})", other.src()),
            None => term,
        };
        let term = if l.store {
            format!("{{ t = array(1); t[0] <- {term}; t[0] }}")
        } else {
            term
        };
        let inner = l.inner.as_ref().map_or(String::new(), |il| {
            format!(" + {}", Self::loop_src(il, d + 1))
        });
        let mut body = format!("new s{d} = s{d} + {term}{inner}");
        if let Some(r) = l.rebind {
            body.push_str(&format!("; new c{d} = {}", r.src()));
        }
        let (init, head) = if l.is_for {
            (
                String::new(),
                format!("for i{d} from {} to {}", l.from.src(), l.to.src()),
            )
        } else {
            body.push_str(&format!("; new i{d} = i{d} + 1"));
            (
                format!("; i{d} = {}", l.from.src()),
                format!("while i{d} <= {}", l.to.src()),
            )
        };
        format!(
            "(initial s{d} = 0; c{d} = 0{init} {head} do {body} return s{d} + c{d} + {})",
            l.ret.src()
        )
    }

    /// The reference answer, or `None` when the program divides by
    /// zero (every engine must then fail with a type error).
    pub fn expected(&self) -> Option<i64> {
        NestEnv {
            spec: self,
            levels: Vec::new(),
        }
        .run(&self.root, 0)
    }

    fn gen(rng: &mut SimRng) -> LoopNestSpec {
        let depth = rng.gen_range(1u8..=3);
        let mut spec = LoopNestSpec {
            x: rng.gen_range(-100i64..=100),
            y: rng.gen_range(-100i64..=100),
            bounds: [0; 3].map(|_| rng.gen_range(-1i64..=4)),
            root: Self::gen_loop(rng, 0, depth),
        };
        // Half the products become quotients. Drawn last, so that
        // whether a term divides never shifts the draws of the rest of
        // the nest.
        let mut l = Some(&mut spec.root);
        while let Some(lp) = l {
            if let NestTerm::Mul(a, b) = lp.term {
                if rng.chance(0.5) {
                    lp.term = NestTerm::Div(a, b);
                }
            }
            l = lp.inner.as_deref_mut();
        }
        spec
    }

    fn gen_loop(rng: &mut SimRng, d: u8, depth: u8) -> NestLoop {
        // Bounds read a `b` or an outer counter, so every counter stays
        // in -1..=4 and no loop runs more than six times.
        let bound = |rng: &mut SimRng| {
            if d > 0 && rng.chance(0.5) {
                NestRef::I(rng.gen_range(0..d))
            } else {
                NestRef::B(rng.gen_range(0u8..3))
            }
        };
        // Anything in scope: the inputs, the `b`s, and the variables of
        // this loop (`own`) and the loops around it.
        let any = |rng: &mut SimRng, own: bool| {
            let levels = if own { d + 1 } else { d };
            match rng.gen_range(0u32..6) {
                0 => NestRef::X,
                1 => NestRef::Y,
                2 => NestRef::B(rng.gen_range(0u8..3)),
                _ if levels == 0 => NestRef::B(rng.gen_range(0u8..3)),
                3 => NestRef::S(rng.gen_range(0..levels)),
                4 => NestRef::I(rng.gen_range(0..levels)),
                _ => NestRef::C(rng.gen_range(0..levels)),
            }
        };
        NestLoop {
            is_for: rng.chance(0.7),
            from: bound(rng),
            to: bound(rng),
            term: match rng.gen_range(0u32..3) {
                0 => NestTerm::Var(any(rng, true)),
                1 => NestTerm::Mul(any(rng, true), any(rng, true)),
                _ => NestTerm::Fetch,
            },
            cond: rng
                .chance(0.3)
                .then(|| (rng.gen_range(0u8..3), any(rng, true))),
            store: rng.chance(0.3),
            rebind: rng.chance(0.3).then(|| any(rng, false)),
            inner: (d + 1 < depth).then(|| Box::new(Self::gen_loop(rng, d + 1, depth))),
            ret: any(rng, false),
        }
    }

    fn shrink(&self) -> Vec<LoopNestSpec> {
        let mut out: Vec<LoopNestSpec> = Self::shrink_loop(&self.root)
            .into_iter()
            .map(|root| LoopNestSpec {
                root,
                ..self.clone()
            })
            .collect();
        for (k, &b) in self.bounds.iter().enumerate() {
            if b != 0 {
                let mut bounds = self.bounds;
                bounds[k] = 0;
                out.push(LoopNestSpec {
                    bounds,
                    ..self.clone()
                });
            }
        }
        if self.x != 0 {
            out.push(LoopNestSpec {
                x: 0,
                ..self.clone()
            });
        }
        if self.y != 0 {
            out.push(LoopNestSpec {
                y: 0,
                ..self.clone()
            });
        }
        out
    }

    /// Simpler variants of one loop: its inner loop dropped or shrunk,
    /// a flag cleared, a `while` turned into a `for`, a plainer term.
    fn shrink_loop(l: &NestLoop) -> Vec<NestLoop> {
        let mut out = Vec::new();
        if let Some(il) = &l.inner {
            out.push(NestLoop {
                inner: None,
                ..l.clone()
            });
            for smaller in Self::shrink_loop(il) {
                out.push(NestLoop {
                    inner: Some(Box::new(smaller)),
                    ..l.clone()
                });
            }
        }
        if !l.is_for {
            out.push(NestLoop {
                is_for: true,
                ..l.clone()
            });
        }
        if l.cond.is_some() {
            out.push(NestLoop {
                cond: None,
                ..l.clone()
            });
        }
        if l.store {
            out.push(NestLoop {
                store: false,
                ..l.clone()
            });
        }
        if l.rebind.is_some() {
            out.push(NestLoop {
                rebind: None,
                ..l.clone()
            });
        }
        if l.term != NestTerm::Var(NestRef::X) {
            out.push(NestLoop {
                term: NestTerm::Var(NestRef::X),
                ..l.clone()
            });
        }
        out
    }
}

/// One operation of a [`Family::StoreSkew`] sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOp {
    /// Read address (may defer / busy-wait).
    Read(usize),
    /// Write a value to an address (may race / retry).
    Write(usize, i64),
    /// Reclaim freed deferred-list nodes.
    Reclaim,
}

/// A raw store op-sequence with Zipf-hot addresses.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreSkewSpec {
    /// Store size in cells.
    pub size: usize,
    /// The operation sequence.
    pub ops: Vec<StoreOp>,
}

impl StoreSkewSpec {
    fn gen(rng: &mut SimRng) -> StoreSkewSpec {
        let size = rng.gen_range(4usize..=24);
        let zipf = Zipf::new(size, 0.9 + rng.f64() * 1.6);
        let ops = (0..rng.gen_range(20usize..=160))
            .map(|_| {
                let addr = if rng.chance(0.04) {
                    size + rng.gen_range(0usize..4)
                } else {
                    zipf.sample(rng)
                };
                match rng.gen_range(0u32..10) {
                    0..=4 => StoreOp::Read(addr),
                    5..=8 => StoreOp::Write(addr, rng.gen_range(-100i64..=100)),
                    _ => StoreOp::Reclaim,
                }
            })
            .collect();
        StoreSkewSpec { size, ops }
    }

    fn shrink(&self) -> Vec<StoreSkewSpec> {
        let mut out = Vec::new();
        if self.ops.len() > 1 {
            out.push(StoreSkewSpec {
                ops: self.ops[..self.ops.len() / 2].to_vec(),
                ..self.clone()
            });
            out.push(StoreSkewSpec {
                ops: self.ops[1..].to_vec(),
                ..self.clone()
            });
            out.push(StoreSkewSpec {
                ops: self.ops[..self.ops.len() - 1].to_vec(),
                ..self.clone()
            });
        }
        out
    }
}

/// The family-specific payload of a [`Scenario`].
#[derive(Debug, Clone, PartialEq)]
pub enum Spec {
    /// See [`ExprSpec`].
    Expr(ExprSpec),
    /// See [`HotSkewSpec`].
    HotSkew(HotSkewSpec),
    /// See [`DeferChainSpec`].
    DeferChain(DeferChainSpec),
    /// See [`TagRecursionSpec`].
    TagRecursion(TagRecursionSpec),
    /// See [`FanoutJoinSpec`].
    FanoutJoin(FanoutJoinSpec),
    /// 1–4 merged tenants, each an independent expression program.
    MultiTenant(Vec<ExprSpec>),
    /// See [`StoreSkewSpec`].
    StoreSkew(StoreSkewSpec),
    /// See [`LoopNestSpec`].
    LoopNest(LoopNestSpec),
}

/// One generated fuzz input: a family, the seed that produced it, and
/// the structured spec (which shrinking mutates away from the seed).
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Generator family.
    pub family: Family,
    /// The seed [`Scenario::generate`] was called with.
    pub seed: u64,
    /// The structured payload.
    pub spec: Spec,
}

/// Mixes the family name into the seed so the same numeric seed yields
/// independent streams per family (FNV-1a over the name).
fn family_seed(family: Family, seed: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in family.name().bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ seed
}

impl Scenario {
    /// Deterministically generates the scenario for `(family, seed)`.
    pub fn generate(family: Family, seed: u64) -> Scenario {
        let mut rng = SimRng::seed(family_seed(family, seed));
        let spec = match family {
            Family::Expr => Spec::Expr(ExprSpec::gen(&mut rng)),
            Family::HotSkew => Spec::HotSkew(HotSkewSpec::gen(&mut rng)),
            Family::DeferChain => Spec::DeferChain(DeferChainSpec::gen(&mut rng)),
            Family::TagRecursion => Spec::TagRecursion(TagRecursionSpec::gen(&mut rng)),
            Family::FanoutJoin => Spec::FanoutJoin(FanoutJoinSpec::gen(&mut rng)),
            Family::MultiTenant => {
                let n = rng.gen_range(2usize..=4);
                Spec::MultiTenant((0..n).map(|_| ExprSpec::gen(&mut rng)).collect())
            }
            Family::StoreSkew => Spec::StoreSkew(StoreSkewSpec::gen(&mut rng)),
            Family::LoopNest => Spec::LoopNest(LoopNestSpec::gen(&mut rng)),
        };
        Scenario { family, seed, spec }
    }

    /// The Id source(s) of the scenario: one entry per tenant program,
    /// empty for [`Family::StoreSkew`] (which has no program).
    pub fn sources(&self) -> Vec<String> {
        match &self.spec {
            Spec::Expr(s) => vec![s.source()],
            Spec::HotSkew(s) => vec![s.source()],
            Spec::DeferChain(s) => vec![s.source()],
            Spec::TagRecursion(s) => vec![s.source()],
            Spec::FanoutJoin(s) => vec![s.source()],
            Spec::MultiTenant(ts) => ts.iter().map(ExprSpec::source).collect(),
            Spec::StoreSkew(_) => Vec::new(),
            Spec::LoopNest(s) => vec![s.source()],
        }
    }

    /// Program inputs, one `Vec` per tenant (aligned with
    /// [`Scenario::sources`]).
    pub fn inputs(&self) -> Vec<Vec<i64>> {
        match &self.spec {
            Spec::Expr(s) => vec![vec![s.x, s.y]],
            Spec::HotSkew(s) => vec![vec![s.t]],
            Spec::DeferChain(s) => vec![vec![s.t]],
            Spec::TagRecursion(s) => vec![vec![s.t]],
            Spec::FanoutJoin(s) => vec![vec![s.t]],
            Spec::MultiTenant(ts) => ts.iter().map(|t| vec![t.x, t.y]).collect(),
            Spec::StoreSkew(_) => Vec::new(),
            Spec::LoopNest(s) => vec![vec![s.x, s.y]],
        }
    }

    /// Reference answers, one per tenant (the value `main` must
    /// output), or `None` when the run must fail with a type error (a
    /// loop nest that divides by zero).
    pub fn expected(&self) -> Option<Vec<i64>> {
        Some(match &self.spec {
            Spec::Expr(s) => vec![s.expected()],
            Spec::HotSkew(s) => vec![s.expected()],
            Spec::DeferChain(s) => vec![s.expected()],
            Spec::TagRecursion(s) => vec![s.expected()],
            Spec::FanoutJoin(s) => vec![s.expected()],
            Spec::MultiTenant(ts) => ts.iter().map(ExprSpec::expected).collect(),
            Spec::StoreSkew(_) => Vec::new(),
            Spec::LoopNest(s) => vec![s.expected()?],
        })
    }

    /// Strictly simpler candidate scenarios for delta-debug shrinking.
    pub fn shrink(&self) -> Vec<Scenario> {
        let respec = |spec| Scenario {
            spec,
            ..self.clone()
        };
        match &self.spec {
            Spec::Expr(s) => s
                .shrink()
                .into_iter()
                .map(|s| respec(Spec::Expr(s)))
                .collect(),
            Spec::HotSkew(s) => s
                .shrink()
                .into_iter()
                .map(|s| respec(Spec::HotSkew(s)))
                .collect(),
            Spec::DeferChain(s) => s
                .shrink()
                .into_iter()
                .map(|s| respec(Spec::DeferChain(s)))
                .collect(),
            Spec::TagRecursion(s) => s
                .shrink()
                .into_iter()
                .map(|s| respec(Spec::TagRecursion(s)))
                .collect(),
            Spec::FanoutJoin(s) => s
                .shrink()
                .into_iter()
                .map(|s| respec(Spec::FanoutJoin(s)))
                .collect(),
            Spec::MultiTenant(ts) => {
                let mut out = Vec::new();
                if ts.len() > 1 {
                    for drop in 0..ts.len() {
                        let mut fewer = ts.clone();
                        fewer.remove(drop);
                        out.push(respec(Spec::MultiTenant(fewer)));
                    }
                }
                for (k, t) in ts.iter().enumerate() {
                    for st in t.shrink() {
                        let mut next = ts.clone();
                        next[k] = st;
                        out.push(respec(Spec::MultiTenant(next)));
                    }
                }
                out
            }
            Spec::StoreSkew(s) => s
                .shrink()
                .into_iter()
                .map(|s| respec(Spec::StoreSkew(s)))
                .collect(),
            Spec::LoopNest(s) => s
                .shrink()
                .into_iter()
                .map(|s| respec(Spec::LoopNest(s)))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        for family in Family::ALL {
            let a = Scenario::generate(family, 7);
            let b = Scenario::generate(family, 7);
            assert_eq!(a, b, "{family}: same seed must give same scenario");
            let c = Scenario::generate(family, 8);
            assert_ne!(a.spec, c.spec, "{family}: different seeds should differ");
        }
    }

    #[test]
    fn same_seed_differs_across_families() {
        let e = Scenario::generate(Family::Expr, 3);
        let h = Scenario::generate(Family::HotSkew, 3);
        assert_ne!(format!("{:?}", e.spec), format!("{:?}", h.spec));
    }

    /// A hundred seeds per family, so the larger generated programs
    /// meet the parser's nesting limits too.
    #[test]
    fn every_program_family_compiles() {
        for family in Family::ALL {
            for seed in 0..100 {
                let sc = Scenario::generate(family, seed);
                for src in sc.sources() {
                    ttda_idc::compile(&src).unwrap_or_else(|e| {
                        panic!("{family} seed {seed} failed to compile: {e}\n{src}")
                    });
                }
            }
        }
    }

    #[test]
    fn family_names_round_trip() {
        for family in Family::ALL {
            assert_eq!(Family::parse(family.name()), Some(family));
        }
        assert_eq!(Family::parse("nonsense"), None);
    }

    #[test]
    fn hot_skew_reads_are_skewed_toward_the_head() {
        // Across seeds, the hottest address must be 0 far more often
        // than a uniform draw would allow.
        let mut zero = 0usize;
        let mut total = 0usize;
        for seed in 0..50 {
            if let Spec::HotSkew(s) = Scenario::generate(Family::HotSkew, seed).spec {
                zero += s.reads.iter().filter(|&&r| r == 0).count();
                total += s.reads.len();
            }
        }
        assert!(
            zero * 3 > total,
            "expected >1/3 of skewed reads on the head, got {zero}/{total}"
        );
    }

    #[test]
    fn shrink_candidates_are_simpler() {
        // Sum of |K| constants: K-toward-zero shrinks keep tree size
        // constant, so the weight must see constant magnitude too.
        fn const_mass(e: &XExpr) -> usize {
            match e {
                XExpr::X | XExpr::Y | XExpr::T => 0,
                XExpr::K(k) => k.unsigned_abs() as usize,
                XExpr::Add(a, b) | XExpr::Sub(a, b) | XExpr::Mul(a, b) | XExpr::Let(a, b) => {
                    const_mass(a) + const_mass(b)
                }
                XExpr::If(c, a, b) => const_mass(c) + const_mass(a) + const_mass(b),
            }
        }
        fn expr_weight(s: &ExprSpec) -> usize {
            xexpr::size(&s.expr) * 100_000
                + const_mass(&s.expr) * 10
                + s.x.unsigned_abs() as usize
                + s.y.unsigned_abs() as usize
        }
        fn weight(sc: &Scenario) -> usize {
            match &sc.spec {
                Spec::Expr(s) => expr_weight(s),
                Spec::HotSkew(s) => {
                    s.reads.len() * 1000
                        + s.chain.len() * 100
                        + s.reads.iter().sum::<usize>()
                        + s.t.unsigned_abs() as usize
                }
                Spec::DeferChain(s) => {
                    s.n * 1000 + s.chain.len() * 100 + s.t.unsigned_abs() as usize
                }
                Spec::TagRecursion(s) => {
                    s.depth as usize * 1000
                        + usize::from(s.mutual) * 100
                        + s.offset.unsigned_abs() as usize
                        + s.t.unsigned_abs() as usize
                }
                Spec::FanoutJoin(s) => {
                    s.width * 1000
                        + (s.mul - 1).unsigned_abs() as usize
                        + s.t.unsigned_abs() as usize
                }
                Spec::MultiTenant(ts) => {
                    ts.len() * 100_000_000 + ts.iter().map(expr_weight).sum::<usize>()
                }
                Spec::StoreSkew(s) => s.ops.len(),
                Spec::LoopNest(s) => {
                    nest_weight(&s.root) * 1000
                        + s.bounds
                            .iter()
                            .map(|b| b.unsigned_abs() as usize)
                            .sum::<usize>()
                        + s.x.unsigned_abs() as usize
                        + s.y.unsigned_abs() as usize
                }
            }
        }
        fn nest_weight(l: &NestLoop) -> usize {
            1000 + l.inner.as_ref().map_or(0, |il| 100 * nest_weight(il))
                + usize::from(!l.is_for)
                + usize::from(l.cond.is_some())
                + usize::from(l.store)
                + usize::from(l.rebind.is_some())
                + usize::from(l.term != NestTerm::Var(NestRef::X))
        }
        for family in Family::ALL {
            for seed in 0..10 {
                let sc = Scenario::generate(family, seed);
                for c in sc.shrink() {
                    assert!(
                        weight(&c) < weight(&sc),
                        "{family} seed {seed}: shrink candidate not simpler\n  from {:?}\n  to {:?}",
                        sc.spec,
                        c.spec
                    );
                }
            }
        }
    }

    #[test]
    fn reference_answers_are_plausible() {
        // Spot-check the closed-form references on tiny hand specs.
        let d = DeferChainSpec {
            n: 3,
            chain: vec![5],
            t: 10,
        };
        assert_eq!(d.expected(), 10 + 5 + 2);
        let f = FanoutJoinSpec {
            width: 3,
            mul: 2,
            t: 1,
        };
        // (1*2+1) + (2*2+1) + (3*2+1) = 3 + 5 + 7
        assert_eq!(f.expected(), 15);
        let r = TagRecursionSpec {
            depth: 4,
            mutual: false,
            offset: 1,
            t: 2,
        };
        assert_eq!(r.expected(), 2 + 1 + 10);
        let m = TagRecursionSpec {
            depth: 2,
            mutual: true,
            offset: 0,
            t: 0,
        };
        // f1 = g0+1 = 2, g1 = f0+2 = 2; f2 = g1+1 = 3.
        assert_eq!(m.expected(), 3);
        let h = HotSkewSpec {
            size: 3,
            reads: vec![0, 2, 0],
            chain: vec![4, 4],
            t: 1,
        };
        assert_eq!(h.expected(), 9 + 3 + 9);
        // Two nested loops: the outer runs i0 = 1..=2 and adds y; the
        // inner runs i1 = 0..=i0 and adds a[i1 + 2] = x + i1 + 2, then
        // returns with b0.
        let inner = NestLoop {
            is_for: false,
            from: NestRef::B(1),
            to: NestRef::I(0),
            term: NestTerm::Fetch,
            cond: None,
            store: true,
            rebind: None,
            inner: None,
            ret: NestRef::B(0),
        };
        let nest = LoopNestSpec {
            x: 10,
            y: 3,
            bounds: [1, 0, 2],
            root: NestLoop {
                is_for: true,
                from: NestRef::B(0),
                to: NestRef::B(2),
                term: NestTerm::Var(NestRef::Y),
                cond: None,
                store: false,
                rebind: Some(NestRef::X),
                inner: Some(Box::new(inner)),
                ret: NestRef::B(2),
            },
        };
        // i0 = 1: 3 + (12 + 13) + 1; i0 = 2: 3 + (12 + 13 + 14) + 1;
        // c0 ends as x = 10, and the return adds b2 = 2.
        assert_eq!(nest.expected(), Some(29 + 43 + 10 + 2));
    }

    #[test]
    fn a_nest_faults_exactly_where_it_divides_by_zero() {
        // `for i0 from b0 to b2`, adding `x / b1` (or `y` where the
        // condition `i0 > b2` fails), returning with `x`.
        let nest = |bounds, cond| LoopNestSpec {
            x: 7,
            y: 2,
            bounds,
            root: NestLoop {
                is_for: true,
                from: NestRef::B(0),
                to: NestRef::B(2),
                term: NestTerm::Div(NestRef::X, NestRef::B(1)),
                cond,
                store: false,
                rebind: None,
                inner: None,
                ret: NestRef::X,
            },
        };
        assert!(nest([1, 0, 2], None).source().contains("(x / b1)"));
        // Two iterations of 7 / 3.
        assert_eq!(nest([1, 3, 2], None).expected(), Some(2 + 2 + 7));
        // Two iterations that divide by zero.
        assert_eq!(nest([1, 0, 2], None).expected(), None);
        // No iteration runs, so nothing divides.
        assert_eq!(nest([3, 0, 2], None).expected(), Some(7));
        // Every iteration takes the other branch: `i0 > b2` never holds.
        assert_eq!(
            nest([1, 0, 2], Some((2, NestRef::Y))).expected(),
            Some(2 + 2 + 7)
        );
    }

    #[test]
    fn loop_nests_run_every_shape_and_promote() {
        // Across seeds the family produces while loops, zero-trip
        // loops, three-deep nests and every flag, and the O2 compiler
        // promotes invariants in most of them.
        let (mut whiles, mut deep, mut zero_trip, mut promoted) = (0, 0, 0, 0);
        let (mut quotients, mut faults) = (0, 0);
        for seed in 0..40 {
            let Spec::LoopNest(s) = Scenario::generate(Family::LoopNest, seed).spec else {
                unreachable!()
            };
            let mut l = Some(&s.root);
            let mut levels = 0;
            while let Some(cur) = l {
                levels += 1;
                whiles += usize::from(!cur.is_for);
                quotients += usize::from(matches!(cur.term, NestTerm::Div(..)));
                l = cur.inner.as_deref();
            }
            deep += usize::from(levels == 3);
            faults += usize::from(s.expected().is_none());
            let b = |r: NestRef| match r {
                NestRef::B(k) => Some(s.bounds[k as usize]),
                _ => None,
            };
            if let (Some(f), Some(t)) = (b(s.root.from), b(s.root.to)) {
                zero_trip += usize::from(f > t);
            }
            let p = ttda_idc::compile(&s.source()).expect("compiles");
            let stats = ttda_core::opt::optimize_at(&p, ttda_core::opt::OptLevel::O2).1;
            promoted += usize::from(stats.invariants_promoted > 0);
        }
        assert!(
            whiles > 5 && deep > 5 && zero_trip > 3,
            "{whiles} {deep} {zero_trip}"
        );
        assert!(promoted > 20, "promotion in only {promoted} of 40 nests");
        assert!(quotients > 5 && faults > 0, "{quotients} {faults}");
    }
}
