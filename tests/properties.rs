//! Property-based tests over the suite's core invariants, driven by the
//! in-tree `check` harness.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ttda::core::{Emulator, RunMode, TimedConfig, TimedMachine, Value};
use ttda::mem::{Addr, IStructure, IStructureError, ReadOutcome};
use ttda::net::{Grid2d, Hypercube, NodeId, Omega, Topology};
use ttda::sim::{check, Cycle, EventQueue, SimRng, Zipf};
use ttda::workloads::fuzz::oracle::confluent_mismatch;
use ttda::workloads::fuzz::xexpr::{self, XExpr};

// ---------------------------------------------------------------------
// Compiler correctness: random integer expressions evaluate identically
// on the TTDA and on a direct recursive evaluator. The expression AST,
// generator and evaluator live in `ttda::workloads::fuzz::xexpr` (shared
// with the differential fuzzer); failures here shrink to a minimal tree
// via `check::forall_shrink`.
// ---------------------------------------------------------------------

/// One expression-property case: the tree plus its inputs (and a PE
/// count for the timed-machine property).
#[derive(Debug, Clone)]
struct ExprCase {
    e: XExpr,
    x: i64,
    y: i64,
    pes: usize,
}

fn gen_case(rng: &mut SimRng) -> ExprCase {
    ExprCase {
        e: xexpr::gen_expr(rng, 4, false),
        x: rng.gen_range(-50i64..50),
        y: rng.gen_range(-50i64..50),
        pes: rng.gen_range(1usize..5),
    }
}

/// Shrink the tree structurally (subtree substitution), then the inputs
/// and PE count toward their simplest values.
fn shrink_case(c: &ExprCase) -> Vec<ExprCase> {
    let mut out: Vec<ExprCase> = xexpr::shrink(&c.e)
        .into_iter()
        .map(|e| ExprCase { e, ..c.clone() })
        .collect();
    for (field, zeroed) in [
        (c.x, ExprCase { x: 0, ..c.clone() }),
        (c.y, ExprCase { y: 0, ..c.clone() }),
    ] {
        if field != 0 {
            out.push(zeroed);
        }
    }
    if c.pes > 1 {
        out.push(ExprCase {
            pes: 1,
            ..c.clone()
        });
    }
    out
}

#[test]
fn compiled_expressions_match_reference() {
    check::forall_shrink(
        "compiled expressions match reference",
        gen_case,
        shrink_case,
        |c| {
            let src = format!("def main(x, y) = {};", xexpr::to_src(&c.e));
            let p = ttda::idc::compile(&src).expect("generated programs compile");
            let r = Emulator::new(&p)
                .run(&[Value::Int(c.x), Value::Int(c.y)])
                .expect("generated programs run");
            // An unbound `t0` cannot appear in generated trees, but the
            // evaluator's convention (t = x at top level) is part of the
            // shared module's contract, so mirror it here.
            assert_eq!(r.outputs[&0], Value::Int(xexpr::eval(&c.e, c.x, c.y, c.x)));
        },
    );
}

#[test]
fn optimizer_preserves_random_expressions_at_every_level() {
    // 256 random expression programs through the whole pass pipeline:
    // every level must reproduce the unoptimized outputs exactly, and —
    // because the expression family is loop-free, so no pass can ever
    // *add* instructions — static instruction counts must be monotone
    // non-increasing in the level (O0 ≥ O1 ≥ O2).
    check::forall_shrink_cases(
        "optimizer preserves random expressions at every level",
        256,
        &gen_case,
        &shrink_case,
        &|c| {
            let src = format!("def main(x, y) = {};", xexpr::to_src(&c.e));
            let p = ttda::idc::compile(&src).expect("compiles");
            let want = Emulator::new(&p)
                .run(&[Value::Int(c.x), Value::Int(c.y)])
                .expect("runs")
                .outputs[&0];
            let mut last_static = usize::MAX;
            for level in ttda::core::opt::OptLevel::ALL {
                let (opt, _) = ttda::core::opt::optimize_at(&p, level);
                let got = Emulator::new(&opt)
                    .run(&[Value::Int(c.x), Value::Int(c.y)])
                    .expect("runs")
                    .outputs[&0];
                assert_eq!(got, want, "{level} changed the program output");
                assert!(
                    opt.instr_count() <= last_static,
                    "{level} grew the program: {} > {last_static}",
                    opt.instr_count()
                );
                last_static = opt.instr_count();
            }
        },
    );
}

#[test]
fn relaxed_backend_is_output_equal_on_random_programs() {
    // The relaxed backend's documented contract: program outputs, the
    // confluent counters and the error discriminant match a sequential
    // run exactly, for any program and any worker count — only schedule
    // artifacts (waves, occupancy peaks, trace order) may differ.
    // `threads = 1` runs the full protocol with a single worker (the
    // mode is pinned). Generated expressions are error-free, so the
    // success half is what this property exercises; the fuzz oracle
    // covers the error half over a far wider family.
    check::forall_shrink(
        "relaxed backend is output-equal",
        gen_case,
        shrink_case,
        |c| {
            let src = format!("def main(x, y) = {};", xexpr::to_src(&c.e));
            let p = ttda::idc::compile(&src).expect("compiles");
            let inputs = [Value::Int(c.x), Value::Int(c.y)];
            let seq = Emulator::new(&p)
                .with_mode(RunMode::Sequential)
                .run(&inputs)
                .expect("runs");
            for threads in [1usize, 2, 4, 8] {
                let rel = Emulator::new(&p)
                    .with_threads(threads)
                    .with_mode(RunMode::Relaxed)
                    .run(&inputs)
                    .expect("relaxed backend runs");
                assert_eq!(
                    confluent_mismatch(&seq, &rel),
                    None,
                    "relaxed threads={threads}"
                );
            }
        },
    );
}

#[test]
fn timed_machine_agrees_with_emulator_on_random_exprs() {
    check::forall_shrink(
        "timed machine agrees with emulator",
        gen_case,
        shrink_case,
        |c| {
            let src = format!("def main(x, y) = {};", xexpr::to_src(&c.e));
            let p = ttda::idc::compile(&src).expect("compiles");
            let want = Emulator::new(&p)
                .run(&[Value::Int(c.x), Value::Int(c.y)])
                .expect("runs")
                .outputs[&0];
            let mut m = TimedMachine::ideal(p, c.pes, Cycle(3), TimedConfig::default());
            let got = m
                .run(&[Value::Int(c.x), Value::Int(c.y)])
                .expect("runs")
                .outputs[&0];
            assert_eq!(got, want);
        },
    );
}

// ---------------------------------------------------------------------
// Waiting–matching store vs the HashMap it replaced.
// ---------------------------------------------------------------------

#[test]
fn matching_store_agrees_with_hashmap_model() {
    use std::collections::HashMap;
    use ttda::core::matching::{Absorbed, MatchingStore};
    use ttda::core::{ActivityName, CodeBlockId, Ctx, InstrId, Iter, Port};

    // The open-addressed store must be observationally identical to the
    // `HashMap<ActivityName, Vec<Option<Value>>>` transition function it
    // replaced: same park/enable outcome per token, operands in port
    // order, same occupancy after every operation, same resident key
    // set. Tag components are drawn from tiny ranges so the same
    // activity is revisited constantly, and arity is a deterministic
    // function of (c, s) — as in a real program, where it comes from
    // the instruction — spanning 1..=5 to cover both the inline and
    // spill representations.
    check::forall("matching store agrees with hashmap model", |rng| {
        let mut store = MatchingStore::new();
        let mut model: HashMap<ActivityName, Vec<Option<Value>>> = HashMap::new();
        let ops = rng.gen_range(1usize..200);
        for _ in 0..ops {
            let c = rng.gen_range(0u32..3);
            let s = rng.gen_range(0u32..7);
            let tag = ActivityName {
                u: Ctx(rng.gen_range(0u32..3)),
                c: CodeBlockId(c),
                s: InstrId(s),
                i: Iter(rng.gen_range(0u32..4)),
            };
            let arity = (1 + (c + s) % 5) as u8;
            let literal = if (c + s) % 3 == 0 && arity >= 2 {
                Some((Port(0), Value::Int((10 * c + s) as i64)))
            } else {
                None
            };
            let port = if rng.chance(0.05) {
                Port(arity + rng.gen_range(0u8..3)) // out of range
            } else {
                Port(rng.gen_range(0u8..arity))
            };
            let value = Value::Int(rng.gen_range(-100i64..100));

            // One step of the original HashMap transition function.
            let want = if port.0 >= arity {
                Err(())
            } else {
                let slots = model.entry(tag).or_insert_with(|| {
                    let mut v = vec![None; arity as usize];
                    if let Some((p, lv)) = literal {
                        v[p.0 as usize] = Some(lv);
                    }
                    v
                });
                slots[port.0 as usize] = Some(value);
                if slots.iter().all(Option::is_some) {
                    let operands: Vec<Value> = model
                        .remove(&tag)
                        .unwrap()
                        .into_iter()
                        .map(Option::unwrap)
                        .collect();
                    Ok(Some(operands))
                } else {
                    Ok(None)
                }
            };

            let got = store.absorb(tag, arity, literal, port, value);
            match (got, want) {
                (Err(_), Err(())) => {}
                (Ok(Absorbed::Parked), Ok(None)) => {}
                (Ok(Absorbed::Enabled(ops)), Ok(Some(want_ops))) => {
                    assert_eq!(
                        &ops[..],
                        &want_ops[..],
                        "operand order diverged for {tag:?}"
                    );
                }
                (got, want) => panic!("outcome diverged for {tag:?}: {got:?} vs {want:?}"),
            }
            assert_eq!(store.len(), model.len(), "occupancy diverged");
        }
        let mut store_keys = Vec::new();
        store.for_each_key(|k| store_keys.push((k.u.0, k.c.0, k.s.0, k.i.0)));
        store_keys.sort_unstable();
        let mut model_keys: Vec<_> = model.keys().map(|k| (k.u.0, k.c.0, k.s.0, k.i.0)).collect();
        model_keys.sort_unstable();
        assert_eq!(store_keys, model_keys, "resident key sets diverged");
    });
}

// ---------------------------------------------------------------------
// I-structure invariants under arbitrary operation interleavings.
// ---------------------------------------------------------------------

#[test]
fn istructure_semantics_hold() {
    check::forall("istructure semantics hold", |rng| {
        let mut m: IStructure<i64, usize> = IStructure::new(8);
        let mut written: [Option<i64>; 8] = [None; 8];
        let mut waiting: [usize; 8] = [0; 8];
        let ops = rng.gen_range(1usize..60);
        for seq in 0..ops {
            let slot = rng.gen_range(0usize..8);
            let addr = Addr(slot);
            if rng.chance(0.5) {
                let val = rng.gen_range(-100i64..100);
                match m.write(addr, val) {
                    Ok(released) => {
                        // First write: succeeds, releases every waiter.
                        assert!(written[slot].is_none());
                        assert_eq!(released.len(), waiting[slot]);
                        written[slot] = Some(val);
                        waiting[slot] = 0;
                    }
                    Err(IStructureError::AlreadyWritten { .. }) => {
                        // Second write: detected, value preserved.
                        assert!(written[slot].is_some());
                        assert_eq!(m.peek(addr).copied(), written[slot]);
                    }
                    Err(other) => panic!("unexpected error {other}"),
                }
            } else {
                match m.read(addr, seq).expect("in range") {
                    ReadOutcome::Value(v) => {
                        assert_eq!(Some(v), written[slot]);
                    }
                    ReadOutcome::Deferred => {
                        assert!(written[slot].is_none());
                        waiting[slot] += 1;
                    }
                }
            }
        }
    });
}

/// The packed bitmap/arena store and the enum-cell reference model are
/// observationally identical: same outcomes, same errors, same
/// deferred-release *order* (the release order is part of the engines'
/// determinism contract — the parallel backend replays releases in store
/// order, so a divergence here would change `EmuResult` between
/// engines), same presence/peek/counter views, and the same dropped
/// count on reclaim.
#[test]
fn packed_istructure_matches_enum_reference() {
    use ttda::mem::{EnumIStructure, Presence};

    check::forall("packed istructure matches enum reference", |rng| {
        let size = rng.gen_range(1usize..70);
        let mut packed: IStructure<i64, usize> = IStructure::new(size);
        let mut model: EnumIStructure<i64, usize> = EnumIStructure::new(size);
        let ops = rng.gen_range(1usize..120);
        for seq in 0..ops {
            // Mostly in-range; occasionally out of range to compare the
            // error paths too.
            let addr = if rng.chance(0.05) {
                Addr(size + rng.gen_range(0usize..4))
            } else {
                Addr(rng.gen_range(0usize..size))
            };
            match rng.gen_range(0u64..10) {
                // Write (racing sometimes, since addresses repeat).
                0..=3 => {
                    let val = rng.gen_range(-100i64..100);
                    let mut got = Vec::new();
                    let mut want = Vec::new();
                    let a = packed.write_with(addr, val, |r| got.push(r));
                    let b = model.write_with(addr, val, |r| want.push(r));
                    assert_eq!(a, b, "write outcome diverged at op {seq}");
                    assert_eq!(got, want, "release order diverged at op {seq}");
                }
                // Read.
                4..=8 => {
                    assert_eq!(
                        packed.read(addr, seq),
                        model.read(addr, seq),
                        "read outcome diverged at op {seq}"
                    );
                }
                // Occasional wholesale reclaim.
                _ => {
                    if rng.chance(0.25) {
                        assert_eq!(
                            packed.reclaim(),
                            model.reclaim(),
                            "reclaim dropped-count diverged"
                        );
                    }
                }
            }
            // Observational views agree after every operation. An
            // errored packed cell must still *look* Present (the race
            // keeps the first value).
            assert_eq!(packed.presence(addr), model.presence(addr));
            assert_eq!(packed.deferred_count(addr), model.deferred_count(addr));
            assert_eq!(packed.deferred_outstanding(), model.deferred_outstanding());
            if addr.0 < size {
                assert_eq!(packed.peek(addr), model.peek(addr));
            }
        }
        // Global walk order: cell order, then arrival order.
        let mut got = Vec::new();
        packed.for_each_deferred(|r| got.push(*r));
        let mut want = Vec::new();
        model.for_each_deferred(|r| want.push(*r));
        assert_eq!(got, want, "for_each_deferred order diverged");
        // The word-at-a-time bitmap audit agrees with the enum cells.
        let deferred_cells = (0..size)
            .filter(|&c| model.presence(Addr(c)) == Ok(Presence::Deferred))
            .count();
        assert_eq!(packed.deferred_cells(), deferred_cells);
        // Final teardown drops the same number of parked readers.
        assert_eq!(packed.reclaim(), model.reclaim());
        assert_eq!(packed.deferred_outstanding(), 0);
        assert_eq!(packed.error_cells(), 0);
    });
}

/// The same lockstep contract under *hot-key skew*: addresses come from
/// a Zipf distribution, so one cell accumulates long deferred-reader
/// lists while most cells stay cold. This is the regime where the packed
/// store's shared node arena is under real contention — many readers
/// parked on one cell, interleaved with releases and re-parks — and the
/// deferred-arena FIFO contract (release in arrival order; global walk
/// in cell order, then arrival order) is most likely to crack. Reads are
/// weighted above writes so the hot cell's list grows long before its
/// write releases the whole cohort at once.
#[test]
fn packed_istructure_matches_enum_reference_under_zipf_skew() {
    check::forall("packed istructure matches enum under zipf skew", |rng| {
        let size = rng.gen_range(4usize..70);
        let zipf = Zipf::new(size, 1.0 + rng.f64() * 1.5);
        let mut packed: IStructure<i64, usize> = IStructure::new(size);
        let mut model: ttda::mem::EnumIStructure<i64, usize> = ttda::mem::EnumIStructure::new(size);
        let ops = rng.gen_range(40usize..250);
        for seq in 0..ops {
            let addr = Addr(zipf.sample(rng));
            match rng.gen_range(0u64..10) {
                // Read-heavy: pile readers onto the hot head cells.
                0..=6 => {
                    assert_eq!(
                        packed.read(addr, seq),
                        model.read(addr, seq),
                        "read outcome diverged at op {seq}"
                    );
                }
                // Writes release whole cohorts; the release *order* must
                // be the arrival order, identically in both stores.
                7..=8 => {
                    let val = rng.gen_range(-100i64..100);
                    let mut got = Vec::new();
                    let mut want = Vec::new();
                    let a = packed.write_with(addr, val, |r| got.push(r));
                    let b = model.write_with(addr, val, |r| want.push(r));
                    assert_eq!(a, b, "write outcome diverged at op {seq}");
                    assert_eq!(got, want, "release order diverged at op {seq}");
                }
                // Occasional reclaim churns the node arena's free list,
                // so freshly recycled nodes carry hot-cell traffic.
                _ => {
                    if rng.chance(0.3) {
                        assert_eq!(packed.reclaim(), model.reclaim());
                    }
                }
            }
            assert_eq!(packed.deferred_count(addr), model.deferred_count(addr));
            assert_eq!(packed.deferred_outstanding(), model.deferred_outstanding());
        }
        let mut got = Vec::new();
        packed.for_each_deferred(|r| got.push(*r));
        let mut want = Vec::new();
        model.for_each_deferred(|r| want.push(*r));
        assert_eq!(got, want, "for_each_deferred order diverged under skew");
    });
}

// ---------------------------------------------------------------------
// Network invariants.
// ---------------------------------------------------------------------

#[test]
fn hypercube_routes_are_shortest_without_faults() {
    check::forall("hypercube routes are shortest without faults", |rng| {
        let dim = rng.gen_range(1usize..8);
        let n = 1 << dim;
        let cube = Hypercube::new(dim).expect("dim ok");
        let a = rng.gen_range(0usize..n);
        let b = rng.gen_range(0usize..n);
        let hops = cube.hops(NodeId(a), NodeId(b)).expect("reachable");
        assert_eq!(hops, (a ^ b).count_ones() as usize);
    });
}

#[test]
fn faulty_hypercube_routes_are_correct_or_unreachable() {
    check::forall("faulty hypercube routes correct or unreachable", |rng| {
        let dim = rng.gen_range(2usize..6);
        let n = 1usize << dim;
        let mut cube = Hypercube::new(dim).expect("dim ok");
        let faults = rng.gen_range(0usize..10);
        for _ in 0..faults {
            let node = NodeId(rng.gen_range(0usize..n));
            let nb = cube.neighbor(node, rng.gen_range(0usize..dim));
            let _ = cube.fail_link(node, nb);
        }
        let a = NodeId(rng.gen_range(0usize..n));
        let b = NodeId(rng.gen_range(0usize..n));
        match cube.path(a, b) {
            Ok(path) => {
                // A returned path must have at least Hamming-distance
                // hops and no more than 2n (the router's loop bound).
                let min = (a.0 ^ b.0).count_ones() as usize;
                assert!(path.len() >= min);
                assert!(path.len() <= 2 * n);
            }
            Err(_) => {
                // Unreachability must be symmetric.
                assert!(cube.path(b, a).is_err());
            }
        }
    });
}

#[test]
fn omega_and_grid_routes_have_expected_lengths() {
    check::forall("omega and grid route lengths", |rng| {
        let k = rng.gen_range(1usize..6);
        let n = 1 << k;
        let omega = Omega::new(n).expect("size ok");
        let s = rng.gen_range(0usize..n);
        let d = rng.gen_range(0usize..n);
        assert_eq!(omega.hops(NodeId(s), NodeId(d)).expect("routes"), k);

        let w = rng.gen_range(1usize..7);
        let h = rng.gen_range(1usize..7);
        let grid = Grid2d::new(w, h).expect("size ok");
        let ports = w * h;
        let hops = grid
            .hops(NodeId(s % ports), NodeId(d % ports))
            .expect("routes");
        assert!(hops <= grid.diameter());
    });
}

// ---------------------------------------------------------------------
// Kernel invariants.
// ---------------------------------------------------------------------

#[test]
fn event_queue_is_stable_priority_order() {
    // Interleaves every operation and checks each result against a
    // reference heap over (time, push order). Push times fall before the
    // latest pop, inside the queue's 64-cycle window, across its edge and
    // far beyond it, and often repeat an earlier time exactly.
    check::forall("event queue is stable priority order", |rng| {
        let mut q = EventQueue::new();
        let mut model: BinaryHeap<Reverse<(Cycle, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut latest = Cycle::ZERO;
        let mut times: Vec<Cycle> = Vec::new();
        for _ in 0..rng.gen_range(0usize..400) {
            match rng.gen_range(0u32..100) {
                0..=47 => {
                    let at = match rng.gen_range(0u32..5) {
                        0 => Cycle(rng.gen_range(0..=latest.0)),
                        1 => latest + Cycle(rng.gen_range(0u64..64)),
                        2 => latest + Cycle(rng.gen_range(56u64..72)),
                        3 => latest + Cycle(rng.gen_range(64u64..5_000)),
                        _ => *rng.choose(&times).unwrap_or(&latest),
                    };
                    times.push(at);
                    q.push(at, seq);
                    model.push(Reverse((at, seq)));
                    seq += 1;
                }
                48..=79 => {
                    let got = q.pop();
                    assert_eq!(got, model.pop().map(|Reverse(e)| e), "pop");
                    if let Some((t, _)) = got {
                        latest = latest.max(t);
                    }
                }
                80..=87 => {
                    let want = model.peek().map(|Reverse((t, _))| *t);
                    assert_eq!(q.peek_time(), want, "peek_time");
                }
                88..=97 => {
                    let now = latest + Cycle(rng.gen_range(0u64..80));
                    let want = match model.peek() {
                        Some(Reverse((t, _))) if *t <= now => model.pop().map(|Reverse(e)| e),
                        _ => None,
                    };
                    let got = q.pop_due(now);
                    assert_eq!(got, want, "pop_due({now})");
                    if let Some((t, _)) = got {
                        latest = latest.max(t);
                    }
                }
                _ => {
                    q.clear();
                    model.clear();
                }
            }
            assert_eq!(q.len(), model.len(), "len");
            assert_eq!(q.is_empty(), model.is_empty(), "is_empty");
        }
        while let Some(Reverse(want)) = model.pop() {
            assert_eq!(q.pop(), Some(want), "drain");
        }
        assert_eq!(q.pop(), None);
    });
}

// ---------------------------------------------------------------------
// Wire-format roundtrip.
// ---------------------------------------------------------------------

fn gen_value(rng: &mut SimRng) -> ttda::core::Value {
    use ttda::core::{StructRef, Value as V};
    match rng.gen_range(0u32..5) {
        0 => V::Unit,
        1 => V::Bool(rng.chance(0.5)),
        2 => V::Int(rng.next_u64() as i64),
        3 => {
            // Any finite float; NaN breaks PartialEq so build from bits
            // and reject the NaN patterns.
            loop {
                let f = f64::from_bits(rng.next_u64());
                if !f.is_nan() {
                    break V::Float(f);
                }
            }
        }
        _ => V::Ptr(StructRef {
            id: rng.next_u32(),
            len: rng.next_u32(),
        }),
    }
}

#[test]
fn wire_tokens_roundtrip() {
    check::forall("wire tokens roundtrip", |rng| {
        use ttda::core::{wire, ActivityName, CodeBlockId, Ctx, InstrId, Iter, Port, Token};
        let t = Token::new(
            ActivityName {
                u: Ctx(rng.next_u32()),
                c: CodeBlockId(rng.next_u32()),
                s: InstrId(rng.next_u32()),
                i: Iter(rng.next_u32()),
            },
            Port(rng.gen_range(0u8..=u8::MAX)),
            gen_value(rng),
        );
        let pe = rng.gen_range(0u16..=u16::MAX);
        let nt = rng.gen_range(0u8..=u8::MAX);
        let bytes = wire::encode_token(&t, pe, nt);
        let (back, bpe, bnt) = wire::decode_token(&bytes).expect("roundtrip");
        assert_eq!(back, t);
        assert_eq!(bpe, pe);
        assert_eq!(bnt, nt);
    });
}
