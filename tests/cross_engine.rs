//! Cross-crate integration: the emulator and the timed machine must
//! agree on every workload, over every topology, mapping policy and
//! machine size.
//!
//! This is the suite's strongest correctness lever: the two engines
//! share only the graph representation and the opcode semantics, so any
//! divergence in matching, tag manipulation, I-structure deferral or
//! routing shows up as a result mismatch here.

use ttda::core::opt::OptLevel;
use ttda::core::{
    Emulator, ExecError, MappingPolicy, SchedPolicy, StructPlacement, StructRef, TimedConfig,
    TimedMachine, Value,
};
use ttda::mem::{Addr, IStructureError};
use ttda::net::{ClusterTree, Crossbar, FabricConfig, Grid2d, Hypercube, Omega};
use ttda::sim::Cycle;
use ttda::trace::{shared, CountingSink, SharedSink};
use ttda::workloads::fuzz::oracle::confluent_mismatch;
use ttda::workloads::{id, reference};

fn emulate(src: &str, inputs: &[Value]) -> Value {
    let p = ttda::idc::compile(src).expect("compiles");
    let seq = Emulator::new(&p).run(inputs).expect("emulates");
    // Every emulated workload doubles as a confluence check on the
    // parallel backend: outputs and the confluent counters must not
    // depend on the worker count.
    for threads in [2usize, 4] {
        let par = Emulator::new(&p)
            .with_threads(threads)
            .run(inputs)
            .expect("parallel backend runs");
        assert_eq!(confluent_mismatch(&seq, &par), None, "threads={threads}");
    }
    seq.outputs[&0]
}

#[test]
fn all_workloads_agree_across_pe_counts() {
    let cases: Vec<(&str, Vec<Value>, Value)> = vec![
        (
            id::fib(),
            vec![Value::Int(13)],
            Value::Int(reference::fib(13)),
        ),
        (
            id::producer_consumer(),
            vec![Value::Int(20)],
            Value::Int(reference::square_sum(20)),
        ),
        (
            id::relaxation(),
            vec![Value::Int(12)],
            Value::Int(reference::relaxation_checksum(12)),
        ),
        (
            id::matmul(),
            vec![Value::Int(4)],
            Value::Int(reference::matmul_checksum(4)),
        ),
    ];
    for (src, inputs, expected) in cases {
        assert_eq!(emulate(src, &inputs), expected);
        let p = ttda::idc::compile(src).expect("compiles");
        for pes in [1usize, 3, 8] {
            let mut m = TimedMachine::ideal(p.clone(), pes, Cycle(7), TimedConfig::default());
            let r = m.run(&inputs).expect("runs");
            assert_eq!(r.outputs[&0], expected, "pes={pes}");
        }
    }
}

#[test]
fn trapezoid_agrees_within_float_tolerance() {
    let inputs = [Value::Float(0.0), Value::Float(1.0), Value::Int(64)];
    let Value::Float(want) = emulate(id::trapezoid(), &inputs) else {
        panic!("float expected");
    };
    let p = ttda::idc::compile(id::trapezoid()).expect("compiles");
    for pes in [1usize, 4] {
        let mut m = TimedMachine::ideal(p.clone(), pes, Cycle(3), TimedConfig::default());
        let Value::Float(got) = m.run(&inputs).expect("runs").outputs[&0] else {
            panic!("float expected");
        };
        // Identical operation set, but token arrival order can reorder
        // float additions only if the graph allowed it; here the s-chain
        // is sequential, so the value must match bitwise.
        assert_eq!(got, want, "pes={pes}");
    }
}

#[test]
fn every_mapping_policy_agrees() {
    let p = ttda::idc::compile(id::fib()).expect("compiles");
    let want = Value::Int(reference::fib(11));
    for mapping in [
        MappingPolicy::ByIteration,
        MappingPolicy::ByContext,
        MappingPolicy::Spread,
    ] {
        let cfg = TimedConfig {
            mapping,
            ..TimedConfig::default()
        };
        let mut m = TimedMachine::ideal(p.clone(), 6, Cycle(5), cfg);
        assert_eq!(
            m.run(&[Value::Int(11)]).expect("runs").outputs[&0],
            want,
            "{mapping:?}"
        );
    }
}

#[test]
fn every_topology_runs_the_machine() {
    let p = ttda::idc::compile(id::producer_consumer()).expect("compiles");
    let want = Value::Int(reference::square_sum(16));
    let cfg = TimedConfig::default();

    let mut cube = TimedMachine::new(p.clone(), Hypercube::new(3).expect("cube"), cfg);
    assert_eq!(cube.run(&[Value::Int(16)]).expect("runs").outputs[&0], want);

    let mut xbar = TimedMachine::new(p.clone(), Crossbar::new(6).expect("xbar"), cfg);
    assert_eq!(xbar.run(&[Value::Int(16)]).expect("runs").outputs[&0], want);

    let mut omega = TimedMachine::new(p.clone(), Omega::new(8).expect("omega"), cfg);
    assert_eq!(
        omega.run(&[Value::Int(16)]).expect("runs").outputs[&0],
        want
    );

    let mut grid = TimedMachine::new(p.clone(), Grid2d::new(3, 3).expect("grid"), cfg);
    assert_eq!(grid.run(&[Value::Int(16)]).expect("runs").outputs[&0], want);

    let mut tree = TimedMachine::new(p, ClusterTree::new(2, 4).expect("tree"), cfg);
    assert_eq!(tree.run(&[Value::Int(16)]).expect("runs").outputs[&0], want);
}

#[test]
fn faulty_and_partitioned_cube_still_computes() {
    let p = ttda::idc::compile(id::fib()).expect("compiles");
    let want = Value::Int(reference::fib(10));

    let mut cube = Hypercube::new(4).expect("cube");
    // Take down three links; routing tables heal around them.
    cube.fail_link(ttda::net::NodeId(0), ttda::net::NodeId(1))
        .expect("fault");
    cube.fail_link(ttda::net::NodeId(2), ttda::net::NodeId(6))
        .expect("fault");
    cube.fail_link(ttda::net::NodeId(8), ttda::net::NodeId(12))
        .expect("fault");
    let mut m = TimedMachine::new(p, cube, TimedConfig::default());
    assert_eq!(m.run(&[Value::Int(10)]).expect("runs").outputs[&0], want);
}

#[test]
fn partitioned_cube_is_an_error_not_a_panic() {
    // Splitting the 3-cube into two 2-cubes leaves PEs that must talk
    // with no route between them: the run reports it and stops.
    for (name, src, input) in [("fib", id::fib(), 10), ("matmul", id::matmul(), 3)] {
        let p = ttda::idc::compile(src).expect("compiles");
        let mut cube = Hypercube::new(3).expect("cube");
        cube.partition(1).expect("a 3-cube splits in two");
        let mut m = TimedMachine::new(p, cube, TimedConfig::default());
        match m.run(&[Value::Int(input)]) {
            Err(ExecError::Unroutable { from, to }) => {
                // `partition(1)` keys a node's half on its top address bit.
                assert_ne!(from / 4, to / 4, "{name}: {from} -> {to}");
            }
            other => panic!("{name}: expected Unroutable, got {other:?}"),
        }
    }
}

#[test]
fn deterministic_across_repeat_runs() {
    let p = ttda::idc::compile(id::matmul()).expect("compiles");
    let mut cycles = Vec::new();
    for _ in 0..3 {
        let mut m = TimedMachine::ideal(p.clone(), 4, Cycle(5), TimedConfig::default());
        let r = m.run(&[Value::Int(3)]).expect("runs");
        cycles.push((r.stats.cycles, r.stats.instructions, r.stats.net_packets));
    }
    assert_eq!(cycles[0], cycles[1]);
    assert_eq!(cycles[1], cycles[2]);
}

#[test]
fn timed_model_output_is_pinned() {
    // The timed machine's exact output on two configurations. A change
    // to the event loop, the PE queues or the network that moves any of
    // these figures changes the simulation, not just its speed.

    // The repository benchmark's `timed-fib`: every event lands within
    // a few cycles of the last one.
    let p = ttda::idc::compile_optimized(id::fib(), OptLevel::O2).expect("compiles");
    let config = TimedConfig {
        sched: SchedPolicy::Crit,
        ..TimedConfig::default()
    };
    let mut m = TimedMachine::new(p, Hypercube::new(3).expect("cube"), config);
    let r = m.run(&[Value::Int(18)]).expect("runs");
    assert_eq!(r.outputs[&0], Value::Int(reference::fib(18)));
    let s = &r.stats;
    assert_eq!(
        (s.pes, s.cycles, s.instructions, s.alu_ops, s.alu_busy),
        (8, Cycle(25_710), 54_347, 20_901, Cycle(20_901))
    );
    assert_eq!(
        s.per_pe_alu_busy,
        [2636, 2565, 2617, 2583, 2574, 2832, 2741, 2353].map(Cycle)
    );
    assert_eq!(
        (s.tokens_delivered, s.tokens_remote, s.contexts),
        (66_888, 14_696, 8_363)
    );
    assert_eq!(
        (s.peak_matching, s.match_overflows, s.peak_queue),
        (1_285, 0, 923)
    );
    assert_eq!(
        (s.istore_immediate, s.istore_deferred, s.istore_writes),
        (0, 0, 0)
    );
    assert_eq!(
        (s.net_packets, s.net_mean_hops),
        (14_696, 1.7079477408818726)
    );

    // Matmul over a bit-serial cube: slow links put a share of the
    // events 64 or more cycles ahead, past the event queue's window.
    let p = ttda::idc::compile(id::matmul()).expect("compiles");
    let config = TimedConfig {
        sched: SchedPolicy::Fifo,
        fabric: FabricConfig::bit_serial_4mbs(),
        ..TimedConfig::default()
    };
    let mut m = TimedMachine::new(p, Hypercube::new(3).expect("cube"), config);
    let r = m.run(&[Value::Int(5)]).expect("runs");
    assert_eq!(r.outputs[&0], Value::Int(reference::matmul_checksum(5)));
    let s = &r.stats;
    assert_eq!(
        (s.pes, s.cycles, s.instructions, s.alu_ops, s.alu_busy),
        (8, Cycle(10_074), 9_789, 1_560, Cycle(1_560))
    );
    assert_eq!(
        s.per_pe_alu_busy,
        [223, 198, 172, 167, 233, 166, 249, 152].map(Cycle)
    );
    assert_eq!(
        (s.tokens_delivered, s.tokens_remote, s.contexts),
        (13_560, 2_222, 35)
    );
    assert_eq!(
        (s.peak_matching, s.match_overflows, s.peak_queue),
        (241, 0, 95)
    );
    assert_eq!(
        (s.istore_immediate, s.istore_deferred, s.istore_writes),
        (95, 155, 50)
    );
    assert_eq!(
        (s.net_packets, s.net_mean_hops),
        (2_222, 1.7385238523852384)
    );
}

#[test]
fn every_engine_stops_at_the_same_fuel() {
    // Fuel is the number of firings a run may make: a run that fires n
    // instructions completes under fuel n and runs out under n - 1, on
    // the sequential and relaxed emulators and on the timed machine.
    let cases: [(&str, i64, u64); 3] = [
        (id::fib(), 10, 1_859),
        ("def main(n) = n + 1;", 1, 3),
        (id::matmul(), 3, 2_841),
    ];
    for (src, input, n) in cases {
        let p = ttda::idc::compile(src).expect("compiles");
        let inputs = [Value::Int(input)];
        for fuel in [n - 1, n] {
            let want = if fuel == n {
                Ok(n)
            } else {
                Err(ExecError::OutOfFuel)
            };
            for threads in [1usize, 2] {
                let got = Emulator::new(&p)
                    .with_threads(threads)
                    .with_fuel(fuel)
                    .run(&inputs)
                    .map(|r| r.instructions);
                assert_eq!(got, want, "threads={threads} fuel={fuel}\n{src}");
            }
            for pes in [1usize, 4] {
                let got = TimedMachine::ideal(p.clone(), pes, Cycle(3), TimedConfig::default())
                    .with_fuel(fuel)
                    .run(&inputs)
                    .map(|r| r.stats.instructions);
                assert_eq!(got, want, "pes={pes} fuel={fuel}\n{src}");
            }
        }
    }
}

#[test]
fn emulator_statistics_are_meaningful() {
    let p = ttda::idc::compile(id::fib()).expect("compiles");
    let r = Emulator::new(&p).run(&[Value::Int(13)]).expect("runs");
    // Invariants across stats: profile sums to instruction count,
    // critical path = profile length, peak >= mean.
    assert_eq!(r.profile.iter().sum::<usize>() as u64, r.instructions);
    assert_eq!(r.profile.len() as u64, r.waves);
    assert!(r.peak_parallelism() as f64 >= r.mean_parallelism());
    assert!(r.alu_ops < r.instructions);
}

#[test]
fn wavefront_agrees_everywhere() {
    use ttda::workloads::{id, reference};
    let p = ttda::idc::compile(id::wavefront()).expect("compiles");
    let want = Value::Int(reference::wavefront_corner(9));
    let emu = Emulator::new(&p).run(&[Value::Int(9)]).expect("emulates");
    assert_eq!(emu.outputs[&0], want);
    for pes in [2usize, 7] {
        let mut m = TimedMachine::ideal(p.clone(), pes, Cycle(6), TimedConfig::default());
        let r = m.run(&[Value::Int(9)]).expect("runs");
        assert_eq!(r.outputs[&0], want, "pes={pes}");
        // Both engines execute the identical instruction multiset.
        assert_eq!(r.stats.instructions, emu.instructions, "pes={pes}");
    }
}

#[test]
fn compiled_trapezoid_has_fig22_shape() {
    use ttda::core::OpCode;
    let p = ttda::idc::compile(ttda::workloads::id::trapezoid()).expect("compiles");
    let main = p.block(p.main).expect("main exists");
    let count = |pred: &dyn Fn(&OpCode) -> bool| main.instrs.iter().filter(|i| pred(&i.op)).count();
    // Fig 2-2's operator inventory: one D / Switch / L / D⁻¹ per
    // circulating variable. The loop circulates s, x, the induction var
    // i, its bound and step, and the invariants (h and the f-triggering
    // environment) — at least five rings.
    let d = count(&|op| matches!(op, OpCode::D { .. }));
    let sw = count(&|op| matches!(op, OpCode::Switch));
    let l = count(&|op| matches!(op, OpCode::L));
    let dinv = count(&|op| matches!(op, OpCode::DInv));
    assert!(d >= 5, "D count {d}");
    assert_eq!(d, sw, "one Switch per circulating variable");
    assert_eq!(d, l, "one L per circulating variable");
    assert_eq!(d, dinv, "one D-inverse per circulating variable");
    // All D instructions of the single loop share one loop id.
    let mut ids: Vec<u32> = main
        .instrs
        .iter()
        .filter_map(|i| match i.op {
            OpCode::D { loop_id } => Some(loop_id),
            _ => None,
        })
        .collect();
    ids.dedup();
    assert_eq!(ids.len(), 1, "a single loop has a single loop id");
    // And f is a separate code block invoked by Apply.
    assert!(main
        .instrs
        .iter()
        .any(|i| matches!(i.op, OpCode::Apply { .. })));
    assert_eq!(p.blocks.len(), 2, "main + f");
}

#[test]
fn optimizer_preserves_every_workload() {
    use ttda::core::opt::optimize;
    let cases: Vec<(&str, Vec<Value>)> = vec![
        (id::fib(), vec![Value::Int(12)]),
        (id::producer_consumer(), vec![Value::Int(18)]),
        (id::relaxation(), vec![Value::Int(10)]),
        (id::matmul(), vec![Value::Int(3)]),
        (id::wavefront(), vec![Value::Int(6)]),
        (
            id::trapezoid(),
            vec![Value::Float(0.0), Value::Float(1.0), Value::Int(32)],
        ),
    ];
    for (src, inputs) in cases {
        let p = ttda::idc::compile(src).expect("compiles");
        let (opt, stats) = optimize(&p);
        assert!(
            stats.identities_collapsed > 0,
            "every Id program has junctions"
        );
        let a = Emulator::new(&p).run(&inputs).expect("runs");
        let b = Emulator::new(&opt).run(&inputs).expect("runs optimized");
        assert_eq!(a.outputs, b.outputs);
        assert!(
            b.instructions < a.instructions,
            "optimization must cut firings: {} !< {}",
            b.instructions,
            a.instructions
        );
        // And on the timed machine.
        let mut m = TimedMachine::ideal(opt, 4, Cycle(5), TimedConfig::default());
        assert_eq!(m.run(&inputs).expect("runs").outputs, a.outputs);
    }
}

#[test]
fn loop_bound_forces_the_sequential_backend() {
    // Pins a deliberate (previously undocumented) fallback: `submit`
    // dispatches to the parallel backend only when `threads > 1`
    // AND no k-bound is set — the parallel backend does not implement
    // iteration throttling, so `with_loop_bound(k)` must silently run
    // sequential no matter how many workers were requested. Two halves
    // to the pin:
    //
    //  1. the k-bound actually engages (the parallelism profile differs
    //     from the unbounded run — throttling is visible), and
    //  2. worker count is a no-op under a k-bound: the full `EmuResult`
    //     at 2 and 8 threads is bit-identical to 1 thread, *including*
    //     schedule-sensitive counters like `peak_matching` and the wave
    //     profile, which the relaxed backend does not reproduce.
    // The runaway-consumer shape from ablation A4: a slow producer loop
    // against a fast consumer loop, where unbounded execution lets
    // iterations run far ahead — so a k-bound visibly stretches the
    // critical path and shrinks matching-store occupancy.
    let src = r#"
        def slow(x) = if x < 1 then 0 else slow(x - 1);
        def main(n) =
          { a = array(n);
            done = (initial j = 0 for i from 0 to n - 1 do
                      a[i] <- i + slow(6);
                      new j = j + slow(6)
                    return j);
            (initial s = 0 for i from 0 to n - 1 do
               new s = s + a[i]
             return s) };
    "#;
    let p = ttda::idc::compile(src).expect("compiles");
    let inputs = [Value::Int(24)];
    let want = Value::Int(23 * 24 / 2);

    let unbounded = Emulator::new(&p).run(&inputs).expect("runs");
    let bounded = Emulator::new(&p)
        .with_loop_bound(2)
        .run(&inputs)
        .expect("runs");
    assert_eq!(
        bounded.outputs[&0], want,
        "k-bounding must not change answers"
    );
    assert!(
        bounded.waves > unbounded.waves && bounded.peak_matching < unbounded.peak_matching,
        "k=2 should visibly throttle (waves {} -> {}, peak matching {} -> {}); if this \
         starts failing the workload no longer exercises the bound",
        unbounded.waves,
        bounded.waves,
        unbounded.peak_matching,
        bounded.peak_matching
    );

    for threads in [2usize, 8] {
        let threaded = Emulator::new(&p)
            .with_loop_bound(2)
            .with_threads(threads)
            .run(&inputs)
            .expect("runs");
        assert_eq!(
            threaded, bounded,
            "threads={threads} with a loop bound must be the sequential result exactly"
        );
    }
}

/// `g(x) = if x < 1 then 1 else { r = g(x - 1); r * 2 + r }` (so
/// `g(x) = 3^x`), called once per iteration of a loop in `main` that
/// keeps two sums of the call's result. Both the recursive call's and
/// the loop's call result fan out to two consumers, and the loop calls
/// from iterations 1..=n, so the `Return` must find the caller's
/// `Apply` and restore the caller's iteration.
fn call_fanout_program() -> ttda::core::Program {
    use ttda::core::{AluOp, CmpOp, CodeBlockId, GraphBuilder, OpCode};

    let mut g = GraphBuilder::new("main");
    let callee = g.begin_block("g");
    let x = g.param();
    let base = g.instr_lit(OpCode::Cmp(CmpOp::Lt), 1, Value::Int(1));
    g.wire(x, base, 0);
    let sw = g.instr(OpCode::Switch);
    g.wire(x, sw, 0).wire(base, sw, 1);
    let one = g.lit(Value::Int(1));
    let ret_base = g.instr(OpCode::Return);
    g.wire_true(sw, one, 0).wire(one, ret_base, 0);
    let dec = g.instr_lit(OpCode::Alu(AluOp::Sub), 1, Value::Int(1));
    g.wire_false(sw, dec, 0);
    let rec = g.instr(OpCode::Apply { callee, argc: 1 });
    let twice = g.instr_lit(OpCode::Alu(AluOp::Mul), 1, Value::Int(2));
    let sum = g.instr(OpCode::Alu(AluOp::Add));
    let ret = g.instr(OpCode::Return);
    g.wire(dec, rec, 0).wire(rec, twice, 0).wire(rec, sum, 1);
    g.wire(twice, sum, 0).wire(sum, ret, 0);

    g.select_block(CodeBlockId(0));
    let n = g.param();
    let zero_a = g.lit(Value::Int(0));
    let zero_b = g.lit(Value::Int(0));
    let first = g.lit(Value::Int(1));
    g.wire(n, zero_a, 0).wire(n, zero_b, 0).wire(n, first, 0);
    let exits = g
        .dataflow_loop(
            &[zero_a, zero_b, first, n],
            |g, tops| {
                let c = g.instr(OpCode::Cmp(CmpOp::Le));
                g.wire(tops[2], c, 0).wire(tops[3], c, 1);
                c
            },
            |g, vars| {
                let call = g.instr(OpCode::Apply { callee, argc: 1 });
                g.wire(vars[2], call, 0);
                let a = g.instr(OpCode::Alu(AluOp::Add));
                g.wire(vars[0], a, 0).wire(call, a, 1);
                let dbl = g.instr_lit(OpCode::Alu(AluOp::Mul), 1, Value::Int(2));
                g.wire(call, dbl, 0);
                let b = g.instr(OpCode::Alu(AluOp::Add));
                g.wire(vars[1], b, 0).wire(dbl, b, 1);
                let next = g.instr_lit(OpCode::Alu(AluOp::Add), 1, Value::Int(1));
                g.wire(vars[2], next, 0);
                vec![a, b, next, vars[3]]
            },
        )
        .expect("loop builds");
    let (out_a, out_b) = (g.output(0), g.output(1));
    g.wire(exits[0], out_a, 0).wire(exits[1], out_b, 0);
    g.finish_program().expect("program builds")
}

#[test]
fn call_linkage_agrees_across_engines() {
    use ttda::core::RunMode;

    let p = call_fanout_program();
    let n = 5i64;
    let sum: i64 = (1..=n as u32).map(|i| 3i64.pow(i)).sum();
    let want = [Value::Int(sum), Value::Int(2 * sum)];
    let inputs = [Value::Int(n)];
    let check = |engine: &str, outs: &std::collections::HashMap<u32, Value>| {
        assert_eq!([outs[&0], outs[&1]], want, "{engine}");
    };

    let seq = Emulator::new(&p)
        .with_mode(RunMode::Sequential)
        .run(&inputs)
        .expect("sequential runs");
    check("sequential", &seq.outputs);
    for threads in [2usize, 4] {
        let relaxed = Emulator::new(&p)
            .with_threads(threads)
            .with_mode(RunMode::Relaxed)
            .run(&inputs)
            .expect("relaxed runs");
        check("relaxed", &relaxed.outputs);
        assert_eq!(
            confluent_mismatch(&seq, &relaxed),
            None,
            "relaxed x{threads}"
        );
    }
    let timed = TimedMachine::ideal(p, 4, Cycle(3), TimedConfig::default())
        .run(&inputs)
        .expect("timed runs");
    check("timed", &timed.outputs);
    assert_eq!(timed.stats.contexts, seq.contexts, "timed contexts");
}

#[test]
fn an_allocation_a_pointer_cannot_address_is_a_typed_error() {
    // `StructRef::len` is a `u32`: 2^32 + 1 cells used to be truncated
    // to one cell (and the store then succeeded), 2^40 to none.
    let p =
        ttda::idc::compile("def main(n) = { a = array(n); a[0] <- 7; a[0] };").expect("compiles");
    for n in [(1i64 << 32) + 1, 1i64 << 40] {
        let want = ExecError::AllocTooLarge { len: n };
        let input = [Value::Int(n)];
        let seq = Emulator::new(&p).run(&input);
        let relaxed = Emulator::new(&p).with_threads(2).run(&input);
        let timed = TimedMachine::ideal(p.clone(), 4, Cycle(2), TimedConfig::default()).run(&input);
        assert_eq!(seq, Err(want.clone()), "sequential, n = {n}");
        assert_eq!(relaxed, Err(want.clone()), "relaxed, n = {n}");
        assert_eq!(timed.map(|r| r.outputs), Err(want), "timed, n = {n}");
    }
    // A size that fits still allocates.
    let r = Emulator::new(&p).run(&[Value::Int(3)]).expect("runs");
    assert_eq!(r.outputs[&0], Value::Int(7));
}

#[test]
fn an_index_past_the_end_is_the_same_error_on_every_engine() {
    // Interleaved, element `k` lives in cell `k / pes` of a module's
    // slice of `n.div_ceil(pes)` cells, so a bound checked against the
    // slice lets an index just past the end through: the bound is the
    // array's length, on every engine and placement.
    for (n, k) in [(5i64, 5usize), (5, 7), (3, 3)] {
        let src = format!("def main(x) = {{ a = array({n}); a[{k}] <- x; a[{k}] }};");
        let p = ttda::idc::compile(&src).expect("compiles");
        let want = Err(ExecError::IStructure(IStructureError::OutOfRange {
            addr: Addr(k),
            size: n as usize,
        }));
        let input = [Value::Int(9)];
        let seq = Emulator::new(&p).run(&input).map(|r| r.outputs);
        assert_eq!(seq, want, "sequential, {src}");
        let relaxed = Emulator::new(&p).with_threads(2).run(&input);
        assert_eq!(relaxed.map(|r| r.outputs), want, "relaxed x2, {src}");
        let timed = |pes, placement| {
            let config = TimedConfig {
                placement,
                ..TimedConfig::default()
            };
            let mut m = TimedMachine::ideal(p.clone(), pes, Cycle(2), config);
            m.run(&input).map(|r| r.outputs)
        };
        for pes in [2, 4, 8] {
            let got = timed(pes, StructPlacement::Interleaved);
            assert_eq!(got, want, "timed, {pes} PEs interleaved, {src}");
        }
        let got = timed(4, StructPlacement::SingleModule);
        assert_eq!(got, want, "timed, 4 PEs single-module, {src}");
    }
}

#[test]
fn a_fetch_with_two_readers_counts_two_reads_on_every_engine() {
    // `v` goes to both the add and the multiply, so the fetch has two
    // readers: every engine counts (and traces) one read per reader.
    let src = "def main(x) = { a = array(2); a[0] <- x; v = a[0]; v + v * 2 };";
    for level in [OptLevel::O0, OptLevel::O2] {
        let p = ttda::idc::compile_optimized(src, level).expect("compiles");
        let input = [Value::Int(5)];
        let traced = || shared(CountingSink::new());
        let reads_traced = |sink: &SharedSink| {
            let s = sink.borrow();
            let c = s.as_any().downcast_ref::<CountingSink>().expect("counting");
            c.metrics().counter_value("istore_read")
        };
        let mut runs = Vec::new();
        for threads in [1, 2] {
            let sink = traced();
            let r = Emulator::new(&p)
                .with_threads(threads)
                .with_sink(sink.clone())
                .run(&input)
                .expect("runs");
            assert_eq!(r.outputs[&0], Value::Int(15));
            let counts = (r.istore_immediate + r.istore_deferred, r.istore_writes);
            runs.push((format!("emulator x{threads}"), counts, reads_traced(&sink)));
        }
        let sink = traced();
        let mut m =
            TimedMachine::ideal(p, 4, Cycle(2), TimedConfig::default()).with_sink(sink.clone());
        let r = m.run(&input).expect("runs");
        assert_eq!(r.outputs[&0], Value::Int(15));
        let s = &r.stats;
        let counts = (s.istore_immediate + s.istore_deferred, s.istore_writes);
        runs.push(("timed, 4 PEs".to_string(), counts, reads_traced(&sink)));
        for (engine, counts, traced_reads) in runs {
            assert_eq!(counts, (2, 1), "{engine} at {level}: (reads, writes)");
            assert_eq!(traced_reads, 2, "{engine} at {level}: istore_read events");
        }
    }
}

#[test]
fn a_pointer_no_allocation_made_is_refused_on_every_engine() {
    // A pointer passed in as an input names no structure of the run.
    // The timed machine's modules materialize a structure on first
    // access, so they must not take such a pointer for one. A fetch
    // whose value nothing reads names its structure all the same.
    let forged = [Value::Ptr(StructRef {
        id: u32::MAX,
        len: 4,
    })];
    for src in ["def main(a) = a[0];", "def main(a) = { v = a[0]; 7 };"] {
        let p = ttda::idc::compile(src).expect("compiles");
        let refused = |r: Result<_, ExecError>| matches!(r, Err(ExecError::BadTarget { .. }));
        let seq = Emulator::new(&p).run(&forged);
        assert!(refused(seq.map(|r| r.outputs)), "sequential, {src}");
        let relaxed = Emulator::new(&p).with_threads(2).run(&forged);
        assert!(refused(relaxed.map(|r| r.outputs)), "relaxed x2, {src}");
        let mut m = TimedMachine::ideal(p, 4, Cycle(2), TimedConfig::default());
        assert!(refused(m.run(&forged).map(|r| r.outputs)), "timed, {src}");
    }
}

#[test]
fn a_reused_machine_starts_every_run_fresh() {
    // A second run on the same machine must report what a fresh run
    // does, and a firing budget that fits one run must fit every run.
    let p = ttda::idc::compile_optimized(id::fib(), OptLevel::O2).expect("compiles");
    let inputs = [Value::Int(10)];
    let fresh = Emulator::new(&p).run(&inputs).expect("runs");
    let fuel = fresh.instructions + 10;

    let mut seq = Emulator::new(&p).with_fuel(fuel);
    for run in 1..=2 {
        let r = seq.run(&inputs).expect("sequential runs");
        // Every field: outputs, counters, waves and peaks.
        assert_eq!(r, fresh, "sequential run {run}");
    }
    let mut relaxed = Emulator::new(&p).with_threads(2).with_fuel(fuel);
    for run in 1..=2 {
        let r = relaxed.run(&inputs).expect("relaxed runs");
        assert_eq!(confluent_mismatch(&fresh, &r), None, "relaxed x2 run {run}");
    }
    let timed = || TimedMachine::ideal(p.clone(), 4, Cycle(3), TimedConfig::default());
    let want = timed().run(&inputs).expect("timed runs");
    let mut m = timed().with_fuel(fuel);
    for run in 1..=2 {
        let r = m.run(&inputs).expect("timed runs");
        assert_eq!(r.outputs, fresh.outputs, "timed run {run}");
        assert_eq!(r.stats.instructions, fresh.instructions, "timed run {run}");
        assert_eq!(r.stats.contexts, fresh.contexts, "timed run {run}");
        assert_eq!(
            format!("{:?}", r.stats),
            format!("{:?}", want.stats),
            "timed run {run}"
        );
    }
}
