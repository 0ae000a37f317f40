//! End-to-end tests for the relaxed parallel backend: its
//! output-equality contract on real workloads, its error and fuel
//! behaviour, and its trace ledger.

use ttda::core::{Emulator, ExecError, GraphBuilder, OpCode, Program, RunMode, Value};
use ttda::sim::{SimRng, Zipf};
use ttda::trace::{shared, CountingSink};
use ttda::workloads::fuzz::oracle::confluent_mismatch;

fn counting(sink: &ttda::trace::SharedSink) -> std::cell::Ref<'_, CountingSink> {
    std::cell::Ref::map(sink.borrow(), |s| {
        s.as_any()
            .downcast_ref::<CountingSink>()
            .expect("counting sink")
    })
}

/// A wide fan-out of independent `Identity` chains whose depths follow
/// a Zipf law: most chains run the full depth, a skewed tail quits
/// early. Thousands of tokens are in flight at once and the per-worker
/// load is uneven, so workers drain and idle at different times.
fn skewed_chains(width: usize, max_depth: usize, seed: u64) -> Program {
    let mut g = GraphBuilder::new("chains");
    let x = g.param();
    let out = g.output(0);
    g.wire(x, out, 0);
    let mut rng = SimRng::seed(seed);
    let zipf = Zipf::new(max_depth, 1.2);
    for _ in 0..width {
        let depth = max_depth - zipf.sample(&mut rng);
        let mut prev = x;
        for _ in 0..depth {
            let n = g.instr(OpCode::Identity);
            g.wire(prev, n, 0);
            prev = n;
        }
        let sink = g.instr(OpCode::Sink);
        g.wire(prev, sink, 0);
    }
    g.finish_program().expect("chain program builds")
}

#[test]
fn relaxed_matches_sequential_outputs_on_workloads() {
    // Real workloads with loops, calls and I-structure traffic, plus a
    // wide skewed fan-out: the relaxed backend must agree on outputs and
    // the confluent counters at every width, while waves/profile are
    // legitimately absent.
    let cases: [(&str, String, Vec<Value>); 3] = [
        (
            "producer_consumer",
            ttda::workloads::id::producer_consumer().to_string(),
            vec![Value::Int(24)],
        ),
        (
            "trapezoid",
            ttda::workloads::id::trapezoid().to_string(),
            vec![Value::Int(1), Value::Int(9), Value::Int(64)],
        ),
        (
            "request_dag",
            ttda::workloads::id::request_dag(8, 4),
            vec![Value::Int(3)],
        ),
    ];
    let mut programs: Vec<(&str, Program, Vec<Value>)> = cases
        .iter()
        .map(|(name, src, inputs)| {
            let p = ttda::idc::compile(src).expect("workload compiles");
            (*name, p, inputs.clone())
        })
        .collect();
    programs.push((
        "skewed_chains",
        skewed_chains(4096, 16, 0xC0FFEE),
        vec![Value::Int(7)],
    ));
    for (name, p, inputs) in &programs {
        let seq = Emulator::new(p)
            .with_mode(RunMode::Sequential)
            .run(inputs)
            .unwrap_or_else(|e| panic!("{name}: sequential run failed: {e}"));
        for threads in [1usize, 2, 4, 8] {
            let rel = Emulator::new(p)
                .with_threads(threads)
                .with_mode(RunMode::Relaxed)
                .run(inputs)
                .unwrap_or_else(|e| panic!("{name}: relaxed run failed: {e}"));
            assert_eq!(rel.outputs, seq.outputs, "{name} threads={threads}");
            assert_eq!(
                confluent_mismatch(&seq, &rel),
                None,
                "{name} threads={threads}"
            );
            assert_eq!(rel.waves, 0, "relaxed runs report no waves");
            assert!(rel.profile.is_empty(), "relaxed runs report no profile");
        }
    }
}

#[test]
fn relaxed_runs_out_of_fuel_like_sequential() {
    let p = ttda::idc::compile(ttda::workloads::id::producer_consumer()).unwrap();
    for threads in [1usize, 4] {
        let rel = Emulator::new(&p)
            .with_threads(threads)
            .with_mode(RunMode::Relaxed)
            .with_fuel(10)
            .run(&[Value::Int(24)]);
        assert_eq!(rel, Err(ExecError::OutOfFuel), "threads={threads}");
    }
}

#[test]
fn relaxed_reports_deadlocks_with_the_exact_stranded_count() {
    // A two-input add whose second operand never arrives: the token
    // parks in the waiting–matching section forever. The stranded count
    // at quiescence is a property of the program, not the schedule, so
    // relaxed mode must report exactly the sequential number.
    let mut g = GraphBuilder::new("stuck");
    let a = g.param();
    let add = g.instr(OpCode::Alu(ttda::core::AluOp::Add));
    let out = g.output(0);
    g.wire(a, add, 0).wire(add, out, 0);
    let p = g.finish_program().expect("builds");
    let seq = Emulator::new(&p)
        .with_mode(RunMode::Sequential)
        .run(&[Value::Int(1)]);
    assert_eq!(seq, Err(ExecError::Deadlock { stranded: 1 }));
    for threads in [1usize, 4] {
        let rel = Emulator::new(&p)
            .with_threads(threads)
            .with_mode(RunMode::Relaxed)
            .run(&[Value::Int(1)]);
        assert_eq!(rel, seq, "threads={threads}");
    }
}

#[test]
fn loop_bound_overrides_relaxed_mode() {
    // k-bounded loop scheduling is a global order-sensitive fixpoint;
    // it always runs on the sequential engine, even when the caller
    // asked for the relaxed backend. The tell: a k-bounded run still
    // reports its wave profile.
    let p = ttda::idc::compile(ttda::workloads::id::trapezoid()).unwrap();
    let inputs = [Value::Int(1), Value::Int(9), Value::Int(64)];
    let plain = Emulator::new(&p)
        .with_loop_bound(2)
        .run(&inputs)
        .expect("k-bounded run");
    let forced = Emulator::new(&p)
        .with_loop_bound(2)
        .with_threads(4)
        .with_mode(RunMode::Relaxed)
        .run(&inputs)
        .expect("k-bounded run ignores relaxed");
    assert_eq!(forced, plain);
    assert!(forced.waves > 0, "k-bounded runs keep their wave profile");
}

#[test]
fn relaxed_traces_conserve_tokens() {
    // Relaxed traces carry no ordering promise, but the ledger must
    // still balance: every emitted token is consumed by quiescence and
    // deferred reads all drain.
    let p = ttda::idc::compile(ttda::workloads::id::producer_consumer()).unwrap();
    let sink = shared(CountingSink::new());
    let r = Emulator::new(&p)
        .with_threads(4)
        .with_mode(RunMode::Relaxed)
        .with_sink(sink.clone())
        .run(&[Value::Int(24)])
        .expect("relaxed traced run");
    assert!(!r.outputs.is_empty());
    let c = counting(&sink);
    assert!(c.tokens_emitted() > 0);
    assert!(
        c.token_conservation_holds(),
        "tokens emitted ({}) != consumed ({}) + in flight ({:?})",
        c.tokens_emitted(),
        c.tokens_consumed(),
        c.in_flight_at_halt()
    );
    assert_eq!(c.deferred_outstanding(), 0);
    assert!(c.quiescent());
}
