//! End-to-end tests for the relaxed parallel backend: its
//! output-equality contract on real workloads, its error and fuel
//! behaviour, and its trace ledger.

use std::sync::mpsc;
use std::time::Duration;

use ttda::core::opt::OptLevel;
use ttda::core::{
    EmuResult, Emulator, ExecError, GraphBuilder, OpCode, Program, RunMode, SchedPolicy, Value,
};
use ttda::mem::{Addr, IStructureError};
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

/// Runs `body` on a thread of its own and fails the test if it is still
/// running after `limit`: a relaxed run that leaves a worker parked
/// forever shows up as a failure instead of a hung test binary.
fn within<T: Send + 'static>(
    limit: Duration,
    what: &str,
    body: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (done_tx, done_rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let out = body();
        let _ = done_tx.send(());
        out
    });
    match done_rx.recv_timeout(limit) {
        Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => handle
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{what}: still running after {limit:?}, a worker never stopped")
        }
    }
}

/// Worker counts and repetitions for the runs that end in an error or
/// with no work at all — the runs a termination detector can get wrong.
const STOP_WIDTHS: [usize; 4] = [1, 2, 4, 8];
const STOP_REPS: usize = 20;
const STOP_LIMIT: Duration = Duration::from_secs(120);

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
fn one_relaxed_worker_in_fifo_order_matches_the_sequential_run() {
    // One worker under FIFO fires in the sequential run's order, so the
    // schedule-dependent peaks and the I-structure read split agree too,
    // not just the confluent counters. Under `Crit` they differ (fib 18
    // at O2 peaks at 2,471 parked tokens sequentially, 1,073 on one
    // worker), so only FIFO is pinned.
    let dag = ttda::workloads::id::request_dag(4, 3);
    let cases: [(&str, &str, i64); 5] = [
        ("matmul", ttda::workloads::id::matmul(), 6),
        ("wavefront", ttda::workloads::id::wavefront(), 12),
        ("fib", ttda::workloads::id::fib(), 12),
        (
            "producer_consumer",
            ttda::workloads::id::producer_consumer(),
            16,
        ),
        ("request_dag", &dag, 3),
    ];
    for (name, src, n) in cases {
        for level in [OptLevel::O0, OptLevel::O2] {
            let p = ttda::idc::compile_optimized(src, level).expect("workload compiles");
            let run = |mode| {
                Emulator::new(&p)
                    .with_mode(mode)
                    .with_threads(1)
                    .with_sched(SchedPolicy::Fifo)
                    .run(&[Value::Int(n)])
                    .unwrap_or_else(|e| panic!("{name} {level} {mode:?}: {e}"))
            };
            let (seq, one) = (run(RunMode::Sequential), run(RunMode::Relaxed));
            assert_eq!(confluent_mismatch(&seq, &one), None, "{name} {level}");
            let peaks = |r: &EmuResult| {
                (
                    r.peak_matching,
                    r.istore_immediate,
                    r.istore_deferred,
                    r.peak_deferred,
                )
            };
            assert_eq!(peaks(&one), peaks(&seq), "{name} {level}");
        }
    }
}

#[test]
fn relaxed_runs_out_of_fuel_like_sequential() {
    // Workers publish firings against fuel in blocks and the exact
    // check runs at quiescence, so the boundary must sit exactly where
    // the sequential interpreter puts it: a budget of `need` firings
    // completes, `need - 1` runs out. A tiny budget is exhausted by a
    // published block while the run is still going.
    let cases = [
        (
            "producer_consumer",
            ttda::workloads::id::producer_consumer(),
            24,
        ),
        ("matmul", ttda::workloads::id::matmul(), 5),
        ("fib", ttda::workloads::id::fib(), 12),
    ];
    for (name, src, n) in cases {
        let p = ttda::idc::compile(src).expect("workload compiles");
        let inputs = [Value::Int(n)];
        let sequential = |fuel| {
            Emulator::new(&p)
                .with_mode(RunMode::Sequential)
                .with_fuel(fuel)
                .run(&inputs)
        };
        let need = sequential(u64::MAX)
            .unwrap_or_else(|e| panic!("{name}: sequential run failed: {e}"))
            .instructions;
        assert_eq!(sequential(need - 1), Err(ExecError::OutOfFuel), "{name}");
        for threads in [1usize, 2, 4] {
            let relaxed = |fuel| {
                Emulator::new(&p)
                    .with_threads(threads)
                    .with_mode(RunMode::Relaxed)
                    .with_fuel(fuel)
                    .run(&inputs)
            };
            let at_need = relaxed(need)
                .unwrap_or_else(|e| panic!("{name} threads={threads}: fuel {need}: {e}"));
            assert_eq!(at_need.instructions, need, "{name} threads={threads}");
            assert_eq!(
                relaxed(need - 1),
                Err(ExecError::OutOfFuel),
                "{name} threads={threads} fuel={}",
                need - 1
            );
            assert_eq!(
                relaxed(10),
                Err(ExecError::OutOfFuel),
                "{name} threads={threads} fuel=10"
            );
        }
    }
}

#[test]
fn relaxed_faults_stop_every_worker_with_the_sequential_error() {
    // A fault inside an I-structure shard poisons the run while peers
    // may be parked; each must still be stopped, and the error must be
    // the one the sequential interpreter reports.
    let out_of_range = |addr, size| IStructureError::OutOfRange {
        addr: Addr(addr),
        size,
    };
    let cases = [
        (
            "double write",
            "def main(n) = { a = array(n); a[0] <- 1; a[0] <- 2; n };",
            IStructureError::AlreadyWritten { addr: Addr(0) },
        ),
        (
            "write past the end",
            "def main(n) = { a = array(n); a[n + 3] <- 1; n };",
            out_of_range(43, 40),
        ),
        (
            "consumer reads one past the end",
            "def main(n) =
               { a = array(n);
                 done = (initial j = 0 for i from 0 to n - 1 do
                           a[i] <- i * i;
                           new j = j + 1
                         return j);
                 (initial s = 0 for i from 0 to n do
                    new s = s + a[i]
                  return s) };",
            out_of_range(40, 40),
        ),
    ];
    for (name, src, expected) in cases {
        within(STOP_LIMIT, name, move || {
            let p = ttda::idc::compile(src).expect("fault program compiles");
            let inputs = [Value::Int(40)];
            let seq = Emulator::new(&p)
                .with_mode(RunMode::Sequential)
                .run(&inputs)
                .expect_err("the program faults");
            assert_eq!(seq, ExecError::IStructure(expected), "{name}");
            for threads in STOP_WIDTHS {
                for rep in 0..STOP_REPS {
                    let rel = Emulator::new(&p)
                        .with_threads(threads)
                        .with_mode(RunMode::Relaxed)
                        .run(&inputs);
                    assert_eq!(rel, Err(seq.clone()), "{name} threads={threads} rep={rep}");
                }
            }
        });
    }
}

#[test]
fn relaxed_empty_submission_stops_like_sequential() {
    // No jobs means no seed tokens: every worker starts with nothing to
    // do, and the last one to go idle must still stop the others.
    within(STOP_LIMIT, "empty submission", || {
        let p = ttda::idc::compile(ttda::workloads::id::fib()).expect("fib compiles");
        let seq = Emulator::new(&p)
            .with_mode(RunMode::Sequential)
            .submit(&[])
            .expect("an empty submission runs");
        for threads in STOP_WIDTHS {
            for rep in 0..STOP_REPS {
                let rel = Emulator::new(&p)
                    .with_threads(threads)
                    .with_mode(RunMode::Relaxed)
                    .submit(&[])
                    .expect("an empty submission runs");
                assert_eq!(rel, seq, "threads={threads} rep={rep}");
            }
        }
    });
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
