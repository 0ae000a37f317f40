//! Scheduling-policy integration: criticality-aware token order must be
//! invisible in every observable output, confluent across worker counts
//! on the parallel backend, and exactly FIFO when every token ties.
//!
//! DESIGN.md §15: `SchedPolicy::Crit` reorders each engine's ready
//! tokens by remaining critical-path height, ties broken by arrival
//! order. These tests pin the two contracts that make that safe to ship
//! as a default-off policy: confluence (outputs and the confluent
//! counters of a `Crit` run do not depend on the engine or the thread
//! count) and FIFO-degeneracy (a graph whose ready tokens all carry
//! equal height schedules exactly as the FIFO engines always did).

use ttda::core::opt::annotate_criticality;
use ttda::core::{
    Emulator, GraphBuilder, OpCode, Program, RunMode, SchedPolicy, TimedConfig, TimedMachine, Value,
};
use ttda::sim::Cycle;
use ttda::workloads::fuzz::oracle::confluent_mismatch;
use ttda::workloads::{id, reference};

#[test]
fn crit_is_confluent_across_thread_counts() {
    // The confluence property: under `Crit` the relaxed backend sorts
    // each worker's waves by criticality, which changes firing order
    // only — outputs, firing and ALU counts, contexts and structure
    // traffic stay those of the sequential `Crit` run.
    let cases: Vec<(&str, Vec<Value>)> = vec![
        (id::fib(), vec![Value::Int(12)]),
        (id::matmul(), vec![Value::Int(4)]),
        (id::producer_consumer(), vec![Value::Int(20)]),
    ];
    for (src, inputs) in cases {
        let p = ttda::idc::compile(src).expect("compiles");
        let seq = Emulator::new(&p)
            .with_mode(RunMode::Sequential)
            .with_sched(SchedPolicy::Crit)
            .run(&inputs)
            .expect("sequential crit runs");
        for threads in [1usize, 2, 4, 8] {
            let par = Emulator::new(&p)
                .with_threads(threads)
                .with_mode(RunMode::Relaxed)
                .with_sched(SchedPolicy::Crit)
                .run(&inputs)
                .expect("relaxed crit runs");
            assert_eq!(
                confluent_mismatch(&seq, &par),
                None,
                "threads={threads}: crit schedule diverged from sequential"
            );
        }
    }
}

#[test]
fn crit_changes_no_outputs_on_any_engine() {
    let p = ttda::idc::compile(id::fib()).expect("compiles");
    let inputs = [Value::Int(13)];
    let want = Value::Int(reference::fib(13));
    for mode in [RunMode::Sequential, RunMode::Relaxed] {
        let r = Emulator::new(&p)
            .with_threads(4)
            .with_mode(mode)
            .with_sched(SchedPolicy::Crit)
            .run(&inputs)
            .expect("crit runs");
        assert_eq!(r.outputs[&0], want, "{mode:?}");
    }
    for sched in [SchedPolicy::Fifo, SchedPolicy::Crit] {
        let cfg = TimedConfig {
            sched,
            ..TimedConfig::default()
        };
        let mut m = TimedMachine::ideal(p.clone(), 4, Cycle(5), cfg);
        assert_eq!(m.run(&inputs).expect("runs").outputs[&0], want, "{sched}");
    }
}

/// One parameter fanned out to `width` identical one-step chains, each
/// ending in its own output. Every non-terminal instruction sits at the
/// same critical-path height by symmetry, so after the parameter fires
/// the ready queue is all ties.
fn flat_fanout(width: u32) -> Program {
    let mut g = GraphBuilder::new("flat");
    let x = g.param();
    for i in 0..width {
        let n = g.instr(OpCode::Identity);
        g.wire(x, n, 0);
        let out = g.output(i);
        g.wire(n, out, 0);
    }
    let mut p = g.finish_program().expect("flat program builds");
    annotate_criticality(&mut p);
    p
}

#[test]
fn equal_criticality_degenerates_to_exact_fifo() {
    // The tie-break pin, at engine level: when every ready token carries
    // the same height, the bucket queue collapses to one bucket and the
    // stable criticality sort to the identity permutation, so a `Crit`
    // run must be *bit-identical* to the FIFO run — emulator result and
    // timed makespan both — not merely output-equal. If a future change
    // breaks the arrival-order tie-break, the wave profile or the
    // 2-PE makespan diverges here first.
    let p = flat_fanout(16);
    let inputs = [Value::Int(7)];
    let fifo = Emulator::new(&p).run(&inputs).expect("fifo runs");
    let crit = Emulator::new(&p)
        .with_sched(SchedPolicy::Crit)
        .run(&inputs)
        .expect("crit runs");
    assert_eq!(crit, fifo, "all-ties must schedule exactly as FIFO");
    let run = |sched: SchedPolicy| {
        let cfg = TimedConfig {
            sched,
            ..TimedConfig::default()
        };
        let r = TimedMachine::ideal(p.clone(), 2, Cycle(4), cfg)
            .run(&inputs)
            .expect("runs");
        (r.outputs.clone(), r.stats.cycles, r.stats.instructions)
    };
    assert_eq!(run(SchedPolicy::Fifo), run(SchedPolicy::Crit));
}

#[test]
fn crit_shortens_the_contended_timed_schedule() {
    // The whole point of the policy, pinned end to end on the Fig 2-2
    // trapezoid: at 2 PEs with a 4-cycle network, firing the
    // longest-remaining-path token first beats arrival order. E23
    // tables this across the workload set; this test keeps the headline
    // honest from the integration suite.
    let p =
        ttda::idc::compile_optimized(id::trapezoid(), ttda::idc::OptLevel::O2).expect("compiles");
    let inputs = [Value::Float(0.0), Value::Float(1.0), Value::Int(64)];
    let run = |sched: SchedPolicy| {
        let cfg = TimedConfig {
            sched,
            ..TimedConfig::default()
        };
        TimedMachine::ideal(p.clone(), 2, Cycle(4), cfg)
            .run(&inputs)
            .expect("runs")
    };
    let fifo = run(SchedPolicy::Fifo);
    let crit = run(SchedPolicy::Crit);
    assert_eq!(fifo.outputs, crit.outputs);
    assert!(
        crit.stats.cycles < fifo.stats.cycles,
        "crit must shorten the schedule: {} !< {}",
        crit.stats.cycles.0,
        fifo.stats.cycles.0
    );
}
