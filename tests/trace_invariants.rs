//! Trace-derived lifecycle invariants, checked end to end through the
//! public umbrella crate.
//!
//! These are the observability layer's acceptance tests: a counting sink
//! attached to a whole machine must reproduce the ledger the paper argues
//! by — every token created is eventually consumed, every deferred
//! I-structure read drains by quiescence, and every packet's traced hop
//! count agrees with the topology's own distance function.

use ttda::core::{Emulator, TimedConfig, TimedMachine, Value};
use ttda::net::{Fabric, FabricConfig, Hypercube, NodeId, Topology};
use ttda::sim::{Cycle, SimRng};
use ttda::trace::{shared, CountingSink};

fn counting(sink: &ttda::trace::SharedSink) -> std::cell::Ref<'_, CountingSink> {
    std::cell::Ref::map(sink.borrow(), |s| {
        s.as_any()
            .downcast_ref::<CountingSink>()
            .expect("counting sink")
    })
}

#[test]
fn producer_consumer_conserves_tokens_on_the_emulator() {
    let p = ttda::idc::compile(ttda::workloads::id::producer_consumer()).unwrap();
    let sink = shared(CountingSink::new());
    let r = Emulator::new(&p)
        .with_sink(sink.clone())
        .run(&[Value::Int(24)])
        .expect("producer-consumer runs");
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
    assert_eq!(
        c.deferred_outstanding(),
        0,
        "deferred I-structure reads must all drain by quiescence"
    );
    assert!(c.quiescent());
    // The producer/consumer program communicates through I-structures,
    // so the trace must actually show deferral traffic (reads racing
    // ahead of writes), not a trivially empty ledger.
    assert!(c.metrics().counter_value("istore_read") > 0);
    assert!(c.metrics().counter_value("istore_write") > 0);
}

#[test]
fn parallel_backend_preserves_the_trace_ledger() {
    // Worker threads buffer their events locally and the caller replays
    // them worker by worker after the run. The interleaving is not the
    // sequential one, but the ledger must still balance (conservation,
    // quiescence) and the confluent counters — firings, structure
    // writes, total structure reads — must match the sequential run.
    let p = ttda::idc::compile(ttda::workloads::id::producer_consumer()).unwrap();
    let seq_sink = shared(CountingSink::new());
    let seq = Emulator::new(&p)
        .with_sink(seq_sink.clone())
        .run(&[Value::Int(24)])
        .expect("sequential run");
    for threads in [2usize, 4] {
        let par_sink = shared(CountingSink::new());
        let par = Emulator::new(&p)
            .with_sink(par_sink.clone())
            .with_threads(threads)
            .run(&[Value::Int(24)])
            .expect("parallel run");
        assert_eq!(
            par.outputs, seq.outputs,
            "threads={threads}: outputs diverged"
        );
        let c = counting(&par_sink);
        assert!(c.token_conservation_holds(), "threads={threads}");
        assert!(c.quiescent(), "threads={threads}");
        assert_eq!(c.deferred_outstanding(), 0, "threads={threads}");
        let s = counting(&seq_sink);
        assert_eq!(
            c.metrics().counter_value("match_fire"),
            s.metrics().counter_value("match_fire"),
            "threads={threads}"
        );
        assert_eq!(
            c.metrics().counter_value("istore_read"),
            s.metrics().counter_value("istore_read"),
            "threads={threads}"
        );
        assert_eq!(
            c.metrics().counter_value("istore_write"),
            s.metrics().counter_value("istore_write"),
            "threads={threads}"
        );
    }
}

#[test]
fn producer_consumer_conserves_tokens_on_the_timed_machine() {
    let p = ttda::idc::compile(ttda::workloads::id::producer_consumer()).unwrap();
    let sink = shared(CountingSink::new());
    let cube = Hypercube::new(3).unwrap();
    let r = TimedMachine::new(p, cube, TimedConfig::default())
        .with_sink(sink.clone())
        .run(&[Value::Int(16)])
        .expect("producer-consumer runs timed");
    assert!(!r.outputs.is_empty());

    let c = counting(&sink);
    assert!(c.token_conservation_holds());
    assert!(c.quiescent());
    assert_eq!(c.tokens_emitted(), r.stats.tokens_delivered);
    assert_eq!(
        c.metrics().counter_value("match_fire"),
        r.stats.instructions
    );
    assert_eq!(c.packets(), r.stats.net_packets);
}

#[test]
fn traced_hop_counts_match_the_topology_distance() {
    // Drive random traffic through a traced fabric, then replay the same
    // endpoint sequence against Topology::hops: with no faults every
    // packet must take a shortest path.
    let cube = Hypercube::new(4).unwrap();
    let sink = shared(CountingSink::new());
    let mut fabric = Fabric::new(cube, FabricConfig::default()).with_sink(sink.clone());

    let mut rng = SimRng::seed(0x1983);
    let pairs: Vec<(NodeId, NodeId)> = (0..300)
        .map(|_| (NodeId(rng.gen_range(0..16)), NodeId(rng.gen_range(0..16))))
        .collect();
    for (i, &(a, b)) in pairs.iter().enumerate() {
        fabric.send(Cycle(i as u64), a, b);
    }

    let c = counting(&sink);
    assert_eq!(c.packets(), 300);
    assert_eq!(c.per_packet_hops().len(), 300);
    let mut expected_total = 0u64;
    for (k, &(a, b)) in pairs.iter().enumerate() {
        let want = fabric.topology().hops(a, b).unwrap() as u32;
        assert_eq!(
            c.per_packet_hops()[k],
            want,
            "packet {k} ({a:?} -> {b:?}) traced a non-shortest path"
        );
        expected_total += want as u64;
    }
    assert_eq!(c.total_hops(), expected_total);
    assert_eq!(c.total_hops(), fabric.stats().hops.get());
}

#[test]
fn hop_counts_stay_consistent_across_a_link_failure() {
    // After a fault the routed distance may exceed the pre-fault
    // distance, but the traced hops must still match what the (updated)
    // topology reports.
    let cube = Hypercube::new(3).unwrap();
    let sink = shared(CountingSink::new());
    let mut fabric = Fabric::new(cube, FabricConfig::default()).with_sink(sink.clone());

    fabric
        .topology_mut()
        .fail_link(NodeId(0), NodeId(1))
        .unwrap();
    let pairs = [
        (NodeId(0), NodeId(1)),
        (NodeId(1), NodeId(0)),
        (NodeId(0), NodeId(7)),
    ];
    for (i, &(a, b)) in pairs.iter().enumerate() {
        fabric.send(Cycle(i as u64), a, b);
    }

    let c = counting(&sink);
    for (k, &(a, b)) in pairs.iter().enumerate() {
        let want = fabric.topology().hops(a, b).unwrap() as u32;
        assert_eq!(c.per_packet_hops()[k], want, "packet {k} after fault");
    }
    // The failed direct link forces a detour: 0 -> 1 now takes 3 hops.
    assert_eq!(c.per_packet_hops()[0], 3);
}
