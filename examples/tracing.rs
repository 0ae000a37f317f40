//! Observe a whole run: attach trace sinks to a machine, print the
//! aggregated metrics, and export a Chrome/Perfetto timeline.
//!
//! ```text
//! cargo run --example tracing
//! ```
//!
//! Open the written `target/traces/example.chrome.json` at
//! <https://ui.perfetto.dev> (or `chrome://tracing`) to see per-PE
//! instruction firings, I-structure deferral depth and network packets
//! on one simulated-time axis.

use std::any::Any;

use ttda::core::{Emulator, TimedConfig, TimedMachine, Value};
use ttda::net::Hypercube;
use ttda::sim::Cycle;
use ttda::trace::{shared, ChromeTraceSink, CountingSink, TraceEvent, TraceSink};

/// One handle feeding two sinks: live counters plus the full event log.
struct Tee {
    counts: CountingSink,
    chrome: ChromeTraceSink,
}

impl TraceSink for Tee {
    fn record(&mut self, at: Cycle, ev: &TraceEvent) {
        self.counts.record(at, ev);
        self.chrome.record(at, ev);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

fn main() {
    // The Id producer/consumer program on an 8-PE hypercube machine.
    let program = ttda::idc::compile(ttda::workloads::id::producer_consumer())
        .expect("producer_consumer compiles");
    let sink = shared(Tee {
        counts: CountingSink::new(),
        chrome: ChromeTraceSink::new(),
    });

    let mut machine = TimedMachine::new(
        program,
        Hypercube::new(3).expect("3-cube"),
        TimedConfig::default(),
    )
    .with_sink(sink.clone());
    let result = machine.run(&[Value::Int(16)]).expect("run succeeds");

    let s = sink.borrow();
    let tee = s.as_any().downcast_ref::<Tee>().expect("tee");
    println!("outputs: {:?}", result.outputs);
    println!("\n{}", tee.counts.metrics());
    println!(
        "token conservation: emitted {} == consumed {} + in-flight {:?}  ->  {}",
        tee.counts.tokens_emitted(),
        tee.counts.tokens_consumed(),
        tee.counts.in_flight_at_halt(),
        if tee.counts.token_conservation_holds() {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    );

    std::fs::create_dir_all("target/traces").expect("mkdir");
    std::fs::write(
        "target/traces/example.chrome.json",
        tee.chrome.to_chrome_json(),
    )
    .expect("write trace");
    println!(
        "\nwrote target/traces/example.chrome.json ({} events) — open it at https://ui.perfetto.dev",
        tee.chrome.len()
    );
    drop(s);

    // Tracing composes with the emulator's parallel backend: workers
    // buffer their events locally and the caller replays them after the
    // run, so the ledger balances exactly even with four threads racing
    // through the program.
    let program = ttda::idc::compile(ttda::workloads::id::producer_consumer())
        .expect("producer_consumer compiles");
    let esink = shared(CountingSink::new());
    Emulator::new(&program)
        .with_sink(esink.clone())
        .with_threads(4)
        .run(&[Value::Int(16)])
        .expect("run succeeds");
    let s = esink.borrow();
    let counts = s.as_any().downcast_ref::<CountingSink>().expect("counting");
    println!(
        "\n[emulator, 4 worker threads] token conservation: {} ({} emitted, {} consumed)",
        if counts.token_conservation_holds() {
            "HOLDS"
        } else {
            "VIOLATED"
        },
        counts.tokens_emitted(),
        counts.tokens_consumed(),
    );
}
