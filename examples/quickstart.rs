//! Quickstart: compile the paper's Fig 2-2 program and run it on both
//! execution engines.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use ttda::core::{Emulator, TimedConfig, TimedMachine, Value};
use ttda::sim::Cycle;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The ID program of Fig 2-2: trapezoidal-rule integration. With
    // f(x) = 4/(1+x²) over [0,1], the answer is π.
    let source = r#"
        def f(x) = 4.0 / (1.0 + x * x);
        def main(a, b, n) =
          { h = (b - a) / n;
            (initial s = (f(a) + f(b)) / 2.0; x = a + h
             for i from 1 to n - 1 do
               new x = x + h;
               new s = s + f(x)
             return s) * h };
    "#;

    let program = ttda::idc::compile(source)?;
    println!(
        "compiled: {} instructions across {} code blocks",
        program.instr_count(),
        program.blocks.len()
    );

    let inputs = [Value::Float(0.0), Value::Float(1.0), Value::Int(100)];

    // Engine 1: the fast emulator (Fig 3-1's emulation prong). Executes
    // the graph in enabled-instruction waves and reports the idealized
    // parallelism profile.
    let r = Emulator::new(&program).run(&inputs)?;
    let emulated = r.outputs[&0];
    println!("\n[emulator]  result          = {emulated}");
    println!("[emulator]  instructions    = {}", r.instructions);
    println!("[emulator]  critical path   = {} waves", r.waves);
    println!(
        "[emulator]  parallelism     = {:.1} mean / {} peak",
        r.mean_parallelism(),
        r.peak_parallelism()
    );
    println!("[emulator]  contexts        = {}", r.contexts);

    // Engine 2: the detailed timed machine (the simulation prong): 8
    // processing elements with I-structure modules, 20-cycle network.
    let mut machine = TimedMachine::ideal(program, 8, Cycle(20), TimedConfig::default());
    let r = machine.run(&inputs)?;
    println!("\n[timed 8PE] result          = {}", r.outputs[&0]);
    println!("[timed 8PE] completion      = {}", r.stats.cycles);
    println!(
        "[timed 8PE] ALU utilization = {:.1}%",
        100.0 * r.stats.alu_utilization()
    );
    println!(
        "[timed 8PE] network         = {} packets, {:.1} hops mean",
        r.stats.net_packets, r.stats.net_mean_hops
    );
    println!(
        "[timed 8PE] i-structure     = {} reads deferred of {} (consumers ran ahead safely)",
        r.stats.istore_deferred,
        r.stats.istore_deferred + r.stats.istore_immediate
    );

    // Both prongs compute the same answer.
    assert_eq!(r.outputs[&0], emulated);
    println!("\n[both]      the engines agree: {emulated}");
    Ok(())
}
