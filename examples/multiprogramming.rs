//! Multiprogramming: three unrelated programs — and then the same
//! program twice — interleaving through one tagged-token machine.
//!
//! ```text
//! cargo run --example multiprogramming
//! ```

use ttda::core::{Emulator, Job, Program, TimedConfig, TimedMachine, Value};
use ttda::sim::Cycle;
use ttda::workloads::id;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fib = ttda::idc::compile(id::fib())?;
    let trap = ttda::idc::compile(id::trapezoid())?;
    let mm = ttda::idc::compile(id::matmul())?;
    let (merged, mains) = Program::merge(&[fib, trap, mm], 16);

    let jobs = vec![
        Job::new(mains[0], vec![Value::Int(13)]),
        Job::new(
            mains[1],
            vec![Value::Float(0.0), Value::Float(1.0), Value::Int(64)],
        )
        .for_tenant(1),
        Job::new(mains[2], vec![Value::Int(4)]).for_tenant(2),
    ];

    // Back to back on an 8-PE machine...
    let mut serial = 0u64;
    for job in &jobs {
        let mut m = TimedMachine::ideal(merged.clone(), 8, Cycle(6), TimedConfig::default());
        serial += m.submit(std::slice::from_ref(job))?.stats.cycles.as_u64();
    }
    // ...vs all three at once.
    let mut m = TimedMachine::ideal(merged.clone(), 8, Cycle(6), TimedConfig::default());
    let r = m.submit(&jobs)?;

    println!("fib(13)        = {}", r.outputs[&0]);
    println!("pi (trapezoid) = {}", r.outputs[&16]);
    println!("matmul check   = {}", r.outputs[&32]);
    println!(
        "\nback-to-back: {serial} cycles; multiprogrammed: {} cycles ({:.2}x faster)",
        r.stats.cycles.as_u64(),
        serial as f64 / r.stats.cycles.as_u64() as f64
    );
    println!(
        "tokens of the three jobs shared {} PEs, one network and one set of\n\
         matching stores; their activity names can never collide, so no locks,\n\
         no address-space setup, no scheduler — multiprogramming is free.",
        r.stats.pes
    );

    // The sharpest case: the SAME code block, twice, different inputs.
    let fib = ttda::idc::compile(id::fib())?;
    let (merged, mains) = Program::merge(&[fib.clone(), fib], 4);
    let mut m = TimedMachine::ideal(merged.clone(), 4, Cycle(4), TimedConfig::default());
    let jobs = [
        Job::new(mains[0], vec![Value::Int(10)]),
        Job::new(mains[1], vec![Value::Int(15)]),
    ];
    let r = m.submit(&jobs)?;
    println!(
        "\nsame code block, two jobs: fib(10) = {} and fib(15) = {} — identical\n\
         instructions, interleaved activations, zero interference.",
        r.outputs[&0], r.outputs[&4]
    );

    // The emulator's parallel backend multiprograms the same way: both
    // jobs flow through the sharded matching store at once, and dataflow
    // confluence keeps the answers independent of how many host threads
    // executed them.
    let seq = Emulator::new(&merged).submit(&jobs)?;
    let par = Emulator::new(&merged).with_threads(4).submit(&jobs)?;
    assert_eq!(seq.outputs, par.outputs);
    println!(
        "emulator, 1 vs 4 worker threads: same outputs ({} firings, {} waves sequential).",
        seq.instructions, seq.waves
    );
    Ok(())
}
