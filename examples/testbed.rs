//! The Section-3 emulation facility: a 7-dimensional hypercube with
//! table-based routing, surviving link failures and splitting into
//! independent partitions.
//!
//! ```text
//! cargo run --example testbed
//! ```

use ttda::core::{Emulator, TimedConfig, TimedMachine, Value};
use ttda::net::{FabricConfig, Hypercube, NodeId, Topology};
use ttda::sim::SimRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cube = Hypercube::new(7)?;
    println!(
        "7-cube: {} nodes, {} directed links, diameter {}",
        cube.ports(),
        cube.links(),
        cube.diameter()
    );

    // Fault tolerance: kill random links; table-based routing reroutes.
    let mut rng = SimRng::seed(226);
    for round in [4usize, 8, 16] {
        while cube.failed_links() < round {
            let a = NodeId(rng.gen_range(0..cube.ports()));
            let d = rng.gen_range(0..cube.dim());
            let b = cube.neighbor(a, d);
            let _ = cube.fail_link(a, b);
        }
        let h = cube.hops(NodeId(0), NodeId(127))?;
        println!("  {round:>2} links down: corner-to-corner now {h} hops (was 7)");
    }

    // Partitioning: two independent 64-node emulation machines.
    let mut cube = Hypercube::new(7)?;
    cube.partition(1)?;
    println!(
        "\npartitioned in two: n0->n63 routable: {}, n0->n64 routable: {}",
        cube.hops(NodeId(0), NodeId(63)).is_ok(),
        cube.hops(NodeId(0), NodeId(64)).is_ok()
    );

    // And the point of it all: run a dataflow program across the cube's
    // first partition — sixteen PEs joined by 4 MB/s bit-serial links.
    let four_cube = Hypercube::new(4)?;
    let cfg = TimedConfig {
        fabric: FabricConfig::bit_serial_4mbs(),
        ..TimedConfig::default()
    };
    let program = ttda::idc::compile(ttda::workloads::id::fib())?;
    let mut machine = TimedMachine::new(program.clone(), four_cube, cfg);
    let r = machine.run(&[Value::Int(15)])?;
    println!(
        "\nfib(15) on a 16-PE hypercube machine: {} in {} cycles,\n\
         {} network packets ({:.1} hops mean), ALU utilization {:.1}%",
        r.outputs[&0],
        r.stats.cycles,
        r.stats.net_packets,
        r.stats.net_mean_hops,
        100.0 * r.stats.alu_utilization()
    );

    // The facility existed to emulate the TTDA *in parallel* — §3 calls
    // for 32 to 128 processors. The emulator's `with_threads` backend is
    // the same idea on host threads; dataflow confluence keeps the
    // answer and the firing count independent of the host's size.
    let seq = Emulator::new(&program).run(&[Value::Int(15)])?;
    let par = Emulator::new(&program)
        .with_threads(8)
        .run(&[Value::Int(15)])?;
    assert_eq!(seq.outputs, par.outputs);
    assert_eq!(seq.instructions, par.instructions);
    println!(
        "\nparallel emulation: 8 host workers reproduce the 1-worker answer\n\
         ({} firings; critical path {} waves, from the sequential run).",
        seq.instructions, seq.waves
    );
    Ok(())
}
