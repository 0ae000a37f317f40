//! A tour of §1.2: each surveyed von Neumann multiprocessor exhibiting
//! the pathology the paper calls out.
//!
//! ```text
//! cargo run --example survey_tour
//! ```

use ttda::core::{Emulator, Value};
use ttda::machines::{
    branchy_kernel, regular_kernel, CmInstr, CmStar, CmStarConfig, Cmmp, CmmpConfig,
    ConnectionMachine, Ultra, UltraConfig, Vliw,
};
use ttda::mem::cache::CacheConfig;
use ttda::sim::SimRng;
use ttda::vn::Core;
use ttda::workloads::vn::{chaotic_relaxation, hot_spot_counter};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- C.mmp (§1.2.1): the crossbar's quadratic cost, and why its
    // caches never shipped.
    println!("C.mmp — crossbar cost and the coherence problem");
    for procs in [4usize, 16, 64] {
        let cfg = CmmpConfig {
            procs,
            ..CmmpConfig::default()
        };
        let m = Cmmp::new(vec![Core::new(hot_spot_counter(1, 0)); procs], cfg);
        println!(
            "  {procs:>3} processors -> {:>5} crosspoints",
            m.switch_cost()
        );
    }
    let cfg = CmmpConfig {
        procs: 8,
        caches: Some(CacheConfig::default()),
        ..CmmpConfig::default()
    };
    let mut m = Cmmp::new(vec![Core::new(hot_spot_counter(20, 2)); 8], cfg);
    m.run()?;
    let c = m.coherence().expect("caches fitted");
    println!(
        "  with caches, the hot-spot counter costs {} invalidations over {} accesses\n",
        c.invalidations,
        c.reads + c.writes
    );

    // --- Cm* (§1.2.2): idle-on-remote bounds cooperation.
    println!("Cm* — remote references idle the processor");
    for procs in [4usize, 16, 32] {
        let per_cluster = 8.min(procs);
        let clusters = procs / per_cluster;
        let n = clusters * per_cluster;
        let cells = (128 / n).max(2);
        let cfg = CmStarConfig {
            clusters,
            per_cluster,
            words_per_module: 256,
            ..CmStarConfig::default()
        };
        let cores = (0..n)
            .map(|p| Core::new(chaotic_relaxation(p, n, cells, 6, 256)))
            .collect();
        let mut m = CmStar::new(cores, cfg);
        let stats = m.run()?;
        println!(
            "  {n:>3} modules: utilization {:>5.1}%  (remote refs grow as shares shrink)",
            100.0 * stats.utilization()
        );
    }
    println!();

    // --- NYU Ultracomputer (§1.2.3): combining rescues the hot spot.
    println!("Ultracomputer — FETCH-AND-ADD combining");
    for n in [16usize, 64, 256] {
        let t = |c| {
            Ultra::new(UltraConfig {
                procs: n,
                combining: c,
                ..UltraConfig::default()
            })
            .expect("size")
            .hot_spot(&vec![1; n])
            .completion
        };
        println!(
            "  {n:>3} procs on one counter: serial {:>6}, combining {:>4}",
            t(false),
            t(true)
        );
    }
    println!();

    // --- VLIW (§1.2.4): great ILP on regular code, none on branchy.
    println!("VLIW (ELI-512 style) — compile-time parallelism");
    let machine = Vliw::default();
    let regular = machine.schedule(&regular_kernel(16, 8));
    let branchy = machine.schedule(&branchy_kernel(64));
    let mut rng = SimRng::seed(1);
    let hit = machine.execute(&regular, 0.0, &mut rng);
    let miss = machine.execute(&regular, 0.3, &mut rng);
    println!(
        "  regular kernel: {:.1} ops/word;  branchy: {:.1} ops/word",
        regular.ilp(),
        branchy.ilp()
    );
    println!(
        "  30% miss rate stalls the whole lockstep machine: {} -> {}\n",
        hit.cycles, miss.cycles
    );

    // --- Connection Machine (§1.2.5): communication dominates.
    println!("Connection Machine — \"90%? 99%?\" of time communicating");
    let mut cm = ConnectionMachine::new(8)?;
    let n = cm.processors();
    let prog: Vec<CmInstr> = (0..10)
        .flat_map(|r| {
            vec![
                CmInstr::Compute { bit_ops: 32 },
                CmInstr::Route {
                    messages: (0..n).map(|p| (p, (p * 31 + 1 + r) % n)).collect(),
                },
            ]
        })
        .collect();
    let s = cm.run(&prog);
    println!(
        "  {} one-bit PEs, 10 graph steps: {:.1}% of cycles spent routing ({:.1}x over the conflict-free minimum)",
        n,
        100.0 * s.comm_fraction(),
        s.congestion()
    );

    // --- The critique's answer (§2): on the TTDA the *program* carries
    // the parallelism, so how many host workers emulate it is invisible
    // in everything but wall time.
    println!("\nTTDA — the paper's answer");
    let p = ttda::idc::compile(ttda::workloads::id::fib())?;
    let seq = Emulator::new(&p).run(&[Value::Int(15)])?;
    let par = Emulator::new(&p).with_threads(4).run(&[Value::Int(15)])?;
    assert_eq!(seq.outputs, par.outputs);
    println!(
        "  fib(15) = {}: mean parallelism {:.1}, peak {} — the same answer under\n\
         1 or 4 emulation worker threads.",
        seq.outputs[&0],
        seq.mean_parallelism(),
        seq.peak_parallelism()
    );
    Ok(())
}
