//! E10 / E11 / E13: the dataflow machine itself (§2.2).

use ttda_core::{Emulator, MappingPolicy, TimedConfig, TimedMachine, Value};
use ttda_mem::{Addr, IStructure, IStructurePort, ReadOutcome};
use ttda_sim::table::{f3, Table};
use ttda_sim::Cycle;
use ttda_workloads::{id, reference};

use super::section;

/// E10: Fig 2-2's program (and friends) on the TTDA: correctness plus
/// parallelism profiles.
pub fn e10() -> String {
    let mut out = section(
        "e10",
        "Compiled Id programs and their parallelism profiles",
        "\"instructions which depend on other instructions should be sequenced \
         accordingly; but where no dependence (edge) exists, instructions can be \
         executed in parallel\" (§2.2.1, Fig 2-2)",
    );
    let mut t = Table::new(&[
        "program",
        "input",
        "result ok",
        "instrs",
        "critical path",
        "mean par",
        "peak par",
        "contexts",
    ]);

    // The trapezoid of Fig 2-2 at growing n.
    for n in [16i64, 64, 256] {
        let p = ttda_idc::compile(id::trapezoid()).expect("compiles");
        let r = Emulator::new(&p)
            .run(&[Value::Float(0.0), Value::Float(1.0), Value::Int(n)])
            .expect("runs");
        let Value::Float(got) = r.outputs[&0] else {
            panic!("float result")
        };
        let ok = (got - reference::trapezoid(0.0, 1.0, n)).abs() < 1e-9;
        t.row_owned(vec![
            "trapezoid (Fig 2-2)".into(),
            format!("n={n}"),
            ok.to_string(),
            r.instructions.to_string(),
            r.waves.to_string(),
            f3(r.mean_parallelism()),
            r.peak_parallelism().to_string(),
            r.contexts.to_string(),
        ]);
    }
    // Recursive fib: parallelism grows with depth.
    for k in [8i64, 12, 16] {
        let p = ttda_idc::compile(id::fib()).expect("compiles");
        let r = Emulator::new(&p).run(&[Value::Int(k)]).expect("runs");
        let ok = r.outputs[&0] == Value::Int(reference::fib(k));
        t.row_owned(vec![
            "fib (recursive)".into(),
            format!("k={k}"),
            ok.to_string(),
            r.instructions.to_string(),
            r.waves.to_string(),
            f3(r.mean_parallelism()),
            r.peak_parallelism().to_string(),
            r.contexts.to_string(),
        ]);
    }
    // The wavefront (Issue 2's own example): anti-diagonal production.
    for n in [4i64, 8, 12] {
        let p = ttda_idc::compile(id::wavefront()).expect("compiles");
        let r = Emulator::new(&p).run(&[Value::Int(n)]).expect("runs");
        let ok = r.outputs[&0] == Value::Int(reference::wavefront_corner(n));
        t.row_owned(vec![
            "wavefront (Issue 2)".into(),
            format!("n={n}"),
            ok.to_string(),
            r.instructions.to_string(),
            r.waves.to_string(),
            f3(r.mean_parallelism()),
            r.peak_parallelism().to_string(),
            r.contexts.to_string(),
        ]);
    }
    // Matrix multiply: nested-loop parallelism.
    for n in [2i64, 4, 6] {
        let p = ttda_idc::compile(id::matmul()).expect("compiles");
        let r = Emulator::new(&p).run(&[Value::Int(n)]).expect("runs");
        let ok = r.outputs[&0] == Value::Int(reference::matmul_checksum(n));
        t.row_owned(vec![
            "matmul (nested)".into(),
            format!("n={n}"),
            ok.to_string(),
            r.instructions.to_string(),
            r.waves.to_string(),
            f3(r.mean_parallelism()),
            r.peak_parallelism().to_string(),
            r.contexts.to_string(),
        ]);
    }
    out.push_str(&t.to_string());

    // The parallelism profiles themselves — what the paper's group built
    // an emulation facility to look at.
    out.push_str("\nParallelism profiles (enabled instructions per wave, peak-normalized):\n");
    let profiles: Vec<(&str, &str, Vec<Value>)> = vec![
        (
            "trapezoid n=64 ",
            id::trapezoid(),
            vec![Value::Float(0.0), Value::Float(1.0), Value::Int(64)],
        ),
        ("fib k=14       ", id::fib(), vec![Value::Int(14)]),
        ("wavefront n=10 ", id::wavefront(), vec![Value::Int(10)]),
        ("matmul n=5     ", id::matmul(), vec![Value::Int(5)]),
    ];
    for (name, src, inputs) in profiles {
        let p = ttda_idc::compile(src).expect("compiles");
        let r = Emulator::new(&p).run(&inputs).expect("runs");
        out.push_str(&format!(
            "  {name} |{}| peak {}\n",
            ttda_sim::table::sparkline(&r.profile, 72),
            r.peak_parallelism()
        ));
    }
    out.push_str(
        "\nShape check: the trapezoid loop's accumulator chain bounds its mean\n\
         parallelism (flat profile, a property of the *program*); fib's profile is\n\
         the exponential blossom-and-collapse of divide-and-conquer; the wavefront's\n\
         is the diamond of a 2-D frontier growing then shrinking — elements produced\n\
         along anti-diagonals, consumed safely with zero synchronization code.\n",
    );
    out
}

/// E11: I-structure operation costs.
pub fn e11() -> String {
    let mut out = section(
        "e11",
        "I-structure service times",
        "\"A read operation is as efficient as in a traditional memory. Write \
         operations take twice as long, however, due to the prefetching of presence \
         bits\" (§2.1)",
    );
    // One module: the port the timed machine's modules serve through,
    // in front of the store every engine keeps.
    let access = Cycle(10);
    let mut port = IStructurePort::new(access);
    let mut m: IStructure<i64, u32> = IStructure::new(64);
    // Immediate read after write.
    m.write(Addr(0), 7).expect("write");
    let w_done = port.serve(Cycle(0), true);
    let out1 = m.read(Addr(0), 1).expect("read");
    let r_done = port.serve(w_done, false);
    // Deferred read: arrives before the write.
    let out2 = m.read(Addr(1), 2).expect("read empty");
    let d_done = port.serve(r_done, false);
    let released = m.write(Addr(1), 9).expect("write releases");
    let w2_done = port.serve(d_done, true);

    let mut t = Table::new(&["operation", "service cycles", "notes"]);
    t.row_owned(vec![
        "write (presence-bit prefetch)".into(),
        (w_done - Cycle(0)).as_u64().to_string(),
        "2x the base access time".into(),
    ]);
    t.row_owned(vec![
        "read (cell full)".into(),
        (r_done - w_done).as_u64().to_string(),
        format!("returns {:?}", matches!(out1, ReadOutcome::Value(7))),
    ]);
    t.row_owned(vec![
        "read (cell empty, deferred)".into(),
        (d_done - r_done).as_u64().to_string(),
        format!(
            "same port time; outcome {:?}",
            matches!(out2, ReadOutcome::Deferred)
        ),
    ]);
    t.row_owned(vec![
        "write releasing 1 deferred".into(),
        (w2_done - d_done).as_u64().to_string(),
        format!("released {} reader(s)", released.len()),
    ]);
    out.push_str(&t.to_string());
    out.push_str(&format!(
        "\nBase memory access time: {access}. Reads cost exactly 1x, writes exactly 2x,\n\
         and a deferred read costs the *reader* nothing beyond the normal request —\n\
         the paper's claimed price list, by construction and here by measurement.\n"
    ));
    out
}

/// E13: waiting–matching store occupancy.
pub fn e13() -> String {
    let mut out = section(
        "e13",
        "Waiting–matching store occupancy",
        "\"When a match is expected but not found, the token remains in the waiting - \
         matching unit's associative memory until its partner arrives\" (§2.2.3, \
         Figs 2-3/2-4)",
    );
    let mut t = Table::new(&[
        "program",
        "input",
        "engine",
        "pes",
        "instrs",
        "peak matching",
        "peak/instr %",
    ]);
    let progs: Vec<(&str, &str, Vec<Value>)> = vec![
        (
            "trapezoid",
            id::trapezoid(),
            vec![Value::Float(0.0), Value::Float(1.0), Value::Int(64)],
        ),
        ("fib", id::fib(), vec![Value::Int(14)]),
        ("matmul", id::matmul(), vec![Value::Int(4)]),
    ];
    for (name, src, inputs) in progs {
        let p = ttda_idc::compile(src).expect("compiles");
        let r = Emulator::new(&p).run(&inputs).expect("runs");
        t.row_owned(vec![
            name.into(),
            format!("{:?}", inputs.last().unwrap()),
            "emulator".into(),
            "inf".into(),
            r.instructions.to_string(),
            r.peak_matching.to_string(),
            f3(100.0 * r.peak_matching as f64 / r.instructions as f64),
        ]);
        for pes in [1usize, 4, 16] {
            let cfg = TimedConfig {
                mapping: MappingPolicy::ByIteration,
                ..TimedConfig::default()
            };
            let mut m = TimedMachine::ideal(p.clone(), pes, Cycle(4), cfg);
            let tr = m.run(&inputs).expect("runs");
            t.row_owned(vec![
                name.into(),
                format!("{:?}", inputs.last().unwrap()),
                "timed".into(),
                pes.to_string(),
                tr.stats.instructions.to_string(),
                tr.stats.peak_matching.to_string(),
                f3(100.0 * tr.stats.peak_matching as f64 / tr.stats.instructions as f64),
            ]);
        }
    }
    out.push_str(&t.to_string());
    out.push_str(
        "\nShape check: matching-store occupancy tracks the program's exposed\n\
         parallelism (fib >> trapezoid). The idealized emulator shows the program's\n\
         full concurrency; the timed machine's finite PEs pace token production and\n\
         hold fewer partial matches at once. Either way this store is the hardware\n\
         budget that bounds how much parallelism the machine can keep in flight.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fib_is_more_parallel_than_trapezoid() {
        let pf = ttda_idc::compile(id::fib()).unwrap();
        let rf = Emulator::new(&pf).run(&[Value::Int(12)]).unwrap();
        let pt = ttda_idc::compile(id::trapezoid()).unwrap();
        let rt = Emulator::new(&pt)
            .run(&[Value::Float(0.0), Value::Float(1.0), Value::Int(64)])
            .unwrap();
        assert!(rf.peak_parallelism() > rt.peak_parallelism());
    }

    #[test]
    fn istructure_price_list() {
        let mut port = IStructurePort::new(Cycle(10));
        let w = port.serve(Cycle(0), true);
        assert_eq!(w, Cycle(20));
        let r = port.serve(w, false);
        assert_eq!(r - w, Cycle(10));
    }

    #[test]
    fn trapezoid_profile_bounded_by_accumulator() {
        // The s-chain serializes: mean parallelism stays modest no matter
        // how large n gets (within 2x across a 16x n range).
        let p = ttda_idc::compile(id::trapezoid()).unwrap();
        let par = |n: i64| {
            Emulator::new(&p)
                .run(&[Value::Float(0.0), Value::Float(1.0), Value::Int(n)])
                .unwrap()
                .mean_parallelism()
        };
        let p16 = par(16);
        let p256 = par(256);
        assert!(p256 < p16 * 2.0, "p16={p16} p256={p256}");
    }
}
