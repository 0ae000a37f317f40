//! A1–A3: ablations of the TTDA's design choices.
//!
//! DESIGN.md calls out the design decisions that the paper leaves open;
//! these experiments quantify them on the timed machine: the output
//! section's mapping function (A1), the waiting–matching store's
//! capacity (A2), and I-structure element placement (A3).

use ttda_core::{MappingPolicy, StructPlacement, TimedConfig, TimedMachine, Value};
use ttda_sim::table::{pct, Table};
use ttda_sim::Cycle;
use ttda_workloads::{id, reference};

use super::section;

/// A1: the activity→PE mapping function.
pub fn a1() -> String {
    let mut out = section(
        "a1",
        "Ablation: the output section's mapping function",
        "\"the activity name plus some mapping information uniquely define the runtime \
         tag and processing element number\" (§2.2.2) — the paper leaves the mapping \
         open; this measures three natural choices",
    );
    let mut t = Table::new(&[
        "program",
        "mapping",
        "cycles",
        "alu util",
        "remote tokens",
        "peak queue",
    ]);
    let progs: Vec<(&str, &str, Vec<Value>, Value)> = vec![
        (
            "fib(14)",
            id::fib(),
            vec![Value::Int(14)],
            Value::Int(reference::fib(14)),
        ),
        (
            "matmul(5)",
            id::matmul(),
            vec![Value::Int(5)],
            Value::Int(reference::matmul_checksum(5)),
        ),
    ];
    let mut t_slow = Table::new(&[
        "program",
        "mapping",
        "cycles",
        "alu util",
        "remote tokens",
        "peak queue",
    ]);
    for (name, src, inputs, expect) in progs {
        let p = ttda_idc::compile(src).expect("compiles");
        for (mname, mapping) in [
            ("by-context", MappingPolicy::ByContext),
            ("by-iteration", MappingPolicy::ByIteration),
            ("spread", MappingPolicy::Spread),
        ] {
            // Cheap network: one-cycle-ish transfers.
            let cfg = TimedConfig {
                mapping,
                ..TimedConfig::default()
            };
            let mut m = TimedMachine::ideal(p.clone(), 8, Cycle(6), cfg);
            let r = m.run(&inputs).expect("runs");
            assert_eq!(r.outputs[&0], expect);
            t.row_owned(vec![
                name.into(),
                mname.into(),
                r.stats.cycles.as_u64().to_string(),
                pct(r.stats.alu_utilization()),
                pct(r.stats.remote_fraction()),
                r.stats.peak_queue.to_string(),
            ]);
            // Expensive network: bit-serial links, 60-cycle transit.
            let cfg = TimedConfig {
                mapping,
                fabric: ttda_net::FabricConfig::bit_serial_4mbs(),
                ..TimedConfig::default()
            };
            let mut m = TimedMachine::ideal(p.clone(), 8, Cycle(60), cfg);
            let r = m.run(&inputs).expect("runs");
            assert_eq!(r.outputs[&0], expect);
            t_slow.row_owned(vec![
                name.into(),
                mname.into(),
                r.stats.cycles.as_u64().to_string(),
                pct(r.stats.alu_utilization()),
                pct(r.stats.remote_fraction()),
                r.stats.peak_queue.to_string(),
            ]);
        }
    }
    out.push_str("Cheap network (6-cycle transfers):\n");
    out.push_str(&t.to_string());
    out.push_str("\nExpensive network (bit-serial links, 60-cycle transit):\n");
    out.push_str(&t_slow.to_string());
    out.push_str(
        "\nShape check: by-context minimizes traffic (remote tokens ~5-15%) while\n\
         spreading maximizes it (~90%). On a cheap network load balance dominates and\n\
         spreading wins outright; when transfers are expensive the ordering compresses\n\
         or flips toward locality — the tension the mapping function must balance, and\n\
         why by-iteration (locality within an iteration, spread across them) is the\n\
         default.\n",
    );
    out
}

/// A2: waiting–matching store capacity.
pub fn a2() -> String {
    let mut out = section(
        "a2",
        "Ablation: waiting-matching store capacity",
        "\"the token remains in the waiting - matching unit's associative memory until \
         its partner arrives\" (§2.2.3) — associative stores are small; overflow to a \
         backing store costs extra service time on every access while full",
    );
    let p = ttda_idc::compile(id::fib()).expect("compiles");
    let mut t = Table::new(&[
        "capacity/PE",
        "cycles",
        "slowdown",
        "overflowed accesses",
        "peak occupancy",
    ]);
    let mut base = 0u64;
    for cap in [0usize, 256, 64, 16, 4] {
        let cfg = TimedConfig {
            match_capacity: cap,
            ..TimedConfig::default()
        };
        let mut m = TimedMachine::ideal(p.clone(), 4, Cycle(4), cfg);
        let r = m.run(&[Value::Int(14)]).expect("runs");
        assert_eq!(r.outputs[&0], Value::Int(reference::fib(14)));
        if cap == 0 {
            base = r.stats.cycles.as_u64();
        }
        t.row_owned(vec![
            if cap == 0 {
                "unbounded".into()
            } else {
                cap.to_string()
            },
            r.stats.cycles.as_u64().to_string(),
            format!("{:.2}x", r.stats.cycles.as_u64() as f64 / base as f64),
            r.stats.match_overflows.to_string(),
            r.stats.peak_matching.to_string(),
        ]);
    }
    out.push_str(&t.to_string());
    out.push_str(
        "\nShape check: a parallelism-rich program overflows small associative stores\n\
         and pays the backing-store penalty on most accesses; the capacity needed to\n\
         avoid overflow equals the parallelism the machine is asked to hold in flight\n\
         — the matching store is the real bound on exploitable parallelism.\n",
    );
    out
}

/// Builds a synthetic wide-access graph: `k` parallel producers each
/// store one element of a shared array while `k` parallel consumers
/// fetch it — maximal concurrent pressure on I-structure storage, no
/// loop-control serialization.
fn wide_array_program(k: usize) -> ttda_core::Program {
    use ttda_core::{AluOp, GraphBuilder, OpCode};
    let mut g = GraphBuilder::new("wide");
    let x = g.param();
    let size = g.lit(Value::Int(k as i64));
    g.wire(x, size, 0);
    let alloc = g.instr(OpCode::IAlloc);
    g.wire(size, alloc, 0);
    for i in 0..k {
        let v = g.instr_lit(OpCode::Alu(AluOp::Add), 1, Value::Int(i as i64));
        g.wire(x, v, 0);
        let st = g.instr_lit(OpCode::IStore, 1, Value::Int(i as i64));
        g.wire(alloc, st, 0);
        g.wire(v, st, 2);
        let s1 = g.instr(OpCode::Sink);
        g.wire(st, s1, 0);
        let f = g.instr_lit(OpCode::IFetch, 1, Value::Int(i as i64));
        g.wire(alloc, f, 0);
        let s2 = g.instr(OpCode::Sink);
        g.wire(f, s2, 0);
    }
    let out = g.output(0);
    g.wire(x, out, 0);
    g.finish_program().expect("valid graph")
}

/// A3: I-structure element placement.
pub fn a3() -> String {
    let mut out = section(
        "a3",
        "Ablation: I-structure element placement",
        "tokens carry \"the name of the PE on which this element resides\" (\u{a7}2.2.4) \u{2014} \
         interleaving elements across modules vs giving each structure one home",
    );
    let p = wide_array_program(128);
    let mut t = Table::new(&["placement", "pes", "cycles", "slowdown", "istore ops"]);
    for pes in [4usize, 16] {
        let mut base = 0u64;
        for (pname, placement) in [
            ("interleaved", StructPlacement::Interleaved),
            ("single module", StructPlacement::SingleModule),
        ] {
            let cfg = TimedConfig {
                placement,
                istore_access: Cycle(8),
                ..TimedConfig::default()
            };
            let mut m = TimedMachine::ideal(p.clone(), pes, Cycle(4), cfg);
            let r = m.run(&[Value::Int(1)]).expect("runs");
            if placement == StructPlacement::Interleaved {
                base = r.stats.cycles.as_u64();
            }
            t.row_owned(vec![
                pname.into(),
                pes.to_string(),
                r.stats.cycles.as_u64().to_string(),
                format!("{:.2}x", r.stats.cycles.as_u64() as f64 / base as f64),
                (r.stats.istore_writes + r.stats.istore_immediate + r.stats.istore_deferred)
                    .to_string(),
            ]);
        }
    }
    out.push_str(&t.to_string());
    out.push_str(
        "\nShape check (128 concurrent producers + 128 concurrent consumers of one\n\
         shared array): homing the whole array on one module serializes its controller\n\
         \u{2014} the storage-level analog of the Ultracomputer's hot spot \u{2014} while\n\
         interleaving spreads the traffic across every module. This is why the TTDA\n\
         (and every dancehall machine after it) interleaves.\n",
    );
    out
}

/// A4: k-bounded loops — parallelism vs matching-store pressure.
pub fn a4() -> String {
    use ttda_core::Emulator;
    let mut out = section(
        "a4",
        "Ablation: k-bounded loops",
        "the paper's execution model \"allows more than one token to be present on an \
         arc\" with no bound (§2.2.2); bounding in-flight iterations was the classic \
         follow-on resource-management mechanism — this measures what the bound buys \
         and costs",
    );
    // A producer whose control ring is slowed by per-iteration work (the
    // call chain feeds the circulating variable), against a fast
    // consumer: the classic runaway-consumer shape.
    let src = r#"
        def slow(x) = if x < 1 then 0 else slow(x - 1);
        def main(n) =
          { a = array(n);
            done = (initial j = 0 for i from 0 to n - 1 do
                      a[i] <- i + slow(6);
                      new j = j + slow(6)
                    return j);
            (initial s = 0 for i from 0 to n - 1 do
               new s = s + a[i]
             return s) };
    "#;
    let p = ttda_idc::compile(src).expect("compiles");
    let inputs = [Value::Int(48)];
    let mut t = Table::new(&[
        "loop bound k",
        "critical path",
        "slowdown",
        "peak matching",
        "peak deferred reads",
        "mean parallelism",
    ]);

    let mut rows: Vec<(String, ttda_core::EmuResult)> = Vec::new();
    let unbounded = Emulator::new(&p).run(&inputs).expect("runs");
    let base_waves = unbounded.waves.max(1);
    rows.push(("unbounded".into(), unbounded));
    for k in [64u32, 16, 4, 1] {
        let r = Emulator::new(&p)
            .with_loop_bound(k)
            .run(&inputs)
            .expect("runs");
        assert_eq!(r.outputs[&0], Value::Int(47 * 48 / 2), "sum 0..48");
        rows.push((k.to_string(), r));
    }
    for (name, r) in rows {
        t.row_owned(vec![
            name,
            r.waves.to_string(),
            format!("{:.2}x", r.waves as f64 / base_waves as f64),
            r.peak_matching.to_string(),
            r.peak_deferred.to_string(),
            format!("{:.1}", r.mean_parallelism()),
        ]);
    }
    out.push_str(&t.to_string());
    out.push_str(
        "\nShape check: unbounded execution lets the fast consumer (and the producer's\n\
         own fast control rings) run far ahead of the slow per-element computation,\n\
         buying the shortest critical path at peak storage cost; tightening k cuts\n\
         matching-store occupancy and outstanding deferred reads roughly in\n\
         proportion, paying with critical path. The bound is the knob that fits\n\
         unbounded logical parallelism into finite token storage (A2 shows what\n\
         overflowing that storage costs instead).\n",
    );
    out
}

/// A5: graph optimization — what the schematic junctions cost.
pub fn a5() -> String {
    use ttda_core::opt::{optimize_at, OptLevel};
    use ttda_core::Emulator;
    let mut out = section(
        "a5",
        "Ablation: graph optimization (identity forwarding + DCE)",
        "the compiler's loop schema spends an Identity junction per circulating \
         variable per iteration (Fig 2-2's stylized graph); forwarding them is the \
         standard dataflow compiler cleanup — this measures what it buys",
    );
    let mut t = Table::new(&[
        "program",
        "static instrs",
        "after opt",
        "firings",
        "after opt",
        "timed cycles",
        "after opt",
    ]);
    let cases: Vec<(&str, &str, Vec<Value>)> = vec![
        (
            "trapezoid n=64",
            id::trapezoid(),
            vec![Value::Float(0.0), Value::Float(1.0), Value::Int(64)],
        ),
        ("fib k=13", id::fib(), vec![Value::Int(13)]),
        ("wavefront n=8", id::wavefront(), vec![Value::Int(8)]),
        ("matmul n=4", id::matmul(), vec![Value::Int(4)]),
    ];
    for (name, src, inputs) in cases {
        let p = ttda_idc::compile(src).expect("compiles");
        let (opt, _) = optimize_at(&p, OptLevel::O1);
        let a = Emulator::new(&p).run(&inputs).expect("runs");
        let b = Emulator::new(&opt).run(&inputs).expect("runs");
        assert_eq!(a.outputs, b.outputs);
        let cyc = |prog: &ttda_core::Program| {
            let mut m = TimedMachine::ideal(prog.clone(), 4, Cycle(4), TimedConfig::default());
            m.run(&inputs).expect("runs").stats.cycles.as_u64()
        };
        t.row_owned(vec![
            name.into(),
            p.instr_count().to_string(),
            opt.instr_count().to_string(),
            a.instructions.to_string(),
            b.instructions.to_string(),
            cyc(&p).to_string(),
            cyc(&opt).to_string(),
        ]);
    }
    out.push_str(&t.to_string());
    out.push_str(
        "\nShape check: forwarding removes ~25-40% of firings (one junction per loop\n\
         variable per iteration, plus conditional plumbing) and a similar slice of\n\
         machine time, with results bit-identical — the optimization a production\n\
         compiler for this machine would consider table stakes.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tight_matching_capacity_costs_cycles() {
        let p = ttda_idc::compile(id::fib()).expect("compiles");
        let run = |cap: usize| {
            let cfg = TimedConfig {
                match_capacity: cap,
                ..TimedConfig::default()
            };
            let mut m = TimedMachine::ideal(p.clone(), 4, Cycle(4), cfg);
            m.run(&[Value::Int(12)]).expect("runs").stats
        };
        let unbounded = run(0);
        let tiny = run(4);
        assert_eq!(unbounded.match_overflows, 0);
        assert!(tiny.match_overflows > 0);
        assert!(tiny.cycles > unbounded.cycles);
    }

    #[test]
    fn single_module_placement_is_slower() {
        let p = wide_array_program(96);
        let run = |placement| {
            let cfg = TimedConfig {
                placement,
                istore_access: Cycle(8),
                ..TimedConfig::default()
            };
            let mut m = TimedMachine::ideal(p.clone(), 8, Cycle(4), cfg);
            m.run(&[Value::Int(1)]).expect("runs").stats.cycles
        };
        let single = run(StructPlacement::SingleModule);
        let inter = run(StructPlacement::Interleaved);
        assert!(
            single.as_u64() > inter.as_u64() * 2,
            "single={single} inter={inter}"
        );
    }

    #[test]
    fn mapping_policies_differ_in_traffic() {
        let p = ttda_idc::compile(id::fib()).expect("compiles");
        let run = |mapping| {
            let cfg = TimedConfig {
                mapping,
                ..TimedConfig::default()
            };
            let mut m = TimedMachine::ideal(p.clone(), 8, Cycle(4), cfg);
            m.run(&[Value::Int(12)]).expect("runs").stats
        };
        let ctx = run(MappingPolicy::ByContext);
        let spread = run(MappingPolicy::Spread);
        assert!(spread.remote_fraction() > ctx.remote_fraction());
    }
}
