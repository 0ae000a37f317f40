//! The quickbench suites: each suite's timed targets and same-run
//! comparison, listed in [`SUITES`]. `experiments quickbench` runs them
//! and writes one [`Section`] per suite into the `BENCH.json` report
//! tracked at the repository root.

use std::hint::black_box;
use std::time::Instant;

use ttda_core::matching::{MatchingStore, Preset};
use ttda_core::CodeBlockId;
use ttda_core::{
    ActivityName, Ctx, Emulator, InstrId, Iter, Port, Program, RunMode, SchedPolicy, TimedConfig,
    TimedMachine, Value,
};
use ttda_idc::OptLevel;
use ttda_machines::{CmStar, CmStarConfig};
use ttda_mem::{Addr, EnumIStructure, FullEmptyMemory, IStructure, TryReadOutcome};
use ttda_sim::{Arrivals, Cycle, SimRng};
use ttda_vn::Core;
use ttda_workloads::id;
use ttda_workloads::service::{serve, EmulatorRunner, ServiceConfig, TenantSpec};
use ttda_workloads::vn::chaotic_relaxation;

use crate::quickbench::Timer;
use crate::report::{Better, Section};

/// One quickbench suite. Adding a suite is one [`SUITES`] entry.
pub struct Suite {
    /// The name `--suites` selects and `BENCH.json` keys the section by.
    pub name: &'static str,
    /// The same-run comparison whose metrics and headline the gate
    /// checks. Every selected comparison runs before any timed target,
    /// in a still-cold process — the state every real engine run starts
    /// from.
    pub compare: Option<fn() -> Section>,
    /// Runs the suite's timed targets.
    pub targets: fn(&mut Timer),
}

/// Every quickbench suite, in the order a full run takes them.
pub const SUITES: &[Suite] = &[
    // Window 32768: a saturated matching section holds tens of
    // thousands of parked activities (E13 ties occupancy to exposed
    // parallelism), and that is the regime the packed store exists for.
    Suite {
        name: "matching",
        compare: Some(|| matching_throughput(200_000, 32_768, 7)),
        targets: matching,
    },
    // All-deferred traffic is the regime the packed store exists for
    // (E18 sweeps the ratio). 4096 cells × 8 readers matches E18's
    // sweep scale: large enough to exercise the node arena, small
    // enough that the working set, not the memory wall, is compared.
    Suite {
        name: "istore",
        compare: Some(|| istore_throughput(4096, 8, 31)),
        targets: istore,
    },
    // 32 requests per tenant keeps the cold-process measurement in
    // whole milliseconds without dominating the run.
    Suite {
        name: "service",
        compare: Some(|| service_throughput(32, 5)),
        targets: service,
    },
    Suite {
        name: "par",
        compare: Some(|| par_throughput(5)),
        targets: par,
    },
    Suite {
        name: "opt",
        compare: Some(opt_throughput),
        targets: opt,
    },
    Suite {
        name: "sched",
        compare: Some(sched_throughput),
        targets: sched,
    },
    Suite {
        name: "endtoend",
        compare: None,
        targets: endtoend,
    },
];

/// One token of the synthetic matching-saturating stream.
pub type StreamTok = (ActivityName, Port, Value);

/// Generates a deterministic token stream that keeps a waiting–matching
/// store at an occupancy of roughly `window`: `activities` two-operand
/// activities are opened (first operand parks) and closed (second
/// operand matches) in a seeded random interleave, the access pattern a
/// saturated matching section actually sees. Every activity completes,
/// so driving the stream leaves the store empty.
pub fn token_stream(activities: usize, window: usize, seed: u64) -> Vec<StreamTok> {
    let mut rng = SimRng::seed(seed);
    let mut stream = Vec::with_capacity(activities * 2);
    let mut open: Vec<ActivityName> = Vec::with_capacity(window);
    let mut next = 0u32;
    while (next as usize) < activities || !open.is_empty() {
        if open.len() < window && (next as usize) < activities {
            // Spread keys over all four tag fields, as real programs do.
            let tag = ActivityName {
                u: Ctx(next % 97),
                c: CodeBlockId(next % 5),
                s: InstrId(next % 41),
                i: Iter(next / 97 + 1),
            };
            stream.push((tag, Port(0), Value::Int(next as i64)));
            open.push(tag);
            next += 1;
        } else {
            let k = rng.gen_range(0..open.len());
            let tag = open.swap_remove(k);
            stream.push((tag, Port(1), Value::Int(-1)));
        }
    }
    stream
}

/// Drives the stream through the reference matcher — the stock
/// `HashMap<ActivityName, Vec<Option<Value>>>` transition function the
/// engines used before the packed store existed. Returns the match
/// count (must equal `activities`).
pub fn drive_hashmap(stream: &[StreamTok]) -> usize {
    use std::collections::HashMap;
    let mut waiting: HashMap<ActivityName, Vec<Option<Value>>> = HashMap::new();
    let mut matched = 0usize;
    for &(tag, port, value) in stream {
        let entry = waiting.entry(tag).or_insert_with(|| vec![None; 2]);
        entry[port.0 as usize] = Some(value);
        if entry.iter().all(Option::is_some) {
            let ops: Vec<Value> = waiting
                .remove(&tag)
                .expect("entry exists")
                .into_iter()
                .map(|o| o.expect("all present"))
                .collect();
            black_box(&ops);
            matched += 1;
        }
    }
    assert!(waiting.is_empty(), "stream must drain the store");
    matched
}

/// Drives the same stream through the packed [`MatchingStore`], the
/// way the engines do: one reused operand buffer.
pub fn drive_packed(stream: &[StreamTok]) -> usize {
    let mut waiting = MatchingStore::new();
    let mut ops = Vec::new();
    let mut matched = 0usize;
    for &(tag, port, value) in stream {
        let done = waiting
            .absorb(tag, 2, &Preset::default(), port, value, &mut ops)
            .expect("valid port");
        if done {
            black_box(&ops[..]);
            matched += 1;
        }
    }
    assert!(waiting.is_empty(), "stream must drain the store");
    matched
}

fn timed<F: FnMut() -> usize>(mut f: F) -> std::time::Duration {
    let t0 = Instant::now();
    black_box(f());
    t0.elapsed()
}

/// The matching-throughput comparison behind E17 and the `matching`
/// headline: `tokens` absorbed per run at occupancy `window`, through the
/// reference `HashMap` matcher (`hashmap_tokens_per_sec`) and the packed
/// [`MatchingStore`] (`packed_tokens_per_sec`); the headline is the
/// packed store's speedup.
///
/// Measures both matchers on one identical stream. One untimed warmup
/// pass each (heap growth, page faults), then `reps` interleaved
/// ref/new rounds reporting the *best* wall-clock per matcher.
/// Interleaving keeps a drifting background load from landing entirely
/// on one side of the comparison; best-of makes the number a stable
/// regression-gate baseline, because host interference only ever slows
/// a round down while every store cost — including the reference's
/// per-activity allocation — is still charged in full on the best
/// round.
pub fn matching_throughput(activities: usize, window: usize, reps: usize) -> Section {
    let stream = token_stream(activities, window, 0x007a_11ed);
    let tokens = stream.len() as u64;
    let want = activities;
    assert_eq!(drive_hashmap(&stream), want);
    assert_eq!(drive_packed(&stream), want);
    let mut best_ref = std::time::Duration::MAX;
    let mut best_new = std::time::Duration::MAX;
    for _ in 0..reps {
        best_ref = best_ref.min(timed(|| drive_hashmap(&stream)));
        best_new = best_new.min(timed(|| drive_packed(&stream)));
    }
    let tps = |d: std::time::Duration| tokens as f64 / d.as_secs_f64();
    Section::comparison(
        &[
            ("tokens", tokens as f64),
            ("window", window as f64),
            ("hashmap_tokens_per_sec", tps(best_ref)),
            ("packed_tokens_per_sec", tps(best_new)),
        ],
        "packed_tokens_per_sec",
        "hashmap_tokens_per_sec",
        Better::Higher,
    )
}

/// The `matching` suite: store-level kernels (reference vs packed on
/// the same stream) plus the emulator / timed-machine runs that put the
/// waiting–matching section on every token's path (E10/E13).
pub fn matching(t: &mut Timer) {
    let stream = token_stream(20_000, 512, 0x007a_11ed);
    t.time("matching/hashmap_stream_20k_w512", || {
        drive_hashmap(&stream)
    });
    t.time("matching/packed_stream_20k_w512", || drive_packed(&stream));
    // The saturated regime (E13: occupancy tracks exposed parallelism).
    let wide = token_stream(20_000, 4096, 0x007a_11ed);
    t.time("matching/hashmap_stream_20k_w4096", || drive_hashmap(&wide));
    t.time("matching/packed_stream_20k_w4096", || drive_packed(&wide));
    let trap = ttda_idc::compile(id::trapezoid()).unwrap();
    let fib = ttda_idc::compile(id::fib()).unwrap();
    t.time("e10_emulate_trapezoid_n64", || {
        Emulator::new(&trap)
            .run(&[Value::Float(0.0), Value::Float(1.0), Value::Int(64)])
            .unwrap()
    });
    t.time("e13_emulate_fib_14", || {
        Emulator::new(&fib).run(&[Value::Int(14)]).unwrap()
    });
    t.time("e13_timed_fib_12_8pe", || {
        let mut m = TimedMachine::ideal(fib.clone(), 8, Cycle(4), TimedConfig::default());
        m.run(&[Value::Int(12)]).unwrap()
    });
}

/// One operation of the synthetic I-structure stream: read a cell on
/// behalf of a reader id, or write a cell.
#[derive(Debug, Clone, Copy)]
pub enum IsOp {
    /// Read cell `.0` for reader `.1`.
    Read(usize, u32),
    /// Write cell `.0`.
    Write(usize),
}

/// Generates a deterministic I-structure op stream: every cell gets
/// `readers_per_cell` reads and exactly one write, with `defer_pct`
/// percent of the reads arriving *before* the write (so they park on
/// the deferred list and the write releases them) and the rest after
/// (immediate reads). Per-cell op order is preserved; cells are
/// interleaved in a seeded random order, the access pattern a producer/
/// consumer program actually presents to a storage module. Driving the
/// stream satisfies every read, so `reclaim` at the end drops nothing.
pub fn istore_stream(
    cells: usize,
    readers_per_cell: usize,
    defer_pct: u32,
    seed: u64,
) -> Vec<IsOp> {
    assert!(defer_pct <= 100);
    let mut rng = SimRng::seed(seed);
    let mut reader = 0u32;
    let mut percell: Vec<std::collections::VecDeque<IsOp>> = (0..cells)
        .map(|c| {
            let mut ops = std::collections::VecDeque::with_capacity(readers_per_cell + 1);
            let before = readers_per_cell * defer_pct as usize / 100;
            for _ in 0..before {
                ops.push_back(IsOp::Read(c, reader));
                reader += 1;
            }
            ops.push_back(IsOp::Write(c));
            for _ in before..readers_per_cell {
                ops.push_back(IsOp::Read(c, reader));
                reader += 1;
            }
            ops
        })
        .collect();
    // Random merge preserving per-cell order.
    let mut live: Vec<usize> = (0..cells).collect();
    let mut stream = Vec::with_capacity(cells * (readers_per_cell + 1));
    while !live.is_empty() {
        let k = rng.gen_range(0..live.len());
        let cell = live[k];
        let op = percell[cell].pop_front().expect("live cells have ops");
        stream.push(op);
        if percell[cell].is_empty() {
            live.swap_remove(k);
        }
    }
    stream
}

/// Drives the stream through the enum-cell reference store. Returns
/// (immediate reads, released readers) as a checksum; every read is one
/// or the other, so the sum must equal the stream's read count.
pub fn drive_enum_istore(cells: usize, stream: &[IsOp]) -> (usize, usize) {
    let mut m: EnumIStructure<i64, u32> = EnumIStructure::new(cells);
    let mut immediate = 0usize;
    let mut released = 0usize;
    for &op in stream {
        match op {
            IsOp::Read(c, r) => {
                if let ttda_mem::ReadOutcome::Value(v) = m.read(Addr(c), r).expect("in range") {
                    black_box(v);
                    immediate += 1;
                }
            }
            IsOp::Write(c) => {
                released += m
                    .write_with(Addr(c), c as i64, |r| {
                        black_box(r);
                    })
                    .expect("single write per cell");
            }
        }
    }
    assert_eq!(m.reclaim(), 0, "stream must satisfy every read");
    (immediate, released)
}

/// Drives the same stream through the packed store.
pub fn drive_packed_istore(cells: usize, stream: &[IsOp]) -> (usize, usize) {
    let mut m: IStructure<i64, u32> = IStructure::new(cells);
    let mut immediate = 0usize;
    let mut released = 0usize;
    for &op in stream {
        match op {
            IsOp::Read(c, r) => {
                if let ttda_mem::ReadOutcome::Value(v) = m.read(Addr(c), r).expect("in range") {
                    black_box(v);
                    immediate += 1;
                }
            }
            IsOp::Write(c) => {
                released += m
                    .write_with(Addr(c), c as i64, |r| {
                        black_box(r);
                    })
                    .expect("single write per cell");
            }
        }
    }
    assert_eq!(m.reclaim(), 0, "stream must satisfy every read");
    (immediate, released)
}

/// The I-structure throughput comparison behind E18 and the `istore`
/// headline, in the heavy-defer regime (every read parks, every write
/// releases), where the enum store pays its per-cell `Vec` allocations
/// and the packed store's recycled arena should win: `ops` (reads +
/// writes) per run with `readers_per_cell` deferred readers, through
/// the enum-cell reference (`enum_ops_per_sec`) and the packed store
/// (`packed_ops_per_sec`); the headline is the packed store's speedup.
///
/// Measures both stores on one identical heavy-defer stream, with the
/// same protocol as [`matching_throughput`]: one untimed warmup pass
/// each, then `reps` interleaved rounds, reporting the *best* round per
/// store — stable under host interference, which only ever slows a
/// round down.
pub fn istore_throughput(cells: usize, readers_per_cell: usize, reps: usize) -> Section {
    let stream = istore_stream(cells, readers_per_cell, 100, 0x15_70_7e);
    let ops = stream.len() as u64;
    let want = (0, cells * readers_per_cell);
    assert_eq!(drive_enum_istore(cells, &stream), want);
    assert_eq!(drive_packed_istore(cells, &stream), want);
    let mut best_ref = std::time::Duration::MAX;
    let mut best_new = std::time::Duration::MAX;
    for _ in 0..reps {
        best_ref = best_ref.min(timed(|| drive_enum_istore(cells, &stream).1));
        best_new = best_new.min(timed(|| drive_packed_istore(cells, &stream).1));
    }
    let ops_ps = |d: std::time::Duration| ops as f64 / d.as_secs_f64();
    Section::comparison(
        &[
            ("ops", ops as f64),
            ("readers_per_cell", readers_per_cell as f64),
            ("enum_ops_per_sec", ops_ps(best_ref)),
            ("packed_ops_per_sec", ops_ps(best_new)),
        ],
        "packed_ops_per_sec",
        "enum_ops_per_sec",
        Better::Higher,
    )
}

/// The `istore` suite: enum-vs-packed store kernels over the three
/// access regimes (read-after-write, heavy-defer, reclaim-sweep), the
/// E11 defer/release kernel, and the full/empty busy-wait foil (E6).
pub fn istore(t: &mut Timer) {
    // Read-after-write: every read is immediate (defer machinery idle).
    let raw = istore_stream(1024, 8, 0, 0x15_70_7e);
    t.time("istore/enum_read_after_write", || {
        drive_enum_istore(1024, &raw)
    });
    t.time("istore/packed_read_after_write", || {
        drive_packed_istore(1024, &raw)
    });
    // Heavy-defer: every read parks, every write releases a full list.
    let heavy = istore_stream(1024, 8, 100, 0x15_70_7e);
    t.time("istore/enum_heavy_defer", || {
        drive_enum_istore(1024, &heavy)
    });
    t.time("istore/packed_heavy_defer", || {
        drive_packed_istore(1024, &heavy)
    });
    // Reclaim-sweep: a large, sparsely-written structure reclaimed
    // wholesale — the word-at-a-time bitmap sweep vs the cell walk.
    // The stores live across iterations, so the packed side runs its
    // zero-allocation steady state.
    let mut sparse_enum: EnumIStructure<i64, u32> = EnumIStructure::new(1 << 16);
    t.time("istore/enum_reclaim_sweep", || {
        for i in 0..512usize {
            sparse_enum.write(Addr(i * 128), i as i64).unwrap();
        }
        sparse_enum.reclaim()
    });
    let mut sparse_packed: IStructure<i64, u32> = IStructure::new(1 << 16);
    t.time("istore/packed_reclaim_sweep", || {
        for i in 0..512usize {
            sparse_packed.write(Addr(i * 128), i as i64).unwrap();
        }
        sparse_packed.reclaim()
    });
    t.time("e11_istructure_defer_release", || {
        let mut m: IStructure<i64, u32> = IStructure::new(256);
        for i in 0..256usize {
            m.read(Addr(i), i as u32).unwrap();
        }
        let mut released = 0;
        for i in 0..256usize {
            released += m.write(Addr(i), i as i64).unwrap().len();
        }
        released
    });
    t.time("e6_full_empty_busy_wait", || {
        let mut m: FullEmptyMemory<i64> = FullEmptyMemory::new(256);
        // Each consumer polls 4 times before the producer arrives.
        for _ in 0..4 {
            for i in 0..256usize {
                let _ = m.try_read(Addr(i)).unwrap();
            }
        }
        for i in 0..256usize {
            m.try_write(Addr(i), i as i64).unwrap();
        }
        let mut got = 0;
        for i in 0..256usize {
            if let TryReadOutcome::Value(_) = m.try_read(Addr(i)).unwrap() {
                got += 1;
            }
        }
        (got, m.retries())
    });
}

/// The standard two-tenant service scenario the `service` suite, the
/// throughput comparison and the smoke runs all share: an "api" tenant
/// (wide, shallow request DAG, weight 3, Poisson arrivals) and a
/// "batch" tenant (narrow, deep DAG, weight 1, uniform arrivals), both
/// arriving almost immediately so the run is throughput-bound rather
/// than idle-waiting.
pub fn service_scenario(requests_per_tenant: u64) -> (Program, Vec<TenantSpec>) {
    let api = ttda_idc::compile(&id::request_dag(4, 3)).expect("api DAG compiles");
    let batch = ttda_idc::compile(&id::request_dag(2, 8)).expect("batch DAG compiles");
    let (program, mains) = Program::merge(&[api, batch], 8);
    let tenants = vec![
        TenantSpec {
            name: "api".into(),
            block: mains[0],
            inputs: vec![Value::Int(3)],
            weight: 3,
            arrivals: Arrivals::Exp { mean: 1.0 },
            requests: requests_per_tenant,
        },
        TenantSpec {
            name: "batch".into(),
            block: mains[1],
            inputs: vec![Value::Int(7)],
            weight: 1,
            arrivals: Arrivals::Uniform { lo: 0.5, hi: 1.5 },
            requests: requests_per_tenant,
        },
    ];
    (program, tenants)
}

/// Measures the mean per-request cost of `tenants` — one solo burst
/// each on a fresh emulator — in instructions, the unit virtual service
/// time is counted in. This is the calibration constant the open-loop
/// experiments express offered load against.
pub fn per_request_cost(program: &Program, tenants: &[TenantSpec]) -> u64 {
    let total: u64 = tenants
        .iter()
        .map(|t| {
            Emulator::new(program)
                .submit(&[ttda_core::Job::new(t.block, t.inputs.clone())])
                .expect("calibration burst runs")
                .instructions
        })
        .sum();
    (total / tenants.len() as u64).max(1)
}

/// The standard scenario re-paced to a target offered load: `load` is
/// the ratio of aggregate arrival rate to the single-server service
/// rate, so `load < 1` leaves the machine idling between requests and
/// `load > 1` builds unbounded queues. Each tenant keeps its arrival
/// *shape* (Poisson vs uniform) but gets the calibrated mean. Returns
/// the merged program, the paced tenants, and the per-request cost in
/// ticks (a sensible latency-histogram bin width).
pub fn loaded_service_scenario(
    load: f64,
    requests_per_tenant: u64,
) -> (Program, Vec<TenantSpec>, u64) {
    assert!(load > 0.0, "offered load must be positive");
    let (program, mut tenants) = service_scenario(requests_per_tenant);
    let cost = per_request_cost(&program, &tenants);
    let mean = cost as f64 * tenants.len() as f64 / load;
    for t in &mut tenants {
        t.arrivals = match t.arrivals {
            Arrivals::Exp { .. } => Arrivals::Exp { mean },
            Arrivals::Normal { .. } => Arrivals::Normal {
                mean,
                std: mean / 4.0,
            },
            Arrivals::Uniform { .. } => Arrivals::Uniform {
                lo: mean * 0.5,
                hi: mean * 1.5,
            },
        };
    }
    (program, tenants, cost)
}

/// The service-scheduler throughput comparison behind the `service`
/// headline: the same offered load of `requests` from `tenants` drained
/// one request per burst (`serial_requests_per_sec`) vs. batched up to
/// the default quota (`batched_requests_per_sec`). On the untimed
/// emulator both arms execute the same instructions, so the batched
/// speedup headline sits near 1.0 — the pair exists to pin the
/// scheduler's own overhead (admission, queueing, histogram upkeep,
/// per-burst machine construction). Batching's *latency* win is E20's
/// story, in virtual time.
///
/// Measures the service scheduler draining one identical offered load
/// serially (quota 1) and batched (the default quota), with the same
/// protocol as [`matching_throughput`]: one untimed warmup pass each
/// (which also checks both configurations drain every request), then
/// `reps` interleaved rounds reporting the *best* round per
/// configuration.
pub fn service_throughput(requests_per_tenant: u64, reps: usize) -> Section {
    let (program, tenants) = service_scenario(requests_per_tenant);
    let serial = ServiceConfig {
        seed: 42,
        burst_quota: 1,
        ..ServiceConfig::default()
    };
    let batched = ServiceConfig {
        seed: 42,
        ..ServiceConfig::default()
    };
    let requests = requests_per_tenant * tenants.len() as u64;
    let drain = |cfg: &ServiceConfig| {
        let s = serve(&tenants, cfg, &mut EmulatorRunner::new(&program)).expect("serves");
        for t in &s.tenants {
            assert_eq!(t.offered, t.completed, "{}: requests dropped", t.name);
        }
        s.admission_log.len()
    };
    assert_eq!(drain(&serial), requests as usize);
    assert_eq!(drain(&batched), requests as usize);
    let mut best_serial = std::time::Duration::MAX;
    let mut best_batched = std::time::Duration::MAX;
    for _ in 0..reps {
        best_serial = best_serial.min(timed(|| drain(&serial)));
        best_batched = best_batched.min(timed(|| drain(&batched)));
    }
    let rps = |d: std::time::Duration| requests as f64 / d.as_secs_f64();
    Section::comparison(
        &[
            ("requests", requests as f64),
            ("tenants", tenants.len() as f64),
            ("serial_requests_per_sec", rps(best_serial)),
            ("batched_requests_per_sec", rps(best_batched)),
        ],
        "batched_requests_per_sec",
        "serial_requests_per_sec",
        Better::Higher,
    )
}

/// The `service` suite: full open-loop multi-tenant serve runs (E20) —
/// batched, serial, and with backpressure engaged.
pub fn service(t: &mut Timer) {
    let (program, tenants) = service_scenario(16);
    let batched = ServiceConfig {
        seed: 42,
        ..ServiceConfig::default()
    };
    t.time("service/serve_2tenant_32req_q8", || {
        serve(&tenants, &batched, &mut EmulatorRunner::new(&program))
            .expect("serves")
            .bursts
    });
    let serial = ServiceConfig {
        burst_quota: 1,
        ..batched
    };
    t.time("service/serve_2tenant_32req_q1", || {
        serve(&tenants, &serial, &mut EmulatorRunner::new(&program))
            .expect("serves")
            .bursts
    });
    // Backpressure engaged: the high-water mark sits well under what a
    // full burst of these DAGs drives the matching window to.
    let throttling = ServiceConfig {
        high_water: 48,
        ..batched
    };
    t.time("service/serve_2tenant_32req_hw48", || {
        serve(&tenants, &throttling, &mut EmulatorRunner::new(&program))
            .expect("serves")
            .throttled
    });
}

/// The parallel-backend throughput comparison behind E21 and the `par`
/// headline, on matmul n=5: `firings` per run (identical across all
/// arms), then firings/sec for the sequential interpreter
/// (`seq_firings_per_sec`) and the relaxed engine at 1, 2 and 4 workers
/// (`relaxed1_firings_per_sec` …). Every number is measured in the same
/// process on the same workload, so the *ratios* survive host drift
/// even when the absolute firings/sec do not. The headline is the
/// one-worker overhead `relaxed_ratio_1w`, sequential firings/sec over
/// relaxed-1-worker firings/sec (lower is better): the price of the
/// parallel protocol itself (a worker thread, shard routing, the
/// termination detector).
///
/// Measures the sequential and relaxed (1/2/4 workers) engines on one
/// identical workload, with the same protocol as
/// [`matching_throughput`]: an untimed warmup per arm (which also
/// asserts every arm computes the reference answer with the confluent
/// firing count), then `reps` rounds reporting the *best* round per arm.
pub fn par_throughput(reps: usize) -> Section {
    let p = ttda_idc::compile(id::matmul()).expect("matmul compiles");
    let inputs = [Value::Int(5)];
    let expected = Value::Int(ttda_workloads::reference::matmul_checksum(5));
    let run = |threads: usize, mode: RunMode| {
        let r = Emulator::new(&p)
            .with_threads(threads)
            .with_mode(mode)
            .run(&inputs)
            .expect("matmul runs");
        assert_eq!(r.outputs[&0], expected, "matmul answer ({mode:?})");
        r.instructions
    };
    let firings = run(1, RunMode::Sequential);
    let arms: [(usize, RunMode); 4] = [
        (1, RunMode::Sequential),
        (1, RunMode::Relaxed),
        (2, RunMode::Relaxed),
        (4, RunMode::Relaxed),
    ];
    let mut best = [std::time::Duration::MAX; 4];
    for (k, &(threads, mode)) in arms.iter().enumerate() {
        assert_eq!(run(threads, mode), firings, "firings are confluent");
        for _ in 0..reps {
            best[k] = best[k].min(timed(|| run(threads, mode) as usize));
        }
    }
    let fps = |d: std::time::Duration| firings as f64 / d.as_secs_f64();
    Section::comparison(
        &[
            ("firings", firings as f64),
            ("seq_firings_per_sec", fps(best[0])),
            ("relaxed1_firings_per_sec", fps(best[1])),
            ("relaxed2_firings_per_sec", fps(best[2])),
            ("relaxed4_firings_per_sec", fps(best[3])),
        ],
        "seq_firings_per_sec",
        "relaxed1_firings_per_sec",
        Better::Lower,
    )
}

/// The `par` suite: whole-program emulator runs pinning each backend's
/// per-run cost on the two E16/E21 workloads.
pub fn par(t: &mut Timer) {
    let matmul = ttda_idc::compile(id::matmul()).expect("matmul compiles");
    let wave = ttda_idc::compile(id::wavefront()).expect("wavefront compiles");
    let m_in = [Value::Int(5)];
    let w_in = [Value::Int(12)];
    let (seq, relaxed) = (RunMode::Sequential, RunMode::Relaxed);
    let arms: [(&str, &Program, &[Value], usize, RunMode); 4] = [
        ("par/seq_matmul_n5", &matmul, &m_in, 1, seq),
        ("par/relaxed1_matmul_n5", &matmul, &m_in, 1, relaxed),
        ("par/relaxed2_matmul_n5", &matmul, &m_in, 2, relaxed),
        ("par/relaxed2_wavefront_n12", &wave, &w_in, 2, relaxed),
    ];
    for (label, program, inputs, threads, mode) in arms {
        t.time(label, || {
            Emulator::new(program)
                .with_threads(threads)
                .with_mode(mode)
                .run(inputs)
                .unwrap()
        });
    }
}

/// The workload set every optimizer measurement (this suite, E22, the
/// `opt` subcommand) runs: `(label, source, inputs)`. Loop-heavy,
/// call-heavy and I-structure-heavy programs plus the statically
/// bounded `unroll8` loop the `O2` unroller eliminates outright.
pub fn opt_workloads() -> Vec<(&'static str, String, Vec<Value>)> {
    vec![
        (
            "trapezoid_n64",
            id::trapezoid().to_string(),
            vec![Value::Float(0.0), Value::Float(1.0), Value::Int(64)],
        ),
        ("fib_13", id::fib().to_string(), vec![Value::Int(13)]),
        ("matmul_n4", id::matmul().to_string(), vec![Value::Int(4)]),
        (
            "request_dag_4x3",
            id::request_dag(4, 3),
            vec![Value::Int(10)],
        ),
        ("unroll8", id::unroll8().to_string(), vec![Value::Int(5)]),
    ]
}

/// The optimizer comparison behind E22 and the `opt` headline. Unlike
/// the timed headlines it counts: the static instructions (`instrs_o0`,
/// `instrs_o2`) and the *instruction firings* (`firings_o0`,
/// `firings_o2`) — deterministic, host-independent counts — of the
/// [`opt_workloads`] set compiled at `O0` and at `O2`. The headline
/// `firing_ratio` is `O2` firings over `O0` firings (lower is better;
/// 1.0 means the optimizer did nothing): a pass that silently stops
/// reducing firings shows up as the ratio drifting back toward 1.0, on
/// any host, with zero noise.
///
/// Runs both sides sequentially and asserts the outputs are identical.
/// Fully deterministic — no timing, no reps.
pub fn opt_throughput() -> Section {
    let [mut instrs_o0, mut instrs_o2, mut firings_o0, mut firings_o2] = [0u64; 4];
    for (name, src, inputs) in opt_workloads() {
        let p0 = ttda_idc::compile_optimized(&src, OptLevel::O0).expect("compiles");
        let p2 = ttda_idc::compile_optimized(&src, OptLevel::O2).expect("compiles");
        let r0 = Emulator::new(&p0).run(&inputs).expect("O0 runs");
        let r2 = Emulator::new(&p2).run(&inputs).expect("O2 runs");
        assert_eq!(r0.outputs, r2.outputs, "{name}: O2 changed the answer");
        instrs_o0 += p0.instr_count() as u64;
        instrs_o2 += p2.instr_count() as u64;
        firings_o0 += r0.instructions;
        firings_o2 += r2.instructions;
    }
    Section::comparison(
        &[
            ("instrs_o0", instrs_o0 as f64),
            ("instrs_o2", instrs_o2 as f64),
            ("firings_o0", firings_o0 as f64),
            ("firings_o2", firings_o2 as f64),
        ],
        "firings_o2",
        "firings_o0",
        Better::Lower,
    )
}

/// The `opt` suite: the optimizer pipeline's own cost on the largest
/// workload graph, plus emulator runs of the same program compiled at
/// `O0` and `O2` (the wall-clock payoff whose deterministic twin is the
/// gated firing ratio).
pub fn opt(t: &mut Timer) {
    let matmul = ttda_idc::compile(id::matmul()).expect("matmul compiles");
    t.time("opt/pipeline_o2_matmul_n4", || {
        ttda_core::opt::optimize_at(black_box(&matmul), OptLevel::O2)
    });
    let trap = id::trapezoid();
    let t_in = [Value::Float(0.0), Value::Float(1.0), Value::Int(64)];
    let t0 = ttda_idc::compile_optimized(trap, OptLevel::O0).expect("compiles");
    let t2 = ttda_idc::compile_optimized(trap, OptLevel::O2).expect("compiles");
    t.time("opt/o0_run_trapezoid_n64", || {
        Emulator::new(&t0).run(&t_in).unwrap()
    });
    t.time("opt/o2_run_trapezoid_n64", || {
        Emulator::new(&t2).run(&t_in).unwrap()
    });
    let u2 = ttda_idc::compile_optimized(id::unroll8(), OptLevel::O2).expect("compiles");
    t.time("opt/o2_run_unroll8", || {
        Emulator::new(&u2).run(&[Value::Int(5)]).unwrap()
    });
}

/// The machine configuration every scheduling measurement (this suite,
/// E23, the gate) runs: 2 PEs joined by an ideal 4-cycle network. Two
/// PEs is where firing order matters most — with many PEs nearly every
/// ready token issues the same cycle regardless of queue order, so the
/// policies converge; at 2 the queue is contended every cycle and the
/// criticality win is largest and most stable.
pub fn sched_machine(p: Program, sched: SchedPolicy) -> TimedMachine<ttda_net::Ideal> {
    let cfg = TimedConfig {
        sched,
        ..TimedConfig::default()
    };
    TimedMachine::ideal(p, 2, Cycle(4), cfg)
}

/// The scheduling comparison behind E23 and the `sched` headline. Like
/// the opt headline it is not a timing: it sums timed-machine
/// *makespans* — deterministic cycle counts from the discrete-event
/// model — of the [`opt_workloads`] set compiled at `O2` and run through
/// the [`sched_machine`] under FIFO (`fifo_cycles`) and under `Crit`
/// (`crit_cycles`). The headline `makespan_ratio` is crit cycles over
/// FIFO cycles (lower is better; 1.0 means criticality scheduling bought
/// nothing): losing the win shows up as the ratio drifting back toward
/// 1.0, on any host, with zero noise.
///
/// Asserts both orders compute identical outputs. Fully deterministic —
/// no timing, no reps.
pub fn sched_throughput() -> Section {
    let (mut fifo_cycles, mut crit_cycles) = (0u64, 0u64);
    for (name, src, inputs) in opt_workloads() {
        let p = ttda_idc::compile_optimized(&src, OptLevel::O2).expect("compiles");
        let run = |sched: SchedPolicy| {
            sched_machine(p.clone(), sched)
                .run(&inputs)
                .expect("workload runs")
        };
        let fifo = run(SchedPolicy::Fifo);
        let crit = run(SchedPolicy::Crit);
        assert_eq!(
            fifo.outputs, crit.outputs,
            "{name}: scheduling changed the answer"
        );
        fifo_cycles += fifo.stats.cycles.0;
        crit_cycles += crit.stats.cycles.0;
    }
    Section::comparison(
        &[
            ("fifo_cycles", fifo_cycles as f64),
            ("crit_cycles", crit_cycles as f64),
        ],
        "crit_cycles",
        "fifo_cycles",
        Better::Lower,
    )
}

/// The `sched` suite: the wall-clock cost of both policies on the timed
/// machine (the BucketQueue's own overhead is the fifo-vs-crit delta)
/// and on the emulator's SoA wave loop, whose deterministic twin is the
/// gated makespan ratio.
pub fn sched(t: &mut Timer) {
    let trap = ttda_idc::compile_optimized(id::trapezoid(), OptLevel::O2).expect("compiles");
    let t_in = [Value::Float(0.0), Value::Float(1.0), Value::Int(64)];
    t.time("sched/timed_fifo_trapezoid_n64_2pe", || {
        sched_machine(trap.clone(), SchedPolicy::Fifo)
            .run(&t_in)
            .unwrap()
    });
    t.time("sched/timed_crit_trapezoid_n64_2pe", || {
        sched_machine(trap.clone(), SchedPolicy::Crit)
            .run(&t_in)
            .unwrap()
    });
    t.time("sched/emu_fifo_trapezoid_n64", || {
        Emulator::new(&trap).run(&t_in).unwrap()
    });
    t.time("sched/emu_crit_trapezoid_n64", || {
        Emulator::new(&trap)
            .with_sched(SchedPolicy::Crit)
            .run(&t_in)
            .unwrap()
    });
}

/// The `endtoend` suite: whole-machine Cm* relaxation runs (E2/E14).
pub fn endtoend(t: &mut Timer) {
    for n in [4usize, 16] {
        t.time(&format!("e2_cmstar_relaxation/{n}"), || {
            let per_cluster = 8.min(n);
            let clusters = n.div_ceil(per_cluster);
            let cfg = CmStarConfig {
                clusters,
                per_cluster,
                words_per_module: 128,
                ..CmStarConfig::default()
            };
            let total = clusters * per_cluster;
            let cores: Vec<Core> = (0..total)
                .map(|p| Core::new(chaotic_relaxation(p, total, 8, 4, 128)))
                .collect();
            let mut m = CmStar::new(cores, cfg);
            m.run().unwrap()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_shape() {
        let s = token_stream(100, 8, 1);
        assert_eq!(s.len(), 200);
        // Both matchers agree on the match count and drain fully.
        assert_eq!(drive_hashmap(&s), 100);
        assert_eq!(drive_packed(&s), 100);
    }

    /// The metric `name` of a comparison's section.
    fn metric(s: &Section, name: &str) -> f64 {
        s.metric(name).unwrap_or_else(|| panic!("no metric {name}"))
    }

    #[test]
    fn throughput_is_measurable() {
        let t = matching_throughput(2_000, 64, 2);
        assert_eq!(metric(&t, "tokens"), 4_000.0);
        assert!(metric(&t, "hashmap_tokens_per_sec") > 0.0);
        assert!(metric(&t, "packed_tokens_per_sec") > 0.0);
    }

    #[test]
    fn istore_stream_shape_and_driver_agreement() {
        // All-deferred: every read parks, every write releases.
        let s = istore_stream(50, 4, 100, 1);
        assert_eq!(s.len(), 250);
        assert_eq!(drive_enum_istore(50, &s), (0, 200));
        assert_eq!(drive_packed_istore(50, &s), (0, 200));
        // All-immediate: writes come first.
        let raw = istore_stream(50, 4, 0, 1);
        assert_eq!(drive_enum_istore(50, &raw), (200, 0));
        assert_eq!(drive_packed_istore(50, &raw), (200, 0));
        // Mixed regime: both stores see the identical split.
        let mixed = istore_stream(50, 4, 50, 1);
        let a = drive_enum_istore(50, &mixed);
        assert_eq!(a, drive_packed_istore(50, &mixed));
        assert_eq!(a.0 + a.1, 200);
    }

    #[test]
    fn istore_throughput_is_measurable() {
        let t = istore_throughput(256, 4, 2);
        assert_eq!(metric(&t, "ops"), (256 * 5) as f64);
        assert!(metric(&t, "enum_ops_per_sec") > 0.0);
        assert!(metric(&t, "packed_ops_per_sec") > 0.0);
    }

    #[test]
    fn par_throughput_is_measurable() {
        let t = par_throughput(1);
        assert!(metric(&t, "firings") > 0.0);
        for arm in ["seq", "relaxed1", "relaxed2", "relaxed4"] {
            assert!(metric(&t, &format!("{arm}_firings_per_sec")) > 0.0);
        }
        assert!(t.ratio().unwrap() > 0.0);
    }

    #[test]
    fn opt_throughput_is_deterministic_and_reducing() {
        let a = opt_throughput();
        let b = opt_throughput();
        // No timing anywhere in the measurement: two runs are equal.
        assert_eq!(a, b);
        assert!(metric(&a, "firings_o0") > 0.0 && metric(&a, "instrs_o0") > 0.0);
        // The optimizer must actually shrink the set, statically and
        // dynamically.
        let firing_ratio = a.ratio().unwrap();
        assert!(firing_ratio < 1.0, "ratio {firing_ratio}");
        assert!(metric(&a, "instrs_o2") < metric(&a, "instrs_o0"));
    }

    #[test]
    fn sched_throughput_is_deterministic_and_reducing() {
        let a = sched_throughput();
        let b = sched_throughput();
        // No timing anywhere in the measurement: two runs are equal.
        assert_eq!(a, b);
        assert!(metric(&a, "fifo_cycles") > 0.0 && metric(&a, "crit_cycles") > 0.0);
        // Criticality scheduling must actually shorten the schedule.
        let makespan_ratio = a.ratio().unwrap();
        assert!(makespan_ratio < 1.0, "ratio {makespan_ratio}");
    }

    #[test]
    fn service_throughput_is_measurable() {
        let t = service_throughput(4, 1);
        assert_eq!(metric(&t, "requests"), 8.0);
        assert_eq!(metric(&t, "tenants"), 2.0);
        assert!(metric(&t, "serial_requests_per_sec") > 0.0);
        assert!(metric(&t, "batched_requests_per_sec") > 0.0);
    }
}
