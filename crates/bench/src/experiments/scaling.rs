//! E16/E21: host-thread scaling and protocol overhead of the parallel
//! emulation backend.

use std::time::Instant;

use ttda_core::{EmuResult, Emulator, Program, RunMode, Value};
use ttda_sim::table::Table;
use ttda_workloads::fuzz::oracle::confluent_mismatch;
use ttda_workloads::{id, reference};

use super::section;

/// Runs `p` under `threads` workers in `mode` `reps` times; returns the
/// last result and the best wall-clock seconds observed.
fn best_of(
    p: &Program,
    threads: usize,
    mode: RunMode,
    inputs: &[Value],
    reps: u32,
) -> (EmuResult, f64) {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = Emulator::new(p)
            .with_threads(threads)
            .with_mode(mode)
            .run(inputs)
            .expect("runs");
        best = best.min(t0.elapsed().as_secs_f64());
        result = Some(r);
    }
    (result.expect("reps >= 1"), best)
}

/// The E16/E21 workloads: Id source, inputs and the checksum answer.
fn cases() -> [(&'static str, &'static str, Vec<Value>, Value); 2] {
    [
        (
            "matmul",
            id::matmul(),
            vec![Value::Int(5)],
            Value::Int(reference::matmul_checksum(5)),
        ),
        (
            "wavefront",
            id::wavefront(),
            vec![Value::Int(12)],
            Value::Int(reference::wavefront_corner(12)),
        ),
    ]
}

/// E16: speedup vs worker count on the largest Id-compiled workloads.
///
/// The paper's Fig 3-1 development plan rests on an *emulation facility*
/// of "32 to 128 processors" precisely because a useful dataflow
/// emulator must itself run in parallel. This experiment drives the
/// emulator's parallel backend ([`RunMode::Relaxed`]) across worker
/// counts and checks the two properties that make such a facility
/// trustworthy: every run keeps exact dataflow semantics — outputs and
/// the confluent counters (instructions, ALU ops, contexts, structure
/// writes, total reads) equal the sequential emulator's — and wall-clock
/// time falls as workers are added *when the host has cores to give
/// them*. On a small host the table still regenerates, honestly showing
/// overhead instead of speedup; confluence is asserted regardless. The
/// parallelism profile itself comes from the sequential interpreter.
pub fn e16() -> String {
    let mut out = section(
        "e16",
        "Host-thread scaling of the parallel emulation backend",
        "\"The emulation facility consists of 32 to 128 processors\" (§3): parallel \
         emulation of the TTDA must preserve exact dataflow semantics while using \
         host processors to gain speed",
    );

    let norm = crate::normalized();
    if norm {
        out.push_str("host cores available: (normalized)\n\n");
    } else {
        let host = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        out.push_str(&format!("host cores available: {host}\n\n"));
    }

    let mut t = Table::new(&[
        "workload",
        "threads",
        "best wall",
        "speedup vs seq",
        "confluent with sequential",
    ]);
    for (name, src, inputs, expected) in cases() {
        let p = ttda_idc::compile(src).expect("compiles");
        let (seq, base) = best_of(&p, 1, RunMode::Sequential, &inputs, 3);
        assert_eq!(seq.outputs[&0], expected, "{name} sequential answer");
        for threads in [1usize, 2, 4, 8] {
            let (r, secs) = best_of(&p, threads, RunMode::Relaxed, &inputs, 3);
            if let Some(why) = confluent_mismatch(&seq, &r) {
                panic!("{name} relaxed at {threads} threads: {why}");
            }
            let (wall, speedup) = if norm {
                ("(normalized)".to_string(), "(normalized)".to_string())
            } else {
                (
                    format!("{:.1} ms", secs * 1e3),
                    format!("{:.2}x", base / secs),
                )
            };
            t.row_owned(vec![
                name.into(),
                threads.to_string(),
                wall,
                speedup,
                "true".into(),
            ]);
        }
    }
    out.push_str(&t.to_string());
    out.push_str(
        "\nShape check: every row runs the relaxed parallel backend and is asserted\n\
         output-equal to the sequential emulator with identical confluent counters\n\
         (instructions, ALU ops, contexts, structure writes, total reads) — the\n\
         backend shards the waiting-matching store by the timed machine's\n\
         by-iteration mapping (one iteration of one activation per worker) and\n\
         I-structure storage by structure id, and lets tokens flow between\n\
         workers with no wave barrier, so only schedule-dependent figures (wave\n\
         count, occupancy peaks) may differ. Speedup columns are meaningful\n\
         only when the host grants the worker threads real cores; on a small\n\
         host they honestly report the sharding and channel overhead instead.\n",
    );
    out
}

/// The coordinator-overhead ratios the pre-decoordination protocol
/// (per-firing id round-trips to the coordinator, one cross-shard
/// message per structure op, idle shards waiting at the wave barrier)
/// measured on this repository's reference container, best-of-7,
/// immediately before the rewrite. Indexed by `[workload][threads ∈
/// {1, 2, 4}]`; the ratio is parallel-backend wall clock over the
/// sequential interpreter's on the same host, so it is comparable
/// across hosts in a way absolute times are not.
const LEGACY_OVERHEAD: [(&str, [f64; 3]); 2] = [
    ("matmul", [2.69, 3.22, 4.19]),
    ("wavefront", [3.12, 3.78, 4.87]),
];

/// E21: protocol overhead of the parallel backend, re-tabling E16's
/// workloads as honest overhead curves.
///
/// E16 reports speedup against the sequential interpreter, which on a
/// small host hides the overhead in the baseline. This experiment
/// measures what the parallel protocol *costs*: wall clock at each
/// worker count over the same-run sequential interpreter (lower is
/// better; 1.0 means the backend is free). Two arms per workload — the
/// relaxed backend (no coordinator at all, outputs equal but firing
/// order unspecified), and the pre-decoordination protocol's ratios
/// recorded as constants before it was rewritten. The claim under test:
/// cutting the coordinator out of the steady state is where the overhead
/// goes — the relaxed backend, which removes it entirely, must beat the
/// old protocol's 1-worker ratio by at least 15%. The relaxed backend
/// costs about 1.1–1.5x the allocation-free sequential interpreter
/// (DESIGN.md §16) at one worker; the legacy ratios keep the older,
/// slower sequential denominator, so the 1-worker check has less
/// headroom than when it was written.
pub fn e21() -> String {
    let mut out = section(
        "e21",
        "Coordinator overhead of the parallel backend",
        "\"the processors in the dataflow machine do not execute any synchronization \
         or scheduling code\" (§4): whatever coordination the *emulator* adds on top \
         of pure firing work is overhead the architecture exists to avoid, so the \
         backend must shed it",
    );
    let norm = crate::normalized();
    let mut t = Table::new(&["workload", "threads", "legacy ratio", "relaxed ratio"]);
    for (name, src, inputs, expected) in cases() {
        let p = ttda_idc::compile(src).expect("compiles");
        let (seq, base) = best_of(&p, 1, RunMode::Sequential, &inputs, 5);
        assert_eq!(seq.outputs[&0], expected, "{name} sequential answer");
        let legacy = LEGACY_OVERHEAD
            .iter()
            .find(|(w, _)| *w == name)
            .map(|(_, r)| r)
            .expect("legacy constants cover every case");
        for (k, threads) in [1usize, 2, 4].into_iter().enumerate() {
            let (rel, rel_secs) = best_of(&p, threads, RunMode::Relaxed, &inputs, 5);
            if let Some(why) = confluent_mismatch(&seq, &rel) {
                panic!("{name} relaxed at {threads} threads: {why}");
            }
            let rel_ratio = rel_secs / base;
            if !norm && threads == 1 {
                // The decoordination claim, with margin for a noisy
                // shared host: removing the coordinator entirely must
                // beat the old protocol's 1-worker overhead by >= 15%.
                assert!(
                    rel_ratio < 0.85 * legacy[0],
                    "{name}: relaxed 1-worker ratio {rel_ratio:.2} not below 0.85 x legacy {:.2}",
                    legacy[0]
                );
            }
            let rel_col = if norm {
                "(normalized)".to_string()
            } else {
                format!("{rel_ratio:.2}x")
            };
            t.row_owned(vec![
                name.into(),
                threads.to_string(),
                format!("{:.2}x", legacy[k]),
                rel_col,
            ]);
        }
    }
    out.push_str(&t.to_string());
    out.push_str(
        "\nShape check: ratios are wall clock over the same-run sequential interpreter\n\
         (lower is better; the legacy column is the pre-decoordination protocol\n\
         measured on the reference container before the rewrite). At one worker the\n\
         relaxed backend — no coordinator, no wave barrier, no ordered merge, and no\n\
         shared atomic written per token or per firing — costs about 1.1-1.5x the\n\
         allocation-free sequential interpreter, under the legacy protocol's 2.7-3.1x\n\
         by more than the 15% the check requires. On a 2-core host added workers\n\
         still cost more than they return at these sizes (about 1.8-2.9x at 2\n\
         workers, 3-7x at 4): a token owned by a peer crosses a channel in a\n\
         batch, a worker whose queue runs dry parks until a batch wakes it, and at 4\n\
         workers the threads outnumber the cores. About 1 ms of sequential work is\n\
         too little to hide that. Every row is asserted output-equal with confluent\n\
         counters.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use ttda_core::{Emulator, Value};
    use ttda_workloads::fuzz::oracle::confluent_mismatch;
    use ttda_workloads::{id, reference};

    #[test]
    fn parallel_backend_matches_sequential_on_every_workload() {
        let cases: Vec<(&str, Vec<Value>)> = vec![
            (id::fib(), vec![Value::Int(12)]),
            (id::producer_consumer(), vec![Value::Int(18)]),
            (id::relaxation(), vec![Value::Int(10)]),
            (id::matmul(), vec![Value::Int(4)]),
            (id::wavefront(), vec![Value::Int(8)]),
            (
                id::trapezoid(),
                vec![Value::Float(0.0), Value::Float(1.0), Value::Int(32)],
            ),
        ];
        for (src, inputs) in cases {
            let p = ttda_idc::compile(src).unwrap();
            let seq = Emulator::new(&p).run(&inputs).unwrap();
            for threads in [2usize, 4, 8] {
                let par = Emulator::new(&p)
                    .with_threads(threads)
                    .run(&inputs)
                    .unwrap();
                assert_eq!(confluent_mismatch(&seq, &par), None, "threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_multiprogramming_matches_sequential() {
        let fib = ttda_idc::compile(id::fib()).unwrap();
        let pc = ttda_idc::compile(id::producer_consumer()).unwrap();
        let (merged, mains) = ttda_core::Program::merge(&[fib, pc], 8);
        let jobs = vec![
            ttda_core::Job::new(mains[0], vec![Value::Int(12)]),
            ttda_core::Job::new(mains[1], vec![Value::Int(20)]),
        ];
        let seq = Emulator::new(&merged).submit(&jobs).unwrap();
        assert_eq!(seq.outputs[&0], Value::Int(reference::fib(12)));
        assert_eq!(seq.outputs[&8], Value::Int(reference::square_sum(20)));
        for threads in [2usize, 4] {
            let par = Emulator::new(&merged)
                .with_threads(threads)
                .submit(&jobs)
                .unwrap();
            assert_eq!(confluent_mismatch(&seq, &par), None, "threads={threads}");
        }
    }
}
