//! The firing path does not touch the heap.
//!
//! This test binary installs a counting global allocator that counts
//! only the allocations of the thread that asked for them, and only
//! while it asks. Each check builds its engine first and counts around
//! `run` alone, so what is left is the per-run set-up (input vectors,
//! the run's context table, matching store and output map, growth of
//! the two reused wave vectors and of queue storage, one cell array per
//! `IAlloc`) spread over tens of thousands of firings. One more check
//! counts the optimizer's allocations, which are set-up, not firing
//! path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ttda_core::opt::{optimize_at, OptLevel};
use ttda_core::{Emulator, Program, RunMode, SchedPolicy, TimedConfig, TimedMachine, Value};
use ttda_net::Hypercube;
use ttda_workloads::{id, reference};

struct Counting;

thread_local! {
    /// `Some(n)` while this thread counts: `n` allocations so far.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note_alloc() {
    // `try_with`: the slot may already be gone during thread teardown.
    let _ = COUNT.try_with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + 1));
        }
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialized thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`, returning its result and the heap allocations (including
/// reallocations) this thread made inside it.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    COUNT.with(|c| c.set(Some(0)));
    let out = f();
    let n = COUNT.with(|c| c.replace(None)).expect("counting was on");
    (out, n)
}

fn compile(src: &str) -> Program {
    ttda_idc::compile_optimized(src, OptLevel::O2).expect("workload compiles")
}

/// Allocations per firing of one sequential run of `program` under
/// `sched`.
fn emu_allocs_per_firing(
    name: &str,
    program: &Program,
    sched: SchedPolicy,
    input: i64,
    expect: i64,
) -> f64 {
    let mut emu = Emulator::new(program)
        .with_mode(RunMode::Sequential)
        .with_sched(sched);
    let (r, allocs) = counted(|| emu.run(&[Value::Int(input)]));
    let r = r.expect("run");
    assert_eq!(r.outputs[&0], Value::Int(expect));
    let per = allocs as f64 / r.instructions as f64;
    eprintln!(
        "sequential {name} {sched}: {allocs} allocations, {} firings, {per:.4} per firing",
        r.instructions
    );
    per
}

#[test]
fn counting_sees_allocations() {
    let (v, n) = counted(|| vec![1u8; 64]);
    assert_eq!(v.len(), 64);
    assert!(n >= 1, "the counting allocator saw nothing");
}

// A `Crit` run reorders every wave; the sort must reuse its storage as
// the wave does (it once built four vectors per wave: 0.133 allocations
// per firing on matmul 12).
const POLICIES: [SchedPolicy; 2] = [SchedPolicy::Fifo, SchedPolicy::Crit];

#[test]
fn sequential_matmul_does_not_allocate_per_firing() {
    let p = compile(id::matmul());
    for sched in POLICIES {
        let per = emu_allocs_per_firing("matmul 12", &p, sched, 12, reference::matmul_checksum(12));
        assert!(per < 0.01, "{sched}: {per:.4} allocations per firing");
    }
}

#[test]
fn sequential_fib_does_not_allocate_per_firing() {
    let p = compile(id::fib());
    for sched in POLICIES {
        let per = emu_allocs_per_firing("fib 18", &p, sched, 18, reference::fib(18));
        assert!(per < 0.01, "{sched}: {per:.4} allocations per firing");
    }
}

#[test]
fn timed_fib_does_not_allocate_per_firing() {
    // The timed-fib configuration of the repository benchmark: an 8-PE
    // hypercube with criticality scheduling. Measured at 0.0121
    // allocations per firing (659 over 54,347 firings): growth of the
    // event queue's 64 wheel buckets, the token and packet slabs, the
    // PE queues and the network's link state.
    let config = TimedConfig {
        sched: SchedPolicy::Crit,
        ..TimedConfig::default()
    };
    let cube = Hypercube::new(3).expect("a 3-cube is a valid topology");
    let mut m = TimedMachine::new(compile(id::fib()), cube, config);
    let (r, allocs) = counted(|| m.run(&[Value::Int(18)]));
    let r = r.expect("run");
    assert_eq!(r.outputs[&0], Value::Int(reference::fib(18)));
    let per = allocs as f64 / r.stats.instructions as f64;
    eprintln!(
        "timed fib 18: {allocs} allocations, {} firings, {per:.4} per firing",
        r.stats.instructions
    );
    assert!(per < 0.1, "{per:.4} allocations per firing");
}

#[test]
fn o2_on_matmul_stays_within_its_allocation_budget() {
    // 772 allocations measured, with about 10% headroom. The copy of
    // the block that the passes rewrite is about 250 of them; loop
    // passes that rebuild their tables for every loop, or hash maps
    // keyed by instruction, go well past it (1,439 when both did).
    const BUDGET: u64 = 850;
    let p = ttda_idc::compile(id::matmul()).expect("matmul compiles");
    let ((o2, _), allocs) = counted(|| optimize_at(&p, OptLevel::O2));
    eprintln!(
        "matmul at O2: {allocs} allocations, {} instructions in, {} out",
        p.instr_count(),
        o2.instr_count()
    );
    assert!(allocs <= BUDGET, "{allocs} allocations, budget {BUDGET}");
}
