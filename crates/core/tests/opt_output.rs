//! The optimizer's output on every workload source, pinned.
//!
//! Each case digests the `Debug` form of one optimized program followed
//! by its `OptStats` (64-bit FNV-1a over `"{program:?}\n{stats:?}\n"`).
//! A digest moves only with an intended optimizer change: a change that
//! should leave the programs alone (a speed-up, a refactor) must keep
//! every digest, and one that means to change them re-pins them here and
//! says why (DESIGN.md §14).

use ttda_core::opt::{optimize_at, OptLevel};
use ttda_workloads::id;

/// 64-bit FNV-1a.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn every_workload_source_optimizes_to_its_pinned_program() {
    let sources: [(&str, String); 9] = [
        ("matmul", id::matmul().into()),
        ("fib", id::fib().into()),
        ("wavefront", id::wavefront().into()),
        ("trapezoid", id::trapezoid().into()),
        ("producer_consumer", id::producer_consumer().into()),
        ("relaxation", id::relaxation().into()),
        ("unroll8", id::unroll8().into()),
        ("request_dag(4, 3)", id::request_dag(4, 3)),
        ("request_dag(2, 8)", id::request_dag(2, 8)),
    ];
    // Per source: the digest at O1, then at O2.
    let pinned: [(u64, u64); 9] = [
        (0x931c_2fe1_711a_abc8, 0xe09b_2e5b_29fb_86b9),
        (0x87bc_afd6_b504_d31f, 0x87bc_afd6_b504_d31f),
        (0x2580_b3de_0dce_9b1a, 0xf5d1_2f69_377b_7313),
        (0xa5aa_5308_b4f8_8aa7, 0x4379_a734_3dee_47c7),
        (0xc3a8_6e0b_eef8_539a, 0x3658_33b3_d28e_51ff),
        (0x0b26_4d8e_950c_8e65, 0xde32_08a5_f20f_12e0),
        (0x7bcc_dc53_1220_8f4e, 0x1750_0325_c40c_4a54),
        (0xeca4_e954_e7c5_1f5e, 0xd342_0ecf_c741_c72b),
        (0xaf8c_2c79_638e_2aaf, 0xd1ab_e204_a389_096f),
    ];
    let mut moved = Vec::new();
    for ((name, src), (o1, o2)) in sources.iter().zip(pinned) {
        let program = ttda_idc::compile(src).expect("workload compiles");
        for (level, want) in [(OptLevel::O1, o1), (OptLevel::O2, o2)] {
            let (opt, stats) = optimize_at(&program, level);
            let got = digest(&format!("{opt:?}\n{stats:?}\n"));
            if got != want {
                moved.push(format!(
                    "{name} at {level}: {got:#018x} (pinned {want:#018x}), {} instructions, {stats:?}",
                    opt.instr_count()
                ));
            }
        }
    }
    assert!(
        moved.is_empty(),
        "optimizer output moved:\n{}",
        moved.join("\n")
    );
}
