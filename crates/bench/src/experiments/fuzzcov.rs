//! E19: differential-fuzz corpus coverage across the engine matrix.

use std::time::Instant;

use ttda_sim::table::Table;
use ttda_workloads::fuzz::{oracle, Family};

use super::section;

/// Seeds checked per family. Deliberately small: this experiment also
/// runs (in debug mode) inside `cargo test`'s `every_id_runs` smoke, and
/// each scenario drives the full engine matrix — sequential, three
/// parallel widths, timed machine and optimizer. The open-ended hunt
/// lives in `ttda-bench fuzz`, not here.
const SEEDS_PER_FAMILY: u64 = 6;

/// E19: generator family × outcome coverage of the differential oracle.
///
/// The paper's central claim is schedule-independence: a split-phase
/// token machine gives the same answer under any interleaving of token
/// traffic (§2.2–2.3). The fuzzer operationalizes that as an oracle —
/// sequential emulator, relaxed parallel backend at 2/4/8 host threads,
/// timed machine and optimizing compiler must all agree on adversarial
/// workloads (hot-key Zipf skew, deferral cascades, deep tag recursion,
/// fan-out storms, merged tenants, raw store op-sequences). This table
/// is the standing census: every `(family, seed)` cell must land in an
/// *agree* column; a `DIVERGE` count other than zero fails the run.
pub fn e19() -> String {
    let mut out = section(
        "e19",
        "Differential-fuzz corpus coverage (family × outcome)",
        "\"the same result ... regardless of the order in which tokens are processed\" \
         (§2.2): adversarial interleavings must be invisible in every engine's answer",
    );

    out.push_str(&format!(
        "engines per scenario: the O0 and O2 programs each on the sequential emulator,\n\
         par backend x{{2,4,8}} threads and timed machine (4 PEs, ideal net), then under\n\
         crit scheduling; O1 and O2 against O0; {SEEDS_PER_FAMILY} seeds per family\n\n"
    ));

    let mut t = Table::new(&[
        "family",
        "scenarios",
        "agree",
        "agree-error",
        "fuel",
        "diverge",
    ]);
    let mut divergences: Vec<String> = Vec::new();
    let mut total = 0u64;
    let t0 = Instant::now();
    for family in Family::ALL {
        let (mut agree, mut agree_err, mut fuel, mut diverge) = (0u64, 0u64, 0u64, 0u64);
        for seed in 0..SEEDS_PER_FAMILY {
            total += 1;
            match oracle::check_seed(family, seed).1 {
                oracle::Outcome::Agree => agree += 1,
                oracle::Outcome::AgreeError(_) => agree_err += 1,
                oracle::Outcome::FuelExhausted => fuel += 1,
                oracle::Outcome::Divergence(d) => {
                    diverge += 1;
                    divergences.push(format!("{family} seed {seed}: {d}"));
                }
            }
        }
        t.row_owned(vec![
            family.name().into(),
            SEEDS_PER_FAMILY.to_string(),
            agree.to_string(),
            agree_err.to_string(),
            fuel.to_string(),
            diverge.to_string(),
        ]);
    }
    let secs = t0.elapsed().as_secs_f64();
    out.push_str(&t.to_string());
    if crate::normalized() {
        out.push_str("\nthroughput: (normalized)\n");
    } else {
        out.push_str(&format!(
            "\nthroughput: {:.0} scenarios/s ({total} scenarios in {:.2} s)\n",
            total as f64 / secs,
            secs
        ));
    }
    assert!(
        divergences.is_empty(),
        "differential oracle found divergences:\n{}",
        divergences.join("\n")
    );
    out.push_str(
        "\nShape check: zero entries in the diverge column — asserted, not just\n\
         printed. Each scenario is regenerated from its (family, seed) pair, so any\n\
         future divergence here is reproducible with\n\
         `cargo run -p ttda-bench --bin experiments -- fuzz --families <family> --seed <seed> --iters 1`\n\
         and is delta-debugged to a minimal spec by the same command.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn e19_reports_all_families_and_no_divergence() {
        let out = super::e19();
        for family in ttda_workloads::fuzz::Family::ALL {
            assert!(out.contains(family.name()), "missing row for {family}");
        }
        assert!(out.contains("throughput:"));
    }
}
