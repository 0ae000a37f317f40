//! E18: throughput of the packed I-structure storage engine.

use std::time::Instant;

use ttda_sim::table::Table;

use super::section;
use crate::suites::{drive_enum_istore, drive_packed_istore, istore_stream};

/// Best-of-`reps` wall-clock seconds for one driver over one stream.
fn best_of(reps: usize, mut f: impl FnMut() -> usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// E18: packed presence-bitmap store vs the enum-cell reference, across
/// deferral ratios.
///
/// The paper's §2.1 argues I-structure synchronization is cheap enough
/// to hang on *every* data structure element: "presence bits" plus a
/// deferred-read list per cell. That only holds if the storage module's
/// bookkeeping stays near the cost of a raw memory reference at both
/// extremes — all-immediate reads (presence check is pure overhead) and
/// all-deferred reads (every cell builds and drains a reader list).
/// This experiment drives the same deterministic per-cell op stream —
/// `readers_per_cell` reads and one write per cell, with a swept
/// percentage of the reads arriving before the write — through the
/// enum-cell reference store and through `ttda_mem::PackedIStructure`
/// (2-bit presence codes packed 32 cells to a word, values in a flat
/// arena, deferred readers in one intrusive free-listed node arena).
/// The property suite pins that both stores produce identical outcomes
/// and release orders, so the table below is a pure constant-factor
/// comparison.
pub fn e18() -> String {
    let mut out = section(
        "e18",
        "I-structure storage throughput: packed presence bitmap vs enum cells",
        "\"each storage cell can be in one of three states\" (§2.1): presence-bit \
         synchronization on every element is viable only if the storage module's \
         state tracking costs little more than the memory reference it guards",
    );

    let norm = crate::normalized();
    let (cells, readers) = (4096usize, 8usize);
    let mut t = Table::new(&[
        "defer %",
        "ops",
        "immediate",
        "deferred",
        "enum ops/s",
        "packed ops/s",
        "speedup",
    ]);
    for defer_pct in [0u32, 25, 50, 75, 100] {
        let stream = istore_stream(cells, readers, defer_pct, 0x15_70_7e + u64::from(defer_pct));
        let ops = stream.len();
        let (immediate, released) = drive_enum_istore(cells, &stream);
        // Both drivers must satisfy every read the same way; anything
        // else is a store bug, not a performance difference.
        assert_eq!(
            drive_packed_istore(cells, &stream),
            (immediate, released),
            "stores disagree at defer_pct={defer_pct}"
        );
        assert_eq!(immediate + released, cells * readers);
        let enum_secs = best_of(3, || drive_enum_istore(cells, &stream).1);
        let packed_secs = best_of(3, || drive_packed_istore(cells, &stream).1);
        let (enum_ops, packed_ops, speedup) = if norm {
            (
                "(normalized)".into(),
                "(normalized)".into(),
                "(normalized)".into(),
            )
        } else {
            (
                format!("{:.2e}", ops as f64 / enum_secs),
                format!("{:.2e}", ops as f64 / packed_secs),
                format!("{:.2}x", enum_secs / packed_secs),
            )
        };
        t.row_owned(vec![
            defer_pct.to_string(),
            ops.to_string(),
            immediate.to_string(),
            released.to_string(),
            enum_ops,
            packed_ops,
            speedup,
        ]);
    }
    out.push_str(&t.to_string());
    out.push_str(
        "\nShape check: the immediate/deferred split tracks the deferral ratio exactly\n\
         (asserted), and both stores satisfy every read identically (asserted). The\n\
         packed store's advantage is largest at the all-deferred end: the enum-cell\n\
         reference allocates one `Vec` per deferred cell and frees it on release,\n\
         while the packed store parks readers in a single intrusive node arena and\n\
         recycles nodes through a free list, so steady-state deferral does zero\n\
         allocation. The all-immediate extreme is the reference's best case — its\n\
         single enum array answers a read in one slot touch, while the packed store\n\
         splits state over a presence word and a value arena — so the 0% row is the\n\
         honest price of the layout; the packed store takes the lead as soon as any\n\
         fraction of reads defer, which is the regime I-structures exist for (a\n\
         producer/consumer program defers by design). `experiments quickbench` runs\n\
         the heavy-defer kernel cold and records it in the `istore` section of\n\
         BENCH.json, the baseline later perf work is gated against.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use crate::suites::{drive_enum_istore, drive_packed_istore, istore_stream};

    #[test]
    fn both_stores_agree_on_every_deferral_ratio() {
        for pct in [0u32, 30, 100] {
            let s = istore_stream(64, 4, pct, 9);
            assert_eq!(
                drive_enum_istore(64, &s),
                drive_packed_istore(64, &s),
                "defer_pct={pct}"
            );
        }
    }
}
