//! Differential fuzzing: adversarial scenario generators, a cross-engine
//! oracle, and the pinned regression corpus format.
//!
//! The fuzzer closes the loop the paper's argument depends on: split-phase
//! token machines must produce identical answers under *any* interleaving.
//! [`gen`] manufactures adversarial workloads (hot-key skew, deferral
//! cascades, tag-space pressure, fan-out storms, multiprogram tenants)
//! from a `(family, seed)` pair; [`oracle`] runs each one across the
//! sequential emulator, the relaxed parallel backend at several widths, the
//! timed machine and the optimizing compiler, and judges agreement;
//! [`xexpr`] is the shared shrinkable expression AST.
//!
//! Diverging inputs are delta-debugged to a local minimum
//! ([`oracle::minimize_scenario`]) and pinned as `family seed` lines in
//! `tests/fuzz_regressions.txt`, which [`parse_corpus`] reads and the
//! `tests/fuzz_corpus.rs` harness replays on every `cargo test`.
//!
//! Driven interactively via `ttda-bench fuzz --seed S --iters N`.

pub mod gen;
pub mod oracle;
pub mod xexpr;

pub use gen::{Family, Scenario, Spec};
pub use oracle::{run_scenario, Outcome};

/// Parses a pinned-seed corpus file: one `family seed` pair per line
/// (seed decimal or `0x…` hex), `#` starts a comment, blank lines
/// ignored — the same shape as `hypercube_regressions.txt`.
///
/// # Errors
///
/// Returns `Err((line_number, message))` for an unknown family or a
/// malformed seed, so the replay harness can point at the bad line.
pub fn parse_corpus(text: &str) -> Result<Vec<(Family, u64)>, (usize, String)> {
    let mut out = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let lineno = idx + 1;
        let mut parts = line.split_whitespace();
        let fam = parts.next().expect("non-empty line has a first token");
        let family =
            Family::parse(fam).ok_or_else(|| (lineno, format!("unknown family {fam:?}")))?;
        let seed_str = parts
            .next()
            .ok_or_else(|| (lineno, "missing seed".to_string()))?;
        let seed = if let Some(hex) = seed_str.strip_prefix("0x") {
            u64::from_str_radix(hex, 16)
        } else {
            seed_str.parse()
        }
        .map_err(|e| (lineno, format!("bad seed {seed_str:?}: {e}")))?;
        if let Some(extra) = parts.next() {
            return Err((lineno, format!("unexpected trailing token {extra:?}")));
        }
        out.push((family, seed));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_parser_accepts_comments_and_both_radices() {
        let text = "\
# pinned divergences
expr 12        # inline comment
hot-skew 0xff

store-skew 3
";
        let corpus = parse_corpus(text).expect("parses");
        assert_eq!(
            corpus,
            vec![
                (Family::Expr, 12),
                (Family::HotSkew, 255),
                (Family::StoreSkew, 3),
            ]
        );
    }

    #[test]
    fn corpus_parser_reports_the_offending_line() {
        assert_eq!(
            parse_corpus("expr 1\nbogus 2\n").unwrap_err().0,
            2,
            "unknown family is on line 2"
        );
        assert_eq!(parse_corpus("expr 0xzz\n").unwrap_err().0, 1);
        assert_eq!(parse_corpus("expr\n").unwrap_err().0, 1);
        assert_eq!(parse_corpus("expr 1 2\n").unwrap_err().0, 1);
    }
}
