//! The `experiments opt` subcommand: a before/after view of the
//! optimizer pipeline on the shared workload set.
//!
//! For every workload in [`crate::suites::opt_workloads`] (or the
//! subset named with `--workloads`) it compiles the program once, runs
//! the pass pipeline at each [`OptLevel`], and prints a table of static
//! instruction count, instruction firings (from a sequential emulator
//! run whose outputs are asserted identical across levels), graph
//! critical-path depth, and the per-pass rewrite counters. The `O0` and
//! `O2` graphs are also rendered to Graphviz under `--out` (default
//! `target/opt`) as `<workload>_o0.dot` / `<workload>_o2.dot`, so a
//! rewrite can be eyeballed instruction by instruction.

use std::path::PathBuf;
use std::process::ExitCode;

use ttda_core::opt::{analysis, optimize_at, OptLevel};
use ttda_core::Emulator;
use ttda_sim::table::Table;

use crate::suites::opt_workloads;

/// Entry point for `experiments opt [--out DIR] [--workloads W,X]`.
pub fn opt_main(args: &[String]) -> ExitCode {
    let mut out_dir = PathBuf::from("target/opt");
    let mut filter: Option<Vec<String>> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => match it.next() {
                Some(d) => out_dir = PathBuf::from(d),
                None => {
                    eprintln!("usage: experiments opt [--out DIR] [--workloads W,X]");
                    return ExitCode::FAILURE;
                }
            },
            "--workloads" => match it.next() {
                Some(list) => filter = Some(list.split(',').map(str::to_string).collect()),
                None => {
                    eprintln!("usage: experiments opt [--out DIR] [--workloads W,X]");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("error: unknown flag `{other}`");
                eprintln!("usage: experiments opt [--out DIR] [--workloads W,X]");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let workloads: Vec<_> = opt_workloads()
        .into_iter()
        .filter(|(name, _, _)| filter.as_ref().is_none_or(|f| f.iter().any(|w| w == name)))
        .collect();
    if workloads.is_empty() {
        eprintln!(
            "error: no workloads matched; known: {}",
            opt_workloads()
                .iter()
                .map(|(n, _, _)| *n)
                .collect::<Vec<_>>()
                .join(", ")
        );
        return ExitCode::FAILURE;
    }
    let mut t = Table::new(&[
        "workload",
        "level",
        "static instrs",
        "firings",
        "crit path",
        "passes applied",
    ]);
    for (name, src, inputs) in &workloads {
        let p = match ttda_idc::compile(src) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: {name} does not compile: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut reference = None;
        for level in OptLevel::ALL {
            let (q, stats) = optimize_at(&p, level);
            let r = match Emulator::new(&q).run(inputs) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: {name} at {level} failed to run: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match &reference {
                None => reference = Some(r.outputs.clone()),
                Some(want) => {
                    if &r.outputs != want {
                        eprintln!("error: {name} at {level} changed the program outputs");
                        return ExitCode::FAILURE;
                    }
                }
            }
            let mut applied = Vec::new();
            for (count, tag) in [
                (stats.identities_collapsed, "fwd"),
                (stats.dead_removed, "dce"),
                (stats.consts_folded, "fold"),
                (stats.switches_resolved, "switch"),
                (stats.algebraic_applied, "alg"),
                (stats.cse_merged, "cse"),
                (stats.loops_unrolled, "unroll"),
                (stats.loops_peeled, "peel"),
                (stats.invariants_promoted, "promote"),
            ] {
                if count > 0 {
                    applied.push(format!("{tag}:{count}"));
                }
            }
            t.row_owned(vec![
                name.to_string(),
                level.to_string(),
                q.instr_count().to_string(),
                r.instructions.to_string(),
                analysis::critical_path(&q).to_string(),
                if applied.is_empty() {
                    "-".into()
                } else {
                    applied.join(" ")
                },
            ]);
            if level != OptLevel::O1 {
                let path = out_dir.join(format!("{name}_{}.dot", level.to_string().to_lowercase()));
                if let Err(e) = std::fs::write(&path, q.to_dot()) {
                    eprintln!("error: cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    print!("{t}");
    println!(
        "\ndot files for O0/O2 written under {} (render with `dot -Tsvg`)",
        out_dir.display()
    );
    ExitCode::SUCCESS
}
