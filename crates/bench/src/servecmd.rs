//! The `experiments serve` subcommand: one sustained open-loop
//! multi-tenant service run, reported as a human-readable table.
//!
//! This is the interactive face of the service scheduler (E20 is the
//! sweep): pick an offered load relative to the calibrated service
//! rate, drain it, and read the per-tenant sojourn percentiles. All
//! printed numbers are virtual-time integers, deterministic per seed:
//! every burst runs on the sequential interpreter.

use std::process::ExitCode;

use ttda_workloads::service::{percentiles, serve, EmulatorRunner, ServiceConfig};

use crate::suites::loaded_service_scenario;

fn parse_flag<T: std::str::FromStr>(name: &str, value: Option<&String>) -> Result<T, String> {
    let v = value.ok_or_else(|| format!("{name} needs a value"))?;
    v.parse().map_err(|_| format!("{name}: cannot parse `{v}`"))
}

/// Runs `experiments serve [--load L] [--requests N] [--seed S]
/// [--quota Q] [--high-water H]`.
///
/// `--load` is the offered load as a multiple of the calibrated service
/// rate (default 1.2: just past the knee), `--requests` the per-tenant
/// stream length.
pub fn serve_main(args: &[String]) -> ExitCode {
    let mut load = 1.2f64;
    let mut requests = 64u64;
    let mut seed = 42u64;
    let mut quota = 8usize;
    let mut high_water = usize::MAX;
    let mut it = args.iter();
    let parsed = (|| -> Result<(), String> {
        while let Some(a) = it.next() {
            match a.as_str() {
                "--load" => load = parse_flag(a, it.next())?,
                "--requests" => requests = parse_flag(a, it.next())?,
                "--seed" => seed = parse_flag(a, it.next())?,
                "--quota" => quota = parse_flag(a, it.next())?,
                "--high-water" => high_water = parse_flag(a, it.next())?,
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        if load.is_nan() || load <= 0.0 {
            return Err("--load must be positive".into());
        }
        if requests == 0 {
            return Err("--requests must be positive".into());
        }
        Ok(())
    })();
    if let Err(e) = parsed {
        eprintln!("error: {e}");
        eprintln!(
            "usage: experiments serve [--load L] [--requests N] [--seed S] [--quota Q] [--high-water H]"
        );
        return ExitCode::FAILURE;
    }

    let (program, tenants, cost) = loaded_service_scenario(load, requests);
    let cfg = ServiceConfig {
        seed,
        burst_quota: quota,
        high_water,
        latency_bins: 128,
        latency_bin_width: cost,
        ..ServiceConfig::default()
    };
    let mut runner = EmulatorRunner::new(&program);
    let s = match serve(&tenants, &cfg, &mut runner) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: service run failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "service: {} tenants, {load:.2}x offered load, seed {seed}, quota {quota}, \
         per-request cost {cost} ticks",
        tenants.len()
    );
    let mut t = ttda_sim::table::Table::new(&[
        "tenant", "weight", "offered", "done", "p50", "p99", "p999", "peak q",
    ]);
    for (spec, tr) in tenants.iter().zip(&s.tenants) {
        let (p50, p99, p999) = percentiles(&tr.latency);
        t.row_owned(vec![
            tr.name.clone(),
            spec.weight.to_string(),
            tr.offered.to_string(),
            tr.completed.to_string(),
            p50.to_string(),
            p99.to_string(),
            p999.to_string(),
            tr.peak_queue.to_string(),
        ]);
    }
    let (p50, p99, p999) = percentiles(&s.latency);
    t.row_owned(vec![
        "all".into(),
        "-".into(),
        s.latency.count().to_string(),
        s.latency.count().to_string(),
        p50.to_string(),
        p99.to_string(),
        p999.to_string(),
        "-".into(),
    ]);
    print!("{t}");
    println!(
        "bursts {} ({} throttled), instructions {}, makespan {} ticks, peak matching window {}",
        s.bursts, s.throttled, s.instructions, s.makespan, s.peak_matching
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse_and_reject() {
        assert!(parse_flag::<u64>("--seed", Some(&"7".into())).is_ok());
        assert!(parse_flag::<u64>("--seed", Some(&"x".into())).is_err());
        assert!(parse_flag::<u64>("--seed", None).is_err());
    }

    #[test]
    fn serve_smoke_run_succeeds() {
        let args: Vec<String> = ["--load", "1.5", "--requests", "6", "--seed", "3"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(serve_main(&args), ExitCode::SUCCESS);
        let bad: Vec<String> = vec!["--load".into(), "nope".into()];
        assert_eq!(serve_main(&bad), ExitCode::FAILURE);
    }
}
