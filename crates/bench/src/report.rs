//! Machine-readable benchmark reports (`BENCH_matching.json`,
//! `BENCH_istore.json`, `BENCH_service.json`, `BENCH_par.json`,
//! `BENCH_opt.json`, `BENCH_sched.json`).
//!
//! The container has no serde, so this module hand-writes and
//! hand-parses the six JSON shapes the repo tracks: per-target median
//! ns/op from the quickbench suites plus a headline throughput
//! comparison — tokens/sec through the waiting–matching store for the
//! matching report, ops/sec through the I-structure store for the
//! istore report, requests/sec through the service scheduler for the
//! service report, firings/sec through the emulator backends for the
//! par report, the `O2`-over-`O0` instruction-firing ratio for the
//! opt report, and the crit-over-FIFO timed-makespan ratio for the
//! sched report. The checked-in files at the repository root are the
//! baselines every later perf PR is judged against; [`check_regression`]
//! / [`check_istore_regression`] / [`check_service_regression`] /
//! [`check_par_regression`] / [`check_opt_regression`] /
//! [`check_sched_regression`] are the gates CI's bench-smoke job runs.
//!
//! Every headline gate is a *same-run ratio*: the packed/batched/
//! decoordinated side divided by the reference driver measured in the
//! same process moments earlier (hashmap matcher, enum store, serial
//! scheduler, sequential interpreter). Absolute tokens/sec drift with
//! the host — a throttled CI runner once failed gates across the board
//! with no code change — but both sides of a ratio drift together, so
//! the quotient survives. Baselines still record the absolute rates for
//! human eyes; the gate recomputes the ratio from them.

use crate::quickbench::BenchStat;
use crate::suites::{
    IStoreThroughput, MatchingThroughput, OptThroughput, ParThroughput, SchedThroughput,
    ServiceThroughput,
};

/// Identifies the matching-report shape; bumped if fields change meaning.
pub const SCHEMA: &str = "ttda-bench/matching/v1";

/// Identifies the istore-report shape.
pub const ISTORE_SCHEMA: &str = "ttda-bench/istore/v1";

/// Identifies the service-report shape.
pub const SERVICE_SCHEMA: &str = "ttda-bench/service/v1";

/// Identifies the par-report shape.
pub const PAR_SCHEMA: &str = "ttda-bench/par/v2";

/// Identifies the opt-report shape.
pub const OPT_SCHEMA: &str = "ttda-bench/opt/v1";

/// Identifies the sched-report shape.
pub const SCHED_SCHEMA: &str = "ttda-bench/sched/v1";

/// Everything one `experiments quickbench` run measures for the
/// matching/endtoend suites.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Per-target timing summaries, in run order.
    pub targets: Vec<BenchStat>,
    /// The matching-saturating store comparison.
    pub throughput: MatchingThroughput,
}

/// Everything one `experiments quickbench` run measures for the istore
/// suite.
#[derive(Debug, Clone, PartialEq)]
pub struct IStoreReport {
    /// Per-target timing summaries, in run order.
    pub targets: Vec<BenchStat>,
    /// The heavy-defer enum-vs-packed store comparison.
    pub throughput: IStoreThroughput,
}

/// Everything one `experiments quickbench` run measures for the service
/// suite.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    /// Per-target timing summaries, in run order.
    pub targets: Vec<BenchStat>,
    /// The serial-vs-batched scheduler comparison.
    pub throughput: ServiceThroughput,
}

/// Everything one `experiments quickbench` run measures for the par
/// suite.
#[derive(Debug, Clone, PartialEq)]
pub struct ParReport {
    /// Per-target timing summaries, in run order.
    pub targets: Vec<BenchStat>,
    /// The sequential-vs-parallel-backend comparison.
    pub throughput: ParThroughput,
}

/// Everything one `experiments quickbench` run measures for the opt
/// suite.
#[derive(Debug, Clone, PartialEq)]
pub struct OptReport {
    /// Per-target timing summaries, in run order.
    pub targets: Vec<BenchStat>,
    /// The O0-vs-O2 firing-count comparison (deterministic).
    pub throughput: OptThroughput,
}

/// Everything one `experiments quickbench` run measures for the sched
/// suite.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedReport {
    /// Per-target timing summaries, in run order.
    pub targets: Vec<BenchStat>,
    /// The FIFO-vs-criticality makespan comparison (deterministic).
    pub throughput: SchedThroughput,
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn render_targets(out: &mut String, targets: &[BenchStat]) {
    out.push_str("  \"targets\": [\n");
    for (k, t) in targets.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"target\": \"{}\", \"median_ns\": {:.1}, \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"samples\": {}}}{}\n",
            json_escape(&t.label),
            t.median_ns,
            t.mean_ns,
            t.min_ns,
            t.samples,
            if k + 1 < targets.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
}

fn parse_targets(json: &str) -> Result<Vec<(String, f64)>, String> {
    let mut targets = Vec::new();
    let mut rest = json;
    while let Some(pos) = rest.find("\"target\": \"") {
        rest = &rest[pos + "\"target\": \"".len()..];
        let name_end = rest.find('"').ok_or("unterminated target name")?;
        let name = rest[..name_end].to_string();
        let med_pos = rest
            .find("\"median_ns\": ")
            .ok_or_else(|| format!("target {name}: no median_ns"))?;
        let med = number_at(&rest[med_pos + "\"median_ns\": ".len()..])
            .ok_or_else(|| format!("target {name}: unparsable median_ns"))?;
        if !(med.is_finite() && med >= 0.0) {
            return Err(format!("target {name}: median_ns {med} out of range"));
        }
        targets.push((name, med));
    }
    if targets.is_empty() {
        return Err("no benchmark targets in report".into());
    }
    Ok(targets)
}

impl BenchReport {
    /// Renders the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        render_targets(&mut out, &self.targets);
        let th = &self.throughput;
        out.push_str("  \"matching_throughput\": {\n");
        out.push_str(&format!("    \"tokens\": {},\n", th.tokens));
        out.push_str(&format!("    \"window\": {},\n", th.window));
        out.push_str(&format!(
            "    \"hashmap_tokens_per_sec\": {:.0},\n",
            th.hashmap_tokens_per_sec
        ));
        out.push_str(&format!(
            "    \"packed_tokens_per_sec\": {:.0},\n",
            th.packed_tokens_per_sec
        ));
        out.push_str(&format!("    \"speedup\": {:.2}\n", th.speedup()));
        out.push_str("  }\n}\n");
        out
    }

    /// Parses a report previously written by [`BenchReport::to_json`].
    ///
    /// This is a shape-checking reader for our own emitter's subset of
    /// JSON, not a general parser: it verifies the schema tag, extracts
    /// every `target`/`median_ns` pair, and reads the throughput block.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformation found.
    pub fn parse(json: &str) -> Result<ParsedReport, String> {
        if !json.contains(&format!("\"schema\": \"{SCHEMA}\"")) {
            return Err(format!("missing or wrong schema tag (want {SCHEMA})"));
        }
        let targets = parse_targets(json)?;
        let hashmap_tps = field(json, "\"hashmap_tokens_per_sec\": ")?;
        let packed_tps = field(json, "\"packed_tokens_per_sec\": ")?;
        if hashmap_tps <= 0.0 || packed_tps <= 0.0 {
            return Err("non-positive tokens/sec in matching_throughput".into());
        }
        Ok(ParsedReport {
            targets,
            hashmap_tokens_per_sec: hashmap_tps,
            packed_tokens_per_sec: packed_tps,
        })
    }
}

impl IStoreReport {
    /// Renders the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{ISTORE_SCHEMA}\",\n"));
        render_targets(&mut out, &self.targets);
        let th = &self.throughput;
        out.push_str("  \"istore_throughput\": {\n");
        out.push_str(&format!("    \"ops\": {},\n", th.ops));
        out.push_str(&format!(
            "    \"readers_per_cell\": {},\n",
            th.readers_per_cell
        ));
        out.push_str(&format!(
            "    \"enum_ops_per_sec\": {:.0},\n",
            th.enum_ops_per_sec
        ));
        out.push_str(&format!(
            "    \"packed_ops_per_sec\": {:.0},\n",
            th.packed_ops_per_sec
        ));
        out.push_str(&format!("    \"speedup\": {:.2}\n", th.speedup()));
        out.push_str("  }\n}\n");
        out
    }

    /// Parses a report previously written by [`IStoreReport::to_json`];
    /// same shape-checking reader as [`BenchReport::parse`].
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformation found.
    pub fn parse(json: &str) -> Result<ParsedIStoreReport, String> {
        if !json.contains(&format!("\"schema\": \"{ISTORE_SCHEMA}\"")) {
            return Err(format!(
                "missing or wrong schema tag (want {ISTORE_SCHEMA})"
            ));
        }
        let targets = parse_targets(json)?;
        let enum_ops = field(json, "\"enum_ops_per_sec\": ")?;
        let packed_ops = field(json, "\"packed_ops_per_sec\": ")?;
        if enum_ops <= 0.0 || packed_ops <= 0.0 {
            return Err("non-positive ops/sec in istore_throughput".into());
        }
        Ok(ParsedIStoreReport {
            targets,
            enum_ops_per_sec: enum_ops,
            packed_ops_per_sec: packed_ops,
        })
    }
}

impl ServiceReport {
    /// Renders the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{SERVICE_SCHEMA}\",\n"));
        render_targets(&mut out, &self.targets);
        let th = &self.throughput;
        out.push_str("  \"service_throughput\": {\n");
        out.push_str(&format!("    \"requests\": {},\n", th.requests));
        out.push_str(&format!("    \"tenants\": {},\n", th.tenants));
        out.push_str(&format!(
            "    \"serial_requests_per_sec\": {:.0},\n",
            th.serial_requests_per_sec
        ));
        out.push_str(&format!(
            "    \"batched_requests_per_sec\": {:.0},\n",
            th.batched_requests_per_sec
        ));
        out.push_str(&format!("    \"speedup\": {:.2}\n", th.speedup()));
        out.push_str("  }\n}\n");
        out
    }

    /// Parses a report previously written by [`ServiceReport::to_json`];
    /// same shape-checking reader as [`BenchReport::parse`].
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformation found.
    pub fn parse(json: &str) -> Result<ParsedServiceReport, String> {
        if !json.contains(&format!("\"schema\": \"{SERVICE_SCHEMA}\"")) {
            return Err(format!(
                "missing or wrong schema tag (want {SERVICE_SCHEMA})"
            ));
        }
        let targets = parse_targets(json)?;
        let serial_rps = field(json, "\"serial_requests_per_sec\": ")?;
        let batched_rps = field(json, "\"batched_requests_per_sec\": ")?;
        if serial_rps <= 0.0 || batched_rps <= 0.0 {
            return Err("non-positive requests/sec in service_throughput".into());
        }
        Ok(ParsedServiceReport {
            targets,
            serial_requests_per_sec: serial_rps,
            batched_requests_per_sec: batched_rps,
        })
    }
}

impl ParReport {
    /// Renders the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{PAR_SCHEMA}\",\n"));
        render_targets(&mut out, &self.targets);
        let th = &self.throughput;
        out.push_str("  \"par_throughput\": {\n");
        out.push_str(&format!(
            "    \"workload\": \"{}\",\n",
            json_escape(&th.workload)
        ));
        out.push_str(&format!("    \"firings\": {},\n", th.firings));
        out.push_str(&format!(
            "    \"seq_firings_per_sec\": {:.0},\n",
            th.seq_firings_per_sec
        ));
        out.push_str(&format!(
            "    \"relaxed1_firings_per_sec\": {:.0},\n",
            th.relaxed1_firings_per_sec
        ));
        out.push_str(&format!(
            "    \"relaxed2_firings_per_sec\": {:.0},\n",
            th.relaxed2_firings_per_sec
        ));
        out.push_str(&format!(
            "    \"relaxed4_firings_per_sec\": {:.0},\n",
            th.relaxed4_firings_per_sec
        ));
        out.push_str(&format!(
            "    \"relaxed_ratio_1w\": {:.3}\n",
            th.relaxed_ratio_1w()
        ));
        out.push_str("  }\n}\n");
        out
    }

    /// Parses a report previously written by [`ParReport::to_json`];
    /// same shape-checking reader as [`BenchReport::parse`].
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformation found.
    pub fn parse(json: &str) -> Result<ParsedParReport, String> {
        if !json.contains(&format!("\"schema\": \"{PAR_SCHEMA}\"")) {
            return Err(format!("missing or wrong schema tag (want {PAR_SCHEMA})"));
        }
        let targets = parse_targets(json)?;
        let seq = field(json, "\"seq_firings_per_sec\": ")?;
        let relaxed1 = field(json, "\"relaxed1_firings_per_sec\": ")?;
        if seq <= 0.0 || relaxed1 <= 0.0 {
            return Err("non-positive firings/sec in par_throughput".into());
        }
        Ok(ParsedParReport {
            targets,
            seq_firings_per_sec: seq,
            relaxed1_firings_per_sec: relaxed1,
        })
    }
}

impl OptReport {
    /// Renders the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{OPT_SCHEMA}\",\n"));
        render_targets(&mut out, &self.targets);
        let th = &self.throughput;
        out.push_str("  \"opt_throughput\": {\n");
        out.push_str(&format!(
            "    \"workloads\": [{}],\n",
            th.workloads
                .iter()
                .map(|w| format!("\"{}\"", json_escape(w)))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str(&format!("    \"instrs_o0\": {},\n", th.instrs_o0));
        out.push_str(&format!("    \"instrs_o2\": {},\n", th.instrs_o2));
        out.push_str(&format!("    \"firings_o0\": {},\n", th.firings_o0));
        out.push_str(&format!("    \"firings_o2\": {},\n", th.firings_o2));
        out.push_str(&format!(
            "    \"firing_ratio\": {:.4},\n",
            th.firing_ratio()
        ));
        out.push_str(&format!("    \"static_ratio\": {:.4}\n", th.static_ratio()));
        out.push_str("  }\n}\n");
        out
    }

    /// Parses a report previously written by [`OptReport::to_json`];
    /// same shape-checking reader as [`BenchReport::parse`].
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformation found.
    pub fn parse(json: &str) -> Result<ParsedOptReport, String> {
        if !json.contains(&format!("\"schema\": \"{OPT_SCHEMA}\"")) {
            return Err(format!("missing or wrong schema tag (want {OPT_SCHEMA})"));
        }
        let targets = parse_targets(json)?;
        let firings_o0 = field(json, "\"firings_o0\": ")?;
        let firings_o2 = field(json, "\"firings_o2\": ")?;
        if firings_o0 <= 0.0 || firings_o2 <= 0.0 {
            return Err("non-positive firing counts in opt_throughput".into());
        }
        Ok(ParsedOptReport {
            targets,
            firings_o0,
            firings_o2,
        })
    }
}

impl SchedReport {
    /// Renders the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{SCHED_SCHEMA}\",\n"));
        render_targets(&mut out, &self.targets);
        let th = &self.throughput;
        out.push_str("  \"sched_throughput\": {\n");
        out.push_str(&format!(
            "    \"workloads\": [{}],\n",
            th.workloads
                .iter()
                .map(|w| format!("\"{}\"", json_escape(w)))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str(&format!("    \"fifo_cycles\": {},\n", th.fifo_cycles));
        out.push_str(&format!("    \"crit_cycles\": {},\n", th.crit_cycles));
        out.push_str(&format!(
            "    \"makespan_ratio\": {:.4}\n",
            th.makespan_ratio()
        ));
        out.push_str("  }\n}\n");
        out
    }

    /// Parses a report previously written by [`SchedReport::to_json`];
    /// same shape-checking reader as [`BenchReport::parse`].
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformation found.
    pub fn parse(json: &str) -> Result<ParsedSchedReport, String> {
        if !json.contains(&format!("\"schema\": \"{SCHED_SCHEMA}\"")) {
            return Err(format!("missing or wrong schema tag (want {SCHED_SCHEMA})"));
        }
        let targets = parse_targets(json)?;
        let fifo_cycles = field(json, "\"fifo_cycles\": ")?;
        let crit_cycles = field(json, "\"crit_cycles\": ")?;
        if fifo_cycles <= 0.0 || crit_cycles <= 0.0 {
            return Err("non-positive cycle counts in sched_throughput".into());
        }
        Ok(ParsedSchedReport {
            targets,
            fifo_cycles,
            crit_cycles,
        })
    }
}

fn field(json: &str, key: &str) -> Result<f64, String> {
    let pos = json.find(key).ok_or_else(|| format!("missing {key}"))?;
    number_at(&json[pos + key.len()..]).ok_or_else(|| format!("unparsable value for {key}"))
}

fn number_at(s: &str) -> Option<f64> {
    let end = s
        .char_indices()
        .find(|&(_, c)| {
            !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E')
        })
        .map_or(s.len(), |(k, _)| k);
    s[..end].parse().ok()
}

/// The comparison-relevant subset of a parsed matching report.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedReport {
    /// `(target label, median ns/op)` pairs.
    pub targets: Vec<(String, f64)>,
    /// Reference matcher throughput.
    pub hashmap_tokens_per_sec: f64,
    /// Packed store throughput.
    pub packed_tokens_per_sec: f64,
}

/// The comparison-relevant subset of a parsed istore report.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedIStoreReport {
    /// `(target label, median ns/op)` pairs.
    pub targets: Vec<(String, f64)>,
    /// Enum-cell reference store throughput.
    pub enum_ops_per_sec: f64,
    /// Packed store throughput.
    pub packed_ops_per_sec: f64,
}

/// The comparison-relevant subset of a parsed service report.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedServiceReport {
    /// `(target label, median ns/op)` pairs.
    pub targets: Vec<(String, f64)>,
    /// One-request-per-burst scheduler throughput.
    pub serial_requests_per_sec: f64,
    /// Quota-batched scheduler throughput (the gated headline).
    pub batched_requests_per_sec: f64,
}

/// The comparison-relevant subset of a parsed par report.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedParReport {
    /// `(target label, median ns/op)` pairs.
    pub targets: Vec<(String, f64)>,
    /// Sequential interpreter throughput.
    pub seq_firings_per_sec: f64,
    /// Relaxed backend at one worker.
    pub relaxed1_firings_per_sec: f64,
}

/// The comparison-relevant subset of a parsed opt report.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedOptReport {
    /// `(target label, median ns/op)` pairs.
    pub targets: Vec<(String, f64)>,
    /// Total firings across the workload set at `O0`.
    pub firings_o0: f64,
    /// Total firings across the workload set at `O2`.
    pub firings_o2: f64,
}

impl ParsedOptReport {
    /// The gated headline: `O2` firings over `O0` firings (lower is
    /// better).
    pub fn firing_ratio(&self) -> f64 {
        self.firings_o2 / self.firings_o0
    }
}

/// The comparison-relevant subset of a parsed sched report.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedSchedReport {
    /// `(target label, median ns/op)` pairs.
    pub targets: Vec<(String, f64)>,
    /// Total timed-machine cycles across the workload set under FIFO.
    pub fifo_cycles: f64,
    /// Total timed-machine cycles across the workload set under `Crit`.
    pub crit_cycles: f64,
}

impl ParsedSchedReport {
    /// The gated headline: `Crit` cycles over FIFO cycles (lower is
    /// better).
    pub fn makespan_ratio(&self) -> f64 {
        self.crit_cycles / self.fifo_cycles
    }
}

impl ParsedParReport {
    /// The gated headline: relaxed one-worker overhead ratio (lower is
    /// better).
    pub fn relaxed_ratio_1w(&self) -> f64 {
        self.seq_firings_per_sec / self.relaxed1_firings_per_sec
    }
}

/// Shared gate body: per-target median growth beyond `tolerance` fails,
/// as does the headline ratio moving the *wrong way* by more than the
/// same factor. The headline is always a same-run quotient (specialized
/// side over reference driver), so host drift between the baseline
/// machine state and today's cancels out of the comparison. Returns the
/// comparison lines on success.
fn gate(
    cur_targets: &[(String, f64)],
    base_targets: &[(String, f64)],
    cur_headline: f64,
    base_headline: f64,
    headline_label: &str,
    higher_is_better: bool,
    tolerance: f64,
) -> Result<Vec<String>, String> {
    let mut lines = Vec::new();
    let mut failures = Vec::new();
    for (label, base_med) in base_targets {
        let Some(cur_med) = cur_targets
            .iter()
            .find(|(l, _)| l == label)
            .map(|&(_, m)| m)
        else {
            lines.push(format!("{label}: gone from current run (skipped)"));
            continue;
        };
        let ratio = cur_med / base_med;
        lines.push(format!(
            "{label}: {base_med:.0} -> {cur_med:.0} ns/op ({ratio:.2}x)"
        ));
        if ratio > 1.0 + tolerance {
            failures.push(format!(
                "{label} regressed: {base_med:.0} -> {cur_med:.0} ns/op ({ratio:.2}x > {:.2}x allowed)",
                1.0 + tolerance
            ));
        }
    }
    let ratio = cur_headline / base_headline;
    lines.push(format!(
        "{headline_label}: {base_headline:.2} -> {cur_headline:.2} ({ratio:.2}x)"
    ));
    let regressed = if higher_is_better {
        ratio < 1.0 / (1.0 + tolerance)
    } else {
        ratio > 1.0 + tolerance
    };
    if regressed {
        failures.push(format!(
            "{headline_label} regressed: {base_headline:.2} -> {cur_headline:.2}"
        ));
    }
    if failures.is_empty() {
        Ok(lines)
    } else {
        Err(failures.join("\n"))
    }
}

/// Compares `current` against `baseline`: any target present in both
/// whose median ns/op grew by more than `tolerance` (0.25 = 25%) is a
/// regression, as is the packed store's speedup over the *same-run*
/// hashmap reference falling by more than the same factor. Returns the
/// per-target comparison lines on success.
///
/// # Errors
///
/// A description of every regression found.
pub fn check_regression(
    current: &ParsedReport,
    baseline: &ParsedReport,
    tolerance: f64,
) -> Result<Vec<String>, String> {
    gate(
        &current.targets,
        &baseline.targets,
        current.packed_tokens_per_sec / current.hashmap_tokens_per_sec,
        baseline.packed_tokens_per_sec / baseline.hashmap_tokens_per_sec,
        "packed_tokens_per_sec vs same-run hashmap (speedup)",
        true,
        tolerance,
    )
}

/// The istore twin of [`check_regression`]: gates the istore suite's
/// medians and the packed store's heavy-defer speedup over the same-run
/// enum reference against `BENCH_istore.json`.
///
/// # Errors
///
/// A description of every regression found.
pub fn check_istore_regression(
    current: &ParsedIStoreReport,
    baseline: &ParsedIStoreReport,
    tolerance: f64,
) -> Result<Vec<String>, String> {
    gate(
        &current.targets,
        &baseline.targets,
        current.packed_ops_per_sec / current.enum_ops_per_sec,
        baseline.packed_ops_per_sec / baseline.enum_ops_per_sec,
        "packed_ops_per_sec vs same-run enum (speedup)",
        true,
        tolerance,
    )
}

/// The service twin of [`check_regression`]: gates the service suite's
/// medians and the batched scheduler's speedup over the same-run serial
/// configuration against `BENCH_service.json`.
///
/// # Errors
///
/// A description of every regression found.
pub fn check_service_regression(
    current: &ParsedServiceReport,
    baseline: &ParsedServiceReport,
    tolerance: f64,
) -> Result<Vec<String>, String> {
    gate(
        &current.targets,
        &baseline.targets,
        current.batched_requests_per_sec / current.serial_requests_per_sec,
        baseline.batched_requests_per_sec / baseline.serial_requests_per_sec,
        "batched_requests_per_sec vs same-run serial (speedup)",
        true,
        tolerance,
    )
}

/// The par twin of [`check_regression`]: gates the par suite's medians
/// and the relaxed backend's one-worker overhead ratio (wall clock over
/// the same-run sequential interpreter — *lower* is better)
/// against `BENCH_par.json`.
///
/// # Errors
///
/// A description of every regression found.
pub fn check_par_regression(
    current: &ParsedParReport,
    baseline: &ParsedParReport,
    tolerance: f64,
) -> Result<Vec<String>, String> {
    gate(
        &current.targets,
        &baseline.targets,
        current.relaxed_ratio_1w(),
        baseline.relaxed_ratio_1w(),
        "relaxed_ratio_1w (relaxed 1-worker over same-run sequential)",
        false,
        tolerance,
    )
}

/// The opt twin of [`check_regression`]: gates the opt suite's medians
/// and the workload set's firing ratio (`O2` firings over `O0` firings —
/// *lower* is better) against `BENCH_opt.json`. Both sides of the
/// headline are deterministic instruction counts, so unlike the timing
/// gates the only way this ratio moves is a real change to the
/// optimizer or the compiler's output; the shared tolerance merely
/// allows intentional workload-set tweaks inside one PR.
///
/// # Errors
///
/// A description of every regression found.
pub fn check_opt_regression(
    current: &ParsedOptReport,
    baseline: &ParsedOptReport,
    tolerance: f64,
) -> Result<Vec<String>, String> {
    gate(
        &current.targets,
        &baseline.targets,
        current.firing_ratio(),
        baseline.firing_ratio(),
        "firing_ratio (O2 firings over O0 firings)",
        false,
        tolerance,
    )
}

/// The sched twin of [`check_regression`]: gates the sched suite's
/// medians and the workload set's makespan ratio (`Crit` cycles over
/// FIFO cycles — *lower* is better) against `BENCH_sched.json`. Like
/// the opt gate, both sides of the headline are deterministic
/// discrete-event cycle counts, so the only way this ratio moves is a
/// real change to the scheduler, the criticality analysis, or the
/// compiler's output; the shared tolerance merely allows intentional
/// workload-set tweaks inside one PR.
///
/// # Errors
///
/// A description of every regression found.
pub fn check_sched_regression(
    current: &ParsedSchedReport,
    baseline: &ParsedSchedReport,
    tolerance: f64,
) -> Result<Vec<String>, String> {
    gate(
        &current.targets,
        &baseline.targets,
        current.makespan_ratio(),
        baseline.makespan_ratio(),
        "makespan_ratio (crit cycles over fifo cycles)",
        false,
        tolerance,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> BenchReport {
        BenchReport {
            targets: vec![
                BenchStat {
                    label: "matching/packed_stream_20k_w512".into(),
                    mean_ns: 1000.0,
                    median_ns: 990.0,
                    min_ns: 900.0,
                    samples: 50,
                },
                BenchStat {
                    label: "e13_emulate_fib_14".into(),
                    mean_ns: 5e6,
                    median_ns: 4.9e6,
                    min_ns: 4.5e6,
                    samples: 40,
                },
            ],
            throughput: MatchingThroughput {
                tokens: 40_000,
                window: 512,
                hashmap_tokens_per_sec: 1.0e7,
                packed_tokens_per_sec: 2.6e7,
            },
        }
    }

    fn istore_report() -> IStoreReport {
        IStoreReport {
            targets: vec![BenchStat {
                label: "istore/packed_heavy_defer".into(),
                mean_ns: 800.0,
                median_ns: 790.0,
                min_ns: 700.0,
                samples: 50,
            }],
            throughput: IStoreThroughput {
                ops: 9216,
                readers_per_cell: 8,
                enum_ops_per_sec: 1.0e7,
                packed_ops_per_sec: 1.8e7,
            },
        }
    }

    fn service_report() -> ServiceReport {
        ServiceReport {
            targets: vec![BenchStat {
                label: "service/serve_2tenant_32req_q8".into(),
                mean_ns: 2.1e6,
                median_ns: 2.0e6,
                min_ns: 1.8e6,
                samples: 30,
            }],
            throughput: ServiceThroughput {
                requests: 64,
                tenants: 2,
                serial_requests_per_sec: 4.0e3,
                batched_requests_per_sec: 9.0e3,
            },
        }
    }

    fn par_report() -> ParReport {
        ParReport {
            targets: vec![BenchStat {
                label: "par/relaxed1_matmul_n5".into(),
                mean_ns: 6.0e6,
                median_ns: 5.9e6,
                min_ns: 5.5e6,
                samples: 20,
            }],
            throughput: ParThroughput {
                workload: "matmul_n5".into(),
                firings: 120_000,
                seq_firings_per_sec: 5.0e5,
                relaxed1_firings_per_sec: 2.0e5,
                relaxed2_firings_per_sec: 3.0e5,
                relaxed4_firings_per_sec: 3.5e5,
            },
        }
    }

    fn opt_report() -> OptReport {
        OptReport {
            targets: vec![BenchStat {
                label: "opt/pipeline_o2_matmul_n4".into(),
                mean_ns: 3.0e5,
                median_ns: 2.9e5,
                min_ns: 2.5e5,
                samples: 40,
            }],
            throughput: OptThroughput {
                workloads: vec!["trapezoid_n64".into(), "unroll8".into()],
                instrs_o0: 500,
                instrs_o2: 300,
                firings_o0: 100_000,
                firings_o2: 70_000,
            },
        }
    }

    fn sched_report() -> SchedReport {
        SchedReport {
            targets: vec![BenchStat {
                label: "sched/timed_crit_trapezoid_n64_2pe".into(),
                mean_ns: 2.0e6,
                median_ns: 1.9e6,
                min_ns: 1.7e6,
                samples: 30,
            }],
            throughput: SchedThroughput {
                workloads: vec!["trapezoid_n64".into(), "fib_13".into()],
                fifo_cycles: 20_000,
                crit_cycles: 18_000,
            },
        }
    }

    #[test]
    fn sched_roundtrip() {
        let json = sched_report().to_json();
        let parsed = SchedReport::parse(&json).expect("well-formed");
        assert_eq!(parsed.targets.len(), 1);
        assert_eq!(parsed.targets[0].0, "sched/timed_crit_trapezoid_n64_2pe");
        assert_eq!(parsed.fifo_cycles, 20_000.0);
        assert_eq!(parsed.crit_cycles, 18_000.0);
        assert!((parsed.makespan_ratio() - 0.9).abs() < 1e-9);
        // No schema cross-parses into the sched reader or out of it.
        assert!(BenchReport::parse(&json).is_err());
        assert!(IStoreReport::parse(&json).is_err());
        assert!(ServiceReport::parse(&json).is_err());
        assert!(ParReport::parse(&json).is_err());
        assert!(OptReport::parse(&json).is_err());
        assert!(SchedReport::parse(&report().to_json()).is_err());
        assert!(SchedReport::parse(&opt_report().to_json()).is_err());
        assert!(SchedReport::parse("{}").is_err());
    }

    #[test]
    fn sched_gate_trips_when_the_ratio_drifts_up() {
        let base = SchedReport::parse(&sched_report().to_json()).unwrap();
        // The scheduler getting better (lower ratio) never fails.
        let mut better = base.clone();
        better.crit_cycles = 15_000.0;
        assert!(check_sched_regression(&better, &base, 0.25).is_ok());
        // The ratio drifting back toward 1.0 past tolerance trips it.
        let mut worse = base.clone();
        worse.crit_cycles = 24_000.0;
        let err = check_sched_regression(&worse, &base, 0.25).unwrap_err();
        assert!(err.contains("makespan_ratio"), "{err}");
    }

    #[test]
    fn opt_roundtrip() {
        let json = opt_report().to_json();
        let parsed = OptReport::parse(&json).expect("well-formed");
        assert_eq!(parsed.targets.len(), 1);
        assert_eq!(parsed.targets[0].0, "opt/pipeline_o2_matmul_n4");
        assert_eq!(parsed.firings_o0, 100_000.0);
        assert_eq!(parsed.firings_o2, 70_000.0);
        assert!((parsed.firing_ratio() - 0.7).abs() < 1e-9);
        // No schema cross-parses into the opt reader or out of it.
        assert!(BenchReport::parse(&json).is_err());
        assert!(IStoreReport::parse(&json).is_err());
        assert!(ServiceReport::parse(&json).is_err());
        assert!(ParReport::parse(&json).is_err());
        assert!(OptReport::parse(&report().to_json()).is_err());
        assert!(OptReport::parse(&par_report().to_json()).is_err());
        assert!(OptReport::parse("{}").is_err());
    }

    #[test]
    fn opt_gate_trips_when_the_ratio_drifts_up() {
        let base = OptReport::parse(&opt_report().to_json()).unwrap();
        // The optimizer getting better (lower ratio) never fails.
        let mut better = base.clone();
        better.firings_o2 = 50_000.0;
        assert!(check_opt_regression(&better, &base, 0.25).is_ok());
        // The ratio drifting back toward 1.0 past tolerance trips it.
        let mut worse = base.clone();
        worse.firings_o2 = 95_000.0;
        let err = check_opt_regression(&worse, &base, 0.25).unwrap_err();
        assert!(err.contains("firing_ratio"), "{err}");
    }

    #[test]
    fn par_roundtrip() {
        let json = par_report().to_json();
        let parsed = ParReport::parse(&json).expect("well-formed");
        assert_eq!(parsed.targets.len(), 1);
        assert_eq!(parsed.targets[0].0, "par/relaxed1_matmul_n5");
        assert_eq!(parsed.seq_firings_per_sec, 5.0e5);
        assert_eq!(parsed.relaxed1_firings_per_sec, 2.0e5);
        assert!((parsed.relaxed_ratio_1w() - 2.5).abs() < 1e-9);
        // No schema cross-parses into the par reader or out of it.
        assert!(BenchReport::parse(&json).is_err());
        assert!(IStoreReport::parse(&json).is_err());
        assert!(ServiceReport::parse(&json).is_err());
        assert!(ParReport::parse(&report().to_json()).is_err());
        assert!(ParReport::parse("{}").is_err());
    }

    #[test]
    fn par_gate_trips_on_overhead_growth_only() {
        let base = ParReport::parse(&par_report().to_json()).unwrap();
        // Getting faster (lower overhead ratio) is never a failure.
        let mut fast = base.clone();
        fast.relaxed1_firings_per_sec = base.relaxed1_firings_per_sec * 2.0;
        assert!(check_par_regression(&fast, &base, 0.25).is_ok());
        // Overhead ratio growing past tolerance trips the gate.
        let mut slow = base.clone();
        slow.relaxed1_firings_per_sec = base.relaxed1_firings_per_sec * 0.5;
        let err = check_par_regression(&slow, &base, 0.25).unwrap_err();
        assert!(err.contains("relaxed_ratio_1w"), "{err}");
        // Uniform host drift leaves the same-run ratio unchanged: a
        // machine running at 60% speed does not trip the gate.
        let mut drift = base.clone();
        drift.seq_firings_per_sec *= 0.6;
        drift.relaxed1_firings_per_sec *= 0.6;
        assert!(check_par_regression(&drift, &base, 0.25).is_ok());
    }

    #[test]
    fn headline_gates_survive_uniform_host_drift() {
        // The host-drift fix: every headline is a same-run ratio, so a
        // uniformly slower machine (both drivers at 60%) passes all
        // three throughput gates where the old absolute-rate gate
        // failed across the board.
        let base = BenchReport::parse(&report().to_json()).unwrap();
        let mut drift = base.clone();
        drift.hashmap_tokens_per_sec *= 0.6;
        drift.packed_tokens_per_sec *= 0.6;
        assert!(check_regression(&drift, &base, 0.25).is_ok());
        let ibase = IStoreReport::parse(&istore_report().to_json()).unwrap();
        let mut idrift = ibase.clone();
        idrift.enum_ops_per_sec *= 0.6;
        idrift.packed_ops_per_sec *= 0.6;
        assert!(check_istore_regression(&idrift, &ibase, 0.25).is_ok());
        let sbase = ServiceReport::parse(&service_report().to_json()).unwrap();
        let mut sdrift = sbase.clone();
        sdrift.serial_requests_per_sec *= 0.6;
        sdrift.batched_requests_per_sec *= 0.6;
        assert!(check_service_regression(&sdrift, &sbase, 0.25).is_ok());
    }

    #[test]
    fn roundtrip() {
        let json = report().to_json();
        let parsed = BenchReport::parse(&json).expect("well-formed");
        assert_eq!(parsed.targets.len(), 2);
        assert_eq!(parsed.targets[0].0, "matching/packed_stream_20k_w512");
        assert_eq!(parsed.targets[0].1, 990.0);
        assert_eq!(parsed.hashmap_tokens_per_sec, 1.0e7);
        assert_eq!(parsed.packed_tokens_per_sec, 2.6e7);
    }

    #[test]
    fn istore_roundtrip() {
        let json = istore_report().to_json();
        let parsed = IStoreReport::parse(&json).expect("well-formed");
        assert_eq!(parsed.targets.len(), 1);
        assert_eq!(parsed.targets[0].0, "istore/packed_heavy_defer");
        assert_eq!(parsed.enum_ops_per_sec, 1.0e7);
        assert_eq!(parsed.packed_ops_per_sec, 1.8e7);
        // The two schemas do not cross-parse.
        assert!(BenchReport::parse(&json).is_err());
        assert!(IStoreReport::parse(&report().to_json()).is_err());
    }

    #[test]
    fn service_roundtrip() {
        let json = service_report().to_json();
        let parsed = ServiceReport::parse(&json).expect("well-formed");
        assert_eq!(parsed.targets.len(), 1);
        assert_eq!(parsed.targets[0].0, "service/serve_2tenant_32req_q8");
        assert_eq!(parsed.serial_requests_per_sec, 4.0e3);
        assert_eq!(parsed.batched_requests_per_sec, 9.0e3);
        // No schema cross-parses into the service reader or out of it.
        assert!(BenchReport::parse(&json).is_err());
        assert!(IStoreReport::parse(&json).is_err());
        assert!(ServiceReport::parse(&report().to_json()).is_err());
        assert!(ServiceReport::parse(&istore_report().to_json()).is_err());
    }

    #[test]
    fn malformed_reports_are_rejected() {
        assert!(BenchReport::parse("{}").is_err());
        assert!(BenchReport::parse("{\"schema\": \"ttda-bench/matching/v1\"}").is_err());
        let json = report().to_json().replace("median_ns", "nedian_ms");
        assert!(BenchReport::parse(&json).is_err());
        assert!(IStoreReport::parse("{}").is_err());
        assert!(ServiceReport::parse("{}").is_err());
    }

    #[test]
    fn regression_gate_trips_on_slowdown_only() {
        let base = BenchReport::parse(&report().to_json()).unwrap();
        let mut cur = base.clone();
        // 10% slower: within a 25% tolerance.
        cur.targets[0].1 *= 1.10;
        assert!(check_regression(&cur, &base, 0.25).is_ok());
        // 30% slower: regression.
        cur.targets[0].1 = base.targets[0].1 * 1.30;
        let err = check_regression(&cur, &base, 0.25).unwrap_err();
        assert!(err.contains("regressed"), "{err}");
        // Faster is never a failure.
        cur.targets[0].1 = base.targets[0].1 * 0.5;
        assert!(check_regression(&cur, &base, 0.25).is_ok());
        // Throughput drop beyond tolerance trips the gate.
        let mut slow = base.clone();
        slow.packed_tokens_per_sec = base.packed_tokens_per_sec * 0.5;
        assert!(check_regression(&slow, &base, 0.25).is_err());
    }

    #[test]
    fn istore_gate_trips_on_slowdown_only() {
        let base = IStoreReport::parse(&istore_report().to_json()).unwrap();
        let mut cur = base.clone();
        cur.targets[0].1 *= 1.10;
        assert!(check_istore_regression(&cur, &base, 0.25).is_ok());
        cur.targets[0].1 = base.targets[0].1 * 1.30;
        assert!(check_istore_regression(&cur, &base, 0.25).is_err());
        let mut slow = base.clone();
        slow.targets[0].1 = base.targets[0].1;
        slow.packed_ops_per_sec = base.packed_ops_per_sec * 0.5;
        let err = check_istore_regression(&slow, &base, 0.25).unwrap_err();
        assert!(err.contains("packed_ops_per_sec"), "{err}");
        // A target missing from the current run is skipped, not failed
        // (covers baseline re-scopes like moving istore targets between
        // report files).
        let mut fewer = base.clone();
        fewer.targets.clear();
        fewer.targets.push(("istore/new_target".into(), 100.0));
        assert!(check_istore_regression(&fewer, &base, 0.25).is_ok());
    }

    #[test]
    fn service_gate_trips_on_slowdown_only() {
        let base = ServiceReport::parse(&service_report().to_json()).unwrap();
        let mut cur = base.clone();
        cur.targets[0].1 *= 1.10;
        assert!(check_service_regression(&cur, &base, 0.25).is_ok());
        cur.targets[0].1 = base.targets[0].1 * 1.30;
        assert!(check_service_regression(&cur, &base, 0.25).is_err());
        // The headline is the batched throughput; a serial-side drop
        // alone does not trip the gate, a batched drop does.
        let mut slow_serial = base.clone();
        slow_serial.serial_requests_per_sec = base.serial_requests_per_sec * 0.5;
        assert!(check_service_regression(&slow_serial, &base, 0.25).is_ok());
        let mut slow = base.clone();
        slow.batched_requests_per_sec = base.batched_requests_per_sec * 0.5;
        let err = check_service_regression(&slow, &base, 0.25).unwrap_err();
        assert!(err.contains("batched_requests_per_sec"), "{err}");
    }
}
