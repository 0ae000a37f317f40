//! The metric registry, the per-workload report, `results.json`, and
//! the `--compare` verdicts.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{self, Json};
use crate::stats::quartiles;

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, counts of work).
    Lower,
    /// Larger is better (rates, utilization).
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How a metric is judged between two sets of runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Host-measured and seen by a user, reported on every workload. A
    /// change may worsen its median by at most `bound` (a share of the
    /// baseline median) before it counts as a regression.
    EndToEnd {
        /// Allowed relative worsening.
        bound: f64,
    },
    /// A deterministic model output (simulated or virtual time): for a
    /// fixed seed it must repeat exactly, so any worsening is a
    /// regression. Reported only where the workload defines it (0
    /// elsewhere).
    Exact,
    /// A per-layer explanation; never gated.
    Layer,
}

/// One named metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name: `[A-Za-z0-9_.-]+`, layer-qualified for layer metrics.
    pub name: &'static str,
    /// Unit: `[A-Za-z0-9_/%.-]+`.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// How it is judged.
    pub kind: Kind,
}

const fn m(name: &'static str, unit: &'static str, better: Better, kind: Kind) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind,
    }
}

use Better::{Higher as H, Lower as L};
use Kind::{Exact as X, Layer as Y};

/// The largest end-to-end bound, which `setup_s` carries: set-up is a
/// fraction of a millisecond of compile time and the noisiest share.
const SETUP_BOUND: f64 = 0.25;

/// Every metric the benchmark reports, in report order.
pub const METRICS: &[MetricDef] = &[
    m("setup_s", "s", L, Kind::EndToEnd { bound: SETUP_BOUND }),
    m("run_ms_best5", "ms", L, Kind::EndToEnd { bound: 0.25 }),
    m("peak_rss_mb", "MB", L, Kind::EndToEnd { bound: 0.15 }),
    m("timed.sim_cycles", "cycles", L, X),
    m("service.latency_p50_ticks", "ticks", L, X),
    m("service.latency_p99_ticks", "ticks", L, X),
    m("service.max_rate_per_ktick", "req/ktick", H, X),
    m("idc.parse_s", "s", L, Y),
    m("idc.codegen_s", "s", L, Y),
    m("opt.optimize_s", "s", L, Y),
    m("opt.criticality_s", "s", L, Y),
    m("opt.instrs", "count", L, Y),
    m("opt.firings", "count", L, Y),
    m("opt.firing_ratio", "ratio", L, Y),
    m("emu.new_s", "s", L, Y),
    m("emu.run_s", "s", L, Y),
    m("emu.ns_per_firing", "ns", L, Y),
    m("emu.firings_per_s", "1/s", H, Y),
    m("emu.waves", "count", L, Y),
    m("emu.mean_parallelism", "firings/wave", H, Y),
    m("matching.tokens", "count", L, Y),
    m("matching.parks", "count", L, Y),
    m("matching.fires", "count", L, Y),
    m("matching.fire_ratio", "ratio", H, Y),
    m("matching.peak_occupancy", "count", L, Y),
    m("istore.reads_immediate", "count", H, Y),
    m("istore.reads_deferred", "count", L, Y),
    m("istore.writes", "count", L, Y),
    m("istore.defer_ratio", "ratio", L, Y),
    m("istore.peak_deferred", "count", L, Y),
    m("context.allocated", "count", L, Y),
    m("relaxed.new_s", "s", L, Y),
    m("relaxed.run_s", "s", L, Y),
    m("relaxed.ns_per_firing", "ns", L, Y),
    m("relaxed.cpu_per_wall", "ratio", H, Y),
    m("relaxed.speedup_vs_seq", "ratio", H, Y),
    m("timed.new_s", "s", L, Y),
    m("timed.run_s", "s", L, Y),
    m("timed.ns_per_cycle", "ns", L, Y),
    m("timed.ipc", "firings/cycle", H, Y),
    m("timed.alu_utilization", "ratio", H, Y),
    m("timed.peak_queue", "count", L, Y),
    m("timed.peak_matching", "count", L, Y),
    m("timed.remote_fraction", "ratio", L, Y),
    m("net.packets", "count", L, Y),
    m("net.mean_hops", "hops", L, Y),
    m("net.mean_queued_cycles", "cycles", L, Y),
    m("net.mean_latency_cycles", "cycles", L, Y),
    m("service.burst_s", "s", L, Y),
    m("service.sched_s", "s", L, Y),
    m("service.bursts", "count", L, Y),
    m("service.requests_per_burst", "req/burst", H, Y),
    m("service.throttled", "count", L, Y),
    m("service.peak_queue", "count", L, Y),
    m("trace.overhead", "ratio", L, Y),
    m("trace.sink_overhead", "ratio", L, Y),
    m("host.run_ms_p50", "ms", L, Y),
    m("host.run_ms_p90", "ms", L, Y),
    m("host.run_ms_p99", "ms", L, Y),
    m("host.requests_per_s", "req/s", H, Y),
    m("host.samples", "count", H, Y),
];

/// The registry entry for `name`.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|d| d.name == name)
}

/// Whether a metric belongs to the end-to-end list (the rest are per
/// layer: the exact model outputs and the layer explanations).
pub fn is_end_to_end(d: &MetricDef) -> bool {
    matches!(d.kind, Kind::EndToEnd { .. })
}

/// One metric's value, plus, for host-timed metrics, the first
/// quartile, median and third quartile of the samples it was computed
/// from, and their number.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// The reported value.
    pub value: f64,
    /// p25/p50/p75 of the samples, for host-timed metrics.
    pub quartiles: Option<[f64; 3]>,
    /// Samples the value was computed from.
    pub samples: u64,
}

impl Measured {
    /// A single-sample value without a spread.
    pub fn single(value: f64) -> Self {
        Measured {
            value,
            quartiles: None,
            samples: 1,
        }
    }
}

/// Everything one workload reported.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Runs attempted (set-ups excluded).
    pub attempted: u64,
    /// Runs that errored, panicked or produced a wrong output.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, Measured>,
}

impl Report {
    /// Failed over attempted runs.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The value of `name`, 0 when absent.
    pub fn value(&self, name: &str) -> f64 {
        self.metrics.get(name).map_or(0.0, |m| m.value)
    }

    /// Human-readable lines: every metric by name, value and unit.
    pub fn render(&self) -> String {
        let mut out = format!("== {}\n", self.workload);
        let _ = writeln!(
            out,
            "  {:<30} {} fraction ({} of {} runs failed)",
            "error_rate",
            self.error_rate(),
            self.failed,
            self.attempted
        );
        for (name, v) in &self.metrics {
            let unit = def(name).map_or("", |d| d.unit);
            let _ = write!(out, "  {name:<30} {} {unit}", v.value);
            if let Some([p25, _, p75]) = v.quartiles {
                let _ = write!(out, "  [p25 {p25:.6}, p75 {p75:.6}, n={}]", v.samples);
            }
            out.push('\n');
        }
        out
    }

    /// The full report as JSON (the `workloads` entries of
    /// `results.json`, and what a child process hands its parent).
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, v)| {
                let mut fields = vec![("value".to_string(), Json::from(v.value))];
                if let Some(d) = def(name) {
                    fields.push(("unit".into(), d.unit.into()));
                    fields.push(("better".into(), d.better.as_str().into()));
                    let (kind, bound) = match d.kind {
                        Kind::EndToEnd { bound } => ("end_to_end", Json::from(bound)),
                        Kind::Exact => ("exact", Json::from(0.0)),
                        Kind::Layer => ("layer", Json::Null),
                    };
                    fields.push(("kind".into(), kind.into()));
                    fields.push(("bound".into(), bound));
                }
                if let Some([p25, p50, p75]) = v.quartiles {
                    fields.push(("p25".into(), p25.into()));
                    fields.push(("p50".into(), p50.into()));
                    fields.push(("p75".into(), p75.into()));
                }
                fields.push(("samples".into(), v.samples.into()));
                (name.clone(), Json::Obj(fields))
            })
            .collect();
        Json::Obj(vec![
            ("workload".into(), self.workload.as_str().into()),
            ("attempted".into(), self.attempted.into()),
            ("failed".into(), self.failed.into()),
            ("error_rate".into(), self.error_rate().into()),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }

    /// Reads a report written by [`Report::to_json`].
    ///
    /// # Errors
    ///
    /// A message naming the first missing or mistyped field.
    pub fn from_json(j: &Json) -> Result<Report, String> {
        let num = |j: &Json, k: &str| {
            j.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing number `{k}`"))
        };
        let count = |j: &Json, k: &str| {
            num(j, k).and_then(|n| {
                if n >= 0.0 && n.fract() == 0.0 {
                    Ok(n as u64)
                } else {
                    Err(format!("`{k}` is not a count"))
                }
            })
        };
        let workload = j
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("missing `workload`")?
            .to_string();
        let mut metrics = BTreeMap::new();
        for (name, v) in j
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or("missing `metrics`")?
        {
            let quartiles = match (num(v, "p25"), num(v, "p50"), num(v, "p75")) {
                (Ok(a), Ok(b), Ok(c)) => Some([a, b, c]),
                _ => None,
            };
            let measured = Measured {
                value: num(v, "value").map_err(|e| format!("{name}: {e}"))?,
                quartiles,
                samples: count(v, "samples").map_err(|e| format!("{name}: {e}"))?,
            };
            metrics.insert(name.clone(), measured);
        }
        Ok(Report {
            workload,
            attempted: count(j, "attempted")?,
            failed: count(j, "failed")?,
            metrics,
        })
    }

    /// The one-line result of the timed form, for a benchmark harness:
    /// `correct`, `attempted`, `failed`, and either the end-to-end
    /// metrics or the per-layer ones, each with its unit.
    pub fn result_line(&self, per_layer: bool) -> String {
        let metrics = METRICS
            .iter()
            .filter(|d| is_end_to_end(d) != per_layer)
            .map(|d| {
                let v = Json::Obj(vec![
                    ("value".into(), self.value(d.name).into()),
                    ("unit".into(), d.unit.into()),
                ]);
                (d.name.to_string(), v)
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), self.attempted.into()),
            ("failed".into(), self.failed.into()),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .to_string()
    }
}

/// A full set: environment facts plus one report per workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Results {
    /// Seed, host and build facts, in order.
    pub env: Vec<(String, Json)>,
    /// One report per workload, in run order.
    pub reports: Vec<Report>,
}

const SCHEMA: &str = "ttda-benchmark/v1";

impl Results {
    /// The `results.json` text.
    pub fn to_json_text(&self) -> String {
        let mut fields = vec![("schema".to_string(), Json::from(SCHEMA))];
        fields.extend(self.env.iter().cloned());
        fields.push((
            "workloads".into(),
            Json::Arr(self.reports.iter().map(Report::to_json).collect()),
        ));
        Json::Obj(fields).to_string() + "\n"
    }

    /// Parses `results.json` text.
    ///
    /// # Errors
    ///
    /// A message for malformed JSON, another schema, or a bad report.
    pub fn parse(text: &str) -> Result<Results, String> {
        let doc = json::parse(text)?;
        let fields = doc.as_object().ok_or("results: not an object")?;
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("results: schema is not {SCHEMA}"));
        }
        let env = fields
            .iter()
            .filter(|(k, _)| k != "schema" && k != "workloads")
            .cloned()
            .collect();
        let reports = doc
            .get("workloads")
            .and_then(Json::as_array)
            .ok_or("results: missing `workloads`")?
            .iter()
            .map(Report::from_json)
            .collect::<Result<_, _>>()?;
        Ok(Results { env, reports })
    }
}

/// A comparison outcome for one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (or identical, for exact metrics).
    Ok,
    /// An exact metric improved.
    Better,
    /// Worse than the bound allows.
    Worse,
    /// Fewer than [`MIN_SETS`] sets on a side, or either side's spread
    /// between its sets is wider than the bound: no call possible.
    Unresolved,
}

/// The fewest sets a side needs before `--compare` judges a host-timed
/// metric. Hosts drift between processes far more than within one, so
/// the spread that decides is the one between a side's own sets.
pub const MIN_SETS: usize = 3;

/// Interquartile range as a share of the median.
fn spread([p25, p50, p75]: [f64; 3]) -> f64 {
    if p50 == 0.0 {
        0.0
    } else {
        ((p75 - p25) / p50).abs()
    }
}

/// Judges `b` (the change: one value per set) against `a` (the
/// baseline's values) for one metric, on the medians over sets.
pub fn verdict(d: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let worse_by = |a: f64, b: f64| {
        let delta = match d.better {
            Better::Lower => b - a,
            Better::Higher => a - b,
        };
        if a == 0.0 {
            delta
        } else {
            delta / a.abs()
        }
    };
    let (qa, qb) = (quartiles(a), quartiles(b));
    match d.kind {
        Kind::EndToEnd { bound } => {
            if a.len().min(b.len()) < MIN_SETS {
                Verdict::Unresolved
            } else if spread(qa).max(spread(qb)) > bound {
                // Too noisy to call, unless every set of the change
                // reads better than every set of the baseline.
                let all_better = a.iter().all(|&x| b.iter().all(|&y| worse_by(x, y) < 0.0));
                if all_better {
                    Verdict::Ok
                } else {
                    Verdict::Unresolved
                }
            } else if worse_by(qa[1], qb[1]) > bound {
                Verdict::Worse
            } else {
                Verdict::Ok
            }
        }
        Kind::Exact | Kind::Layer => match worse_by(qa[1], qb[1]) {
            w if w > 0.0 => Verdict::Worse,
            w if w < 0.0 => Verdict::Better,
            _ => Verdict::Ok,
        },
    }
}

/// Median over sets, with the quartiles when there are several.
fn fmt_sets(values: &[f64]) -> String {
    match quartiles(values) {
        [p25, p50, p75] if values.len() > 1 => format!("{p50:.6} [{p25:.6}..{p75:.6}]"),
        [_, p50, _] => format!("{p50}"),
    }
}

/// The report of `workload` from each set that has one.
fn reports_of<'a>(sets: &'a [Results], workload: &str) -> Vec<&'a Report> {
    sets.iter()
        .filter_map(|s| s.reports.iter().find(|r| r.workload == workload))
        .collect()
}

/// Compares the sets `b` against the baseline sets `a`: one block per
/// workload (a headline row with its overall verdict, then one row per
/// end-to-end and exact metric, each side as its median and quartiles
/// over sets). Returns the table and whether anything was worse.
pub fn compare(a: &[Results], b: &[Results]) -> (String, bool) {
    let mut out = String::new();
    let mut any_worse = false;
    let mut workloads: Vec<&str> = Vec::new();
    for r in a.iter().flat_map(|s| &s.reports) {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }
    for workload in workloads {
        let (ra, rb) = (reports_of(a, workload), reports_of(b, workload));
        if rb.len() < b.len() || b.is_empty() {
            let _ = writeln!(
                out,
                "{workload}: worse (missing from {} of {} sets)",
                b.len() - rb.len(),
                b.len()
            );
            any_worse = true;
            continue;
        }
        let mut rows = String::new();
        let mut worst = "ok";
        let mut note = |v: Verdict| match v {
            Verdict::Worse => worst = "worse",
            Verdict::Unresolved if worst != "worse" => worst = "unresolved",
            _ => {}
        };
        let errors = |rs: &[&Report]| {
            let failed: u64 = rs.iter().map(|r| r.failed).sum();
            let attempted: u64 = rs.iter().map(|r| r.attempted).sum();
            (failed, format!("{failed} of {attempted} failed"))
        };
        let ((_, ea), (failed, eb)) = (errors(&ra), errors(&rb));
        let v = if failed > 0 {
            Verdict::Worse
        } else {
            Verdict::Ok
        };
        note(v);
        let _ = writeln!(
            rows,
            "  {:<28} {ea:>32} {eb:>32}  exact   {v:?}",
            "error_rate"
        );
        for d in METRICS.iter().filter(|d| d.kind != Kind::Layer) {
            let values = |rs: &[&Report]| -> Vec<f64> {
                rs.iter()
                    .filter_map(|r| r.metrics.get(d.name).map(|m| m.value))
                    .collect()
            };
            let (va, vb) = (values(&ra), values(&rb));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            if d.kind == Kind::Exact && va.iter().chain(&vb).all(|&v| v == 0.0) {
                continue; // not defined on this workload
            }
            let v = verdict(d, &va, &vb);
            note(v);
            let bound = match d.kind {
                Kind::EndToEnd { bound } => format!("{:.0}%", bound * 100.0),
                _ => "exact".into(),
            };
            let _ = writeln!(
                rows,
                "  {:<28} {:>32} {:>32}  {bound:<6}  {v:?}",
                format!("{} ({})", d.name, d.unit),
                fmt_sets(&va),
                fmt_sets(&vb),
            );
        }
        any_worse |= worst == "worse";
        let _ = writeln!(out, "{workload}: {worst}");
        out.push_str(&rows);
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid(s: &str, extra: &str) -> bool {
        !s.is_empty()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c) || extra.contains(c))
    }

    #[test]
    fn names_units_and_counts_fit_the_published_limits() {
        let e2e = METRICS.iter().filter(|d| is_end_to_end(d)).count();
        let per_layer = METRICS.len() - e2e;
        assert!((1..=16).contains(&e2e), "{e2e} end-to-end metrics");
        assert!(
            (1..=128).contains(&per_layer),
            "{per_layer} per-layer metrics"
        );
        let mut names: Vec<_> = METRICS.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), METRICS.len(), "metric names must be unique");
        for d in METRICS {
            assert!(
                valid(d.name, "") && d.name.len() <= 64,
                "bad name {}",
                d.name
            );
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                valid(d.unit, "/%") && d.unit.len() <= 16,
                "bad unit {}",
                d.unit
            );
            if let Kind::EndToEnd { bound } = d.kind {
                assert!(bound > 0.0 && bound <= SETUP_BOUND, "{}", d.name);
            }
        }
        assert!(!valid("run ms", "") && !valid("", ""));
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let doc = json::parse(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (
                        s("name"),
                        s("unit"),
                        s("better"),
                        m.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect()
        };
        let ours = |e2e: bool| -> Vec<(String, String, String, Option<f64>)> {
            METRICS
                .iter()
                .filter(|d| is_end_to_end(d) == e2e)
                .map(|d| {
                    let bound = match d.kind {
                        Kind::EndToEnd { bound } => Some(bound),
                        _ => None,
                    };
                    (
                        d.name.into(),
                        d.unit.into(),
                        d.better.as_str().into(),
                        bound,
                    )
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(true));
        assert_eq!(listed("per_layer"), ours(false));
        let workloads: Vec<_> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        let known: Vec<_> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, known);
    }

    fn sample_results() -> Results {
        let mut metrics = BTreeMap::new();
        metrics.insert(
            "run_ms_best5".to_string(),
            Measured {
                value: 11.987_654_3,
                quartiles: Some([12.1, 12.3, 12.6]),
                samples: 1500,
            },
        );
        metrics.insert("timed.sim_cycles".to_string(), Measured::single(25_710.0));
        metrics.insert("emu.waves".to_string(), Measured::single(0.0));
        Results {
            env: vec![
                ("seed".into(), Json::from(1u64)),
                ("rustc".into(), Json::from("rustc 1.x")),
            ],
            reports: vec![Report {
                workload: "emu-matmul".into(),
                attempted: 1600,
                failed: 0,
                metrics,
            }],
        }
    }

    #[test]
    fn results_json_round_trips() {
        let r = sample_results();
        let text = r.to_json_text();
        assert_eq!(Results::parse(&text), Ok(r));
        assert!(Results::parse("{\"schema\":\"other\"}").is_err());
        assert!(Results::parse("[]").is_err());
        assert!(Results::parse("{\"schema\":\"ttda-benchmark/v1\"}").is_err());
    }

    #[test]
    fn verdicts_follow_bound_and_spread_between_sets() {
        let d = def("run_ms_best5").unwrap();
        // Bound 0.25. Five sets around `v` whose interquartile range is
        // `spread` of it.
        let sets = |v: f64, spread: f64| -> Vec<f64> {
            (0..5)
                .map(|i| v * (1.0 + spread * (f64::from(i) / 2.0 - 1.0)))
                .collect()
        };
        assert_eq!(
            verdict(d, &sets(10.0, 0.02), &sets(11.5, 0.02)),
            Verdict::Ok
        );
        assert_eq!(verdict(d, &sets(10.0, 0.02), &sets(8.0, 0.02)), Verdict::Ok);
        assert_eq!(
            verdict(d, &sets(10.0, 0.02), &sets(13.0, 0.02)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(d, &sets(10.0, 0.30), &sets(10.0, 0.02)),
            Verdict::Unresolved
        );
        // A wide spread still allows the call when every set of the
        // change reads better than every set of the baseline.
        assert_eq!(verdict(d, &sets(10.0, 0.30), &sets(5.0, 0.02)), Verdict::Ok);
        // One or two sets a side cannot show the drift between processes.
        assert_eq!(verdict(d, &[10.0], &[13.0]), Verdict::Unresolved);
        assert_eq!(verdict(d, &[10.0; 2], &[10.0; 2]), Verdict::Unresolved);
        assert_eq!(verdict(d, &[10.0; 3], &[10.0; 3]), Verdict::Ok);
        let exact = def("timed.sim_cycles").unwrap();
        assert_eq!(verdict(exact, &[100.0], &[100.0]), Verdict::Ok);
        assert_eq!(verdict(exact, &[100.0], &[101.0]), Verdict::Worse);
        assert_eq!(verdict(exact, &[100.0], &[99.0]), Verdict::Better);

        // One set a side: host times are unresolved, exact ones judged.
        let a = sample_results();
        let one = std::slice::from_ref(&a);
        let (table, worse) = compare(one, one);
        assert!(
            !worse && table.starts_with("emu-matmul: unresolved"),
            "{table}"
        );
        let three = vec![a.clone(), a.clone(), a.clone()];
        let (table, worse) = compare(&three, &three);
        assert!(!worse && table.starts_with("emu-matmul: ok"), "{table}");

        // The table flags a worse exact metric and a failing workload.
        let mut b = three.clone();
        b[1].reports[0]
            .metrics
            .get_mut("timed.sim_cycles")
            .unwrap()
            .value = 26_000.0;
        b[2].reports[0]
            .metrics
            .get_mut("timed.sim_cycles")
            .unwrap()
            .value = 26_000.0;
        let (table, worse) = compare(&three, &b);
        assert!(worse && table.starts_with("emu-matmul: worse"), "{table}");
        let mut c = three.clone();
        c[2].reports[0].failed = 1;
        assert!(compare(&three, &c).1);
        let mut missing = three.clone();
        missing[0].reports.clear();
        assert!(compare(&three, &missing).1);
    }

    #[test]
    fn result_line_lists_exactly_one_class() {
        let r = &sample_results().reports[0];
        for per_layer in [false, true] {
            let doc = json::parse(&r.result_line(per_layer)).unwrap();
            let keys: Vec<_> = doc
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let metrics = doc.get("metrics").and_then(Json::as_object).unwrap();
            let want = METRICS
                .iter()
                .filter(|d| is_end_to_end(d) != per_layer)
                .count();
            assert_eq!(metrics.len(), want);
            for (name, v) in metrics {
                assert_eq!(is_end_to_end(def(name).unwrap()), !per_layer);
                assert!(v.get("value").and_then(Json::as_f64).is_some());
            }
        }
    }
}
