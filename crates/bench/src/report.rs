//! The machine-readable benchmark report, `BENCH.json`.
//!
//! `experiments quickbench` writes one [`Report`]: a [`Section`] per
//! suite it ran, keyed by suite name. A section holds the suite's
//! per-target timing summaries, the raw numbers of its same-run
//! comparison (`metrics`), and the [`Headline`] ratio of two of those
//! numbers. The checked-in `BENCH.json` at the repository root is the
//! baseline every later perf PR is judged against; [`check`] is the gate
//! CI's bench-smoke job runs.
//!
//! Every headline is a *same-run ratio*: the packed/batched/
//! decoordinated side over the reference driver measured in the same
//! process moments earlier (hashmap matcher, enum store, serial
//! scheduler, sequential interpreter), or one deterministic count over
//! another. Absolute rates drift with the host — a throttled CI runner
//! once failed gates across the board with no code change — but both
//! sides of a ratio drift together, so the quotient survives. The report
//! stores only raw numbers; the gate recomputes each ratio from them.
//!
//! The crate has no serde, so this module hand-writes the one JSON shape
//! and reads it back with a small parser that caps nesting and returns
//! an error, never a panic, on malformed input.

use crate::quickbench::BenchStat;

/// Identifies the report shape; bumped if fields change meaning.
pub const SCHEMA: &str = "ttda-bench/v2";

/// How deep the reader lets arrays and objects nest; a report needs 5.
const MAX_DEPTH: usize = 16;

/// Which way a headline ratio improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// A larger ratio is better (a speedup).
    Higher,
    /// A smaller ratio is better (an overhead, or a count the change cuts).
    Lower,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// The gated ratio `num / den` of two of a section's metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Headline {
    /// The numerator metric's name.
    pub num: String,
    /// The denominator metric's name.
    pub den: String,
    /// Which way the ratio improves.
    pub better: Better,
}

/// One suite's measurements.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Section {
    /// Per-target timing summaries, in run order.
    pub targets: Vec<BenchStat>,
    /// The raw numbers of the suite's same-run comparison, by name.
    pub metrics: Vec<(String, f64)>,
    /// The gated ratio, for a suite with a comparison.
    pub headline: Option<Headline>,
}

impl Section {
    /// A comparison's result: its named metrics and the headline ratio
    /// `num / den`. The suite's timed targets are added when they run.
    pub fn comparison(metrics: &[(&str, f64)], num: &str, den: &str, better: Better) -> Section {
        Section {
            targets: Vec::new(),
            metrics: metrics.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            headline: Some(Headline {
                num: num.into(),
                den: den.into(),
                better,
            }),
        }
    }

    /// The metric called `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    /// The section's own headline ratio.
    pub fn ratio(&self) -> Option<f64> {
        self.ratio_of(self.headline.as_ref()?)
    }

    fn ratio_of(&self, h: &Headline) -> Option<f64> {
        Some(self.metric(&h.num)? / self.metric(&h.den)?)
    }
}

/// A whole report: one section per suite, in run order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// `(suite name, section)` pairs; no name appears twice.
    pub sections: Vec<(String, Section)>,
}

impl Report {
    /// The section of suite `name`.
    pub fn section(&self, name: &str) -> Option<&Section> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
    }

    /// Replaces the section of suite `name`, or appends it if there is
    /// none.
    pub fn set(&mut self, name: &str, section: Section) {
        match self.sections.iter_mut().find(|(n, _)| n == name) {
            Some((_, s)) => *s = section,
            None => self.sections.push((name.to_string(), section)),
        }
    }

    /// Renders the report as pretty-printed JSON, one target or metric
    /// per line.
    pub fn to_json(&self) -> String {
        let sections = self
            .sections
            .iter()
            .map(|(name, s)| {
                let targets = s
                    .targets
                    .iter()
                    .map(|t| {
                        format!(
                            "{{\"target\": {}, \"median_ns\": {:.1}, \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"samples\": {}}}",
                            quote(&t.label),
                            t.median_ns,
                            t.mean_ns,
                            t.min_ns,
                            t.samples
                        )
                    })
                    .collect();
                let metrics = s
                    .metrics
                    .iter()
                    .map(|(k, v)| format!("{}: {v}", quote(k)))
                    .collect();
                let mut fields = vec![
                    format!("\"targets\": {}", block('[', targets, "      ", ']')),
                    format!("\"metrics\": {}", block('{', metrics, "      ", '}')),
                ];
                if let Some(h) = &s.headline {
                    fields.push(format!(
                        "\"headline\": {{\"num\": {}, \"den\": {}, \"better\": \"{}\"}}",
                        quote(&h.num),
                        quote(&h.den),
                        h.better.name()
                    ));
                }
                format!("{}: {}", quote(name), block('{', fields, "    ", '}'))
            })
            .collect();
        let top = vec![
            format!("\"schema\": \"{SCHEMA}\""),
            format!("\"suites\": {}", block('{', sections, "  ", '}')),
        ];
        format!("{}\n", block('{', top, "", '}'))
    }

    /// Reads a report written by [`Report::to_json`].
    ///
    /// # Errors
    ///
    /// A description of the first malformation found: bad JSON, nesting
    /// deeper than the reader allows, a wrong schema tag, an unknown or
    /// missing key, a negative or non-finite number, or a headline that
    /// names a missing or non-positive metric.
    pub fn parse(json: &str) -> Result<Report, String> {
        let mut r = Reader { src: json, pos: 0 };
        let top = r.value(0)?;
        r.ws();
        if r.pos != json.len() {
            return Err(format!("trailing characters at byte {}", r.pos));
        }
        let top = object(&top, "report", &["schema", "suites"])?;
        if !matches!(get(top, "schema"), Some(Json::Str(s)) if s == SCHEMA) {
            return Err(format!("missing or wrong schema tag (want {SCHEMA})"));
        }
        let Some(Json::Obj(suites)) = get(top, "suites") else {
            return Err("missing `suites` object".into());
        };
        let sections = suites
            .iter()
            .map(|(name, v)| Ok((name.clone(), section(name, v)?)))
            .collect::<Result<_, String>>()?;
        Ok(Report { sections })
    }
}

/// `open`, the items one per line at `indent` plus two spaces, then
/// `close` at `indent`; just `open close` when there are no items.
fn block(open: char, items: Vec<String>, indent: &str, close: char) -> String {
    if items.is_empty() {
        return format!("{open}{close}");
    }
    let sep = format!(",\n{indent}  ");
    format!("{open}\n{indent}  {}\n{indent}{close}", items.join(&sep))
}

fn quote(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn section(name: &str, v: &Json) -> Result<Section, String> {
    let m = object(v, name, &["targets", "metrics", "headline"])?;
    let Some(Json::Arr(targets)) = get(m, "targets") else {
        return Err(format!("{name}: missing `targets` list"));
    };
    let Some(Json::Obj(metrics)) = get(m, "metrics") else {
        return Err(format!("{name}: missing `metrics` object"));
    };
    let s = Section {
        targets: targets
            .iter()
            .map(|t| target(name, t))
            .collect::<Result<_, _>>()?,
        metrics: metrics
            .iter()
            .map(|(k, v)| match v {
                Json::Num(x) => Ok((k.clone(), *x)),
                _ => Err(format!("{name}: metric `{k}` is not a number")),
            })
            .collect::<Result<_, _>>()?,
        headline: get(m, "headline").map(|h| headline(name, h)).transpose()?,
    };
    if let Some(h) = &s.headline {
        for k in [&h.num, &h.den] {
            match s.metric(k) {
                Some(v) if v > 0.0 => {}
                Some(v) => return Err(format!("{name}: headline metric `{k}` is {v}")),
                None => return Err(format!("{name}: headline names missing metric `{k}`")),
            }
        }
    }
    Ok(s)
}

fn target(suite: &str, v: &Json) -> Result<BenchStat, String> {
    let keys = ["target", "median_ns", "mean_ns", "min_ns", "samples"];
    let m = object(v, suite, &keys)?;
    let Some(Json::Str(label)) = get(m, "target") else {
        return Err(format!("{suite}: a target has no `target` name"));
    };
    let num = |key: &str| match get(m, key) {
        Some(&Json::Num(v)) if v >= 0.0 => Ok(v),
        _ => Err(format!("{suite}: {label}: `{key}` missing or negative")),
    };
    let samples = num("samples")?;
    if samples.fract() != 0.0 {
        return Err(format!("{suite}: {label}: `samples` is not a count"));
    }
    Ok(BenchStat {
        label: label.clone(),
        median_ns: num("median_ns")?,
        mean_ns: num("mean_ns")?,
        min_ns: num("min_ns")?,
        samples: samples as usize,
    })
}

fn headline(suite: &str, v: &Json) -> Result<Headline, String> {
    let m = object(v, suite, &["num", "den", "better"])?;
    let name = |key: &str| match get(m, key) {
        Some(Json::Str(s)) => Ok(s.clone()),
        _ => Err(format!("{suite}: headline has no `{key}` name")),
    };
    let better = match name("better")?.as_str() {
        "higher" => Better::Higher,
        "lower" => Better::Lower,
        other => return Err(format!("{suite}: headline `better` is `{other}`")),
    };
    Ok(Headline {
        num: name("num")?,
        den: name("den")?,
        better,
    })
}

/// Gates `current` against `baseline`, suite by suite, for every suite
/// in both:
///
/// - a baseline target whose median ns/op grew by more than `tolerance`
///   (0.25 = 25%) fails; one missing from the run is reported and
///   skipped;
/// - the baseline's headline ratio, recomputed on each side, moving the
///   wrong way by more than the same factor fails.
///
/// A suite the baseline lacks is reported as ungated. Returns the
/// comparison lines on success.
///
/// # Errors
///
/// Every regression found, one per line, each naming its suite.
pub fn check(current: &Report, baseline: &Report, tolerance: f64) -> Result<Vec<String>, String> {
    let allowed = 1.0 + tolerance;
    let mut lines = Vec::new();
    let mut failures = Vec::new();
    for (suite, cur) in &current.sections {
        let Some(base) = baseline.section(suite) else {
            lines.push(format!("{suite}: not in the baseline (ungated)"));
            continue;
        };
        for t in &base.targets {
            let Some(now) = cur.targets.iter().find(|c| c.label == t.label) else {
                lines.push(format!(
                    "{suite}: {}: gone from current run (skipped)",
                    t.label
                ));
                continue;
            };
            let (b, c) = (t.median_ns, now.median_ns);
            let ratio = c / b;
            let line = format!("{suite}: {}: {b:.0} -> {c:.0} ns/op ({ratio:.2}x)", t.label);
            if ratio > allowed {
                failures.push(format!("{line} regressed ({allowed:.2}x allowed)"));
            }
            lines.push(line);
        }
        let Some(h) = &base.headline else { continue };
        let name = format!("{suite}: {} / {}", h.num, h.den);
        let (Some(b), Some(c)) = (base.ratio_of(h), cur.ratio_of(h)) else {
            failures.push(format!("{name}: headline metric missing from the run"));
            continue;
        };
        let ratio = c / b;
        let line = format!(
            "{name}: {b:.4} -> {c:.4} ({ratio:.2}x, {} is better)",
            h.better.name()
        );
        let regressed = match h.better {
            Better::Higher => ratio < 1.0 / allowed,
            Better::Lower => ratio > allowed,
        };
        if regressed {
            failures.push(format!("{line} regressed"));
        }
        lines.push(line);
    }
    if failures.is_empty() {
        Ok(lines)
    } else {
        Err(failures.join("\n"))
    }
}

/// A parsed JSON value: only the kinds a report uses (no `true`, `false`
/// or `null`). Numbers are finite.
enum Json {
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// Object `v`'s members, after checking it uses no key outside `keys`.
fn object<'a>(v: &'a Json, what: &str, keys: &[&str]) -> Result<&'a [(String, Json)], String> {
    let Json::Obj(m) = v else {
        return Err(format!("{what}: expected an object"));
    };
    match m.iter().find(|(k, _)| !keys.contains(&k.as_str())) {
        Some((k, _)) => Err(format!("{what}: unknown key `{k}`")),
        None => Ok(m),
    }
}

fn get<'a>(m: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    m.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// A recursive-descent JSON reader. `pos` only ever stops on a char
/// boundary, so every slice of `src` it takes is in range.
struct Reader<'a> {
    src: &'a str,
    pos: usize,
}

impl Reader<'_> {
    fn ws(&mut self) {
        while matches!(
            self.src.as_bytes().get(self.pos),
            Some(b' ' | b'\n' | b'\r' | b'\t')
        ) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        self.ws();
        let hit = self.src.as_bytes().get(self.pos) == Some(&b);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.ws();
        let open = self.src.as_bytes().get(self.pos).copied();
        if matches!(open, Some(b'[' | b'{')) && depth >= MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        match open {
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                if !self.eat(b']') {
                    loop {
                        items.push(self.value(depth + 1)?);
                        if self.eat(b']') {
                            break;
                        }
                        self.expect(b',')?;
                    }
                }
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                self.pos += 1;
                let mut members: Vec<(String, Json)> = Vec::new();
                if !self.eat(b'}') {
                    loop {
                        self.ws();
                        if self.src.as_bytes().get(self.pos) != Some(&b'"') {
                            return Err(format!("expected a key at byte {}", self.pos));
                        }
                        let key = self.string()?;
                        if members.iter().any(|(k, _)| *k == key) {
                            return Err(format!("duplicate key `{key}`"));
                        }
                        self.expect(b':')?;
                        members.push((key, self.value(depth + 1)?));
                        if self.eat(b'}') {
                            break;
                        }
                        self.expect(b',')?;
                    }
                }
                Ok(Json::Obj(members))
            }
            Some(_) => self.number().map(Json::Num),
            None => Err("unexpected end of input".into()),
        }
    }

    /// A string; `pos` is on its opening quote.
    fn string(&mut self) -> Result<String, String> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let rest = &self.src[self.pos..];
            let k = rest
                .find(['"', '\\'])
                .ok_or_else(|| "unterminated string".to_string())?;
            out.push_str(&rest[..k]);
            self.pos += k + 1;
            if rest.as_bytes()[k] == b'"' {
                return Ok(out);
            }
            let esc = self.src.as_bytes().get(self.pos).copied();
            self.pos += 1;
            out.push(match esc {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => {
                    let hex = self
                        .src
                        .get(self.pos..self.pos + 4)
                        .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                        .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                    self.pos += 4;
                    u32::from_str_radix(hex, 16)
                        .ok()
                        .and_then(char::from_u32)
                        .ok_or_else(|| format!("\\u{hex} is not a character"))?
                }
                _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
            });
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        let rest = &self.src[self.pos..];
        let len = rest
            .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
            .unwrap_or(rest.len());
        match rest[..len].parse::<f64>() {
            Ok(v) if v.is_finite() => {
                self.pos += len;
                Ok(v)
            }
            _ => Err(format!("bad value at byte {}", self.pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tracked baseline at the repository root.
    const BENCH_JSON: &str = include_str!("../../../BENCH.json");

    fn stat(label: &str, median_ns: f64) -> BenchStat {
        BenchStat {
            label: label.into(),
            mean_ns: median_ns,
            median_ns,
            min_ns: median_ns,
            samples: 50,
        }
    }

    fn report() -> Report {
        let mut speed = Section::comparison(
            &[("hashmap_per_sec", 1.0e7), ("packed_per_sec", 2.6e7)],
            "packed_per_sec",
            "hashmap_per_sec",
            Better::Higher,
        );
        speed.targets = vec![stat("matching/packed \"w512\"", 990.0), stat("e13", 4.9e6)];
        let count = Section::comparison(
            &[("firings_o0", 100_000.0), ("firings_o2", 70_000.0)],
            "firings_o2",
            "firings_o0",
            Better::Lower,
        );
        let plain = Section {
            targets: vec![stat("e2/4", 7.0e4)],
            ..Section::default()
        };
        Report {
            sections: vec![
                ("speed".into(), speed),
                ("count".into(), count),
                ("plain".into(), plain),
            ],
        }
    }

    #[test]
    fn roundtrip_is_exact() {
        let r = report();
        assert_eq!(Report::parse(&r.to_json()), Ok(r));
        // The tracked baseline is this writer's own output, byte for
        // byte, so rewriting one section leaves every other unchanged.
        let base = Report::parse(BENCH_JSON).expect("BENCH.json parses");
        assert_eq!(base.to_json(), BENCH_JSON);
    }

    #[test]
    fn tracked_baseline_recomputes_every_recorded_headline() {
        let base = Report::parse(BENCH_JSON).unwrap();
        let names: Vec<&str> = base.sections.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            ["matching", "istore", "service", "par", "opt", "sched", "endtoend"]
        );
        let targets: usize = base.sections.iter().map(|(_, s)| s.targets.len()).sum();
        assert_eq!(targets, 32);
        // The headline each suite's old report stored, to the digits it
        // stored them with.
        let ratio = |suite: &str| base.section(suite).unwrap().ratio().unwrap();
        assert_eq!(format!("{:.2}", ratio("matching")), "1.96");
        assert_eq!(format!("{:.2}", ratio("istore")), "1.39");
        assert_eq!(format!("{:.2}", ratio("service")), "1.02");
        assert_eq!(format!("{:.3}", ratio("par")), "1.323");
        assert_eq!(format!("{:.4}", ratio("opt")), "0.4756");
        assert_eq!(format!("{:.4}", ratio("sched")), "0.9496");
        assert!(base.section("endtoend").unwrap().headline.is_none());
    }

    #[test]
    fn gate_trips_on_regressions_only() {
        let base = report();
        let gate = |cur: &Report| check(cur, &base, 0.25);
        assert!(gate(&base).is_ok());
        let mut cur = base.clone();
        let speed = &mut cur.sections[0].1;
        // 10% slower: within a 25% tolerance.
        speed.targets[0].median_ns *= 1.10;
        assert!(gate(&cur).is_ok());
        // 30% slower: a regression, named with its suite.
        cur.sections[0].1.targets[0].median_ns = 990.0 * 1.30;
        let err = gate(&cur).unwrap_err();
        assert!(err.starts_with("speed: matching/packed"), "{err}");
        // Faster is never a failure; a target gone from the run is skipped.
        cur.sections[0].1.targets[0].median_ns = 400.0;
        cur.sections[2].1.targets.clear();
        let lines = gate(&cur).unwrap();
        assert!(lines.iter().any(|l| l.contains("e2/4: gone")), "{lines:?}");
        // Uniform host drift leaves every same-run ratio unchanged.
        let mut drift = base.clone();
        for (_, s) in &mut drift.sections {
            for (_, v) in &mut s.metrics {
                *v *= 0.6;
            }
        }
        assert!(gate(&drift).is_ok());
        // Each headline fails only when it moves its wrong way.
        let with = |suite: usize, metric: usize, v: f64| {
            let mut r = base.clone();
            r.sections[suite].1.metrics[metric].1 = v;
            gate(&r)
        };
        assert!(with(0, 1, 5.0e7).is_ok());
        let err = with(0, 1, 1.3e7).unwrap_err();
        assert!(
            err.starts_with("speed: packed_per_sec / hashmap_per_sec"),
            "{err}"
        );
        assert!(with(0, 0, 0.5e7).is_ok());
        assert!(with(1, 1, 50_000.0).is_ok());
        let err = with(1, 1, 95_000.0).unwrap_err();
        assert!(err.starts_with("count: firings_o2 / firings_o0"), "{err}");
        // A suite the baseline lacks is reported, not gated.
        let mut extra = base.clone();
        extra.set("new", Section::default());
        let lines = gate(&extra).unwrap();
        assert!(lines
            .iter()
            .any(|l| l == "new: not in the baseline (ungated)"));
    }

    #[test]
    fn malformed_reports_are_errors() {
        let good = report().to_json();
        let end = good.trim_end().len();
        for k in (0..end).filter(|&k| good.is_char_boundary(k)) {
            assert!(Report::parse(&good[..k]).is_err(), "prefix {k} parsed");
        }
        assert!(Report::parse(&"[".repeat(100_000)).is_err());
        assert!(Report::parse(&"{\"a\": ".repeat(100_000)).is_err());
        let bad = [
            good.replace("\\\"w512\\\"", "\\u00zz"),
            good.replace("\\\"w512\\\"", "\\u00"),
            good.replace("\\\"w512\\\"", "\\ud800"),
            good.replace("\\\"w512\\\"", "\\q"),
            good.replace(SCHEMA, "ttda-bench/matching/v1"),
            good.replace("\"median_ns\": 990.0", "\"median_ns\": -1.0"),
            good.replace("\"median_ns\": 990.0", "\"median_ns\": NaN"),
            good.replace("\"median_ns\": 990.0", "\"median_ns\": 1e999"),
            good.replace("\"median_ns\": 990.0", "\"nedian_ms\": 990.0"),
            good.replace("\"samples\": 50", "\"samples\": 2.5"),
            good.replace("\"num\": \"firings_o2\"", "\"num\": \"firings_o3\""),
            good.replace("\"firings_o0\": 100000", "\"firings_o0\": 0"),
            good.replace("\"better\": \"lower\"", "\"better\": \"less\""),
            good.replace("\"plain\"", "\"count\""),
            format!("{good}{{}}"),
        ];
        for json in &bad {
            assert_ne!(json, &good, "the substitution must change the report");
            assert!(Report::parse(json).is_err(), "{json}");
        }
    }
}
