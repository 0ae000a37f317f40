//! In-memory spans recorded around the calls the benchmark makes into
//! each layer, their self times, and a Chrome trace-event export.

use std::time::Instant;

use crate::json::Json;

/// One timed call: a layer boundary crossed by the benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `emu.run`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start: u64,
    /// Nanoseconds since the recorder was created.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Which benchmark run (set-up or measured run) the span belongs to.
    pub run: u32,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A span recorder. Spans nest by call order: a span opened while
/// another is open becomes its child.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }
}

impl Spans {
    /// Starts a new run id for the spans that follow.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    /// Records `f` as a span called `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        out
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every recorded span, in start order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans named in `names` that descend from a root span called
    /// `root`, each with its self time in nanoseconds.
    fn under<'a>(
        &'a self,
        root: &'a str,
        names: &'a [&str],
    ) -> impl Iterator<Item = (&'a Span, u64)> + 'a {
        let mut roots: Vec<usize> = Vec::with_capacity(self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            let r = s.parent.filter(|&p| p < i).map_or(i, |p| roots[p]);
            roots.push(r);
        }
        self.spans
            .iter()
            .zip(self_times_ns(&self.spans))
            .zip(roots)
            .filter(move |((s, _), r)| names.contains(&s.name) && self.spans[*r].name == root)
            .map(|(span, _)| span)
    }

    /// Self time, in seconds, of every span named in `names` under a
    /// root span called `root`.
    pub fn self_times(&self, root: &str, names: &[&str]) -> Vec<f64> {
        self.under(root, names)
            .map(|(_, ns)| ns as f64 * 1e-9)
            .collect()
    }

    /// Summed self time, in seconds, of the spans named in `names` under
    /// a root span called `root`, within each run that has any — for
    /// layers called many times per run, such as one emulator per service
    /// burst.
    pub fn per_run_self(&self, root: &str, names: &[&str]) -> Vec<f64> {
        let mut runs: Vec<(u32, u64)> = Vec::new();
        for (s, ns) in self.under(root, names) {
            match runs.last_mut() {
                Some((run, total)) if *run == s.run => *total += ns,
                _ => runs.push((s.run, ns)),
            }
        }
        runs.into_iter().map(|(_, ns)| ns as f64 * 1e-9).collect()
    }

    /// Full duration of every span called `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration() as f64 * 1e-9)
            .collect()
    }

    /// The spans as a Chrome trace-event document (`chrome://tracing`,
    /// Perfetto): one complete (`"ph": "X"`) event per span, run id and
    /// parent index in `args`.
    pub fn chrome_json(&self, workload: &str) -> String {
        let field = |k: &str, v: Json| (k.to_string(), v);
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let parent = s.parent.map_or(Json::Null, |p| Json::from(p as u64));
                Json::Obj(vec![
                    field("name", s.name.into()),
                    field("cat", workload.into()),
                    field("ph", "X".into()),
                    field("ts", (s.start as f64 / 1e3).into()),
                    field("dur", (s.duration() as f64 / 1e3).into()),
                    field("pid", 1u64.into()),
                    field("tid", 1u64.into()),
                    field(
                        "args",
                        Json::Obj(vec![
                            field("id", (i as u64).into()),
                            field("run", u64::from(s.run).into()),
                            field("parent", parent),
                        ]),
                    ),
                ])
            })
            .collect();
        let doc = Json::Obj(vec![
            field("traceEvents", Json::Arr(events)),
            field("displayTimeUnit", "ms".into()),
        ]);
        doc.to_string() + "\n"
    }
}

/// Self time of each span in nanoseconds: its duration minus the part
/// of its interval covered by its children. Children that overlap each
/// other (or spill past the parent) are counted once, clipped to the
/// parent.
fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "x",
            start,
            end,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once_when_they_overlap() {
        let spans = [
            span(0, 100, None),
            // Two overlapping children covering [10, 50) together.
            span(10, 40, Some(0)),
            span(30, 50, Some(0)),
            // A disjoint child [60, 70), and one spilling past the
            // parent's end, clipped to [90, 100).
            span(60, 70, Some(0)),
            span(90, 120, Some(0)),
            // A grandchild is its parent's business, not the root's.
            span(12, 20, Some(1)),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own[0], 100 - 40 - 10 - 10);
        assert_eq!(own[1], 30 - 8);
        assert_eq!(own[2], 20);
        assert_eq!(own[5], 8);
        // A child nested entirely inside a sibling adds nothing.
        let nested = [span(0, 10, None), span(2, 8, Some(0)), span(3, 4, Some(0))];
        assert_eq!(self_times_ns(&nested)[0], 4);
    }

    #[test]
    fn recorder_nests_by_call_order_and_exports_chrome_events() {
        let mut s = Spans::default();
        s.time("setup", |s| {
            s.time("idc.parse", |_| ());
            s.time("idc.codegen", |_| ());
        });
        s.next_run();
        s.time("run", |s| {
            s.time("emu.submit", |_| ());
            s.time("emu.submit", |_| ());
        });
        s.next_run();
        s.time("seq", |s| {
            s.time("emu.submit", |s| s.time("emu.new", |_| ()))
        });
        let names: Vec<_> = s
            .spans()
            .iter()
            .map(|x| (x.name, x.parent, x.run))
            .collect();
        assert_eq!(
            names,
            [
                ("setup", None, 0),
                ("idc.parse", Some(0), 0),
                ("idc.codegen", Some(0), 0),
                ("run", None, 1),
                ("emu.submit", Some(3), 1),
                ("emu.submit", Some(3), 1),
                ("seq", None, 2),
                ("emu.submit", Some(6), 2),
                ("emu.new", Some(7), 2),
            ]
        );
        assert_eq!(
            s.self_times("setup", &["idc.parse", "idc.codegen"]).len(),
            2
        );
        assert!(s.durations("setup")[0] >= s.self_times("setup", &["setup"])[0]);
        // Two calls in one run sum to one per-run value, and spans under
        // another root (here `seq`, two levels down too) are left out.
        let per_run = s.per_run_self("run", &["emu.submit"]);
        assert_eq!(per_run.len(), 1);
        let calls: f64 = s.self_times("run", &["emu.submit"]).iter().sum();
        assert!((per_run[0] - calls).abs() < 1e-12);
        assert_eq!(s.self_times("seq", &["emu.submit", "emu.new"]).len(), 2);
        assert!(s.self_times("run", &["emu.new"]).is_empty());
        let doc = crate::json::parse(&s.chrome_json("w")).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 9);
        assert_eq!(
            events[1].get("name").and_then(|n| n.as_str()),
            Some("idc.parse")
        );
    }
}
