//! The recording sink: verbatim event capture with JSONL and
//! `chrome://tracing` (`trace_event` format) export.

use std::any::Any;
use std::fmt::Write as _;

use ttda_sim::Cycle;

use crate::{PresenceState, TraceEvent, TraceSink};

/// A sink that records every `(time, event)` pair and serializes the run
/// as either JSONL (one self-describing object per line) or the Chrome
/// `trace_event` JSON that `chrome://tracing` and Perfetto open directly.
///
/// In the Chrome view, processing elements appear as threads of process
/// 0 (firings as duration slices, waiting–matching occupancy as counter
/// tracks), I-structure modules as threads of process 1, and the network
/// as process 2 (packets as duration slices whose length is end-to-end
/// latency).
///
/// # Example
///
/// ```
/// use ttda_trace::{ChromeTraceSink, TraceEvent, TraceSink};
/// use ttda_sim::Cycle;
///
/// let mut sink = ChromeTraceSink::new();
/// sink.record(Cycle(2), &TraceEvent::MatchFire { pe: 0, alu: true, busy: 3 });
/// assert_eq!(sink.len(), 1);
/// assert!(sink.to_chrome_json().contains("\"ph\":\"X\""));
/// assert!(sink.to_jsonl().contains("\"kind\":\"match_fire\""));
/// ```
#[derive(Debug, Default)]
pub struct ChromeTraceSink {
    events: Vec<(Cycle, TraceEvent)>,
}

fn presence_name(p: PresenceState) -> &'static str {
    match p {
        PresenceState::Empty => "empty",
        PresenceState::Present => "present",
        PresenceState::Deferred => "deferred",
    }
}

impl ChromeTraceSink {
    /// An empty recorder.
    pub fn new() -> Self {
        ChromeTraceSink::default()
    }

    /// Number of events captured.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The raw captured events.
    pub fn events(&self) -> &[(Cycle, TraceEvent)] {
        &self.events
    }

    /// Serializes the capture as JSONL: one object per event, each with
    /// `ts`, `kind`, and the event's own fields.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 64);
        for (at, ev) in &self.events {
            let _ = write!(out, "{{\"ts\":{},\"kind\":\"{}\"", at.as_u64(), ev.kind());
            match *ev {
                TraceEvent::TokenEmit { pe } | TraceEvent::TokenConsume { pe } => {
                    let _ = write!(out, ",\"pe\":{pe}");
                }
                TraceEvent::MatchWait { pe, occupancy } => {
                    let _ = write!(out, ",\"pe\":{pe},\"occupancy\":{occupancy}");
                }
                TraceEvent::MatchFire { pe, alu, busy } => {
                    let _ = write!(out, ",\"pe\":{pe},\"alu\":{alu},\"busy\":{busy}");
                }
                TraceEvent::WaveEnd { fired } => {
                    let _ = write!(out, ",\"fired\":{fired}");
                }
                TraceEvent::Halt { in_flight } => {
                    let _ = write!(out, ",\"in_flight\":{in_flight}");
                }
                TraceEvent::Presence { module, from, to } => {
                    let _ = write!(
                        out,
                        ",\"module\":{module},\"from\":\"{}\",\"to\":\"{}\"",
                        presence_name(from),
                        presence_name(to)
                    );
                }
                TraceEvent::DeferEnqueue { module, depth } => {
                    let _ = write!(out, ",\"module\":{module},\"depth\":{depth}");
                }
                TraceEvent::DeferRelease { module, released } => {
                    let _ = write!(out, ",\"module\":{module},\"released\":{released}");
                }
                TraceEvent::IStoreRead { module, immediate } => {
                    let _ = write!(out, ",\"module\":{module},\"immediate\":{immediate}");
                }
                TraceEvent::IStoreWrite { module } => {
                    let _ = write!(out, ",\"module\":{module}");
                }
                TraceEvent::PacketSend {
                    from,
                    to,
                    hops,
                    queued,
                    latency,
                } => {
                    let _ = write!(
                        out,
                        ",\"from\":{from},\"to\":{to},\"hops\":{hops},\"queued\":{queued},\"latency\":{latency}"
                    );
                }
            }
            out.push_str("}\n");
        }
        out
    }

    /// Serializes the capture in Chrome `trace_event` format.
    ///
    /// Cycles are reported as microseconds (`ts`/`dur`), which makes one
    /// machine cycle one microsecond on the tracing timeline.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96 + 64);
        out.push_str("{\"traceEvents\":[\n");
        let mut first = true;
        let mut emit = |line: String, out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&line);
        };
        for (at, ev) in &self.events {
            let ts = at.as_u64();
            let line = match *ev {
                TraceEvent::MatchFire { pe, alu, busy } => format!(
                    "{{\"name\":\"fire\",\"ph\":\"X\",\"pid\":0,\"tid\":{pe},\"ts\":{ts},\"dur\":{},\"args\":{{\"alu\":{alu}}}}}",
                    busy.max(1)
                ),
                TraceEvent::MatchWait { pe, occupancy } => format!(
                    "{{\"name\":\"match_occupancy\",\"ph\":\"C\",\"pid\":0,\"tid\":{pe},\"ts\":{ts},\"args\":{{\"entries\":{occupancy}}}}}"
                ),
                TraceEvent::TokenEmit { pe } => format!(
                    "{{\"name\":\"token_emit\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{pe},\"ts\":{ts}}}"
                ),
                TraceEvent::TokenConsume { pe } => format!(
                    "{{\"name\":\"token_consume\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{pe},\"ts\":{ts}}}"
                ),
                TraceEvent::WaveEnd { fired } => format!(
                    "{{\"name\":\"wave_width\",\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":{ts},\"args\":{{\"fired\":{fired}}}}}"
                ),
                TraceEvent::Halt { in_flight } => format!(
                    "{{\"name\":\"halt\",\"ph\":\"i\",\"s\":\"g\",\"pid\":0,\"tid\":0,\"ts\":{ts},\"args\":{{\"in_flight\":{in_flight}}}}}"
                ),
                TraceEvent::Presence { module, from, to } => format!(
                    "{{\"name\":\"presence\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{module},\"ts\":{ts},\"args\":{{\"from\":\"{}\",\"to\":\"{}\"}}}}",
                    presence_name(from),
                    presence_name(to)
                ),
                TraceEvent::DeferEnqueue { module, depth } => format!(
                    "{{\"name\":\"defer_depth\",\"ph\":\"C\",\"pid\":1,\"tid\":{module},\"ts\":{ts},\"args\":{{\"depth\":{depth}}}}}"
                ),
                TraceEvent::DeferRelease { module, released } => format!(
                    "{{\"name\":\"defer_release\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{module},\"ts\":{ts},\"args\":{{\"released\":{released}}}}}"
                ),
                TraceEvent::IStoreRead { module, immediate } => format!(
                    "{{\"name\":\"istore_read\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{module},\"ts\":{ts},\"args\":{{\"immediate\":{immediate}}}}}"
                ),
                TraceEvent::IStoreWrite { module } => format!(
                    "{{\"name\":\"istore_write\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{module},\"ts\":{ts}}}"
                ),
                TraceEvent::PacketSend { from, to, hops, queued, latency } => format!(
                    "{{\"name\":\"packet\",\"ph\":\"X\",\"pid\":2,\"tid\":{from},\"ts\":{ts},\"dur\":{},\"args\":{{\"to\":{to},\"hops\":{hops},\"queued\":{queued}}}}}",
                    latency.max(1)
                ),
            };
            emit(line, &mut out);
        }
        out.push_str("\n]}\n");
        out
    }
}

impl TraceSink for ChromeTraceSink {
    fn record(&mut self, at: Cycle, ev: &TraceEvent) {
        self.events.push((at, *ev));
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ChromeTraceSink {
        let mut s = ChromeTraceSink::new();
        s.record(Cycle(0), &TraceEvent::TokenEmit { pe: 1 });
        s.record(
            Cycle(1),
            &TraceEvent::MatchWait {
                pe: 1,
                occupancy: 1,
            },
        );
        s.record(
            Cycle(2),
            &TraceEvent::MatchFire {
                pe: 1,
                alu: true,
                busy: 3,
            },
        );
        s.record(
            Cycle(3),
            &TraceEvent::Presence {
                module: 0,
                from: PresenceState::Empty,
                to: PresenceState::Deferred,
            },
        );
        s.record(
            Cycle(4),
            &TraceEvent::PacketSend {
                from: 0,
                to: 5,
                hops: 2,
                queued: 1,
                latency: 9,
            },
        );
        s.record(Cycle(9), &TraceEvent::Halt { in_flight: 0 });
        s
    }

    #[test]
    fn jsonl_is_one_valid_looking_object_per_line() {
        let s = sample();
        let jsonl = s.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), s.len());
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"ts\":"));
            assert!(line.contains("\"kind\":"));
            // Balanced braces (no nested objects in JSONL lines).
            assert_eq!(line.matches('{').count(), line.matches('}').count());
        }
    }

    #[test]
    fn chrome_json_has_trace_events_envelope() {
        let s = sample();
        let json = s.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2); // fire + packet
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn every_event_kind_serializes_in_both_formats() {
        let evs = [
            TraceEvent::TokenEmit { pe: 0 },
            TraceEvent::TokenConsume { pe: 0 },
            TraceEvent::MatchWait {
                pe: 0,
                occupancy: 2,
            },
            TraceEvent::MatchFire {
                pe: 0,
                alu: false,
                busy: 0,
            },
            TraceEvent::WaveEnd { fired: 4 },
            TraceEvent::Halt { in_flight: 1 },
            TraceEvent::Presence {
                module: 3,
                from: PresenceState::Deferred,
                to: PresenceState::Present,
            },
            TraceEvent::DeferEnqueue {
                module: 3,
                depth: 2,
            },
            TraceEvent::DeferRelease {
                module: 3,
                released: 2,
            },
            TraceEvent::IStoreRead {
                module: 3,
                immediate: false,
            },
            TraceEvent::IStoreWrite { module: 3 },
            TraceEvent::PacketSend {
                from: 1,
                to: 2,
                hops: 1,
                queued: 0,
                latency: 3,
            },
        ];
        let mut s = ChromeTraceSink::new();
        for ev in &evs {
            s.record(Cycle(7), ev);
        }
        assert_eq!(s.to_jsonl().lines().count(), evs.len());
        for ev in &evs {
            assert!(s.to_jsonl().contains(ev.kind()), "{} missing", ev.kind());
        }
        let chrome = s.to_chrome_json();
        assert_eq!(chrome.matches("\"ts\":7").count(), evs.len());
    }
}
