//! Token-lifecycle tracing and metrics for the TTDA suite.
//!
//! The paper's Section-3 testbed exists to *observe* where tokens spend
//! their time — in the waiting–matching store, on deferred I-structure
//! read lists, and in the packet network. This crate is that
//! observability layer for the reproduction: a small event vocabulary
//! ([`TraceEvent`]), a sink trait ([`TraceSink`]) that the hot paths of
//! `ttda-core`, `ttda-mem` and `ttda-net` report into, and two concrete
//! sinks:
//!
//! - [`CountingSink`] aggregates events into a [`Metrics`] registry and
//!   exposes the lifecycle invariants the paper argues by (token
//!   conservation, zero deferred reads at quiescence, hop accounting);
//! - [`ChromeTraceSink`] records every event verbatim and exports it as
//!   JSONL or as a `chrome://tracing` / Perfetto `trace_event` file.
//!
//! Tracing is **off by default**: components hold an `Option<SharedSink>`
//! that is `None` unless explicitly attached, so the disabled cost is one
//! branch per would-be event.
//!
//! # Example
//!
//! ```
//! use ttda_trace::{shared, CountingSink, TraceEvent, TraceSink};
//! use ttda_sim::Cycle;
//!
//! let sink = shared(CountingSink::new());
//! sink.borrow_mut().record(Cycle(0), &TraceEvent::TokenEmit { pe: 0 });
//! sink.borrow_mut().record(Cycle(1), &TraceEvent::TokenConsume { pe: 0 });
//! sink.borrow_mut().record(Cycle(1), &TraceEvent::Halt { in_flight: 0 });
//! let s = sink.borrow();
//! let c = s.as_any().downcast_ref::<ttda_trace::CountingSink>().unwrap();
//! assert!(c.token_conservation_holds());
//! ```

#![warn(missing_docs)]

mod chrome;
mod counting;
mod metrics;

pub use chrome::ChromeTraceSink;
pub use counting::CountingSink;
pub use metrics::Metrics;

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

use ttda_sim::Cycle;

/// The presence-bit state of an I-structure cell, mirrored here so the
/// memory crate can report transitions without a dependency cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PresenceState {
    /// Never written, no readers waiting.
    Empty,
    /// Written; reads are satisfied immediately.
    Present,
    /// Not yet written, with one or more deferred readers parked.
    Deferred,
}

/// One observable step in the life of a token, an I-structure cell, or a
/// network packet.
///
/// Events are deliberately small `Copy` values: constructing one is a few
/// register moves, and a disabled sink skips even that.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A token came into existence (program input injection, instruction
    /// output, or an I-structure release) destined for processing
    /// element `pe`.
    TokenEmit {
        /// Destination processing element.
        pe: u32,
    },
    /// A token was consumed by the waiting–matching section of `pe`
    /// (it either completed a match or was parked as a partial one).
    TokenConsume {
        /// Consuming processing element.
        pe: u32,
    },
    /// A token was parked in the waiting–matching store as a partial
    /// match; `occupancy` is the store's entry count after parking.
    MatchWait {
        /// Processing element.
        pe: u32,
        /// Waiting–matching entries on this PE after the insert.
        occupancy: u64,
    },
    /// An instruction became enabled and fired.
    MatchFire {
        /// Processing element.
        pe: u32,
        /// Whether the firing was real ALU work.
        alu: bool,
        /// Pipeline service time charged for the firing (match + ALU +
        /// output sections); zero in the untimed emulator.
        busy: u64,
    },
    /// The untimed emulator finished one wave of `fired` simultaneous
    /// firings (the parallelism profile, one event per wave).
    WaveEnd {
        /// Instructions fired in this wave.
        fired: u64,
    },
    /// The machine reached quiescence; `in_flight` is the number of
    /// tokens still in queues or waves at that instant (0 for a clean
    /// halt).
    Halt {
        /// Tokens still un-consumed at halt.
        in_flight: u64,
    },
    /// An I-structure cell's presence bits changed state.
    Presence {
        /// The memory module (or structure id in the emulator).
        module: u32,
        /// State before the operation.
        from: PresenceState,
        /// State after the operation.
        to: PresenceState,
    },
    /// A read arrived before the producer's write and was parked;
    /// `depth` is the cell's deferred-list length after the enqueue.
    DeferEnqueue {
        /// The memory module.
        module: u32,
        /// Deferred readers parked on the cell after this enqueue.
        depth: u64,
    },
    /// A write released `released` parked readers from a cell's
    /// deferred list.
    DeferRelease {
        /// The memory module.
        module: u32,
        /// Readers released by the write.
        released: u64,
    },
    /// An I-structure read was serviced (`immediate` distinguishes a
    /// presence-bit hit from a deferral).
    IStoreRead {
        /// The memory module.
        module: u32,
        /// True when the cell was already written.
        immediate: bool,
    },
    /// An I-structure write was serviced.
    IStoreWrite {
        /// The memory module.
        module: u32,
    },
    /// A packet crossed the network: `hops` links, `queued` cycles lost
    /// to link contention, `latency` cycles end to end.
    PacketSend {
        /// Source port.
        from: u32,
        /// Destination port.
        to: u32,
        /// Links traversed (routing distance actually taken, including
        /// any detour around failed links).
        hops: u32,
        /// Cycles spent waiting for busy links.
        queued: u64,
        /// Total cycles from injection to delivery.
        latency: u64,
    },
}

impl TraceEvent {
    /// A short stable name for the event kind (metrics keys, JSON).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::TokenEmit { .. } => "token_emit",
            TraceEvent::TokenConsume { .. } => "token_consume",
            TraceEvent::MatchWait { .. } => "match_wait",
            TraceEvent::MatchFire { .. } => "match_fire",
            TraceEvent::WaveEnd { .. } => "wave_end",
            TraceEvent::Halt { .. } => "halt",
            TraceEvent::Presence { .. } => "presence",
            TraceEvent::DeferEnqueue { .. } => "defer_enqueue",
            TraceEvent::DeferRelease { .. } => "defer_release",
            TraceEvent::IStoreRead { .. } => "istore_read",
            TraceEvent::IStoreWrite { .. } => "istore_write",
            TraceEvent::PacketSend { .. } => "packet_send",
        }
    }
}

/// A consumer of trace events.
///
/// Implementations must be cheap: hot paths call [`TraceSink::record`]
/// once per token, firing, memory operation and packet.
pub trait TraceSink {
    /// Receives one event stamped with the simulated time it occurred.
    fn record(&mut self, at: Cycle, ev: &TraceEvent);

    /// Upcast for recovering the concrete sink after a run.
    fn as_any(&self) -> &dyn Any;
}

/// A sink shared between a machine, its memory modules and its network.
///
/// Sinks are observed from the machine's calling thread only, so
/// `Rc<RefCell<…>>` is the right amount of machinery: one sink instance
/// observes the whole machine. The parallel backend never hands a
/// `SharedSink` to a worker thread (it is not `Send`); workers record
/// into [`EventBuffer`]s instead, which the caller replays into the sink
/// once the run ends.
pub type SharedSink = Rc<RefCell<dyn TraceSink>>;

/// Wraps a concrete sink for sharing across subsystems.
pub fn shared<S: TraceSink + 'static>(sink: S) -> SharedSink {
    Rc::new(RefCell::new(sink))
}

/// An owned, order-preserving event buffer — the bridge between worker
/// threads and a (single-threaded) [`SharedSink`].
///
/// Worker threads cannot touch a `SharedSink` (it is `Rc`-based and not
/// `Send`). Instead each worker records into its own `EventBuffer` —
/// which *is* `Send`, since events are plain `Copy` data — and the
/// calling thread replays the buffers into the real sink, one worker
/// after another, when the run ends. Each worker's events keep their
/// order; the interleaving between workers is not the one a sequential
/// run would produce, but order-free ledgers (token conservation,
/// counter totals) still balance.
///
/// `EventBuffer` also implements [`TraceSink`], so code written against
/// the sink trait can record into a buffer unchanged.
#[derive(Debug, Default, Clone)]
pub struct EventBuffer {
    events: Vec<(Cycle, TraceEvent)>,
}

impl EventBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        EventBuffer { events: Vec::new() }
    }

    /// Appends one stamped event.
    pub fn push(&mut self, at: Cycle, ev: TraceEvent) {
        self.events.push((at, ev));
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the buffer holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The buffered events, in recording order.
    pub fn events(&self) -> &[(Cycle, TraceEvent)] {
        &self.events
    }

    /// Replays every buffered event into `sink`, preserving order and
    /// timestamps; the buffer is left empty.
    pub fn replay_into(&mut self, sink: &SharedSink) {
        let mut s = sink.borrow_mut();
        for (at, ev) in self.events.drain(..) {
            s.record(at, &ev);
        }
    }
}

impl TraceSink for EventBuffer {
    fn record(&mut self, at: Cycle, ev: &TraceEvent) {
        self.push(at, *ev);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable_and_distinct() {
        let evs = [
            TraceEvent::TokenEmit { pe: 0 },
            TraceEvent::TokenConsume { pe: 0 },
            TraceEvent::MatchWait {
                pe: 0,
                occupancy: 0,
            },
            TraceEvent::MatchFire {
                pe: 0,
                alu: false,
                busy: 0,
            },
            TraceEvent::WaveEnd { fired: 0 },
            TraceEvent::Halt { in_flight: 0 },
            TraceEvent::Presence {
                module: 0,
                from: PresenceState::Empty,
                to: PresenceState::Present,
            },
            TraceEvent::DeferEnqueue {
                module: 0,
                depth: 0,
            },
            TraceEvent::DeferRelease {
                module: 0,
                released: 0,
            },
            TraceEvent::IStoreRead {
                module: 0,
                immediate: true,
            },
            TraceEvent::IStoreWrite { module: 0 },
            TraceEvent::PacketSend {
                from: 0,
                to: 0,
                hops: 0,
                queued: 0,
                latency: 0,
            },
        ];
        let mut kinds: Vec<&str> = evs.iter().map(|e| e.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), evs.len(), "event kinds must be unique");
    }

    #[test]
    fn event_buffer_is_send_and_replays_in_order() {
        fn assert_send<T: Send>() {}
        assert_send::<EventBuffer>();

        let mut buf = EventBuffer::new();
        buf.record(Cycle(1), &TraceEvent::TokenEmit { pe: 0 });
        buf.push(Cycle(2), TraceEvent::TokenConsume { pe: 0 });
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.events()[0], (Cycle(1), TraceEvent::TokenEmit { pe: 0 }));

        let sink = shared(CountingSink::new());
        buf.replay_into(&sink);
        assert!(buf.is_empty());
        let s = sink.borrow();
        let c = s.as_any().downcast_ref::<CountingSink>().unwrap();
        assert_eq!(c.tokens_emitted(), 1);
        assert_eq!(c.tokens_consumed(), 1);
    }
}
