//! The aggregating sink: counts every event and checks the lifecycle
//! invariants the paper's claims rest on.

use std::any::Any;

use ttda_sim::Cycle;

use crate::{Metrics, TraceEvent, TraceSink};

/// A sink that aggregates events into a [`Metrics`] registry and keeps
/// the running ledgers needed to check trace invariants:
///
/// - **Token conservation** — every emitted token is consumed by exactly
///   one waiting–matching section, so at a clean halt
///   `emitted == consumed + in_flight` with `in_flight == 0`.
/// - **No stranded deferred reads** — at quiescence every deferred read
///   has been released by its producer's write.
/// - **Hop accounting** — total hops from `packet_send` events equal the
///   sum of per-packet routing distances, so traces can be checked
///   against `Topology::hops`.
#[derive(Debug, Default)]
pub struct CountingSink {
    metrics: Metrics,
    halt_in_flight: Option<u64>,
    total_hops: u64,
    per_packet_hops: Vec<u32>,
    peak_defer_depth: u64,
}

impl CountingSink {
    /// An empty counting sink.
    pub fn new() -> Self {
        CountingSink::default()
    }

    /// The aggregated metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Tokens emitted so far.
    pub fn tokens_emitted(&self) -> u64 {
        self.metrics.counter_value("token_emit")
    }

    /// Tokens consumed by waiting–matching sections so far.
    pub fn tokens_consumed(&self) -> u64 {
        self.metrics.counter_value("token_consume")
    }

    /// The `in_flight` count reported by the machine's halt event, if a
    /// halt has been observed.
    pub fn in_flight_at_halt(&self) -> Option<u64> {
        self.halt_in_flight
    }

    /// Deferred reads still outstanding (enqueued minus released).
    pub fn deferred_outstanding(&self) -> i64 {
        let enq = self.metrics.counter_value("defer_enqueue") as i64;
        let rel = self.metrics.counter_value("defer_released_readers") as i64;
        enq - rel
    }

    /// Network packets observed.
    pub fn packets(&self) -> u64 {
        self.metrics.counter_value("packet_send")
    }

    /// Total hops across all packets.
    pub fn total_hops(&self) -> u64 {
        self.total_hops
    }

    /// Hop count of every packet, in send order (for checking against
    /// `Topology::hops`).
    pub fn per_packet_hops(&self) -> &[u32] {
        &self.per_packet_hops
    }

    /// Longest deferred list seen on any single cell.
    pub fn peak_defer_depth(&self) -> u64 {
        self.peak_defer_depth
    }

    /// Token conservation: `emitted == consumed + in_flight(halt)`.
    ///
    /// Returns `false` until a halt event has been observed.
    pub fn token_conservation_holds(&self) -> bool {
        match self.halt_in_flight {
            Some(in_flight) => self.tokens_emitted() == self.tokens_consumed() + in_flight,
            None => false,
        }
    }

    /// Quiescence invariant: halted with nothing in flight and no
    /// deferred read still parked.
    pub fn quiescent(&self) -> bool {
        self.halt_in_flight == Some(0) && self.deferred_outstanding() == 0
    }
}

impl TraceSink for CountingSink {
    fn record(&mut self, _at: Cycle, ev: &TraceEvent) {
        self.metrics.counter(ev.kind()).incr();
        match *ev {
            TraceEvent::MatchWait { occupancy, .. } => {
                self.metrics
                    .histogram("match_occupancy", 64, 4)
                    .record(occupancy);
            }
            TraceEvent::MatchFire { alu, busy, .. } => {
                if alu {
                    self.metrics.counter("alu_fires").incr();
                }
                self.metrics.histogram("fire_busy", 32, 2).record(busy);
            }
            TraceEvent::WaveEnd { fired } => {
                self.metrics.histogram("wave_width", 64, 4).record(fired);
            }
            TraceEvent::Halt { in_flight } => {
                self.halt_in_flight = Some(in_flight);
            }
            TraceEvent::DeferEnqueue { depth, .. } => {
                self.peak_defer_depth = self.peak_defer_depth.max(depth);
                self.metrics.histogram("defer_depth", 32, 1).record(depth);
            }
            TraceEvent::DeferRelease { released, .. } => {
                self.metrics.counter("defer_released_readers").add(released);
            }
            TraceEvent::IStoreRead { immediate, .. } if immediate => {
                self.metrics.counter("istore_read_immediate").incr();
            }
            TraceEvent::PacketSend {
                hops,
                queued,
                latency,
                ..
            } => {
                self.total_hops += hops as u64;
                self.per_packet_hops.push(hops);
                self.metrics
                    .histogram("packet_hops", 16, 1)
                    .record(hops as u64);
                self.metrics
                    .histogram("packet_queued", 64, 8)
                    .record(queued);
                self.metrics
                    .histogram("packet_latency", 64, 8)
                    .record(latency);
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PresenceState;

    fn rec(s: &mut CountingSink, ev: TraceEvent) {
        s.record(Cycle(0), &ev);
    }

    #[test]
    fn conservation_ledger() {
        let mut s = CountingSink::new();
        for _ in 0..5 {
            rec(&mut s, TraceEvent::TokenEmit { pe: 0 });
        }
        for _ in 0..5 {
            rec(&mut s, TraceEvent::TokenConsume { pe: 0 });
        }
        assert!(!s.token_conservation_holds(), "no halt seen yet");
        rec(&mut s, TraceEvent::Halt { in_flight: 0 });
        assert!(s.token_conservation_holds());
        assert!(s.quiescent());

        // A sixth emit breaks the books.
        rec(&mut s, TraceEvent::TokenEmit { pe: 0 });
        assert!(!s.token_conservation_holds());
    }

    #[test]
    fn deferred_ledger_balances() {
        let mut s = CountingSink::new();
        rec(
            &mut s,
            TraceEvent::DeferEnqueue {
                module: 0,
                depth: 1,
            },
        );
        rec(
            &mut s,
            TraceEvent::DeferEnqueue {
                module: 0,
                depth: 2,
            },
        );
        assert_eq!(s.deferred_outstanding(), 2);
        assert_eq!(s.peak_defer_depth(), 2);
        rec(
            &mut s,
            TraceEvent::DeferRelease {
                module: 0,
                released: 2,
            },
        );
        assert_eq!(s.deferred_outstanding(), 0);
    }

    #[test]
    fn hop_accounting() {
        let mut s = CountingSink::new();
        rec(
            &mut s,
            TraceEvent::PacketSend {
                from: 0,
                to: 3,
                hops: 2,
                queued: 0,
                latency: 6,
            },
        );
        rec(
            &mut s,
            TraceEvent::PacketSend {
                from: 1,
                to: 2,
                hops: 3,
                queued: 4,
                latency: 13,
            },
        );
        assert_eq!(s.packets(), 2);
        assert_eq!(s.total_hops(), 5);
        assert_eq!(s.per_packet_hops(), &[2, 3]);
    }

    #[test]
    fn misc_events_are_counted_by_kind() {
        let mut s = CountingSink::new();
        rec(
            &mut s,
            TraceEvent::Presence {
                module: 0,
                from: PresenceState::Empty,
                to: PresenceState::Present,
            },
        );
        rec(&mut s, TraceEvent::IStoreWrite { module: 0 });
        rec(
            &mut s,
            TraceEvent::IStoreRead {
                module: 0,
                immediate: true,
            },
        );
        rec(
            &mut s,
            TraceEvent::MatchFire {
                pe: 0,
                alu: true,
                busy: 3,
            },
        );
        assert_eq!(s.metrics().counter_value("presence"), 1);
        assert_eq!(s.metrics().counter_value("istore_write"), 1);
        assert_eq!(s.metrics().counter_value("istore_read_immediate"), 1);
        assert_eq!(s.metrics().counter_value("alu_fires"), 1);
    }
}
