//! The link-queueing engine that turns topologies into delivery times.

use ttda_sim::stats::Counter;
use ttda_sim::Cycle;
use ttda_trace::{SharedSink, TraceEvent};

use crate::topology::{LinkId, NodeId, Topology, TopologyError};

/// Tuning parameters for a [`Fabric`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricConfig {
    /// Cycles a link is occupied per packet (1 / bandwidth). The paper's
    /// emulation facility used 4 MB/s bit-serial links; at a nominal
    /// 10 MHz machine clock and 8-byte packets that is 20 cycles/packet,
    /// which is the default used by the hypercube experiments.
    pub link_service: Cycle,
    /// Extra switching latency added per hop (the "switching time in the
    /// network" of §1.1 Issue 1).
    pub switch_delay: Cycle,
    /// Fixed injection overhead at the source port.
    pub injection_delay: Cycle,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            link_service: Cycle(1),
            switch_delay: Cycle(1),
            injection_delay: Cycle(0),
        }
    }
}

impl FabricConfig {
    /// The configuration matching the Section-3 emulation facility's
    /// 4 MB/s bit-serial hypercube links (20 cycles of link occupancy per
    /// 8-byte packet at a 10 MHz clock).
    pub fn bit_serial_4mbs() -> Self {
        FabricConfig {
            link_service: Cycle(20),
            switch_delay: Cycle(2),
            injection_delay: Cycle(1),
        }
    }
}

/// Aggregate traffic counters collected by a [`Fabric`].
///
/// Only the counts every send updates. A packet's latency is its arrival
/// time, which [`Fabric::send`] returns, less its send time, and an
/// attached trace sink sees its latency and queueing in a `packet_send`
/// event: a caller that wants their distribution records it from either
/// (E12's saturation table does the first).
#[derive(Debug, Clone)]
pub struct NetStats {
    /// Packets successfully delivered.
    pub packets: Counter,
    /// Total hops traversed by all packets.
    pub hops: Counter,
}

impl NetStats {
    fn new() -> Self {
        NetStats {
            packets: Counter::new(),
            hops: Counter::new(),
        }
    }

    /// Mean hops per packet, or 0 if nothing was sent.
    pub fn mean_hops(&self) -> f64 {
        if self.packets.get() == 0 {
            0.0
        } else {
            self.hops.get() as f64 / self.packets.get() as f64
        }
    }
}

/// A deterministic store-and-forward packet transport over a [`Topology`].
///
/// Each directed link is a FIFO server occupied for
/// [`FabricConfig::link_service`] cycles per packet. A packet's delivery
/// time folds over its path: at each link it waits until both the packet
/// has arrived *and* the link is free, then occupies the link and moves
/// on. This captures the two effects the paper's Issue 1 rests on —
/// latency that grows with distance, and queueing that grows with load —
/// without simulating individual flits.
///
/// # Example
///
/// ```
/// use ttda_net::{Crossbar, Fabric, FabricConfig, NodeId};
/// use ttda_sim::Cycle;
///
/// let mut fabric = Fabric::new(Crossbar::new(4).unwrap(), FabricConfig::default());
/// let t1 = fabric.send(Cycle(0), NodeId(0), NodeId(3));
/// let t2 = fabric.send(Cycle(0), NodeId(1), NodeId(3)); // contends for n3's input
/// assert!(t2 > t1);
/// ```
#[derive(Clone)]
pub struct Fabric<T> {
    topology: T,
    config: FabricConfig,
    link_free: Vec<Cycle>,
    link_load: Vec<u64>,
    stats: NetStats,
    scratch: Vec<LinkId>,
    sink: Option<SharedSink>,
}

impl<T: std::fmt::Debug> std::fmt::Debug for Fabric<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("topology", &self.topology)
            .field("config", &self.config)
            .field("stats", &self.stats)
            .field("traced", &self.sink.is_some())
            .finish_non_exhaustive()
    }
}

impl<T: Topology> Fabric<T> {
    /// Wraps `topology` with queueing state and statistics.
    pub fn new(topology: T, config: FabricConfig) -> Self {
        let links = topology.links();
        Fabric {
            topology,
            config,
            link_free: vec![Cycle::ZERO; links],
            link_load: vec![0; links],
            stats: NetStats::new(),
            scratch: Vec::new(),
            sink: None,
        }
    }

    /// Attaches a trace sink; every delivered packet reports a
    /// `packet_send` event with its hop count, queueing and latency.
    pub fn set_sink(&mut self, sink: Option<SharedSink>) {
        self.sink = sink;
    }

    /// Builder-style [`Fabric::set_sink`].
    pub fn with_sink(mut self, sink: SharedSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// The wrapped topology.
    pub fn topology(&self) -> &T {
        &self.topology
    }

    /// Mutable access to the topology (used to inject faults or change
    /// routing tables mid-run); queue state is preserved.
    pub fn topology_mut(&mut self) -> &mut T {
        &mut self.topology
    }

    /// The active configuration.
    pub fn config(&self) -> FabricConfig {
        self.config
    }

    /// Sends one packet, returning its arrival time.
    ///
    /// # Panics
    ///
    /// Panics if the route fails; use [`Fabric::try_send`] when faults or
    /// partitioning can make destinations unreachable.
    pub fn send(&mut self, now: Cycle, from: NodeId, to: NodeId) -> Cycle {
        self.try_send(now, from, to)
            .expect("fabric route failed; use try_send for fallible topologies")
    }

    /// Sends one packet, returning its arrival time.
    ///
    /// # Errors
    ///
    /// Propagates routing errors from the topology (bad endpoints, or
    /// unreachable destinations after faults / partitioning).
    pub fn try_send(
        &mut self,
        now: Cycle,
        from: NodeId,
        to: NodeId,
    ) -> Result<Cycle, TopologyError> {
        self.scratch.clear();
        self.topology.route(from, to, &mut self.scratch)?;

        let mut t = now + self.config.injection_delay;
        let mut queued = Cycle::ZERO;
        for &link in &self.scratch {
            let free = self.link_free[link.0];
            if free > t {
                queued += free - t;
                t = free;
            }
            // Occupy the link, then propagate.
            self.link_free[link.0] = t + self.config.link_service;
            self.link_load[link.0] += 1;
            t = t
                + self.config.link_service
                + self.topology.link_latency(link)
                + self.config.switch_delay;
        }

        self.stats.packets.incr();
        self.stats.hops.add(self.scratch.len() as u64);
        if let Some(sink) = &self.sink {
            sink.borrow_mut().record(
                now,
                &TraceEvent::PacketSend {
                    from: from.0 as u32,
                    to: to.0 as u32,
                    hops: self.scratch.len() as u32,
                    queued: queued.as_u64(),
                    latency: (t - now).as_u64(),
                },
            );
        }
        Ok(t)
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// The most heavily used link and its packet count.
    pub fn hottest_link(&self) -> Option<(LinkId, u64)> {
        self.link_load
            .iter()
            .enumerate()
            .max_by_key(|&(_, &n)| n)
            .map(|(i, &n)| (LinkId(i), n))
    }

    /// Clears queue state and statistics but keeps the topology.
    pub fn reset(&mut self) {
        for f in &mut self.link_free {
            *f = Cycle::ZERO;
        }
        for l in &mut self.link_load {
            *l = 0;
        }
        self.stats = NetStats::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ideal::Ideal;

    #[test]
    fn zero_hop_is_immediate() {
        let mut f = Fabric::new(Ideal::new(4, Cycle(10)), FabricConfig::default());
        let t = f.send(Cycle(5), NodeId(2), NodeId(2));
        assert_eq!(t, Cycle(5));
        assert_eq!(f.stats().packets.get(), 1);
        assert_eq!(f.stats().mean_hops(), 0.0);
    }

    #[test]
    fn contention_serializes_on_shared_link() {
        // Ideal topology: one link per (src,dst) pair is NOT how Ideal is
        // built — it has a single conceptual link per source, so two sends
        // from the same source contend.
        let mut f = Fabric::new(Ideal::new(2, Cycle(3)), FabricConfig::default());
        let a = f.send(Cycle(0), NodeId(0), NodeId(1));
        let b = f.send(Cycle(0), NodeId(0), NodeId(1));
        assert!(b > a, "second packet must queue behind the first");
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut f = Fabric::new(Ideal::new(2, Cycle(3)), FabricConfig::default());
        f.send(Cycle(0), NodeId(0), NodeId(1));
        f.send(Cycle(0), NodeId(1), NodeId(0));
        assert_eq!(f.stats().packets.get(), 2);
        assert!(f.hottest_link().is_some());
        f.reset();
        assert_eq!(f.stats().packets.get(), 0);
        assert_eq!(f.hottest_link().map(|(_, n)| n), Some(0));
    }

    #[test]
    fn bad_node_is_error() {
        let mut f = Fabric::new(Ideal::new(2, Cycle(1)), FabricConfig::default());
        assert!(f.try_send(Cycle(0), NodeId(0), NodeId(9)).is_err());
    }

    #[test]
    fn sink_observes_packets() {
        use ttda_trace::{shared, CountingSink};

        let sink = shared(CountingSink::new());
        let mut f =
            Fabric::new(Ideal::new(4, Cycle(3)), FabricConfig::default()).with_sink(sink.clone());
        f.send(Cycle(0), NodeId(0), NodeId(1));
        f.send(Cycle(0), NodeId(2), NodeId(3));
        let s = sink.borrow();
        let c = s.as_any().downcast_ref::<CountingSink>().unwrap();
        assert_eq!(c.packets(), 2);
        assert_eq!(c.total_hops(), f.stats().hops.get());
        assert_eq!(c.per_packet_hops().len(), 2);
    }
}
