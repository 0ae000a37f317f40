//! A parametric fixed-latency network.

use ttda_sim::Cycle;

use crate::topology::{check_node, LinkId, NodeId, Topology, TopologyError};

/// An idealized single-hop network with a configurable latency.
///
/// Every port owns one injection link; any two distinct ports are one hop
/// apart with latency `latency`. This is the analytical baseline for the
/// latency-tolerance experiments (E1, E4): it lets experiments *dial in*
/// the memory round-trip latency the paper's Issue 1 is about, without any
/// topological side effects. Source-port bandwidth is still finite — two
/// packets injected by the same port serialize — matching the paper's
/// "ports, each with a bounded bandwidth".
///
/// # Example
///
/// ```
/// use ttda_net::{Ideal, NodeId, Topology};
/// use ttda_sim::Cycle;
///
/// let net = Ideal::new(8, Cycle(50));
/// assert_eq!(net.hops(NodeId(0), NodeId(7)).unwrap(), 1);
/// assert_eq!(net.hops(NodeId(3), NodeId(3)).unwrap(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct Ideal {
    ports: usize,
    latency: Cycle,
}

impl Ideal {
    /// Creates an `n`-port network with the given per-transfer latency.
    pub fn new(ports: usize, latency: Cycle) -> Self {
        Ideal { ports, latency }
    }

    /// The configured one-way latency.
    pub fn latency(&self) -> Cycle {
        self.latency
    }
}

impl Topology for Ideal {
    fn ports(&self) -> usize {
        self.ports
    }

    fn links(&self) -> usize {
        self.ports
    }

    fn route(&self, from: NodeId, to: NodeId, path: &mut Vec<LinkId>) -> Result<(), TopologyError> {
        check_node(from, self.ports)?;
        check_node(to, self.ports)?;
        if from != to {
            path.push(LinkId(from.0));
        }
        Ok(())
    }

    fn link_latency(&self, _link: LinkId) -> Cycle {
        self.latency
    }

    fn diameter(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_hop_everywhere() {
        let net = Ideal::new(4, Cycle(9));
        for a in 0..4 {
            for b in 0..4 {
                let hops = net.hops(NodeId(a), NodeId(b)).unwrap();
                assert_eq!(hops, usize::from(a != b));
            }
        }
        assert_eq!(net.diameter(), 1);
        assert_eq!(net.links(), 4);
    }

    #[test]
    fn latency_is_every_links_latency() {
        let net = Ideal::new(2, Cycle(5));
        assert_eq!(net.latency(), Cycle(5));
        assert_eq!(net.link_latency(LinkId(1)), Cycle(5));
    }

    #[test]
    fn rejects_bad_nodes() {
        let net = Ideal::new(2, Cycle(1));
        assert!(net.path(NodeId(0), NodeId(2)).is_err());
        assert!(net.path(NodeId(5), NodeId(0)).is_err());
    }
}
