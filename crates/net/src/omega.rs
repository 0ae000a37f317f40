//! The NYU Ultracomputer's multistage omega network.

use crate::topology::{check_node, LinkId, NodeId, Topology, TopologyError};

/// A log-depth omega (perfect-shuffle / banyan) network of 2×2 switches
/// connecting `n = 2^k` processor ports to `n` memory ports (§1.2.3).
///
/// A packet from port `p` to port `q` traverses `k` switch stages; at
/// stage `s` the switch output is selected by bit `k-1-s` of the
/// destination (destination-tag routing). Each stage output wire is a
/// link, so two packets whose destination tags steer them through the same
/// wire at the same time *conflict* — the congestion that makes hot spots
/// (every processor touching one shared counter) catastrophic without
/// combining. The combining of FETCH-AND-ADD packets, which needs to hold
/// state inside switches, is modelled in `ttda-machines::ultra`.
///
/// # Example
///
/// ```
/// use ttda_net::{NodeId, Omega, Topology};
///
/// let net = Omega::new(8).unwrap(); // k = 3 stages
/// assert_eq!(net.stages(), 3);
/// assert_eq!(net.hops(NodeId(0), NodeId(5)).unwrap(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Omega {
    k: usize,
    n: usize,
}

impl Omega {
    /// Creates an omega network with `ports` inputs and outputs.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidParameter`] unless `ports` is a
    /// power of two and at least 2.
    pub fn new(ports: usize) -> Result<Self, TopologyError> {
        if ports < 2 || !ports.is_power_of_two() {
            return Err(TopologyError::InvalidParameter(format!(
                "omega network needs a power-of-two port count >= 2, got {ports}"
            )));
        }
        Ok(Omega {
            k: ports.trailing_zeros() as usize,
            n: ports,
        })
    }

    /// Number of switch stages (`log2(ports)`).
    pub fn stages(&self) -> usize {
        self.k
    }

    /// The perfect shuffle: rotate the `k`-bit address left by one.
    fn shuffle(&self, p: usize) -> usize {
        ((p << 1) | (p >> (self.k - 1))) & (self.n - 1)
    }

    /// The wire a packet occupies after each stage en route `from → to`.
    fn wire_after_stage(&self, from: usize, to: usize, stage: usize) -> usize {
        let mut cur = from;
        for s in 0..=stage {
            cur = self.shuffle(cur);
            let bit = (to >> (self.k - 1 - s)) & 1;
            cur = (cur & !1) | bit;
        }
        cur
    }
}

impl Topology for Omega {
    fn ports(&self) -> usize {
        self.n
    }

    // One link per stage-output wire.
    fn links(&self) -> usize {
        self.k * self.n
    }

    fn route(&self, from: NodeId, to: NodeId, path: &mut Vec<LinkId>) -> Result<(), TopologyError> {
        check_node(from, self.n)?;
        check_node(to, self.n)?;
        if from == to {
            // Memory ports are distinct from processor ports in the real
            // machine; a same-index reference still crosses the network.
        }
        for s in 0..self.k {
            let wire = self.wire_after_stage(from.0, to.0, s);
            path.push(LinkId(s * self.n + wire));
        }
        Ok(())
    }

    fn diameter(&self) -> usize {
        self.k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{Fabric, FabricConfig};
    use ttda_sim::Cycle;

    #[test]
    fn every_route_has_log_n_hops() {
        let net = Omega::new(16).unwrap();
        for a in 0..16 {
            for b in 0..16 {
                assert_eq!(net.hops(NodeId(a), NodeId(b)).unwrap(), 4);
            }
        }
    }

    #[test]
    fn final_wire_is_the_destination() {
        let net = Omega::new(32).unwrap();
        for a in 0..32 {
            for b in 0..32 {
                assert_eq!(net.wire_after_stage(a, b, net.k - 1), b);
            }
        }
    }

    #[test]
    fn distinct_sources_same_dest_share_final_link() {
        let net = Omega::new(8).unwrap();
        let p0 = net.path(NodeId(0), NodeId(5)).unwrap();
        let p1 = net.path(NodeId(3), NodeId(5)).unwrap();
        assert_eq!(p0.last(), p1.last(), "hot-spot traffic converges");
    }

    #[test]
    fn hot_spot_serializes_without_combining() {
        let net = Omega::new(8).unwrap();
        let mut f = Fabric::new(net, FabricConfig::default());
        let mut arrivals: Vec<Cycle> = (0..8)
            .map(|p| f.send(Cycle(0), NodeId(p), NodeId(0)))
            .collect();
        arrivals.sort();
        // All eight packets funnel into one memory port link: strictly
        // increasing arrival times.
        for w in arrivals.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn invalid_sizes_rejected() {
        assert!(Omega::new(0).is_err());
        assert!(Omega::new(1).is_err());
        assert!(Omega::new(6).is_err());
        assert!(Omega::new(64).is_ok());
    }
}
