//! The Cm*-style hierarchical cluster network.

use ttda_sim::Cycle;

use crate::topology::{check_node, LinkId, NodeId, Topology, TopologyError};

/// How far a memory reference travels in a [`ClusterTree`] (§1.2.2).
///
/// Cm*'s defining performance fact was the latency ratio between these
/// levels — roughly 1 : 3 : 9 for local : intra-cluster : inter-cluster
/// references — combined with processors that *idle* for the full
/// duration of any nonlocal reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClusterLevel {
    /// Same computer module: no network traversal at all.
    Local,
    /// Different module, same cluster: one trip through the cluster's
    /// Kmap controller.
    IntraCluster,
    /// Different cluster: source Kmap → intercluster bus → target Kmap.
    InterCluster,
}

/// Cm*'s two-level hierarchy: `clusters` clusters of `per_cluster`
/// computer modules, each cluster served by a Kmap communications
/// controller, with the Kmaps joined by intercluster buses.
///
/// Links (all directed):
/// - `proc → Kmap` and `Kmap → proc` per module (intra-cluster hops);
/// - `Kmap → intercluster bus` and `bus → Kmap` per cluster.
///
/// The Kmap itself was "a context-switching processor which could
/// tolerate the long-latency remote memory references" — so the *network*
/// pipelines fine; the tragedy the paper highlights is that the LSI-11
/// processors could not, which the machine model in `ttda-machines`
/// captures by idling the requester.
///
/// # Example
///
/// ```
/// use ttda_net::{ClusterLevel, ClusterTree, NodeId, Topology};
///
/// let cm = ClusterTree::new(4, 8).unwrap(); // 4 clusters of 8 modules
/// assert_eq!(cm.ports(), 32);
/// assert_eq!(cm.level(NodeId(0), NodeId(0)), ClusterLevel::Local);
/// assert_eq!(cm.level(NodeId(0), NodeId(3)), ClusterLevel::IntraCluster);
/// assert_eq!(cm.level(NodeId(0), NodeId(20)), ClusterLevel::InterCluster);
/// ```
#[derive(Debug, Clone)]
pub struct ClusterTree {
    clusters: usize,
    per_cluster: usize,
}

impl ClusterTree {
    /// Creates a hierarchy of `clusters × per_cluster` modules with
    /// Cm*-like link latencies (intra 1, inter 3 — which combined with
    /// hop counts yields the published 1 : 3 : 9 reference ratios).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidParameter`] if either count is 0.
    pub fn new(clusters: usize, per_cluster: usize) -> Result<Self, TopologyError> {
        if clusters == 0 || per_cluster == 0 {
            return Err(TopologyError::InvalidParameter(
                "cluster tree needs nonzero clusters and modules".into(),
            ));
        }
        Ok(ClusterTree {
            clusters,
            per_cluster,
        })
    }

    /// Number of clusters.
    pub fn clusters(&self) -> usize {
        self.clusters
    }

    /// Modules per cluster.
    pub fn per_cluster(&self) -> usize {
        self.per_cluster
    }

    /// The cluster a module belongs to.
    pub fn cluster_of(&self, node: NodeId) -> usize {
        node.0 / self.per_cluster
    }

    /// Classifies a reference from `from` to memory at `to`.
    pub fn level(&self, from: NodeId, to: NodeId) -> ClusterLevel {
        if from == to {
            ClusterLevel::Local
        } else if self.cluster_of(from) == self.cluster_of(to) {
            ClusterLevel::IntraCluster
        } else {
            ClusterLevel::InterCluster
        }
    }

    // Link layout: [0,n) proc->kmap, [n,2n) kmap->proc,
    // [2n, 2n+c) kmap->bus, [2n+c, 2n+2c) bus->kmap.
    fn up(&self, node: usize) -> LinkId {
        LinkId(node)
    }
    fn down(&self, node: usize) -> LinkId {
        LinkId(self.ports() + node)
    }
    fn kmap_out(&self, cluster: usize) -> LinkId {
        LinkId(2 * self.ports() + cluster)
    }
    fn kmap_in(&self, cluster: usize) -> LinkId {
        LinkId(2 * self.ports() + self.clusters + cluster)
    }
}

impl Topology for ClusterTree {
    fn ports(&self) -> usize {
        self.clusters * self.per_cluster
    }

    fn links(&self) -> usize {
        2 * self.ports() + 2 * self.clusters
    }

    fn route(&self, from: NodeId, to: NodeId, path: &mut Vec<LinkId>) -> Result<(), TopologyError> {
        check_node(from, self.ports())?;
        check_node(to, self.ports())?;
        match self.level(from, to) {
            ClusterLevel::Local => {}
            ClusterLevel::IntraCluster => {
                path.push(self.up(from.0));
                path.push(self.down(to.0));
            }
            ClusterLevel::InterCluster => {
                path.push(self.up(from.0));
                path.push(self.kmap_out(self.cluster_of(from)));
                path.push(self.kmap_in(self.cluster_of(to)));
                path.push(self.down(to.0));
            }
        }
        Ok(())
    }

    fn link_latency(&self, link: LinkId) -> Cycle {
        if link.0 < 2 * self.ports() {
            Cycle(1)
        } else {
            Cycle(3)
        }
    }

    fn diameter(&self) -> usize {
        4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{Fabric, FabricConfig};

    #[test]
    fn levels_classified_correctly() {
        let cm = ClusterTree::new(3, 4).unwrap();
        assert_eq!(cm.level(NodeId(5), NodeId(5)), ClusterLevel::Local);
        assert_eq!(cm.level(NodeId(4), NodeId(7)), ClusterLevel::IntraCluster);
        assert_eq!(cm.level(NodeId(4), NodeId(8)), ClusterLevel::InterCluster);
        assert_eq!(cm.cluster_of(NodeId(11)), 2);
    }

    #[test]
    fn hop_counts_by_level() {
        let cm = ClusterTree::new(2, 2).unwrap();
        assert_eq!(cm.hops(NodeId(0), NodeId(0)).unwrap(), 0);
        assert_eq!(cm.hops(NodeId(0), NodeId(1)).unwrap(), 2);
        assert_eq!(cm.hops(NodeId(0), NodeId(3)).unwrap(), 4);
    }

    #[test]
    fn latency_ratio_roughly_one_three_nine() {
        // With default latencies and a unit-service fabric, measure the
        // three reference classes; the paper's published ratios are
        // approximate, we check strict ordering and >2x steps.
        let cm = ClusterTree::new(4, 4).unwrap();
        let cfg = FabricConfig {
            link_service: Cycle(1),
            switch_delay: Cycle(0),
            injection_delay: Cycle(0),
        };
        let mut f = Fabric::new(cm, cfg);
        let local = f.send(Cycle(0), NodeId(0), NodeId(0)).as_u64();
        f.reset();
        let intra = f.send(Cycle(0), NodeId(0), NodeId(1)).as_u64();
        f.reset();
        let inter = f.send(Cycle(0), NodeId(0), NodeId(15)).as_u64();
        assert_eq!(local, 0);
        assert!(intra >= 2);
        assert!(inter >= 2 * intra, "inter={inter} intra={intra}");
    }

    #[test]
    fn intercluster_bus_is_shared() {
        let cm = ClusterTree::new(2, 8).unwrap();
        let mut f = Fabric::new(cm, FabricConfig::default());
        // Two different modules in cluster 0 both reference cluster 1:
        // they share the kmap_out link of cluster 0.
        let a = f.send(Cycle(0), NodeId(0), NodeId(8));
        let b = f.send(Cycle(0), NodeId(1), NodeId(9));
        assert!(b > a);
    }

    #[test]
    fn zero_sizes_rejected() {
        assert!(ClusterTree::new(0, 4).is_err());
        assert!(ClusterTree::new(4, 0).is_err());
    }
}
