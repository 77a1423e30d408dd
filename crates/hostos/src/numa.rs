//! NUMA topology.
//!
//! The paper's testbed CPU (AMD Epyc 7551P) is a 4-die NUMA package; the
//! authors list "NUMA and other memory-adjacent issues" among the likely
//! contributors to host-OS unmap cost. We model topology as a node-distance
//! matrix plus a core→node assignment. CPU-side initialization policies in
//! `uvm-workloads` use it to decide thread placement, and the unmap cost
//! model charges a remote-access factor when the unmapping core and the
//! page's home node differ.

use serde::{Deserialize, Serialize};

/// A NUMA topology: `nodes` nodes with `cores_per_node` cores each, and a
/// symmetric distance matrix in the usual Linux convention (10 = local).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NumaTopology {
    nodes: u32,
    cores_per_node: u32,
    /// Row-major `nodes x nodes` distances.
    distances: Vec<u32>,
}

impl NumaTopology {
    /// A uniform (single-node) topology with `cores` cores.
    pub fn flat(cores: u32) -> Self {
        NumaTopology {
            nodes: 1,
            cores_per_node: cores,
            distances: vec![10],
        }
    }

    /// The paper's testbed: Epyc 7551P — 4 NUMA nodes, 8 cores each (SMT
    /// off), intra-package remote distance 16.
    pub fn epyc_7551p() -> Self {
        let nodes = 4;
        let mut distances = vec![16u32; (nodes * nodes) as usize];
        for i in 0..nodes as usize {
            distances[i * nodes as usize + i] = 10;
        }
        NumaTopology {
            nodes,
            cores_per_node: 8,
            distances,
        }
    }

    /// Number of NUMA nodes.
    pub fn num_nodes(&self) -> u32 {
        self.nodes
    }

    /// Total core count.
    pub fn num_cores(&self) -> u32 {
        self.nodes * self.cores_per_node
    }

    /// The node a core belongs to (cores are numbered node-major).
    pub fn node_of_core(&self, core: u32) -> u32 {
        (core / self.cores_per_node).min(self.nodes - 1)
    }

    /// Distance between two nodes (10 = local).
    pub fn distance(&self, a: u32, b: u32) -> u32 {
        let a = a.min(self.nodes - 1) as usize;
        let b = b.min(self.nodes - 1) as usize;
        self.distances[a * self.nodes as usize + b]
    }

    /// Relative access-cost factor between two *cores*: 1.0 when both are on
    /// the same node, `distance/10` otherwise.
    pub fn core_distance_factor(&self, core_a: u32, core_b: u32) -> f64 {
        let d = self.distance(self.node_of_core(core_a), self.node_of_core(core_b));
        f64::from(d) / 10.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_topology_is_uniform() {
        let t = NumaTopology::flat(32);
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.num_cores(), 32);
        assert_eq!(t.node_of_core(31), 0);
        assert_eq!(t.distance(0, 0), 10);
        assert_eq!(t.core_distance_factor(0, 31), 1.0);
    }

    #[test]
    fn epyc_layout() {
        let t = NumaTopology::epyc_7551p();
        assert_eq!(t.num_nodes(), 4);
        assert_eq!(t.num_cores(), 32);
        assert_eq!(t.node_of_core(0), 0);
        assert_eq!(t.node_of_core(7), 0);
        assert_eq!(t.node_of_core(8), 1);
        assert_eq!(t.node_of_core(31), 3);
        assert_eq!(t.distance(0, 0), 10);
        assert_eq!(t.distance(0, 3), 16);
        assert_eq!(t.core_distance_factor(0, 1), 1.0);
        assert_eq!(t.core_distance_factor(0, 8), 1.6);
    }

    #[test]
    fn out_of_range_core_clamps() {
        let t = NumaTopology::epyc_7551p();
        assert_eq!(t.node_of_core(1000), 3);
        assert_eq!(t.distance(99, 0), 16);
    }
}
