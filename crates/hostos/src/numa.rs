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

    /// Check a decoded topology: at least one node and one core per node,
    /// and a full `nodes x nodes` distance matrix. Without them
    /// [`Self::node_of_core`] divides by zero and [`Self::distance`]
    /// underflows or indexes out of bounds.
    pub(crate) fn check(&self) -> Result<(), String> {
        let (nodes, cores) = (self.nodes, self.cores_per_node);
        let want = u64::from(nodes) * u64::from(nodes);
        if nodes == 0 || cores == 0 || self.distances.len() as u64 != want {
            return Err(format!(
                "the host NUMA topology has {nodes} node(s) of {cores} core(s) and {} \
                 distance(s); it needs at least one of each and {want} distances",
                self.distances.len()
            ));
        }
        Ok(())
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
    fn check_refuses_topologies_that_cannot_place_a_core() {
        assert_eq!(NumaTopology::epyc_7551p().check(), Ok(()));
        assert_eq!(NumaTopology::flat(32).check(), Ok(()));
        let bad = |nodes, cores_per_node, distances: Vec<u32>| {
            NumaTopology { nodes, cores_per_node, distances }.check().expect_err("malformed")
        };
        assert!(bad(0, 8, vec![]).contains("0 node(s) of 8 core(s)"));
        assert!(bad(1, 0, vec![10]).contains("1 node(s) of 0 core(s)"));
        assert!(bad(2, 8, vec![10, 16, 10]).contains("3 distance(s); it needs at least one of each and 4"));
        // Large node counts do not overflow the square.
        assert!(bad(u32::MAX, 1, vec![10]).contains("18446744065119617025 distances"));
    }

    #[test]
    fn out_of_range_core_clamps() {
        let t = NumaTopology::epyc_7551p();
        assert_eq!(t.node_of_core(1000), 3);
        assert_eq!(t.distance(99, 0), 16);
    }
}
