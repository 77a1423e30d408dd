//! Pointer-chasing graph BFS (level-synchronous, one kernel per level).
//!
//! The canonical irregular workload UVMBench and the EMOGI line of work
//! use to stress UVM: traversal order is data-dependent, so page touches
//! follow the graph's edge structure instead of any stride a reactive
//! prefetcher can learn. A deterministic random graph is generated from
//! the seed, BFS levels are computed host-side, and each level becomes one
//! kernel whose warps (a) stream their frontier vertices' adjacency
//! lists, (b) *gather* the scattered per-neighbor vertex data — the
//! pointer chase — and (c) store visit marks. Early levels touch a
//! handful of pages; the wavefront levels touch most of the vertex-data
//! allocation in near-random order.

use uvm_gpu::isa::WarpProgram;
use uvm_sim::mem::PAGE_SIZE;
use uvm_sim::rng::DetRng;
use uvm_sim::time::SimDuration;

use crate::cpu_init::CpuInitPolicy;
use crate::workload::Workload;

/// Parameters for the BFS workload.
#[derive(Debug, Clone, Copy)]
pub struct GraphBfsParams {
    /// Vertices in the graph.
    pub vertices: u64,
    /// Average out-degree (each vertex draws `1..=2*avg_degree` edges).
    pub avg_degree: u32,
    /// Bytes of per-vertex payload in the vertex-data array (the gather
    /// target; larger payloads spread vertices over more pages).
    pub vdata_bytes: u64,
    /// Frontier vertices assigned to one warp within a level.
    pub frontier_per_warp: u64,
    /// Cap on BFS levels (and therefore kernels); the traversal stops
    /// early once the frontier empties.
    pub max_levels: u32,
    /// Compute time charged per processed vertex.
    pub compute_per_vertex: SimDuration,
    /// Graph seed.
    pub seed: u64,
    /// Host-side initialization of the adjacency and vertex-data arrays.
    pub cpu_init: Option<CpuInitPolicy>,
}

impl Default for GraphBfsParams {
    fn default() -> Self {
        GraphBfsParams {
            vertices: 32_768,
            avg_degree: 8,
            vdata_bytes: 128,
            frontier_per_warp: 64,
            max_levels: 16,
            compute_per_vertex: SimDuration::from_nanos(200),
            seed: 0xBF5,
            cpu_init: Some(CpuInitPolicy::SingleThread),
        }
    }
}

/// Adjacency entries (8-byte neighbor ids) per 4 KiB page.
const ADJ_PER_PAGE: u64 = PAGE_SIZE / 8;

/// Build the BFS workload.
pub fn build(params: GraphBfsParams) -> Workload {
    let n = params.vertices.max(2);
    let vdata_bytes = params.vdata_bytes.max(8);
    let verts_per_page = (PAGE_SIZE / vdata_bytes).max(1);
    let mut rng = DetRng::new(params.seed);

    // Deterministic random graph: per-vertex edge lists, stored CSR-style
    // in the adjacency array (cumulative offsets → page addresses).
    let mut adjacency: Vec<Vec<u64>> = Vec::with_capacity(n as usize);
    let mut offsets: Vec<u64> = Vec::with_capacity(n as usize + 1);
    let mut total_edges: u64 = 0;
    offsets.push(0);
    for _ in 0..n {
        let deg = 1 + rng.below(u64::from(params.avg_degree.max(1)) * 2);
        let mut edges: Vec<u64> = (0..deg).map(|_| rng.below(n)).collect();
        edges.sort_unstable();
        edges.dedup();
        total_edges += edges.len() as u64;
        offsets.push(total_edges);
        adjacency.push(edges);
    }

    let mut b = Workload::builder("graph-bfs");
    let adj = b.alloc(total_edges.div_ceil(ADJ_PER_PAGE).max(1) * PAGE_SIZE);
    let vdata = b.alloc(n.div_ceil(verts_per_page) * PAGE_SIZE);
    let visited = b.alloc(n.div_ceil(ADJ_PER_PAGE).max(1) * PAGE_SIZE);

    // Host-side level-synchronous BFS from vertex 0; each level's frontier
    // becomes one kernel.
    let mut seen = vec![false; n as usize];
    seen[0] = true;
    let mut frontier: Vec<u64> = vec![0];
    let mut level = 0u32;
    let mut gathers = Vec::new();
    while !frontier.is_empty() && level < params.max_levels.max(1) {
        for chunk in frontier.chunks(params.frontier_per_warp.max(1) as usize) {
            let mut prog = WarpProgram::new();
            for &v in chunk {
                // Stream this vertex's adjacency slice.
                let (lo, hi) = (offsets[v as usize], offsets[v as usize + 1]);
                prog.load(
                    (lo / ADJ_PER_PAGE..=(hi.saturating_sub(1)) / ADJ_PER_PAGE).map(|p| adj.page(p)),
                );
                // The pointer chase: gather every neighbor's vertex data.
                gathers.clear();
                gathers.extend(adjacency[v as usize].iter().map(|&u| vdata.page(u / verts_per_page)));
                gathers.sort_unstable();
                gathers.dedup();
                prog.load(gathers.iter().copied());
                if params.compute_per_vertex > SimDuration::ZERO {
                    prog.delay(params.compute_per_vertex);
                }
                prog.store([visited.page(v / ADJ_PER_PAGE)]);
            }
            b.warp(prog);
        }
        b.end_kernel();
        // Next frontier: unseen neighbors, in deterministic ascending order.
        let mut next: Vec<u64> = Vec::new();
        for &v in &frontier {
            for &u in &adjacency[v as usize] {
                if !seen[u as usize] {
                    seen[u as usize] = true;
                    next.push(u);
                }
            }
        }
        next.sort_unstable();
        frontier = next;
        level += 1;
    }

    if let Some(policy) = params.cpu_init {
        let touches: Vec<_> = policy
            .touches(&adj)
            .into_iter()
            .chain(policy.touches(&vdata))
            .collect();
        b.cpu_touches(touches);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> GraphBfsParams {
        GraphBfsParams {
            vertices: 2048,
            avg_degree: 4,
            vdata_bytes: 64,
            frontier_per_warp: 32,
            max_levels: 8,
            compute_per_vertex: SimDuration::ZERO,
            seed: 3,
            cpu_init: None,
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = build(small());
        let b = build(small());
        assert_eq!(a.programs, b.programs);
        assert_eq!(a.kernel_ends, b.kernel_ends);
        let c = build(GraphBfsParams { seed: 4, ..small() });
        assert_ne!(a.programs, c.programs);
    }

    #[test]
    fn traversal_is_level_synchronous_and_multi_kernel() {
        let w = build(small());
        let kernels = w.kernels();
        assert!(kernels.len() >= 3, "BFS should take several levels: {}", kernels.len());
        // Level 0 is the single root vertex: exactly one warp.
        assert_eq!(kernels[0].len(), 1);
        // The wavefront grows before the traversal ends.
        let widest = kernels.iter().map(std::ops::Range::len).max().unwrap();
        assert!(widest > kernels[0].len(), "frontier never grew: {kernels:?}");
    }

    #[test]
    fn all_pages_within_allocations() {
        let w = build(small());
        let end = w.allocations.iter().map(|a| a.end().0).max().unwrap();
        for p in w.programs.iter().flat_map(|p| p.touched_pages()) {
            assert!(p.base_addr().0 < end);
        }
    }

    #[test]
    fn gathers_are_scattered_across_vdata() {
        // The pointer chase must touch many distinct vertex-data pages —
        // the irregularity the workload exists to produce.
        let w = build(small());
        let vdata = w.allocations[1];
        let pages: std::collections::BTreeSet<_> = w
            .programs
            .iter()
            .flat_map(|p| p.touched_pages())
            .filter(|p| vdata.contains(p.base_addr()))
            .collect();
        assert!(pages.len() > 10, "expected scattered vdata gathers: {}", pages.len());
    }
}
