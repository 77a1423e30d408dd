//! The "Random" synthetic benchmark.
//!
//! Warps touch uniformly random pages across a large region — the
//! worst case for the driver's VABlock-oriented servicing: Table 3 shows
//! ≈233 distinct VABlocks per batch at ≈1 fault per VABlock, i.e. no
//! spatial locality whatsoever.

use uvm_gpu::isa::WarpProgram;
use uvm_sim::mem::PAGE_SIZE;
use uvm_sim::rng::DetRng;

use crate::cpu_init::CpuInitPolicy;
use crate::workload::Workload;

/// Parameters for the random-access benchmark.
#[derive(Debug, Clone, Copy)]
pub struct RandomParams {
    /// Number of warps.
    pub warps: u32,
    /// Random single-page accesses per warp.
    pub accesses_per_warp: u32,
    /// Footprint in pages.
    pub footprint_pages: u64,
    /// Seed for the access pattern.
    pub seed: u64,
    /// Host-side initialization.
    pub cpu_init: Option<CpuInitPolicy>,
}

impl Default for RandomParams {
    fn default() -> Self {
        RandomParams {
            warps: 160,
            accesses_per_warp: 64,
            footprint_pages: 16 * 1024, // 64 MiB
            seed: 0xBAD5EED,
            cpu_init: None,
        }
    }
}

/// Build the random-access workload.
pub fn build(params: RandomParams) -> Workload {
    let mut rng = DetRng::new(params.seed);
    let mut b = Workload::builder("random");
    let region = b.alloc(params.footprint_pages.max(1) * PAGE_SIZE);
    for _ in 0..params.warps.max(1) {
        let mut prog = WarpProgram::new();
        for _ in 0..params.accesses_per_warp.max(1) {
            let p = region.page(rng.below(params.footprint_pages.max(1)));
            prog.load([p]);
        }
        b.warp(prog);
    }
    if let Some(policy) = params.cpu_init {
        let touches = policy.touches(&region);
        b.cpu_touches(touches);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let a = build(RandomParams::default());
        let b = build(RandomParams::default());
        assert_eq!(a.programs, b.programs);
    }

    #[test]
    fn different_seeds_differ() {
        let a = build(RandomParams::default());
        let b = build(RandomParams {
            seed: 123,
            ..Default::default()
        });
        assert_ne!(a.programs, b.programs);
    }

    #[test]
    fn accesses_spread_over_many_blocks() {
        let w = build(RandomParams {
            warps: 32,
            accesses_per_warp: 32,
            footprint_pages: 8192,
            seed: 7,
            cpu_init: None,
        });
        let blocks: std::collections::HashSet<_> = w
            .programs
            .iter()
            .flat_map(|p| p.touched_pages())
            .map(|p| p.va_block())
            .collect();
        assert!(blocks.len() > 10, "random accesses span many VABlocks: {}", blocks.len());
    }

    #[test]
    fn all_pages_within_allocation() {
        let w = build(RandomParams::default());
        let region = w.allocations[0];
        for p in w.programs.iter().flat_map(|p| p.touched_pages()) {
            assert!(p >= region.page(0));
            assert!(p.0 < region.page(0).0 + region.num_pages());
        }
    }
}
