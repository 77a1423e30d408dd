//! The "Regular" synthetic benchmark.
//!
//! Every warp streams through its own contiguous page range — maximal
//! regularity, every SM faulting continuously. In Tables 2 and 3 this
//! workload shows the highest per-SM fault density (≈3.2, the fair-share
//! cap) and faults spread across many VABlocks per batch.

use uvm_gpu::fault::AccessKind;
use uvm_gpu::isa::WarpProgram;
use uvm_sim::mem::PAGE_SIZE;

use crate::cpu_init::CpuInitPolicy;
use crate::workload::Workload;

/// Parameters for the regular streaming benchmark.
#[derive(Debug, Clone, Copy)]
pub struct RegularParams {
    /// Number of warps (spread across all SMs).
    pub warps: u32,
    /// Contiguous pages each warp streams through.
    pub pages_per_warp: u64,
    /// Pages touched per warp instruction (page-strided lanes).
    pub pages_per_instr: usize,
    /// Host-side initialization.
    pub cpu_init: Option<CpuInitPolicy>,
}

impl Default for RegularParams {
    fn default() -> Self {
        RegularParams {
            warps: 160,
            pages_per_warp: 64,
            pages_per_instr: 4,
            cpu_init: None,
        }
    }
}

/// Build the regular streaming workload.
pub fn build(params: RegularParams) -> Workload {
    let warps = params.warps.max(1) as u64;
    let ppw = params.pages_per_warp.max(1);
    let per = params.pages_per_instr.max(1);
    let mut b = Workload::builder("regular");
    let region = b.alloc(warps * ppw * PAGE_SIZE);
    for w in 0..warps {
        let mut prog = WarpProgram::new();
        let pages: Vec<_> = (0..ppw).map(|i| region.page(w * ppw + i)).collect();
        prog.access_chunks(AccessKind::Read, &pages, per);
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
    fn covers_whole_region_exactly_once() {
        let w = build(RegularParams {
            warps: 8,
            pages_per_warp: 16,
            pages_per_instr: 4,
            cpu_init: Some(CpuInitPolicy::SingleThread),
        });
        assert_eq!(w.num_warps(), 8);
        assert_eq!(w.total_accesses(), 128);
        let mut pages: Vec<_> = w.programs.iter().flat_map(|p| p.touched_pages()).collect();
        pages.sort_unstable();
        pages.dedup();
        assert_eq!(pages.len(), 128, "no sharing between warps");
        assert_eq!(w.cpu_init.iter().map(|t| t.pages).sum::<u64>(), 128);
    }

    #[test]
    fn default_footprint_is_multi_block() {
        let w = build(RegularParams::default());
        assert!(w.footprint_blocks() >= 20);
    }
}
