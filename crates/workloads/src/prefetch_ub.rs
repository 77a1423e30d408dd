//! The Fig. 5 software-prefetch microbenchmark.
//!
//! A single warp issues `prefetch.global.L2` over a large region. Because
//! prefetches need no registers, they bypass the scoreboard and the μTLB
//! outstanding-fault slots, so one warp can generate faults up to the
//! driver's batch-size limit in a single batch.

use uvm_gpu::fault::AccessKind;
use uvm_gpu::isa::WarpProgram;
use uvm_sim::mem::PAGE_SIZE;

use crate::workload::Workload;

/// Parameters for the prefetch microbenchmark.
#[derive(Debug, Clone, Copy)]
pub struct PrefetchUbParams {
    /// Pages to prefetch (the paper's example exceeds the 256 batch limit).
    pub pages: u64,
    /// Pages per prefetch instruction (PTX emits one per access; grouping
    /// only affects instruction count, not fault generation).
    pub pages_per_instr: usize,
}

impl Default for PrefetchUbParams {
    fn default() -> Self {
        PrefetchUbParams {
            pages: 300,
            pages_per_instr: 32,
        }
    }
}

/// Build the prefetch microbenchmark.
pub fn build(params: PrefetchUbParams) -> Workload {
    let pages = params.pages.max(1);
    let per = params.pages_per_instr.max(1);
    let mut b = Workload::builder("prefetch-ub");
    let region = b.alloc(pages * PAGE_SIZE);
    let mut prog = WarpProgram::new();
    let all: Vec<_> = (0..pages).map(|i| region.page(i)).collect();
    prog.access_chunks(AccessKind::Prefetch, &all, per);
    b.warp(prog);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvm_gpu::isa::Instr;

    #[test]
    fn single_warp_prefetches_all_pages() {
        let w = build(PrefetchUbParams::default());
        assert_eq!(w.num_warps(), 1);
        assert_eq!(w.total_accesses(), 300);
        assert!(w.programs[0]
            .instrs()
            .iter()
            .all(|i| matches!(i, Instr::Access { kind: AccessKind::Prefetch, .. })));
    }

    #[test]
    fn chunking_preserves_page_count() {
        let w = build(PrefetchUbParams {
            pages: 100,
            pages_per_instr: 7,
        });
        assert_eq!(w.total_accesses(), 100);
        assert_eq!(w.programs[0].len(), 15);
    }
}
