//! BabelStream triad: `c[i] = a[i] + s * b[i]`.
//!
//! Fully coalesced streaming over three equal vectors. Each warp owns a
//! contiguous chunk and walks it page by page: two loads and one
//! scoreboard-gated store per page triple. Table 3 shows this workload's
//! batches concentrated in few VABlocks (≈3.9) with many faults each
//! (≈15).

use uvm_gpu::isa::WarpProgram;
use uvm_sim::mem::PAGE_SIZE;

use crate::cpu_init::CpuInitPolicy;
use crate::workload::Workload;

/// Parameters for the stream triad.
#[derive(Debug, Clone, Copy)]
pub struct StreamParams {
    /// Number of warps.
    pub warps: u32,
    /// Pages per vector per warp.
    pub pages_per_warp: u64,
    /// Triad iterations (BabelStream repeats the kernel many times; >1
    /// makes evicted blocks get re-touched under oversubscription).
    pub iters: u32,
    /// Warps sharing each page triple. A warp covers 32 floats = 128 B, so
    /// on real hardware 32 warps' accesses coalesce into every 4 KiB page;
    /// shared faulting is the source of stream's duplicate faults (Fig. 8).
    pub warps_per_page: u32,
    /// Host-side initialization of `a` and `b`.
    pub cpu_init: Option<CpuInitPolicy>,
}

impl Default for StreamParams {
    fn default() -> Self {
        StreamParams {
            warps: 128,
            pages_per_warp: 32,
            iters: 1,
            warps_per_page: 1,
            cpu_init: None,
        }
    }
}

/// Build the triad workload.
pub fn build(params: StreamParams) -> Workload {
    let warps = params.warps.max(1) as u64;
    let ppw = params.pages_per_warp.max(1);
    let share = params.warps_per_page.max(1) as u64;
    let groups = warps.div_ceil(share);
    let pages_per_vec = groups * ppw;
    let mut b = Workload::builder("stream");
    let a = b.alloc(pages_per_vec * PAGE_SIZE);
    let bb = b.alloc(pages_per_vec * PAGE_SIZE);
    let c = b.alloc(pages_per_vec * PAGE_SIZE);

    for w in 0..warps {
        let mut prog = WarpProgram::new();
        let group = w / share;
        for _iter in 0..params.iters.max(1) {
            for i in 0..ppw {
                let idx = group * ppw + i;
                prog.load([a.page(idx)]).load([bb.page(idx)]).store([c.page(idx)]);
            }
        }
        b.warp(prog);
    }

    if let Some(policy) = params.cpu_init {
        let touches: Vec<_> = policy
            .touches(&a)
            .into_iter()
            .chain(policy.touches(&bb))
            .collect();
        b.cpu_touches(touches);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvm_gpu::fault::AccessKind;
    use uvm_gpu::isa::Instr;

    #[test]
    fn triad_structure() {
        let w = build(StreamParams {
            warps: 2,
            pages_per_warp: 3,
            iters: 1,
            warps_per_page: 1,
            cpu_init: None,
        });
        assert_eq!(w.num_warps(), 2);
        let instrs = w.programs[0].instrs();
        assert_eq!(instrs.len(), 9);
        assert!(matches!(instrs[0], Instr::Access { kind: AccessKind::Read, .. }));
        assert!(matches!(instrs[1], Instr::Access { kind: AccessKind::Read, .. }));
        assert!(instrs[2].is_store());
    }

    #[test]
    fn three_equal_vectors() {
        let w = build(StreamParams::default());
        assert_eq!(w.allocations.len(), 3);
        assert_eq!(w.allocations[0].len, w.allocations[1].len);
        assert_eq!(w.allocations[1].len, w.allocations[2].len);
    }

    #[test]
    fn chunks_are_contiguous_and_disjoint() {
        let w = build(StreamParams {
            warps: 4,
            pages_per_warp: 8,
            iters: 1,
            warps_per_page: 1,
            cpu_init: None,
        });
        let a = w.allocations[0];
        let w0: Vec<_> = w.programs[0]
            .touched_pages()
            .into_iter()
            .filter(|p| a.contains(p.base_addr()))
            .collect();
        assert_eq!(w0.len(), 8);
        assert_eq!(w0[0], a.page(0));
        assert_eq!(w0[7], a.page(7));
        let w1: Vec<_> = w.programs[1]
            .touched_pages()
            .into_iter()
            .filter(|p| a.contains(p.base_addr()))
            .collect();
        assert_eq!(w1[0], a.page(8));
    }
}
