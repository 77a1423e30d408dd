//! Tiled GEMM (cuBLAS sgemm/dgemm access structure).
//!
//! `C = A × B` with square matrices, processed in `tile × tile` blocks.
//! One warp owns one C tile and, for each k-step, reads the corresponding
//! A and B tiles before finally storing its C tile. The structure creates
//! exactly the driver-visible properties the paper reports for sgemm:
//!
//! * heavy tile reuse across warps in the same row/column → cross-μTLB
//!   duplicate faults;
//! * per-k-step "phases" in the batch time series (Fig. 8);
//! * the write burst to C at the end of each warp's work;
//! * moderate VABlock spread (Table 3: ≈7 blocks/batch).

use std::collections::BTreeSet;

use uvm_gpu::fault::AccessKind;
use uvm_gpu::isa::WarpProgram;
use uvm_sim::mem::{Allocation, PageNum, PAGE_SIZE};
use uvm_sim::time::SimDuration;

use crate::cpu_init::CpuInitPolicy;
use crate::workload::Workload;

/// Parameters for the tiled GEMM workload.
#[derive(Debug, Clone, Copy)]
pub struct GemmParams {
    /// Matrix dimension (n × n).
    pub n: u64,
    /// Tile edge (paper-era cuBLAS uses 128 on Volta).
    pub tile: u64,
    /// Element size in bytes: 4 for sgemm, 8 for dgemm.
    pub elem_size: u64,
    /// Pages per load/store instruction (lane coalescing width).
    pub pages_per_instr: usize,
    /// Compute time per k-step (tile FMA work between access phases).
    pub compute_per_ktile: SimDuration,
    /// Host-side initialization of A and B.
    pub cpu_init: Option<CpuInitPolicy>,
}

impl Default for GemmParams {
    fn default() -> Self {
        GemmParams {
            n: 1024,
            tile: 128,
            elem_size: 4,
            pages_per_instr: 32,
            compute_per_ktile: SimDuration::from_micros(40),
            cpu_init: Some(CpuInitPolicy::SingleThread),
        }
    }
}

impl GemmParams {
    /// dgemm: 8-byte elements.
    pub fn dgemm(self) -> Self {
        GemmParams {
            elem_size: 8,
            ..self
        }
    }
}

/// The distinct pages a `tile × tile` sub-matrix at `(row0, col0)` of a
/// row-major `n × n` matrix with `elem_size`-byte elements occupies.
pub fn tile_pages(
    alloc: &Allocation,
    n: u64,
    elem_size: u64,
    row0: u64,
    col0: u64,
    tile: u64,
) -> Vec<PageNum> {
    let mut pages = BTreeSet::new();
    for r in row0..(row0 + tile).min(n) {
        let start = (r * n + col0) * elem_size;
        let end = start + tile.min(n - col0) * elem_size;
        let first = start / PAGE_SIZE;
        let last = (end - 1) / PAGE_SIZE;
        for p in first..=last {
            pages.insert(PageNum(alloc.page(0).0 + p));
        }
    }
    pages.into_iter().collect()
}


/// Deterministic per-warp compute-time factor in [0.7, 1.3]: real blocks
/// experience uneven SM scheduling and cache behaviour, desynchronizing
/// their access phases — without this, simulated warps fault in lockstep
/// and every batch saturates.
fn warp_compute_factor(w: u64) -> f64 {
    let h = w.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56;
    0.7 + 0.6 * (h as f64 / 255.0)
}

/// Build the tiled GEMM workload.
pub fn build(params: GemmParams) -> Workload {
    let n = params.n.max(params.tile);
    let tile = params.tile.max(1);
    let tiles = n / tile;
    let bytes = n * n * params.elem_size;
    let name = if params.elem_size == 8 { "dgemm" } else { "sgemm" };

    let mut b = Workload::builder(name);
    let a = b.alloc(bytes);
    let bm = b.alloc(bytes);
    let c = b.alloc(bytes);

    let per = params.pages_per_instr.max(1);
    for ti in 0..tiles {
        for tj in 0..tiles {
            let mut prog = WarpProgram::new();
            for tk in 0..tiles {
                let a_pages = tile_pages(&a, n, params.elem_size, ti * tile, tk * tile, tile);
                prog.access_chunks(AccessKind::Read, &a_pages, per);
                let b_pages = tile_pages(&bm, n, params.elem_size, tk * tile, tj * tile, tile);
                prog.access_chunks(AccessKind::Read, &b_pages, per);
                if params.compute_per_ktile > SimDuration::ZERO {
                    let d = params
                        .compute_per_ktile
                        .mul_f64(warp_compute_factor(ti * tiles + tj));
                    prog.delay(d);
                }
            }
            let c_pages = tile_pages(&c, n, params.elem_size, ti * tile, tj * tile, tile);
            prog.access_chunks(AccessKind::Write, &c_pages, per);
            b.warp(prog);
        }
    }

    if let Some(policy) = params.cpu_init {
        let touches: Vec<_> = policy
            .touches(&a)
            .into_iter()
            .chain(policy.touches(&bm))
            .collect();
        b.cpu_touches(touches);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_pages_one_page_per_row_when_row_is_page() {
        // n=1024, f32: one row = 4096 B = exactly one page.
        let alloc = uvm_sim::mem::AddressSpaceAllocator::new().alloc(1024 * 1024 * 4);
        let pages = tile_pages(&alloc, 1024, 4, 0, 0, 128);
        assert_eq!(pages.len(), 128);
        // Tile at column 512 touches the same row pages (different offsets).
        let pages2 = tile_pages(&alloc, 1024, 4, 0, 512, 128);
        assert_eq!(pages, pages2);
    }

    #[test]
    fn warp_count_is_tile_grid() {
        let w = build(GemmParams::default());
        assert_eq!(w.num_warps(), 64); // (1024/128)^2
        assert_eq!(w.allocations.len(), 3);
        assert_eq!(w.footprint_bytes(), 3 * 1024 * 1024 * 4);
    }

    #[test]
    fn warps_share_a_and_b_tiles() {
        let w = build(GemmParams::default());
        // Warps 0 and 1 (same tile row) share all their A pages.
        let a = w.allocations[0];
        let a_pages = |i: usize| -> std::collections::BTreeSet<_> {
            w.programs[i]
                .touched_pages()
                .into_iter()
                .filter(|p| a.contains(p.base_addr()))
                .collect()
        };
        assert_eq!(a_pages(0), a_pages(1), "row-mates reuse A tiles");
    }

    #[test]
    fn stores_come_last() {
        let w = build(GemmParams::default());
        let instrs = w.programs[0].instrs();
        let first_store = instrs.iter().position(|i| i.is_store()).unwrap();
        assert!(instrs[first_store..].iter().all(|i| i.is_store()));
    }

    #[test]
    fn dgemm_touches_more_pages_than_sgemm() {
        let s = build(GemmParams {
            cpu_init: None,
            ..Default::default()
        });
        let d = build(GemmParams {
            cpu_init: None,
            ..Default::default()
        }
        .dgemm());
        assert_eq!(d.footprint_bytes(), 2 * s.footprint_bytes());
        assert!(d.name == "dgemm" && s.name == "sgemm");
    }

    #[test]
    fn cpu_init_covers_a_and_b() {
        let w = build(GemmParams::default());
        let expected = 2 * (1024u64 * 1024 * 4 / PAGE_SIZE);
        assert_eq!(w.cpu_init.iter().map(|t| t.pages).sum::<u64>(), expected);
    }
}
