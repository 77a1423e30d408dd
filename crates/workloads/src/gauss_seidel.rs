//! Gauss-Seidel 2-D stencil sweeps.
//!
//! The GPU formulation is *row-parallel, sweep-sequential*: every warp owns
//! a column slice and all warps cooperate on row `r` — reading rows
//! `r-1..r+1` and the right-hand side, writing row `r` — before the sweep
//! advances (the row dependency rides on the store scoreboard: a warp
//! cannot store row `r` until its reads are fulfilled, and it cannot read
//! row `r+1`'s new values before issuing that store).
//!
//! This structure produces the paper's Table 3 signature for Gauss-Seidel:
//! the highest locality of the suite — a couple of VABlocks per batch with
//! dozens of faults each — plus heavy cross-warp page sharing (the warps
//! of a row straddle the same pages), and re-sweeps that re-touch early
//! rows late (the Fig. 16 eviction churn).

use uvm_gpu::isa::WarpProgram;
use uvm_sim::mem::PAGE_SIZE;
use uvm_sim::time::SimDuration;

use crate::cpu_init::CpuInitPolicy;
use crate::workload::Workload;

/// Parameters for the Gauss-Seidel workload.
#[derive(Debug, Clone, Copy)]
pub struct GaussSeidelParams {
    /// Grid rows.
    pub rows: u64,
    /// Pages per row (grid width × element size / 4 KiB).
    pub pages_per_row: u64,
    /// Warps cooperating on each row (each owns a column slice).
    pub warps: u32,
    /// Number of sweeps.
    pub iters: u32,
    /// Compute time per row update (per warp).
    pub compute_per_row: SimDuration,
    /// Host-side initialization of `u` and `rhs`.
    pub cpu_init: Option<CpuInitPolicy>,
}

impl Default for GaussSeidelParams {
    fn default() -> Self {
        GaussSeidelParams {
            rows: 1024,
            pages_per_row: 2,
            warps: 64,
            iters: 2,
            compute_per_row: SimDuration::from_micros(2),
            cpu_init: Some(CpuInitPolicy::SingleThread),
        }
    }
}

/// Deterministic per-warp compute-time factor in [0.85, 1.15]: cooperating
/// warps stay roughly in step but not in lockstep.
fn warp_compute_factor(w: u64) -> f64 {
    let h = w.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56;
    0.85 + 0.3 * (h as f64 / 255.0)
}

/// Build the Gauss-Seidel workload.
pub fn build(params: GaussSeidelParams) -> Workload {
    let rows = params.rows.max(2);
    let ppr = params.pages_per_row.max(1);
    let warps = params.warps.max(1) as u64;
    let mut b = Workload::builder("gauss-seidel");
    let u = b.alloc(rows * ppr * PAGE_SIZE);
    let rhs = b.alloc(rows * ppr * PAGE_SIZE);

    // The page of row `r` that warp `w`'s column slice falls in.
    let slice_page = |alloc: &uvm_sim::mem::Allocation, r: u64, w: u64| {
        alloc.page(r * ppr + (w * ppr) / warps)
    };

    let mut loads = Vec::with_capacity(4);
    for w in 0..warps {
        let mut prog = WarpProgram::new();
        for _iter in 0..params.iters.max(1) {
            for r in 0..rows {
                let above = r.saturating_sub(1);
                let below = (r + 1).min(rows - 1);
                loads.clear();
                loads.extend([
                    slice_page(&u, above, w),
                    slice_page(&u, r, w),
                    slice_page(&u, below, w),
                    slice_page(&rhs, r, w),
                ]);
                loads.sort_unstable();
                loads.dedup();
                prog.load(loads.iter().copied());
                if params.compute_per_row > SimDuration::ZERO {
                    prog.delay(params.compute_per_row.mul_f64(warp_compute_factor(w)));
                }
                prog.store([slice_page(&u, r, w)]);
            }
        }
        b.warp(prog);
    }

    if let Some(policy) = params.cpu_init {
        let touches: Vec<_> = policy
            .touches(&u)
            .into_iter()
            .chain(policy.touches(&rhs))
            .collect();
        b.cpu_touches(touches);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> GaussSeidelParams {
        GaussSeidelParams {
            rows: 16,
            pages_per_row: 2,
            warps: 4,
            iters: 1,
            compute_per_row: SimDuration::ZERO,
            cpu_init: None,
        }
    }

    #[test]
    fn every_warp_sweeps_every_row() {
        let w = build(small());
        assert_eq!(w.num_warps(), 4);
        // Per warp: 16 rows x (1 load + 1 store).
        for p in &w.programs {
            assert_eq!(p.len(), 32);
        }
    }

    #[test]
    fn warps_split_rows_into_column_slices() {
        let w = build(small());
        let u = w.allocations[0];
        // 2 pages per row, 4 warps: warps 0-1 take page 0, warps 2-3 page 1.
        let first_store = |i: usize| {
            let p = &w.programs[i];
            p.pages_of(*p.instrs().iter().find(|ins| ins.is_store()).unwrap())[0]
        };
        assert_eq!(first_store(0), u.page(0));
        assert_eq!(first_store(1), u.page(0));
        assert_eq!(first_store(2), u.page(1));
        assert_eq!(first_store(3), u.page(1));
    }

    #[test]
    fn stencil_reads_neighbour_rows_and_rhs() {
        let w = build(small());
        let u = w.allocations[0];
        let rhs = w.allocations[1];
        // Warp 0, row 1 (instruction index 2 = row 1's load).
        let pages = w.programs[0].pages_of(w.programs[0].instrs()[2]);
        assert!(pages.contains(&u.page(0)), "row above");
        assert!(pages.contains(&u.page(2)), "row itself");
        assert!(pages.contains(&u.page(4)), "row below");
        assert!(pages.contains(&rhs.page(2)), "rhs");
    }

    #[test]
    fn iterations_multiply_accesses() {
        let one = build(small());
        let two = build(GaussSeidelParams { iters: 2, ..small() });
        assert_eq!(two.total_accesses(), 2 * one.total_accesses());
    }

    #[test]
    fn rows_shared_across_warps() {
        let w = build(small());
        let u0 = w.allocations[0].page(0);
        let sharers = w
            .programs
            .iter()
            .filter(|p| p.touched_pages().contains(&u0))
            .count();
        assert!(sharers >= 2, "pages are shared by cooperating warps: {sharers}");
    }
}
