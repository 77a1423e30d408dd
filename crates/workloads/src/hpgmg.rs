//! HPGMG-FV: geometric multigrid V-cycles.
//!
//! The proxy app sweeps a hierarchy of grid levels: smooth on the fine
//! level, restrict the residual to the next-coarser level, recurse, then
//! prolong corrections back up and smooth again. Each level's arrays are
//! separate managed allocations. The V-cycle structure is what produces
//! the paper's Fig. 17 behaviour: the fine level (allocated first) is
//! re-touched at the *end* of every cycle, so under oversubscription the
//! migration-order LRU keeps evicting exactly the data about to be needed.

use uvm_gpu::fault::AccessKind;
use uvm_gpu::isa::WarpProgram;
use uvm_sim::mem::{Allocation, PageNum, PAGE_SIZE};
use uvm_sim::time::SimDuration;

use crate::cpu_init::CpuInitPolicy;
use crate::workload::Workload;

/// Parameters for the HPGMG workload.
#[derive(Debug, Clone, Copy)]
pub struct HpgmgParams {
    /// Pages per array at the finest level.
    pub level0_pages: u64,
    /// Number of levels (each coarser level is 4× smaller).
    pub levels: u32,
    /// Number of V-cycles.
    pub vcycles: u32,
    /// Number of warps (each owns a slab of every level).
    pub warps: u32,
    /// Pages per load/store instruction.
    pub pages_per_instr: usize,
    /// Compute time per smooth phase per warp.
    pub compute_per_phase: SimDuration,
    /// Host-side initialization of all levels (the Fig. 11 knob).
    pub cpu_init: Option<CpuInitPolicy>,
}

impl Default for HpgmgParams {
    fn default() -> Self {
        HpgmgParams {
            level0_pages: 2048,
            levels: 4,
            vcycles: 2,
            warps: 64,
            pages_per_instr: 8,
            compute_per_phase: SimDuration::from_micros(10),
            cpu_init: Some(CpuInitPolicy::SingleThread),
        }
    }
}

/// Pages of warp `w`'s slab of an allocation divided among `warps` warps.
fn slab(alloc: &Allocation, w: u64, warps: u64) -> Vec<PageNum> {
    let n = alloc.num_pages();
    let per = n.div_ceil(warps);
    let lo = (w * per).min(n);
    let hi = ((w + 1) * per).min(n);
    (lo..hi).map(|i| alloc.page(i)).collect()
}


/// Deterministic per-warp compute-time factor in [0.7, 1.3]: real blocks
/// experience uneven SM scheduling and cache behaviour, desynchronizing
/// their access phases — without this, simulated warps fault in lockstep
/// and every batch saturates.
fn warp_compute_factor(w: u64) -> f64 {
    let h = w.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56;
    0.7 + 0.6 * (h as f64 / 255.0)
}

/// Build the HPGMG workload.
pub fn build(params: HpgmgParams) -> Workload {
    let levels = params.levels.max(2);
    let warps = params.warps.max(1) as u64;
    let per = params.pages_per_instr.max(1);

    let mut b = Workload::builder("hpgmg");
    // Two arrays per level: solution u and residual r.
    let mut u = Vec::new();
    let mut r = Vec::new();
    for l in 0..levels {
        let pages = (params.level0_pages.max(4) >> (2 * l)).max(1);
        u.push(b.alloc(pages * PAGE_SIZE));
        r.push(b.alloc(pages * PAGE_SIZE));
    }

    for w in 0..warps {
        let mut prog = WarpProgram::new();
        let smooth = |prog: &mut WarpProgram, l: usize| {
            let up = slab(&u[l], w, warps);
            let rp = slab(&r[l], w, warps);
            if up.is_empty() {
                return;
            }
            let mut loads = up.clone();
            loads.extend(rp);
            prog.access_chunks(AccessKind::Read, &loads, per);
            if params.compute_per_phase > SimDuration::ZERO {
                prog.delay(params.compute_per_phase.mul_f64(warp_compute_factor(w)));
            }
            prog.access_chunks(AccessKind::Write, &up, per);
        };

        for _cycle in 0..params.vcycles.max(1) {
            // Downstroke: smooth each level, then restrict to the coarser.
            for l in 0..(levels as usize - 1) {
                smooth(&mut prog, l);
                let fine = slab(&r[l], w, warps);
                let coarse = slab(&r[l + 1], w, warps);
                prog.access_chunks(AccessKind::Read, &fine, per);
                prog.access_chunks(AccessKind::Write, &coarse, per);
            }
            // Coarsest solve.
            smooth(&mut prog, levels as usize - 1);
            // Upstroke: prolong corrections and smooth.
            for l in (0..(levels as usize - 1)).rev() {
                let coarse = slab(&u[l + 1], w, warps);
                let fine = slab(&u[l], w, warps);
                prog.access_chunks(AccessKind::Read, &coarse, per);
                prog.access_chunks(AccessKind::Write, &fine, per);
                smooth(&mut prog, l);
            }
        }
        b.warp(prog);
    }

    if let Some(policy) = params.cpu_init {
        let mut touches = Vec::new();
        for alloc in u.iter().chain(r.iter()) {
            touches.extend(policy.touches(alloc));
        }
        b.cpu_touches(touches);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> HpgmgParams {
        HpgmgParams {
            level0_pages: 256,
            levels: 3,
            vcycles: 1,
            warps: 4,
            pages_per_instr: 8,
            compute_per_phase: SimDuration::ZERO,
            cpu_init: None,
        }
    }

    #[test]
    fn level_hierarchy_shrinks_4x() {
        let w = build(small());
        // 3 levels x 2 arrays = 6 allocations: 256, 256, 64, 64, 16, 16 pages.
        assert_eq!(w.allocations.len(), 6);
        assert_eq!(w.allocations[0].num_pages(), 256);
        assert_eq!(w.allocations[2].num_pages(), 64);
        assert_eq!(w.allocations[4].num_pages(), 16);
    }

    #[test]
    fn vcycle_retouches_fine_level_last() {
        let w = build(small());
        let u0 = w.allocations[0];
        let prog = &w.programs[0];
        let touches_u0: Vec<usize> = prog
            .instrs()
            .iter()
            .enumerate()
            .filter(|&(_, &i)| prog.pages_of(i).iter().any(|p| u0.contains(p.base_addr())))
            .map(|(idx, _)| idx)
            .collect();
        // The fine level is touched both early (downstroke) and at the very
        // end (final smooth of the upstroke).
        assert!(*touches_u0.first().unwrap() < prog.len() / 4);
        assert!(*touches_u0.last().unwrap() > 3 * prog.len() / 4);
    }

    #[test]
    fn vcycles_scale_work() {
        let one = build(small());
        let two = build(HpgmgParams {
            vcycles: 2,
            ..small()
        });
        assert_eq!(two.total_accesses(), 2 * one.total_accesses());
    }

    #[test]
    fn slabs_partition_each_level() {
        let w = build(small());
        let u0 = w.allocations[0];
        let mut pages: Vec<_> = w
            .programs
            .iter()
            .flat_map(|p| p.touched_pages())
            .filter(|p| u0.contains(p.base_addr()))
            .collect();
        pages.sort_unstable();
        pages.dedup();
        assert_eq!(pages.len() as u64, u0.num_pages(), "every fine page touched");
    }

    #[test]
    fn cpu_init_covers_all_levels() {
        let w = build(HpgmgParams {
            cpu_init: Some(CpuInitPolicy::Striped { threads: 8 }),
            ..small()
        });
        let total: u64 = w.allocations.iter().map(|a| a.num_pages()).sum();
        assert_eq!(w.cpu_init.iter().map(|t| t.pages).sum::<u64>(), total);
    }
}
