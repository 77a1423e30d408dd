//! The Listing 1 vector-addition microbenchmark.
//!
//! Each thread computes `c[i] = a[i] + b[i]` for indices one page apart, so
//! every lane of every warp touches its own page — the configuration the
//! paper uses to expose the 56-fault μTLB limit (Fig. 3) and the
//! scoreboard-gated write behaviour (Listing 2). The `coalesced` variant
//! instead walks consecutive elements (one page per warp instruction), the
//! shape real streaming kernels produce.

use uvm_gpu::isa::WarpProgram;
use uvm_sim::mem::PAGE_SIZE;

use crate::cpu_init::CpuInitPolicy;
use crate::workload::Workload;

/// Parameters for the vector-addition microbenchmark.
#[derive(Debug, Clone, Copy)]
pub struct VecAddParams {
    /// Number of warps (the paper's Listing 1 uses one).
    pub warps: u32,
    /// Statements per thread (`c[pN] = a[pN] + b[pN]`; the paper uses 3).
    pub statements: u32,
    /// Coalesced variant: lanes touch consecutive elements instead of
    /// one page per lane.
    pub coalesced: bool,
    /// Host-side initialization of `a` and `b` (the GPU writes `c` first).
    pub cpu_init: Option<CpuInitPolicy>,
}

impl Default for VecAddParams {
    fn default() -> Self {
        VecAddParams {
            warps: 1,
            statements: 3,
            coalesced: false,
            cpu_init: None,
        }
    }
}

/// Build the vector-addition workload.
pub fn build(params: VecAddParams) -> Workload {
    let lanes = 32u64;
    let warps = params.warps.max(1) as u64;
    let statements = params.statements.max(1) as u64;
    // Page-strided: each (warp, statement, lane) has its own page.
    // Coalesced: each (warp, statement) touches one page.
    let pages_per_vec = if params.coalesced {
        warps * statements
    } else {
        warps * statements * lanes
    };

    let mut b = Workload::builder(if params.coalesced { "vecadd-coalesced" } else { "vecadd" });
    let a = b.alloc(pages_per_vec * PAGE_SIZE);
    let bb = b.alloc(pages_per_vec * PAGE_SIZE);
    let c = b.alloc(pages_per_vec * PAGE_SIZE);

    for w in 0..warps {
        let mut prog = WarpProgram::new();
        for s in 0..statements {
            // Lane l of statement s touches page (s*warps + w)*32 + l,
            // matching Listing 1's `page0 + FPSIZE*TSIZE*stmt` layout.
            let (first, n) = if params.coalesced {
                (w * statements + s, 1)
            } else {
                ((s * warps + w) * lanes, lanes)
            };
            let pages = |vec: uvm_sim::mem::Allocation| (first..first + n).map(move |i| vec.page(i));
            prog.load(pages(a)).load(pages(bb)).store(pages(c));
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

    #[test]
    fn listing1_shape() {
        let w = build(VecAddParams::default());
        assert_eq!(w.num_warps(), 1);
        // 3 statements x 3 instructions.
        assert_eq!(w.programs[0].len(), 9);
        // 3 vectors x 3 statements x 32 lanes = 288 distinct pages.
        assert_eq!(w.programs[0].touched_pages().len(), 288);
        assert_eq!(w.total_accesses(), 288);
        assert!(w.cpu_init.is_empty());
    }

    #[test]
    fn store_follows_loads_each_statement() {
        let w = build(VecAddParams::default());
        let instrs = w.programs[0].instrs();
        for s in 0..3 {
            assert!(!instrs[s * 3].is_store());
            assert!(!instrs[s * 3 + 1].is_store());
            assert!(instrs[s * 3 + 2].is_store());
        }
    }

    #[test]
    fn coalesced_touches_one_page_per_instr() {
        let w = build(VecAddParams {
            coalesced: true,
            ..Default::default()
        });
        for &instr in w.programs[0].instrs() {
            assert_eq!(w.programs[0].pages_of(instr).len(), 1);
        }
        assert_eq!(w.programs[0].touched_pages().len(), 9);
    }

    #[test]
    fn multi_warp_pages_are_disjoint() {
        let w = build(VecAddParams {
            warps: 4,
            ..Default::default()
        });
        let mut all: Vec<_> = w.programs.iter().flat_map(|p| p.touched_pages()).collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "warps must not share pages in this microbenchmark");
    }

    #[test]
    fn cpu_init_covers_inputs_only() {
        let w = build(VecAddParams {
            cpu_init: Some(CpuInitPolicy::SingleThread),
            ..Default::default()
        });
        // a and b fully touched; c untouched.
        let pages: u64 = w.cpu_init.iter().map(|t| t.pages).sum();
        assert_eq!(pages, w.allocations[0].num_pages() * 2);
    }
}
