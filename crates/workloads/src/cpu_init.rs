//! Host-side initialization models.
//!
//! HPC codes initialize their data on the CPU before launching GPU kernels.
//! *How* they do it — one thread or an OpenMP parallel loop — determines
//! how many CPU cores end up as mappers of each page, which in turn
//! determines the fault-path `unmap_mapping_range` cost (paper Fig. 11:
//! default OpenMP threading roughly halves HPGMG's UVM performance).

use serde::Serialize;
use uvm_sim::mem::{Allocation, PageNum};

/// A run of CPU first-touches: `core` touched the `pages` consecutive
/// pages from `first` (`write` = stores during init).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CpuTouch {
    /// First touched page.
    pub first: PageNum,
    /// Number of consecutive pages touched.
    pub pages: u64,
    /// Touching CPU core.
    pub core: u32,
    /// Whether the touches dirtied the pages.
    pub write: bool,
}

/// How the host parallelizes initialization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuInitPolicy {
    /// One thread initializes everything (the paper's
    /// `OMP_NUM_THREADS=1` configuration).
    SingleThread,
    /// `threads` threads, OpenMP `schedule(static)` with large contiguous
    /// chunks: each VABlock mostly sees one mapper core.
    Chunked {
        /// Thread count.
        threads: u32,
    },
    /// `threads` threads, fine-grained interleaving (e.g. OpenMP
    /// `schedule(static, 1)` over rows smaller than a VABlock): every
    /// VABlock sees many mapper cores. This is the configuration that
    /// exaggerates unmap cost.
    Striped {
        /// Thread count.
        threads: u32,
    },
}

impl CpuInitPolicy {
    /// The touch runs initializing every page of `alloc` once, in page
    /// order: one run per thread's chunk, or one page per run when
    /// several threads interleave page by page.
    pub fn touches(&self, alloc: &Allocation) -> Vec<CpuTouch> {
        let n = alloc.num_pages();
        let run = |lo: u64, pages: u64, core: u64| CpuTouch {
            first: alloc.page(lo),
            pages,
            core: core as u32,
            write: true,
        };
        let threads = match *self {
            CpuInitPolicy::SingleThread => 1,
            CpuInitPolicy::Chunked { threads } | CpuInitPolicy::Striped { threads } => {
                u64::from(threads.max(1))
            }
        };
        if matches!(self, CpuInitPolicy::Striped { .. }) && threads > 1 {
            return (0..n).map(|i| run(i, 1, i % threads)).collect();
        }
        let chunk = n.div_ceil(threads).max(1);
        (0..n).step_by(chunk as usize).map(|lo| run(lo, chunk.min(n - lo), lo / chunk)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvm_sim::mem::{AddressSpaceAllocator, VABLOCK_SIZE};

    fn alloc(blocks: u64) -> Allocation {
        AddressSpaceAllocator::new().alloc(blocks * VABLOCK_SIZE)
    }

    /// Each touched page with its core, run by run.
    fn per_page(touches: &[CpuTouch]) -> Vec<(PageNum, u32)> {
        touches
            .iter()
            .flat_map(|t| (0..t.pages).map(move |i| (t.first.offset(i), t.core)))
            .collect()
    }

    fn cores_in_first_block(touches: &[CpuTouch]) -> std::collections::HashSet<u32> {
        let pages = per_page(touches);
        pages
            .iter()
            .filter(|(p, _)| p.va_block() == pages[0].0.va_block())
            .map(|&(_, core)| core)
            .collect()
    }

    #[test]
    fn single_thread_uses_core_zero() {
        let a = alloc(2);
        let touches = CpuInitPolicy::SingleThread.touches(&a);
        assert_eq!(touches, [CpuTouch { first: a.page(0), pages: 1024, core: 0, write: true }]);
    }

    #[test]
    fn chunked_keeps_blocks_single_mapper() {
        let a = alloc(8);
        let touches = CpuInitPolicy::Chunked { threads: 4 }.touches(&a);
        // 8 blocks / 4 threads = 2 blocks per thread: each block sees one
        // core, and each thread's chunk is one run.
        assert_eq!(cores_in_first_block(&touches).len(), 1);
        assert_eq!(touches.len(), 4);
        let all_cores: std::collections::HashSet<u32> = touches.iter().map(|t| t.core).collect();
        assert_eq!(all_cores.len(), 4);
    }

    #[test]
    fn striped_spreads_mappers_across_each_block() {
        let a = alloc(2);
        let touches = CpuInitPolicy::Striped { threads: 32 }.touches(&a);
        assert_eq!(cores_in_first_block(&touches).len(), 32);
        assert!(touches.iter().all(|t| t.pages == 1));
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let a = alloc(1);
        let t1 = CpuInitPolicy::Striped { threads: 0 }.touches(&a);
        assert!(t1.iter().all(|t| t.core == 0));
        let t2 = CpuInitPolicy::Chunked { threads: 0 }.touches(&a);
        assert!(t2.iter().all(|t| t.core == 0));
        assert_eq!(t1, t2);
        assert_eq!(t1, CpuInitPolicy::SingleThread.touches(&a));
    }

    #[test]
    fn every_page_touched_exactly_once() {
        let a = alloc(3);
        for policy in [
            CpuInitPolicy::SingleThread,
            CpuInitPolicy::Chunked { threads: 8 },
            CpuInitPolicy::Striped { threads: 8 },
        ] {
            let pages: Vec<PageNum> = per_page(&policy.touches(&a)).into_iter().map(|(p, _)| p).collect();
            assert_eq!(pages, (0..a.num_pages()).map(|i| a.page(i)).collect::<Vec<_>>());
        }
    }
}
