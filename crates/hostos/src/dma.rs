//! IOMMU / DMA mapping layer.
//!
//! Before the GPU's copy engines can move a VABlock's data, the driver must
//! create DMA mappings for every page in the block and store *reverse*
//! mappings (DMA address → page) in a radix tree "implemented in the
//! mainline Linux kernel" (paper, Sec. 5.2). The paper traces the
//! highest-cost prefetching batches to exactly this step, with the radix
//! tree dominating. [`DmaSpace`] reproduces the structure: sequential DMA
//! address assignment, a forward map, and reverse entries inserted into
//! [`RadixTree`], reporting node-allocation work per block.

use serde::{Deserialize, Serialize};
use uvm_sim::error::UvmError;
use uvm_sim::hash::FastMap;
use uvm_sim::inject::PointInjector;
use uvm_sim::mem::{PageNum, VaBlockId};
use uvm_sim::time::SimTime;

use crate::radix_tree::RadixTree;

/// A DMA (IO virtual) address, in pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DmaAddr(pub u64);

/// Work report for mapping a set of pages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DmaReport {
    /// Pages that received new DMA mappings.
    pub pages_mapped: u64,
    /// Pages that were already mapped (no work).
    pub pages_already_mapped: u64,
    /// Radix-tree nodes allocated while storing reverse mappings.
    pub radix_nodes_allocated: u64,
}

/// The DMA address space for one GPU: forward page→DMA map plus the
/// kernel-side reverse radix tree.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DmaSpace {
    forward: FastMap<PageNum, DmaAddr>,
    reverse: RadixTree<PageNum>,
    next_addr: u64,
    /// DMA-map failure injection (disabled by default).
    injector: PointInjector,
}

impl DmaSpace {
    /// An empty DMA space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install the DMA-map failure injector (the
    /// [`InjectionPoint::DmaMapFailure`](uvm_sim::inject::InjectionPoint)
    /// site).
    pub fn set_injector(&mut self, injector: PointInjector) {
        self.injector = injector;
    }

    /// Number of live DMA mappings.
    pub fn mapped_pages(&self) -> u64 {
        self.forward.len() as u64
    }

    /// Total radix-tree nodes currently allocated (tree footprint).
    pub fn radix_nodes(&self) -> u64 {
        self.reverse.stats().nodes
    }

    /// Fallible variant of [`DmaSpace::map_pages`]: consults the failure
    /// injector before touching the space. An injected failure models radix
    /// node allocation failing inside `dma_map_sgt` — nothing is mapped and
    /// the caller may retry (the failure is transient, so a retry re-rolls).
    pub fn try_map_pages<I: IntoIterator<Item = PageNum>>(
        &mut self,
        block: VaBlockId,
        pages: I,
        now: SimTime,
    ) -> Result<DmaReport, UvmError> {
        if self.injector.is_enabled() && self.injector.should_fail(now) {
            return Err(UvmError::DmaMapFailed { block: block.0 });
        }
        let report = self.map_pages(pages);
        uvm_trace::emit_instant(now.0, || uvm_trace::TraceEvent::DmaMap {
            block: block.0,
            pages: report.pages_mapped,
            already_mapped: report.pages_already_mapped,
            radix_nodes: report.radix_nodes_allocated,
        });
        Ok(report)
    }

    /// Create DMA mappings for `pages`, skipping pages already mapped.
    /// Returns the aggregate work report for the cost model.
    pub fn map_pages<I: IntoIterator<Item = PageNum>>(&mut self, pages: I) -> DmaReport {
        let mut report = DmaReport::default();
        for page in pages {
            if self.forward.contains_key(&page) {
                report.pages_already_mapped += 1;
                continue;
            }
            let addr = DmaAddr(self.next_addr);
            self.next_addr += 1;
            self.forward.insert(page, addr);
            let ins = self.reverse.insert(addr.0, page);
            report.pages_mapped += 1;
            report.radix_nodes_allocated += ins.nodes_allocated;
        }
        report
    }

    /// Look up the DMA address of a page.
    pub fn dma_of(&self, page: PageNum) -> Option<DmaAddr> {
        self.forward.get(&page).copied()
    }

    /// Reverse lookup: the page behind a DMA address.
    pub fn page_of(&self, addr: DmaAddr) -> Option<PageNum> {
        self.reverse.get(addr.0).copied()
    }

    /// Tear down mappings for `pages` (allocation teardown). Returns how
    /// many mappings were removed.
    pub fn unmap_pages<I: IntoIterator<Item = PageNum>>(&mut self, pages: I) -> u64 {
        let mut removed = 0;
        for page in pages {
            if let Some(addr) = self.forward.remove(&page) {
                let back = self.reverse.remove(addr.0);
                debug_assert_eq!(back, Some(page));
                removed += 1;
            }
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvm_sim::mem::VaBlockId;

    #[test]
    fn mapping_a_block_reports_work() {
        let mut dma = DmaSpace::new();
        let block = VaBlockId(4);
        let report = dma.map_pages(block.pages());
        assert_eq!(report.pages_mapped, 512);
        assert_eq!(report.pages_already_mapped, 0);
        assert!(report.radix_nodes_allocated >= 8, "512 entries span >=8 leaf nodes");
        assert_eq!(dma.mapped_pages(), 512);
    }

    #[test]
    fn remapping_is_idempotent_and_free() {
        let mut dma = DmaSpace::new();
        let block = VaBlockId(4);
        dma.map_pages(block.pages());
        let report = dma.map_pages(block.pages());
        assert_eq!(report.pages_mapped, 0);
        assert_eq!(report.pages_already_mapped, 512);
        assert_eq!(report.radix_nodes_allocated, 0);
    }

    #[test]
    fn forward_and_reverse_agree() {
        let mut dma = DmaSpace::new();
        dma.map_pages([PageNum(10), PageNum(99), PageNum(5000)]);
        for p in [PageNum(10), PageNum(99), PageNum(5000)] {
            let addr = dma.dma_of(p).expect("mapped");
            assert_eq!(dma.page_of(addr), Some(p));
        }
        assert_eq!(dma.dma_of(PageNum(1)), None);
    }

    #[test]
    fn later_blocks_allocate_fewer_nodes_until_growth() {
        // As the reverse tree fills, per-block allocation work varies:
        // most blocks reuse existing interior structure, some trigger
        // height growth — the intermittency behind Fig. 14/15(d).
        let mut dma = DmaSpace::new();
        let mut allocs = Vec::new();
        for b in 0..64u64 {
            let r = dma.map_pages(VaBlockId(b).pages());
            allocs.push(r.radix_nodes_allocated);
        }
        let max = *allocs.iter().max().unwrap();
        let min = *allocs.iter().min().unwrap();
        assert!(max > min, "block-to-block DMA-setup work should vary: {allocs:?}");
    }

    #[test]
    fn injected_map_failure_leaves_space_untouched() {
        use uvm_sim::inject::PointPlan;
        use uvm_sim::DetRng;

        let mut dma = DmaSpace::new();
        dma.set_injector(PointInjector::new(
            &PointPlan::scheduled(SimTime(0), 1),
            DetRng::new(2),
        ));
        let block = VaBlockId(7);
        let err = dma.try_map_pages(block, block.pages(), SimTime(0)).unwrap_err();
        assert_eq!(err, UvmError::DmaMapFailed { block: 7 });
        assert_eq!(dma.mapped_pages(), 0, "failed map must not partially apply");
        // The trigger is one-shot: the retry succeeds.
        let report = dma.try_map_pages(block, block.pages(), SimTime(1)).unwrap();
        assert_eq!(report.pages_mapped, 512);
    }

    #[test]
    fn unmap_removes_both_directions() {
        let mut dma = DmaSpace::new();
        dma.map_pages([PageNum(1), PageNum(2)]);
        let addr1 = dma.dma_of(PageNum(1)).unwrap();
        assert_eq!(dma.unmap_pages([PageNum(1), PageNum(7)]), 1);
        assert_eq!(dma.dma_of(PageNum(1)), None);
        assert_eq!(dma.page_of(addr1), None);
        assert_eq!(dma.mapped_pages(), 1);
    }
}
