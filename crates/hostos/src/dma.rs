//! IOMMU / DMA mapping layer.
//!
//! Before the GPU's copy engines can move a VABlock's data, the driver must
//! create DMA mappings for every page in the block and store *reverse*
//! mappings (DMA address → page) in a radix tree "implemented in the
//! mainline Linux kernel" (paper, Sec. 5.2). The paper traces the
//! highest-cost prefetching batches to exactly this step, with the radix
//! tree dominating. [`DmaSpace`] reproduces the structure: sequential DMA
//! address assignment, a forward map, and reverse entries inserted into
//! [`RadixTree`], one per page, reporting node-allocation work per block.
//!
//! The driver maps a block's whole valid range at once, on its first GPU
//! touch, and nothing tears a DMA mapping down. So the space only grows,
//! its addresses are exactly `0..n`, and each block's pages sit at
//! consecutive addresses: the forward map keeps one record per VABlock,
//! its first address and its page count. Both directions are fixed by the
//! blocks' `(block, pages)` runs in DMA-address order. Those runs are all a
//! snapshot stores; decoding replays them through [`DmaSpace::map_block`],
//! which rebuilds the forward map and the reverse tree node for node, so a
//! restored space reports the same allocation work for every later mapping
//! as the space it was taken from.

use serde::{DeError, Deserialize, Serialize, Sink, Source};
use uvm_sim::bitmap::PageBitmap;
use uvm_sim::error::UvmError;
use uvm_sim::hash::FastMap;
use uvm_sim::inject::PointInjector;
use uvm_sim::mem::{PageNum, VaBlockId, PAGES_PER_VABLOCK};
use uvm_sim::time::SimTime;

use crate::radix_tree::RadixTree;

/// A DMA (IO virtual) address, in pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
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

/// One VABlock's DMA mappings: its first `pages` pages sit at consecutive
/// addresses from `first`.
#[derive(Debug, Clone, Copy)]
struct DmaRun {
    first: DmaAddr,
    pages: u32,
}

/// The DMA address space for one GPU: one forward record per mapped
/// VABlock plus the kernel-side reverse radix tree, whose keys are the
/// addresses `0..n`. Serializes as `{"runs": [[block, pages], ...],
/// "injector": ...}`, the runs in DMA-address order.
#[derive(Debug, Clone, Default)]
pub struct DmaSpace {
    forward: FastMap<VaBlockId, DmaRun>,
    reverse: RadixTree<PageNum>,
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
        self.reverse.len()
    }

    /// Whether `block` has its DMA mappings.
    pub fn is_mapped(&self, block: VaBlockId) -> bool {
        self.forward.contains_key(&block)
    }

    /// The pages of `block` that have a DMA mapping.
    pub fn mapped_in(&self, block: VaBlockId) -> PageBitmap {
        let mut pages = PageBitmap::EMPTY;
        if let Some(run) = self.forward.get(&block) {
            pages.set_range(0, run.pages as usize);
        }
        pages
    }

    /// Fallible variant of [`DmaSpace::map_block`]: consults the failure
    /// injector before touching the space. An injected failure models radix
    /// node allocation failing inside `dma_map_sgt` — nothing is mapped and
    /// the caller may retry (the failure is transient, so a retry re-rolls).
    pub fn try_map_block(
        &mut self,
        block: VaBlockId,
        pages: u32,
        now: SimTime,
    ) -> Result<DmaReport, UvmError> {
        if self.injector.is_enabled() && self.injector.should_fail(now) {
            return Err(UvmError::DmaMapFailed { block: block.0 });
        }
        let report = self.map_block(block, pages);
        uvm_trace::emit_instant(now.0, || uvm_trace::TraceEvent::DmaMap {
            block: block.0,
            pages: report.pages_mapped,
            already_mapped: report.pages_already_mapped,
            radix_nodes: report.radix_nodes_allocated,
        });
        Ok(report)
    }

    /// Create DMA mappings for the first `pages` pages of `block` (at most
    /// `PAGES_PER_VABLOCK`) at the next free addresses. A block that already has its mappings keeps
    /// them, and every requested page counts as already mapped. Returns
    /// the aggregate work report for the cost model.
    pub fn map_block(&mut self, block: VaBlockId, pages: u32) -> DmaReport {
        if self.forward.contains_key(&block) {
            return DmaReport { pages_already_mapped: u64::from(pages), ..DmaReport::default() };
        }
        let first = DmaAddr(self.reverse.len());
        self.forward.insert(block, DmaRun { first, pages });
        let mut report = DmaReport::default();
        for i in 0..pages as usize {
            let ins = self.reverse.insert(first.0 + i as u64, block.page_at(i));
            report.pages_mapped += 1;
            report.radix_nodes_allocated += ins.nodes_allocated;
        }
        report
    }

    /// Look up the DMA address of a page.
    pub fn dma_of(&self, page: PageNum) -> Option<DmaAddr> {
        let run = self.forward.get(&page.va_block())?;
        let i = page.index_in_block() as u64;
        (i < u64::from(run.pages)).then_some(DmaAddr(run.first.0 + i))
    }

    /// Reverse lookup: the page behind a DMA address.
    pub fn page_of(&self, addr: DmaAddr) -> Option<PageNum> {
        self.reverse.get(addr.0).copied()
    }
}

impl Serialize for DmaSpace {
    fn stream<S: Sink>(&self, s: &mut S) {
        let mut runs: Vec<(DmaAddr, VaBlockId, u32)> =
            self.forward.iter().map(|(&b, r)| (r.first, b, r.pages)).collect();
        runs.sort_unstable();
        s.object(2);
        s.key("runs");
        s.array(runs.len());
        for (_, block, pages) in runs {
            (block, pages).stream(s);
        }
        s.end_array();
        s.key("injector");
        self.injector.stream(s);
        s.end_object();
    }
}

impl Deserialize for DmaSpace {
    fn pull<S: Source>(src: &mut S) -> Result<Self, DeError> {
        let (mut runs, mut injector) = (None, None);
        serde::__pull_object(src, "DmaSpace", &["runs", "injector"], |src, i| match i {
            0 => serde::__pull_field(src, &mut runs, "runs"),
            _ => serde::__pull_field(src, &mut injector, "injector"),
        })?;
        let runs: Vec<(VaBlockId, u32)> = serde::__take(src, runs, "runs")?;
        let injector = serde::__take(src, injector, "injector")?;
        let mut dma = DmaSpace { injector, ..Self::default() };
        for (block, pages) in runs {
            let fault = if !(1..=PAGES_PER_VABLOCK).contains(&u64::from(pages)) {
                format!(
                    "DMA run of block {} maps {pages} pages, not 1 to {PAGES_PER_VABLOCK}",
                    block.0
                )
            } else if block.0.checked_mul(PAGES_PER_VABLOCK).is_none() {
                format!("DMA run of block {} lies beyond the page-number space", block.0)
            } else if dma.map_block(block, pages).pages_already_mapped > 0 {
                format!("DMA run list repeats block {}", block.0)
            } else {
                continue;
            };
            return Err(src.locate(DeError::custom(fault)));
        }
        Ok(dma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapping_a_block_reports_work() {
        let mut dma = DmaSpace::new();
        let block = VaBlockId(4);
        let report = dma.map_block(block, 512);
        assert_eq!(report.pages_mapped, 512);
        assert_eq!(report.pages_already_mapped, 0);
        assert!(report.radix_nodes_allocated >= 8, "512 entries span >=8 leaf nodes");
        assert_eq!(dma.mapped_pages(), 512);
        assert!(dma.is_mapped(block) && !dma.is_mapped(VaBlockId(5)));
        assert!(dma.mapped_in(block).is_full());
    }

    #[test]
    fn remapping_is_idempotent_and_free() {
        let mut dma = DmaSpace::new();
        let block = VaBlockId(4);
        dma.map_block(block, 512);
        let report = dma.map_block(block, 512);
        assert_eq!(report.pages_mapped, 0);
        assert_eq!(report.pages_already_mapped, 512);
        assert_eq!(report.radix_nodes_allocated, 0);
        assert_eq!(dma.mapped_pages(), 512);
    }

    #[test]
    fn forward_and_reverse_agree() {
        let mut dma = DmaSpace::new();
        // A partial final block, then two whole ones.
        dma.map_block(VaBlockId(9), 3);
        dma.map_block(VaBlockId(0), 512);
        dma.map_block(VaBlockId(7), 512);
        let pages = [VaBlockId(9).page_at(2), PageNum(10), PageNum(99), VaBlockId(7).page_at(511)];
        for p in pages {
            let addr = dma.dma_of(p).expect("mapped");
            assert_eq!(dma.page_of(addr), Some(p));
        }
        assert_eq!(dma.dma_of(VaBlockId(9).page_at(0)), Some(DmaAddr(0)));
        assert_eq!(dma.dma_of(PageNum(0)), Some(DmaAddr(3)));
        assert_eq!(dma.dma_of(VaBlockId(9).page_at(3)), None, "beyond the block's run");
        assert_eq!(dma.dma_of(VaBlockId(1).page_at(0)), None, "an unmapped block");
        assert_eq!(dma.mapped_in(VaBlockId(9)).iter_set().collect::<Vec<_>>(), [0, 1, 2]);
        assert!(dma.mapped_in(VaBlockId(1)).is_empty());
    }

    #[test]
    fn later_blocks_allocate_fewer_nodes_until_growth() {
        // As the reverse tree fills, per-block allocation work varies:
        // most blocks reuse existing interior structure, some trigger
        // height growth — the intermittency behind Fig. 14/15(d).
        let mut dma = DmaSpace::new();
        let mut allocs = Vec::new();
        for b in 0..64u64 {
            let r = dma.map_block(VaBlockId(b), 512);
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
        let err = dma.try_map_block(block, 512, SimTime(0)).unwrap_err();
        assert_eq!(err, UvmError::DmaMapFailed { block: 7 });
        assert_eq!(dma.mapped_pages(), 0, "failed map must not partially apply");
        assert!(!dma.is_mapped(block));
        // The trigger is one-shot: the retry succeeds.
        let report = dma.try_map_block(block, 512, SimTime(1)).unwrap();
        assert_eq!(report.pages_mapped, 512);
    }

    #[test]
    fn a_decoded_space_costs_what_the_original_does() {
        // Eight blocks fill addresses 0..4096, a height-2 tree; the next
        // page, address 4096, grows it to height 3.
        let mut kept = DmaSpace::new();
        for b in 0..8u64 {
            kept.map_block(VaBlockId(b * 3), 512);
        }
        assert_eq!(kept.mapped_pages(), 4096);
        let json = serde_json::to_string(&kept).expect("encodes");
        let mut decoded: DmaSpace = serde_json::from_str(&json).expect("decodes");
        assert_eq!(decoded.reverse.stats(), kept.reverse.stats());
        for (block, pages) in [(VaBlockId(1 << 21), 1), (VaBlockId(1000), 512)] {
            let (a, b) = (kept.map_block(block, pages), decoded.map_block(block, pages));
            assert_eq!(a, b);
            assert!(a.radix_nodes_allocated > 0);
            assert_eq!(decoded.reverse.stats(), kept.reverse.stats());
        }
        assert_eq!(kept.mapped_pages(), 4096 + 1 + 512);
        for p in [PageNum(0), PageNum(1 << 30), VaBlockId(1000).first_page()] {
            assert_eq!(decoded.dma_of(p), kept.dma_of(p));
        }
        assert_eq!(serde::digest(&decoded), serde::digest(&kept));
    }

    #[test]
    fn a_run_list_that_is_not_a_mapping_is_a_typed_error() {
        let mut dma = DmaSpace::new();
        dma.map_block(VaBlockId(7), 512);
        dma.map_block(VaBlockId(3), 20);
        let json = serde_json::to_string(&dma).expect("encodes");
        assert!(json.starts_with(r#"{"runs":[[7,512],[3,20]],"#), "{json}");
        for (runs, want) in [
            ("[[7,512],[3,20],[7,1]]", "repeats block 7"),
            ("[[7,512],[3,513]]", "block 3 maps 513 pages, not 1 to 512"),
            ("[[7,512],[3,0]]", "block 3 maps 0 pages"),
            ("[[7,512],[36028797018963968,1]]", "beyond the page-number space"),
            ("[[7,512],[3,\"20\"]]", "expected u32, found string"),
            ("[[7,512],[-3,20]]", "out of range"),
            ("[[7,512],[3,2.5]]", "found float"),
            ("[[7,512],[3]]", "shorter array"),
            ("[7,512]", "found number"),
        ] {
            let text = json.replacen("[[7,512],[3,20]]", runs, 1);
            let err = serde_json::from_str::<DmaSpace>(&text).expect_err(runs);
            assert!(err.to_string().contains(want), "{runs}: {err}");
        }
    }
}
