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
//!
//! Nothing tears a DMA mapping down, so the space only grows and its
//! addresses are exactly `0..n`. Both directions are therefore fixed by
//! one list: the mapped pages in DMA-address order. That list is all a
//! snapshot stores; decoding replays it through [`DmaSpace::map_pages`],
//! which rebuilds the forward map and the reverse tree node for node, so
//! a restored space reports the same allocation work for every later
//! mapping as the space it was taken from.

use serde::{DeError, Deserialize, Serialize, Sink, Source};
use uvm_sim::error::UvmError;
use uvm_sim::hash::FastMap;
use uvm_sim::inject::PointInjector;
use uvm_sim::mem::{PageNum, VaBlockId};
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

/// The DMA address space for one GPU: forward page→DMA map plus the
/// kernel-side reverse radix tree, whose keys are the addresses `0..n`.
/// Serializes as `{"pages": [...], "injector": ...}`, the pages in
/// DMA-address order.
#[derive(Debug, Clone, Default)]
pub struct DmaSpace {
    forward: FastMap<PageNum, DmaAddr>,
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
        self.forward.len() as u64
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
            let addr = DmaAddr(self.reverse.len());
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
}

impl Serialize for DmaSpace {
    fn stream<S: Sink>(&self, s: &mut S) {
        s.object(2);
        s.key("pages");
        s.array(self.forward.len());
        for page in (0..self.reverse.len()).filter_map(|addr| self.reverse.get(addr)) {
            page.stream(s);
        }
        s.end_array();
        s.key("injector");
        self.injector.stream(s);
        s.end_object();
    }
}

impl Deserialize for DmaSpace {
    fn pull<S: Source>(src: &mut S) -> Result<Self, DeError> {
        let (mut pages, mut injector) = (None, None);
        serde::__pull_object(src, "DmaSpace", &["pages", "injector"], |src, i| match i {
            0 => serde::__pull_field(src, &mut pages, "pages"),
            _ => serde::__pull_field(src, &mut injector, "injector"),
        })?;
        let pages: Vec<PageNum> = serde::__take(src, pages, "pages")?;
        let injector = serde::__take(src, injector, "injector")?;
        let mut dma = DmaSpace { injector, ..Self::default() };
        let repeats = dma.map_pages(pages).pages_already_mapped;
        if repeats > 0 {
            let e = DeError::custom(format!("DMA page list repeats {repeats} page(s)"));
            return Err(src.locate(e));
        }
        Ok(dma)
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
    fn a_decoded_space_costs_what_the_original_does() {
        // Eight blocks fill addresses 0..4096, a height-2 tree; the next
        // page, address 4096, grows it to height 3.
        let mut kept = DmaSpace::new();
        for b in 0..8u64 {
            kept.map_pages(VaBlockId(b * 3).pages());
        }
        assert_eq!(kept.mapped_pages(), 4096);
        let json = serde_json::to_string(&kept).expect("encodes");
        let mut decoded: DmaSpace = serde_json::from_str(&json).expect("decodes");
        assert_eq!(decoded.reverse.stats(), kept.reverse.stats());
        for pages in [vec![PageNum(1 << 30)], VaBlockId(1000).pages().collect()] {
            let (a, b) = (kept.map_pages(pages.clone()), decoded.map_pages(pages));
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
    fn a_page_list_that_is_not_a_mapping_is_a_typed_error() {
        let mut dma = DmaSpace::new();
        dma.map_pages([PageNum(7), PageNum(3)]);
        let json = serde_json::to_string(&dma).expect("encodes");
        assert!(json.starts_with(r#"{"pages":[7,3],"#), "{json}");
        for (pages, want) in [
            ("[7,3,7]", "repeats 1 page"),
            ("[7,7,7]", "repeats 2 page"),
            ("[7,\"3\"]", "expected u64, found string"),
            ("[7,-3]", "out of range"),
            ("[7,3.5]", "found float"),
            ("7", "found number"),
        ] {
            let text = json.replacen("[7,3]", pages, 1);
            let err = serde_json::from_str::<DmaSpace>(&text).expect_err(pages);
            assert!(err.to_string().contains(want), "{pages}: {err}");
        }
    }
}
