//! IOMMU / DMA mapping layer.
//!
//! Before the GPU's copy engines can move a VABlock's data, the driver must
//! create DMA mappings for every page in the block and store *reverse*
//! mappings (DMA address → page) in a radix tree "implemented in the
//! mainline Linux kernel" (paper, Sec. 5.2). The paper traces the
//! highest-cost prefetching batches to exactly this step, with the radix
//! tree dominating. [`DmaSpace`] reproduces its cost: sequential DMA
//! address assignment, a forward map, and for each mapped block the number
//! of radix-tree nodes its reverse entries allocate.
//!
//! The driver maps a block's whole valid range at once, on its first GPU
//! touch, and nothing tears a DMA mapping down. So the space only grows,
//! its addresses are exactly `0..n`, and each block's pages sit at
//! consecutive addresses: the forward map keeps one record per VABlock,
//! its first address and its page count. Both directions are fixed by the
//! blocks' `(block, pages)` runs in DMA-address order. Those runs are all a
//! snapshot stores; decoding replays them through [`DmaSpace::map_block`].
//!
//! The reverse tree is not stored either. A Linux radix tree of 64-slot
//! nodes holding the keys `0..n` has one node per distinct key prefix at
//! each level below its root, so its shape, and with it every insert's
//! node-allocation count, is a function of `n` alone (`radix_nodes`).

use serde::{DeError, Deserialize, Serialize, Sink, Source};
use uvm_sim::bitmap::PageBitmap;
use uvm_sim::error::UvmError;
use uvm_sim::hash::FastMap;
use uvm_sim::inject::PointInjector;
use uvm_sim::mem::{PageNum, VaBlockId, PAGES_PER_VABLOCK};
use uvm_sim::time::SimTime;

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

/// Nodes of a 64-way radix tree holding the keys `0..n`: level `j` (leaves
/// at 0) has one node per distinct `key >> 6·(j+1)`, that is `⌈n / 64^(j+1)⌉`
/// nodes, and the tree is as tall as the fewest levels whose top holds one
/// node. The kernel grows a tree upward one root at a time, so this counts
/// every node sequential inserts have allocated.
fn radix_nodes(n: u64) -> u64 {
    let (n, mut span, mut nodes) = (u128::from(n), 1u128, 0);
    loop {
        span *= 64;
        nodes += n.div_ceil(span);
        if span >= n {
            return nodes as u64;
        }
    }
}

/// The DMA address space for one GPU: one forward record per mapped
/// VABlock, and the count of mapped pages, which are the keys `0..n` of
/// the kernel-side reverse radix tree. Serializes as `{"runs": [[block,
/// pages], ...], "injector": ...}`, the runs in DMA-address order.
#[derive(Debug, Clone, Default)]
pub struct DmaSpace {
    forward: FastMap<VaBlockId, DmaRun>,
    /// Pages mapped so far: the next free DMA address.
    mapped: u64,
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
        self.mapped
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
        let first = self.mapped;
        self.mapped += u64::from(pages);
        self.forward.insert(block, DmaRun { first: DmaAddr(first), pages });
        DmaReport {
            pages_mapped: u64::from(pages),
            pages_already_mapped: 0,
            radix_nodes_allocated: radix_nodes(self.mapped) - radix_nodes(first),
        }
    }

    /// Look up the DMA address of a page.
    pub fn dma_of(&self, page: PageNum) -> Option<DmaAddr> {
        let run = self.forward.get(&page.va_block())?;
        let i = page.index_in_block() as u64;
        (i < u64::from(run.pages)).then_some(DmaAddr(run.first.0 + i))
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
        // Eight leaves of 64 entries under one root.
        assert_eq!(report.radix_nodes_allocated, 9);
        assert_eq!(dma.mapped_pages(), 512);
        assert!(dma.is_mapped(block) && !dma.is_mapped(VaBlockId(5)));
        assert!(dma.mapped_in(block).is_full());
    }

    #[test]
    fn node_counts_follow_the_tree_shape() {
        // (keys, nodes): one leaf holds 64 keys; the 65th needs a second
        // leaf and a root; the 4097th a third level.
        let pins = [(0, 0), (1, 1), (64, 1), (65, 3), (4096, 65), (4097, 68), (1 << 18, 4161)];
        for (n, nodes) in pins {
            assert_eq!(radix_nodes(n), nodes, "{n} keys");
        }
        assert_eq!(radix_nodes(u64::MAX), radix_nodes(u64::MAX - 1));
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
        // Every address in 0..n lies behind exactly one mapped page.
        let mut addrs: Vec<u64> = [(VaBlockId(9), 3), (VaBlockId(0), 512), (VaBlockId(7), 512)]
            .into_iter()
            .flat_map(|(b, pages)| (0..pages).map(move |i| b.page_at(i)))
            .map(|p| dma.dma_of(p).expect("mapped").0)
            .collect();
        addrs.sort_unstable();
        assert_eq!(addrs, (0..dma.mapped_pages()).collect::<Vec<_>>());
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
        assert_eq!(decoded.mapped_pages(), kept.mapped_pages());
        // A new root, a level-1 node and a leaf; then eight more leaves.
        for (block, pages, nodes) in [(VaBlockId(1 << 21), 1, 3), (VaBlockId(1000), 512, 8)] {
            let (a, b) = (kept.map_block(block, pages), decoded.map_block(block, pages));
            assert_eq!(a, b);
            assert_eq!(a.radix_nodes_allocated, nodes);
            assert_eq!(decoded.mapped_pages(), kept.mapped_pages());
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
