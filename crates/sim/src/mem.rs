//! Shared memory-layout vocabulary.
//!
//! The UVM driver manages memory at three granularities, all of which appear
//! throughout the paper and therefore throughout this workspace:
//!
//! * **4 KiB pages** — the x86 host OS page size, the granularity at which
//!   GPU faults are reported and pages are tracked ([`PageNum`]).
//! * **64 KiB "big pages"** — the granularity the driver upgrades 4 KiB pages
//!   to during prefetching (emulating the Power9 page size); sixteen 4 KiB
//!   pages per big page.
//! * **2 MiB VABlocks** — the driver's logical management unit
//!   ([`VaBlockId`]); every allocation is split into VABlocks and each batch
//!   is serviced one VABlock at a time.

use serde::{Deserialize, Serialize};

/// Size of a host (x86) page in bytes: 4 KiB.
pub const PAGE_SIZE: u64 = 4096;

/// Size of a UVM "big page" in bytes: 64 KiB (the prefetcher's leaf region).
pub const BIG_PAGE_SIZE: u64 = 64 * 1024;

/// Number of 4 KiB pages per 64 KiB big page.
pub const PAGES_PER_BIG_PAGE: u64 = BIG_PAGE_SIZE / PAGE_SIZE;

/// Size of a VABlock in bytes: 2 MiB.
pub const VABLOCK_SIZE: u64 = 2 * 1024 * 1024;

/// Number of 4 KiB pages per 2 MiB VABlock (512).
pub const PAGES_PER_VABLOCK: u64 = VABLOCK_SIZE / PAGE_SIZE;

/// Number of 64 KiB big pages per VABlock (32).
pub const BIG_PAGES_PER_VABLOCK: u64 = VABLOCK_SIZE / BIG_PAGE_SIZE;

/// A virtual address within the unified (managed) address space.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct VirtAddr(pub u64);

/// A 4 KiB virtual page number: `addr / PAGE_SIZE`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct PageNum(pub u64);

/// A 2 MiB VABlock index: `addr / VABLOCK_SIZE`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct VaBlockId(pub u64);

impl VirtAddr {
    /// The page containing this address.
    #[inline]
    pub fn page(self) -> PageNum {
        PageNum(self.0 / PAGE_SIZE)
    }

    /// The VABlock containing this address.
    #[inline]
    pub fn va_block(self) -> VaBlockId {
        VaBlockId(self.0 / VABLOCK_SIZE)
    }

    /// Byte offset within the containing page.
    #[inline]
    pub fn page_offset(self) -> u64 {
        self.0 % PAGE_SIZE
    }
}

impl PageNum {
    /// First byte address of this page.
    #[inline]
    pub fn base_addr(self) -> VirtAddr {
        VirtAddr(self.0 * PAGE_SIZE)
    }

    /// The VABlock containing this page.
    #[inline]
    pub fn va_block(self) -> VaBlockId {
        VaBlockId(self.0 / PAGES_PER_VABLOCK)
    }

    /// Index of this page within its VABlock, in `0..PAGES_PER_VABLOCK`.
    #[inline]
    pub fn index_in_block(self) -> usize {
        (self.0 % PAGES_PER_VABLOCK) as usize
    }

    /// Index of the 64 KiB big page containing this page within its VABlock,
    /// in `0..BIG_PAGES_PER_VABLOCK`.
    #[inline]
    pub fn big_page_in_block(self) -> usize {
        self.index_in_block() / PAGES_PER_BIG_PAGE as usize
    }

    /// The page `n` positions after this one.
    #[inline]
    pub fn offset(self, n: u64) -> PageNum {
        PageNum(self.0 + n)
    }

    /// The `pages` consecutive pages from this one, split at VABlock
    /// boundaries: each block they cover, in address order, with the range
    /// of page indices they cover in it.
    pub fn block_spans(self, pages: u64) -> impl Iterator<Item = (VaBlockId, std::ops::Range<usize>)> {
        let (mut next, end) = (self.0, self.0 + pages);
        std::iter::from_fn(move || {
            let page = PageNum(next);
            (next < end).then(|| {
                let block = page.va_block();
                let hi = (end - block.first_page().0).min(PAGES_PER_VABLOCK);
                next = block.first_page().0 + hi;
                (block, page.index_in_block()..hi as usize)
            })
        })
    }
}

impl VaBlockId {
    /// First byte address of this VABlock.
    #[inline]
    pub fn base_addr(self) -> VirtAddr {
        VirtAddr(self.0 * VABLOCK_SIZE)
    }

    /// First page of this VABlock.
    #[inline]
    pub fn first_page(self) -> PageNum {
        PageNum(self.0 * PAGES_PER_VABLOCK)
    }

    /// The page at `index` (in `0..PAGES_PER_VABLOCK`) within this VABlock.
    #[inline]
    pub fn page_at(self, index: usize) -> PageNum {
        debug_assert!((index as u64) < PAGES_PER_VABLOCK);
        PageNum(self.0 * PAGES_PER_VABLOCK + index as u64)
    }

    /// Iterate over all 512 pages of this VABlock.
    pub fn pages(self) -> impl Iterator<Item = PageNum> {
        let first = self.first_page().0;
        (first..first + PAGES_PER_VABLOCK).map(PageNum)
    }
}

/// A contiguous managed allocation, aligned to VABlock boundaries the way the
/// UVM runtime aligns `cudaMallocManaged` regions for its internal tracking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Allocation {
    /// First address (VABlock-aligned).
    pub base: VirtAddr,
    /// Length in bytes (multiple of `PAGE_SIZE`).
    pub len: u64,
}

impl Allocation {
    /// Construct an allocation; `base` must be VABlock-aligned and `len`
    /// page-aligned.
    pub fn new(base: VirtAddr, len: u64) -> Self {
        assert_eq!(base.0 % VABLOCK_SIZE, 0, "allocation base must be VABlock-aligned");
        assert_eq!(len % PAGE_SIZE, 0, "allocation length must be page-aligned");
        Allocation { base, len }
    }

    /// One-past-the-end address.
    #[inline]
    pub fn end(&self) -> VirtAddr {
        VirtAddr(self.base.0 + self.len)
    }

    /// Whether `addr` falls inside this allocation.
    #[inline]
    pub fn contains(&self, addr: VirtAddr) -> bool {
        addr >= self.base && addr < self.end()
    }

    /// Number of 4 KiB pages spanned.
    #[inline]
    pub fn num_pages(&self) -> u64 {
        self.len / PAGE_SIZE
    }

    /// Number of VABlocks spanned (the final block may be partial).
    #[inline]
    pub fn num_va_blocks(&self) -> u64 {
        self.len.div_ceil(VABLOCK_SIZE)
    }

    /// Iterate over the VABlocks this allocation spans.
    pub fn va_blocks(&self) -> impl Iterator<Item = VaBlockId> {
        let first = self.base.va_block().0;
        let n = self.num_va_blocks();
        (first..first + n).map(VaBlockId)
    }

    /// The address of byte `offset` into the allocation.
    #[inline]
    pub fn addr(&self, offset: u64) -> VirtAddr {
        debug_assert!(offset < self.len, "offset {offset} out of bounds");
        VirtAddr(self.base.0 + offset)
    }

    /// The `i`-th page of the allocation.
    #[inline]
    pub fn page(&self, i: u64) -> PageNum {
        debug_assert!(i < self.num_pages());
        PageNum(self.base.page().0 + i)
    }
}

/// Hands out VABlock-aligned, non-overlapping allocations from a growing
/// virtual address space, mimicking the managed-memory allocator's address
/// assignment. Address zero is never handed out (kept as a null guard).
#[derive(Debug, Clone)]
pub struct AddressSpaceAllocator {
    next_block: u64,
}

impl Default for AddressSpaceAllocator {
    fn default() -> Self {
        Self::new()
    }
}

impl AddressSpaceAllocator {
    /// A fresh address space. The first VABlock is reserved as a guard.
    pub fn new() -> Self {
        AddressSpaceAllocator { next_block: 1 }
    }

    /// Allocate `len` bytes (rounded up to whole pages), VABlock-aligned.
    pub fn alloc(&mut self, len: u64) -> Allocation {
        let len = len.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let base = VirtAddr(self.next_block * VABLOCK_SIZE);
        let blocks = len.div_ceil(VABLOCK_SIZE);
        self.next_block += blocks;
        Allocation::new(base, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_constants_are_consistent() {
        assert_eq!(PAGES_PER_VABLOCK, 512);
        assert_eq!(BIG_PAGES_PER_VABLOCK, 32);
        assert_eq!(PAGES_PER_BIG_PAGE, 16);
        assert_eq!(PAGES_PER_BIG_PAGE * BIG_PAGES_PER_VABLOCK, PAGES_PER_VABLOCK);
    }

    #[test]
    fn address_to_page_to_block_conversions() {
        let a = VirtAddr(VABLOCK_SIZE + 3 * PAGE_SIZE + 17);
        assert_eq!(a.page(), PageNum(512 + 3));
        assert_eq!(a.va_block(), VaBlockId(1));
        assert_eq!(a.page_offset(), 17);
        assert_eq!(a.page().va_block(), VaBlockId(1));
        assert_eq!(a.page().index_in_block(), 3);
        assert_eq!(a.page().big_page_in_block(), 0);
        assert_eq!(PageNum(512 + 16).big_page_in_block(), 1);
    }

    #[test]
    fn block_spans_split_runs_at_block_boundaries() {
        let spans = |first: u64, pages: u64| -> Vec<(u64, std::ops::Range<usize>)> {
            PageNum(first).block_spans(pages).map(|(b, r)| (b.0, r)).collect()
        };
        assert_eq!(spans(510, 0), []);
        assert_eq!(spans(3, 4), [(0, 3..7)]);
        assert_eq!(spans(512, 512), [(1, 0..512)]);
        assert_eq!(spans(510, 517), [(0, 510..512), (1, 0..512), (2, 0..3)]);
    }

    #[test]
    fn vablock_pages_iterates_all_512() {
        let blk = VaBlockId(7);
        let pages: Vec<PageNum> = blk.pages().collect();
        assert_eq!(pages.len(), 512);
        assert_eq!(pages[0], blk.first_page());
        assert_eq!(pages[511], blk.page_at(511));
        assert!(pages.iter().all(|p| p.va_block() == blk));
    }

    #[test]
    fn allocation_geometry() {
        let alloc = Allocation::new(VirtAddr(VABLOCK_SIZE), 3 * VABLOCK_SIZE + PAGE_SIZE);
        assert_eq!(alloc.num_pages(), 3 * 512 + 1);
        assert_eq!(alloc.num_va_blocks(), 4);
        let blocks: Vec<VaBlockId> = alloc.va_blocks().collect();
        assert_eq!(blocks, vec![VaBlockId(1), VaBlockId(2), VaBlockId(3), VaBlockId(4)]);
        assert!(alloc.contains(alloc.base));
        assert!(!alloc.contains(alloc.end()));
    }

    #[test]
    #[should_panic(expected = "VABlock-aligned")]
    fn misaligned_allocation_rejected() {
        let _ = Allocation::new(VirtAddr(PAGE_SIZE), PAGE_SIZE);
    }

    #[test]
    fn allocator_hands_out_disjoint_blocks() {
        let mut asa = AddressSpaceAllocator::new();
        let a = asa.alloc(VABLOCK_SIZE / 2);
        let b = asa.alloc(3 * VABLOCK_SIZE);
        let c = asa.alloc(1); // rounds up to one page
        assert_eq!(a.base, VirtAddr(VABLOCK_SIZE));
        assert_eq!(b.base, VirtAddr(2 * VABLOCK_SIZE));
        assert_eq!(c.base, VirtAddr(5 * VABLOCK_SIZE));
        assert_eq!(c.len, PAGE_SIZE);
        assert!(!a.contains(b.base));
    }
}
