//! Sparse x86-style 4-level page table with work accounting.
//!
//! The host process's page table is what `unmap_mapping_range()` operates
//! on: clearing PTEs for every CPU-resident page of a VABlock before the
//! data migrates to the GPU. We model the standard x86-64 4-level layout
//! (PGD → PUD → PMD → PTE, 512 entries each, 9 bits per level) and report
//! the work each operation performs — PTEs set/cleared and intermediate
//! tables allocated/freed — so the cost model can charge for it.

use serde::{Deserialize, Serialize};
use uvm_sim::hash::FastMap;
use uvm_sim::mem::PageNum;

/// Per-PTE flag bits (subset relevant to the fault path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PteFlags {
    /// Page has been written since mapping (needs writeback consideration on
    /// unmap).
    pub dirty: bool,
    /// Page is mapped writable.
    pub writable: bool,
}

/// Work performed by an unmap operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnmapWork {
    /// PTEs cleared.
    pub ptes_cleared: u64,
    /// Of those, how many were dirty (incur writeback bookkeeping).
    pub dirty_pages: u64,
    /// Intermediate tables freed because they became empty.
    pub tables_freed: u64,
}

/// Bits per level (512-entry tables).
const LEVEL_BITS: u32 = 9;
const LEVEL_MASK: u64 = (1 << LEVEL_BITS) - 1;

/// A leaf table: 512 PTE slots.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PteTable {
    entries: FastMap<u16, PteFlags>,
}

/// A sparse 4-level page table keyed by [`PageNum`].
///
/// Interior levels are modelled as `HashMap`s from table index to child —
/// sparse, because a simulation touches a tiny fraction of the 2^36-page
/// space — but the *leaf* level retains the 512-slot granularity so that
/// table allocation/free work matches the real structure.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PageTable {
    /// Leaf tables keyed by `page >> 9` (the PMD-entry coordinate).
    leaves: FastMap<u64, PteTable>,
    /// Count of interior tables currently allocated (PUD+PMD level), derived
    /// from distinct upper-level coordinates.
    upper: FastMap<u64, u32>,
    mapped: u64,
    /// Monotone counters.
    tables_allocated: u64,
    tables_freed: u64,
}

impl PageTable {
    /// An empty page table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of currently mapped pages.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped
    }

    /// Monotone count of leaf tables ever allocated.
    pub fn tables_allocated(&self) -> u64 {
        self.tables_allocated
    }

    /// Monotone count of leaf tables ever freed.
    pub fn tables_freed(&self) -> u64 {
        self.tables_freed
    }

    fn coords(page: PageNum) -> (u64, u16) {
        (page.0 >> LEVEL_BITS, (page.0 & LEVEL_MASK) as u16)
    }

    /// Map `page` with `flags`. Returns the number of tables allocated
    /// (0 or 1 at leaf level plus upper-level tables). Re-mapping an
    /// already-mapped page just updates flags.
    pub fn map(&mut self, page: PageNum, flags: PteFlags) -> u64 {
        let (leaf_key, idx) = Self::coords(page);
        let mut allocated = 0;
        let leaf = self.leaves.entry(leaf_key).or_insert_with(|| {
            allocated += 1;
            PteTable {
                entries: FastMap::default(),
            }
        });
        if leaf.entries.insert(idx, flags).is_none() {
            self.mapped += 1;
        }
        // Upper-level table accounting: one PUD/PMD coordinate per leaf
        // group of 512 leaves.
        if allocated > 0 {
            let upper_key = leaf_key >> LEVEL_BITS;
            let cnt = self.upper.entry(upper_key).or_insert(0);
            if *cnt == 0 {
                allocated += 1;
            }
            *cnt += 1;
        }
        self.tables_allocated += allocated;
        allocated
    }

    /// Whether `page` is currently mapped.
    pub fn is_mapped(&self, page: PageNum) -> bool {
        let (leaf_key, idx) = Self::coords(page);
        self.leaves
            .get(&leaf_key)
            .is_some_and(|t| t.entries.contains_key(&idx))
    }

    /// Flags of `page` if mapped.
    pub fn flags(&self, page: PageNum) -> Option<PteFlags> {
        let (leaf_key, idx) = Self::coords(page);
        self.leaves.get(&leaf_key).and_then(|t| t.entries.get(&idx)).copied()
    }

    /// Mark `page` dirty (a CPU write hit). No-op when unmapped.
    pub fn set_dirty(&mut self, page: PageNum) {
        let (leaf_key, idx) = Self::coords(page);
        if let Some(f) = self.leaves.get_mut(&leaf_key).and_then(|t| t.entries.get_mut(&idx)) {
            f.dirty = true;
        }
    }

    /// Unmap a single page. Returns work performed.
    pub fn unmap(&mut self, page: PageNum) -> UnmapWork {
        self.unmap_range(page, page.offset(1))
    }

    /// Unmap every mapped page in `[start, end)`, freeing leaf tables that
    /// become empty — the core of `unmap_mapping_range()`.
    pub fn unmap_range(&mut self, start: PageNum, end: PageNum) -> UnmapWork {
        let mut work = UnmapWork::default();
        if start >= end {
            return work;
        }
        let first_leaf = start.0 >> LEVEL_BITS;
        let last_leaf = (end.0 - 1) >> LEVEL_BITS;
        for leaf_key in first_leaf..=last_leaf {
            let Some(leaf) = self.leaves.get_mut(&leaf_key) else {
                continue;
            };
            let lo = if leaf_key == first_leaf { (start.0 & LEVEL_MASK) as u16 } else { 0 };
            let hi = if leaf_key == last_leaf {
                ((end.0 - 1) & LEVEL_MASK) as u16
            } else {
                (LEVEL_MASK) as u16
            };
            for idx in lo..=hi {
                if let Some(flags) = leaf.entries.remove(&idx) {
                    work.ptes_cleared += 1;
                    if flags.dirty {
                        work.dirty_pages += 1;
                    }
                    self.mapped -= 1;
                }
            }
            if leaf.entries.is_empty() {
                self.leaves.remove(&leaf_key);
                work.tables_freed += 1;
                let upper_key = leaf_key >> LEVEL_BITS;
                if let Some(cnt) = self.upper.get_mut(&upper_key) {
                    *cnt -= 1;
                    if *cnt == 0 {
                        self.upper.remove(&upper_key);
                        work.tables_freed += 1;
                    }
                }
            }
        }
        self.tables_freed += work.tables_freed;
        work
    }

    /// All mapped pages in `[start, end)`, ascending.
    pub fn mapped_in_range(&self, start: PageNum, end: PageNum) -> Vec<PageNum> {
        let mut out = Vec::new();
        if start >= end {
            return out;
        }
        let first_leaf = start.0 >> LEVEL_BITS;
        let last_leaf = (end.0 - 1) >> LEVEL_BITS;
        for leaf_key in first_leaf..=last_leaf {
            let Some(leaf) = self.leaves.get(&leaf_key) else { continue };
            for &idx in leaf.entries.keys() {
                let page = PageNum((leaf_key << LEVEL_BITS) | u64::from(idx));
                if page >= start && page < end {
                    out.push(page);
                }
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_then_query() {
        let mut pt = PageTable::new();
        let p = PageNum(12345);
        assert!(!pt.is_mapped(p));
        let alloc = pt.map(p, PteFlags { dirty: false, writable: true });
        assert!(alloc >= 1, "first map allocates tables");
        assert!(pt.is_mapped(p));
        assert_eq!(pt.mapped_pages(), 1);
        assert!(pt.flags(p).expect("page was just mapped").writable);
    }

    #[test]
    fn second_map_in_same_leaf_allocates_nothing() {
        let mut pt = PageTable::new();
        pt.map(PageNum(1000), PteFlags::default());
        let alloc = pt.map(PageNum(1001), PteFlags::default());
        assert_eq!(alloc, 0);
    }

    #[test]
    fn remap_updates_flags_without_double_count() {
        let mut pt = PageTable::new();
        pt.map(PageNum(5), PteFlags { dirty: false, writable: false });
        pt.map(PageNum(5), PteFlags { dirty: false, writable: true });
        assert_eq!(pt.mapped_pages(), 1);
        assert!(pt.flags(PageNum(5)).expect("remap keeps the page mapped").writable);
    }

    #[test]
    fn unmap_range_counts_work() {
        let mut pt = PageTable::new();
        for i in 0..512u64 {
            pt.map(PageNum(i), PteFlags { dirty: i % 4 == 0, writable: true });
        }
        let work = pt.unmap_range(PageNum(0), PageNum(512));
        assert_eq!(work.ptes_cleared, 512);
        assert_eq!(work.dirty_pages, 128);
        assert!(work.tables_freed >= 1);
        assert_eq!(pt.mapped_pages(), 0);
    }

    #[test]
    fn unmap_partial_range_leaves_rest() {
        let mut pt = PageTable::new();
        for i in 0..100u64 {
            pt.map(PageNum(i), PteFlags::default());
        }
        let work = pt.unmap_range(PageNum(10), PageNum(20));
        assert_eq!(work.ptes_cleared, 10);
        assert_eq!(pt.mapped_pages(), 90);
        assert!(pt.is_mapped(PageNum(9)));
        assert!(!pt.is_mapped(PageNum(10)));
        assert!(!pt.is_mapped(PageNum(19)));
        assert!(pt.is_mapped(PageNum(20)));
    }

    #[test]
    fn unmap_range_spanning_leaves() {
        let mut pt = PageTable::new();
        // Map pages around a leaf boundary (512).
        for i in 500..530u64 {
            pt.map(PageNum(i), PteFlags::default());
        }
        let work = pt.unmap_range(PageNum(500), PageNum(530));
        assert_eq!(work.ptes_cleared, 30);
        assert_eq!(pt.mapped_pages(), 0);
    }

    #[test]
    fn unmap_empty_range_is_noop() {
        let mut pt = PageTable::new();
        pt.map(PageNum(7), PteFlags::default());
        assert_eq!(pt.unmap_range(PageNum(10), PageNum(10)), UnmapWork::default());
        assert_eq!(pt.unmap_range(PageNum(20), PageNum(10)), UnmapWork::default());
        assert_eq!(pt.mapped_pages(), 1);
    }

    #[test]
    fn mapped_in_range_is_sorted_and_bounded() {
        let mut pt = PageTable::new();
        for &i in &[5u64, 700, 3, 511, 512, 513] {
            pt.map(PageNum(i), PteFlags::default());
        }
        let got = pt.mapped_in_range(PageNum(4), PageNum(513));
        assert_eq!(got, vec![PageNum(5), PageNum(511), PageNum(512)]);
    }

    #[test]
    fn set_dirty_reflected_in_unmap() {
        let mut pt = PageTable::new();
        pt.map(PageNum(1), PteFlags::default());
        pt.set_dirty(PageNum(1));
        let work = pt.unmap(PageNum(1));
        assert_eq!(work.dirty_pages, 1);
    }

    #[test]
    fn table_alloc_free_counters_balance() {
        let mut pt = PageTable::new();
        for i in 0..2048u64 {
            pt.map(PageNum(i), PteFlags::default());
        }
        pt.unmap_range(PageNum(0), PageNum(2048));
        assert_eq!(pt.tables_allocated(), pt.tables_freed());
    }
}
