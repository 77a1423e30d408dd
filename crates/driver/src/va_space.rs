//! The managed-allocation registry.
//!
//! `VaSpace` is the driver's view of every `cudaMallocManaged` region: it
//! owns the per-VABlock states and answers "which block does this faulting
//! page belong to". Faults to addresses outside any managed allocation
//! would be fatal in the real driver; here they panic, which turns workload
//! generator bugs into immediate test failures.

use serde::{Deserialize, Serialize};
use uvm_sim::error::UvmError;
use uvm_sim::hash::FastMap;
use uvm_sim::mem::{Allocation, PageNum, VaBlockId, PAGES_PER_VABLOCK};

use crate::va_block::VaBlockState;

/// Registry of managed allocations and their VABlock states.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct VaSpace {
    blocks: FastMap<VaBlockId, VaBlockState>,
    allocations: Vec<Allocation>,
}

impl VaSpace {
    /// An empty managed address space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a managed allocation, creating VABlock states for every
    /// block it spans.
    pub fn register(&mut self, alloc: Allocation) {
        let total_pages = alloc.num_pages();
        for (i, block) in alloc.va_blocks().enumerate() {
            let first_page_of_block = i as u64 * PAGES_PER_VABLOCK;
            let valid = (total_pages - first_page_of_block).min(PAGES_PER_VABLOCK) as u32;
            self.blocks.insert(block, VaBlockState::new(block, valid));
        }
        self.allocations.push(alloc);
    }

    /// All registered allocations.
    pub fn allocations(&self) -> &[Allocation] {
        &self.allocations
    }

    /// Number of managed VABlocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Whether `page` belongs to a managed allocation.
    pub fn contains_page(&self, page: PageNum) -> bool {
        self.blocks.contains_key(&page.va_block())
    }

    /// The block state for `id`.
    ///
    /// # Panics
    ///
    /// Panics when `id` is not part of any managed allocation (a fault
    /// outside managed memory).
    pub fn block(&self, id: VaBlockId) -> &VaBlockState {
        self.blocks
            .get(&id)
            .unwrap_or_else(|| panic!("fault outside managed memory: block {id:?}"))
    }

    /// Mutable block state for `id` (same panic contract as [`Self::block`]).
    pub fn block_mut(&mut self, id: VaBlockId) -> &mut VaBlockState {
        self.blocks
            .get_mut(&id)
            .unwrap_or_else(|| panic!("fault outside managed memory: block {id:?}"))
    }

    /// Fallible lookup used on the fault-servicing path: a GPU fault can
    /// carry a bogus address, and the driver must fail the batch with a
    /// typed error rather than take the process down.
    pub fn try_block(&self, id: VaBlockId) -> Result<&VaBlockState, UvmError> {
        self.blocks
            .get(&id)
            .ok_or(UvmError::UnmanagedAccess { block: id.0 })
    }

    /// Fallible mutable lookup (see [`Self::try_block`]).
    pub fn try_block_mut(&mut self, id: VaBlockId) -> Result<&mut VaBlockState, UvmError> {
        self.blocks
            .get_mut(&id)
            .ok_or(UvmError::UnmanagedAccess { block: id.0 })
    }

    /// Iterate all block states (unordered).
    pub fn blocks(&self) -> impl Iterator<Item = &VaBlockState> {
        self.blocks.values()
    }

    /// Total GPU-resident pages across all blocks.
    pub fn total_resident_pages(&self) -> u64 {
        self.blocks.values().map(|b| u64::from(b.resident_count())).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvm_sim::mem::{AddressSpaceAllocator, PAGE_SIZE, VABLOCK_SIZE};

    #[test]
    fn register_creates_block_states() {
        let mut asa = AddressSpaceAllocator::new();
        let mut vs = VaSpace::new();
        let alloc = asa.alloc(3 * VABLOCK_SIZE);
        vs.register(alloc);
        assert_eq!(vs.num_blocks(), 3);
        for block in alloc.va_blocks() {
            assert_eq!(vs.block(block).valid_pages, 512);
        }
    }

    #[test]
    fn partial_final_block_has_partial_valid_pages() {
        let mut asa = AddressSpaceAllocator::new();
        let mut vs = VaSpace::new();
        let alloc = asa.alloc(VABLOCK_SIZE + 10 * PAGE_SIZE);
        vs.register(alloc);
        let blocks: Vec<VaBlockId> = alloc.va_blocks().collect();
        assert_eq!(vs.block(blocks[0]).valid_pages, 512);
        assert_eq!(vs.block(blocks[1]).valid_pages, 10);
    }

    #[test]
    fn contains_page_discriminates() {
        let mut asa = AddressSpaceAllocator::new();
        let mut vs = VaSpace::new();
        let a = asa.alloc(VABLOCK_SIZE);
        let _gap = asa.alloc(VABLOCK_SIZE); // registered space skipped
        let b = asa.alloc(VABLOCK_SIZE);
        vs.register(a);
        vs.register(b);
        assert!(vs.contains_page(a.page(0)));
        assert!(vs.contains_page(b.page(0)));
        assert!(!vs.contains_page(PageNum(a.page(0).0 + 512))); // the gap
        assert_eq!(vs.allocations().len(), 2);
    }

    #[test]
    #[should_panic(expected = "outside managed memory")]
    fn unmanaged_block_panics() {
        let vs = VaSpace::new();
        let _ = vs.block(VaBlockId(99));
    }

    #[test]
    fn try_block_returns_typed_error() {
        let mut vs = VaSpace::new();
        assert_eq!(
            vs.try_block(VaBlockId(99)).unwrap_err(),
            UvmError::UnmanagedAccess { block: 99 }
        );
        assert_eq!(
            vs.try_block_mut(VaBlockId(99)).unwrap_err(),
            UvmError::UnmanagedAccess { block: 99 }
        );
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        vs.register(alloc);
        let id = alloc.va_blocks().next().expect("allocation spans a block");
        assert!(vs.try_block(id).is_ok());
    }
}
