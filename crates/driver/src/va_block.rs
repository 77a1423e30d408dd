//! Per-VABlock driver state.
//!
//! The driver splits every managed allocation into 2 MiB VABlocks and
//! services each batch one VABlock at a time (paper Sec. 2.2). A block's
//! state determines which servicing steps a batch touching it must pay:
//!
//! * no DMA mappings yet → compulsory DMA-map creation for all 512 pages
//!   plus radix-tree inserts (the high-cost "GPU VABlock state
//!   initialization" of Fig. 14);
//! * pages still CPU-mapped → `unmap_mapping_range()` on the fault path;
//! * not GPU-resident and memory full → eviction of an LRU victim;
//! * migrated pages always pay population (zero-fill) + transfer + PTE
//!   updates.

use serde::{Deserialize, Serialize};
use uvm_sim::bitmap::PageBitmap;
use uvm_sim::mem::VaBlockId;

use crate::advise::MemAdvise;

/// Driver-side state of one 2 MiB VABlock.
///
/// Facts other owners hold are not copied here: whether the block holds a
/// GPU physical allocation (and its LRU/LFU keys) lives in
/// [`crate::evict::GpuMemoryManager`], and which of its pages a peer GPU
/// holds lives in [`crate::backend::PeerDirectory`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VaBlockState {
    /// The block's index.
    pub id: VaBlockId,
    /// Pages currently resident on the GPU. Non-empty only while the
    /// memory manager holds the block's allocation (audit invariant 1).
    pub gpu_resident: PageBitmap,
    /// Pages whose data exists in host RAM (written by CPU initialization,
    /// an eviction writeback, or a peer→host reclaim). Migrating a page
    /// with host data pays a host→device transfer; migrating a
    /// never-touched page is populate-only (the driver zero-fills it
    /// directly on the GPU).
    pub host_data: PageBitmap,
    /// Number of pages of this allocation that are valid (the final block
    /// of an allocation may be partial).
    pub valid_pages: u32,
    /// Usage hint applied via `cudaMemAdvise`, if any.
    pub advise: Option<MemAdvise>,
    /// Pages mapped remotely (GPU accesses host memory over the
    /// interconnect) under `PreferredLocationHost`.
    pub remote_mapped: PageBitmap,
    /// Whether the block currently holds a read-duplicated copy
    /// (`ReadMostly`): the CPU mappings survived migration, and eviction
    /// needs no writeback.
    pub read_duplicated: bool,
    /// Batch sequence of the block's most recent eviction (thrashing
    /// detection input).
    pub last_evict_seq: Option<u64>,
    /// While set, faults map the block remotely instead of migrating —
    /// the thrashing-mitigation pin, expiring at this batch sequence.
    pub pinned_until: Option<u64>,
    /// Recovery state: migration retries were exhausted on this block, so
    /// the driver permanently degraded it to a remote (sysmem-mapped,
    /// non-migrated) block. Faults on a degraded block take the remote
    /// path, like `PreferredLocationHost`, without further copy-engine
    /// attempts.
    pub degraded: bool,
}

impl VaBlockState {
    /// Fresh state for a block with `valid_pages` usable pages.
    pub fn new(id: VaBlockId, valid_pages: u32) -> Self {
        assert!((1..=512).contains(&valid_pages));
        VaBlockState {
            id,
            gpu_resident: PageBitmap::EMPTY,
            host_data: PageBitmap::EMPTY,
            valid_pages,
            advise: None,
            remote_mapped: PageBitmap::EMPTY,
            read_duplicated: false,
            last_evict_seq: None,
            pinned_until: None,
            degraded: false,
        }
    }

    /// Number of GPU-resident pages.
    pub fn resident_count(&self) -> u32 {
        self.gpu_resident.count()
    }

    /// Apply an eviction: the block loses its residency. Unless `to_peer`
    /// (the pages' data moved to a peer GPU, which the owner directory
    /// records), the evicted pages' data returns to host RAM (recorded in
    /// `host_data`) but is *not* re-mapped into CPU page tables — the
    /// basis of the Fig. 13 cost levels.
    pub fn evict(&mut self, to_peer: bool) {
        if !to_peer && !self.read_duplicated {
            // Normal blocks write their data back to host RAM; a
            // read-duplicated block already has an intact host copy.
            let evicted = self.gpu_resident;
            self.host_data.merge(&evicted);
        }
        self.gpu_resident.reset();
        self.read_duplicated = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_block_is_cold() {
        let b = VaBlockState::new(VaBlockId(5), 512);
        assert_eq!(b.resident_count(), 0);
        assert!(b.host_data.is_empty());
    }

    #[test]
    fn evict_resets_residency_and_writes_back() {
        let mut b = VaBlockState::new(VaBlockId(1), 512);
        b.gpu_resident.set_range(0, 100);
        b.evict(false);
        assert_eq!(b.resident_count(), 0);
        assert_eq!(b.host_data.count(), 100, "evicted pages now have host data");
    }

    #[test]
    fn evict_to_peer_moves_pages_without_host_writeback() {
        let mut b = VaBlockState::new(VaBlockId(2), 512);
        b.gpu_resident.set_range(0, 64);
        b.evict(true);
        assert_eq!(b.resident_count(), 0);
        assert_eq!(b.host_data.count(), 0, "peer spill writes nothing back to host");
    }

    #[test]
    #[should_panic]
    fn zero_valid_pages_rejected() {
        let _ = VaBlockState::new(VaBlockId(0), 0);
    }
}
