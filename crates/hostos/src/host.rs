//! The host-memory façade the UVM driver calls into.
//!
//! The driver always unmaps a whole 2 MiB VABlock, so every host fact the
//! model needs is per block: which of its pages the CPU has mapped, which
//! of those are dirty, and which cores mapped them (the cores whose TLBs
//! a teardown must shoot down). [`HostMemory`] keeps exactly that, one
//! record per VABlock with a CPU mapping, and serves the two
//! operations the fault path needs:
//!
//! * [`HostMemory::cpu_touch`] — a CPU thread first-touches (or writes) a
//!   run of pages: the pages are mapped, a write dirties them, and the
//!   touching core is recorded as a mapper of each block they cover. This is what the workload
//!   generators call during host-side initialization.
//! * [`HostMemory::unmap_mapping_range`] — the fault-path teardown the UVM
//!   driver performs when the GPU touches a VABlock partially resident on
//!   the CPU. It drops the block's record and returns an [`UnmapReport`]
//!   of the work done; the driver converts it to time via
//!   `CostModel::unmap_time`.
//!
//! A core that maps any page of a block caches translations for that
//! block, so the block's mapper set is both the reverse map's answer
//! ("who has these pages mapped?") and the shootdown's IPI target set.

use serde::{Deserialize, Serialize};
use uvm_sim::bitmap::PageBitmap;
use uvm_sim::error::UvmError;
use uvm_sim::hash::FastMap;
use uvm_sim::inject::PointInjector;
use uvm_sim::mem::{PageNum, VaBlockId};
use uvm_sim::time::SimTime;

use crate::numa::NumaTopology;
use crate::rmap::CoreSet;

/// Work performed by one `unmap_mapping_range()` call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnmapReport {
    /// CPU-resident pages actually unmapped.
    pub pages_unmapped: u64,
    /// Of those, pages dirtied by CPU writes.
    pub dirty_pages: u64,
    /// Distinct CPU cores that had the range mapped (drives the per-page
    /// inflation in the cost model).
    pub mapper_cores: u32,
    /// TLB-shootdown IPI targets: one per mapper core.
    pub ipis: u32,
    /// NUMA inflation factor for the unmapping core's remote accesses to
    /// the mappers' PTE state: 1.0 when all mappers share the unmapper's
    /// node, up to the topology's worst node distance otherwise.
    pub numa_factor: f64,
}

impl Default for UnmapReport {
    fn default() -> Self {
        UnmapReport {
            pages_unmapped: 0,
            dirty_pages: 0,
            mapper_cores: 0,
            ipis: 0,
            numa_factor: 1.0,
        }
    }
}

impl UnmapReport {
    /// Whether the call found nothing to do.
    pub fn is_empty(&self) -> bool {
        self.pages_unmapped == 0
    }
}

/// The host's record of one VABlock with at least one CPU-mapped page.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
struct HostBlock {
    /// Pages with a CPU mapping (the block's leaf page table).
    mapped: PageBitmap,
    /// Mapped pages written by the CPU since they were mapped.
    dirty: PageBitmap,
    /// Cores that mapped any page of the block, and so hold translations
    /// a teardown must shoot down.
    mappers: CoreSet,
}

/// Host process memory state visible to the UVM driver.
///
/// Serializable in full — the per-block records, NUMA topology, worker
/// core, counters and injector state — for whole-system snapshot/restore.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct HostMemory {
    /// One record per VABlock with a CPU mapping.
    blocks: FastMap<VaBlockId, HostBlock>,
    /// NUMA topology, when modelled (None = uniform memory).
    numa: Option<NumaTopology>,
    /// The core the UVM worker thread (which performs the unmaps) runs on.
    worker_core: u32,
    /// Monotone counter of `unmap_mapping_range` invocations.
    unmap_calls: u64,
    /// Pages written back into host memory by device evictions (normal
    /// and emergency). Pure accounting: the pages become CPU-touchable
    /// again lazily, so no mapping changes here.
    writeback_pages: u64,
    /// Host page-table failure injection (disabled by default).
    injector: PointInjector,
}

impl HostMemory {
    /// Fresh (empty) host memory state with uniform memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Host memory on a NUMA machine: the unmap work the UVM worker (on
    /// `worker_core`) performs against PTE state homed on other nodes is
    /// inflated by the node distance.
    pub fn with_numa(topology: NumaTopology, worker_core: u32) -> Self {
        HostMemory {
            numa: Some(topology),
            worker_core,
            ..Self::default()
        }
    }

    /// A CPU thread on `core` touches the `pages` consecutive pages from
    /// `first`; `write` marks them dirty. First touch maps a page; repeat
    /// touches accumulate mapper cores and dirty state. The run is applied
    /// a VABlock at a time.
    pub fn cpu_touch(&mut self, first: PageNum, pages: u64, core: u32, write: bool) {
        for (id, span) in first.block_spans(pages) {
            let block = self.blocks.entry(id).or_default();
            block.mapped.set_range(span.start, span.end);
            if write {
                block.dirty.set_range(span.start, span.end);
            }
            block.mappers.insert(core);
        }
    }

    /// Whether `page` is currently CPU-mapped.
    pub fn is_cpu_mapped(&self, page: PageNum) -> bool {
        self.blocks
            .get(&page.va_block())
            .is_some_and(|b| b.mapped.get(page.index_in_block()))
    }

    /// The CPU-mapped pages of a VABlock.
    pub fn mapped_in(&self, block: VaBlockId) -> PageBitmap {
        self.blocks.get(&block).map_or(PageBitmap::EMPTY, |b| b.mapped)
    }

    /// Number of CPU-mapped pages in a VABlock.
    pub fn mapped_pages_in_block(&self, block: VaBlockId) -> u64 {
        self.blocks.get(&block).map_or(0, |b| u64::from(b.mapped.count()))
    }

    /// Total CPU-mapped pages.
    pub fn mapped_pages(&self) -> u64 {
        self.blocks.values().map(|b| u64::from(b.mapped.count())).sum()
    }

    /// Number of `unmap_mapping_range` calls made so far.
    pub fn unmap_calls(&self) -> u64 {
        self.unmap_calls
    }

    /// Record `pages` written back to host memory by a device eviction.
    /// The driver calls this whenever an evicted VABlock carries data the
    /// host does not already hold (i.e. the eviction performed a D2H
    /// transfer rather than a silent drop).
    pub fn note_writeback(&mut self, pages: u64) {
        self.writeback_pages += pages;
    }

    /// Total pages evictions have written back into host memory.
    pub fn writeback_pages(&self) -> u64 {
        self.writeback_pages
    }

    /// Install the host page-table failure injector (the
    /// [`InjectionPoint::HostPopulateFailure`](uvm_sim::inject::InjectionPoint)
    /// site).
    pub fn set_injector(&mut self, injector: PointInjector) {
        self.injector = injector;
    }

    /// Check decoded state that the calls above could not have produced
    /// and that would make a later call panic: a NUMA topology without
    /// nodes, cores or a full distance matrix, and a block record with no
    /// mapped page, a dirty page that is not mapped, or mapped pages but
    /// no mapper core. Restore calls this on every snapshot it resumes.
    pub fn check(&self) -> Result<(), String> {
        if let Some(numa) = &self.numa {
            numa.check()?;
        }
        for (id, b) in &self.blocks {
            let stray_dirty = b.dirty.and_not(&b.mapped).count();
            if b.mapped.is_empty() {
                return Err(format!("host block {} has no mapped page", id.0));
            } else if stray_dirty > 0 {
                return Err(format!(
                    "host block {} has {stray_dirty} dirty page(s) that are not mapped",
                    id.0
                ));
            } else if b.mappers.is_empty() {
                return Err(format!(
                    "host block {} maps {} page(s) but has no mapper core",
                    id.0,
                    b.mapped.count()
                ));
            }
        }
        Ok(())
    }

    /// Fallible variant of [`HostMemory::unmap_mapping_range`]: consults the
    /// failure injector before touching any state. An injected failure
    /// models a transient allocation failure inside the kernel's page-table
    /// walk; the attempt still counts as an invocation, and a retry re-rolls
    /// because the failure is transient.
    pub fn try_unmap_mapping_range(
        &mut self,
        block: VaBlockId,
        now: SimTime,
    ) -> Result<UnmapReport, UvmError> {
        if self.injector.is_enabled() && self.injector.should_fail(now) {
            self.unmap_calls += 1;
            return Err(UvmError::HostPopulateFailed { block: block.0 });
        }
        let report = self.unmap_mapping_range(block);
        uvm_trace::emit_instant(now.0, || uvm_trace::TraceEvent::HostUnmap {
            block: block.0,
            pages: report.pages_unmapped,
            dirty: report.dirty_pages,
            mapper_cores: u64::from(report.mapper_cores),
            ipis: u64::from(report.ipis),
        });
        Ok(report)
    }

    /// Fault-path unmap of every CPU-resident page in `block`
    /// (the driver always unmaps at VABlock granularity). Every mapper
    /// core receives one shootdown IPI.
    pub fn unmap_mapping_range(&mut self, block: VaBlockId) -> UnmapReport {
        self.unmap_calls += 1;
        let Some(b) = self.blocks.remove(&block) else {
            return UnmapReport::default();
        };
        let numa_factor = match &self.numa {
            Some(topo) => b
                .mappers
                .iter()
                .map(|c| topo.core_distance_factor(self.worker_core, c))
                .fold(1.0, f64::max),
            None => 1.0,
        };
        UnmapReport {
            pages_unmapped: u64::from(b.mapped.count()),
            dirty_pages: u64::from(b.dirty.count()),
            mapper_cores: b.mappers.len(),
            ipis: b.mappers.len(),
            numa_factor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block_page(block: u64, idx: u64) -> PageNum {
        PageNum(block * 512 + idx)
    }

    #[test]
    fn touch_maps_and_tracks_mappers() {
        let mut hm = HostMemory::new();
        let p = block_page(1, 0);
        hm.cpu_touch(p, 1, 3, true);
        hm.cpu_touch(p, 1, 7, false);
        assert!(hm.is_cpu_mapped(p));
        assert_eq!(hm.mapped_pages(), 1);
        let report = hm.unmap_mapping_range(VaBlockId(1));
        assert_eq!(report.pages_unmapped, 1);
        assert_eq!(report.dirty_pages, 1);
        assert_eq!(report.mapper_cores, 2);
        assert_eq!(report.ipis, 2);
    }

    #[test]
    fn single_threaded_init_has_one_mapper() {
        let mut hm = HostMemory::new();
        hm.cpu_touch(block_page(2, 0), 512, 0, true);
        let report = hm.unmap_mapping_range(VaBlockId(2));
        assert_eq!(report.pages_unmapped, 512);
        assert_eq!(report.mapper_cores, 1);
        assert_eq!(report.ipis, 1);
    }

    #[test]
    fn striped_init_has_many_mappers() {
        // The Fig. 11 scenario: 32 OpenMP threads stripe a block's pages.
        let mut hm = HostMemory::new();
        for i in 0..512u64 {
            hm.cpu_touch(block_page(3, i), 1, (i % 32) as u32, true);
        }
        let report = hm.unmap_mapping_range(VaBlockId(3));
        assert_eq!(report.pages_unmapped, 512);
        assert_eq!(report.mapper_cores, 32);
        assert_eq!(report.ipis, 32);
    }

    #[test]
    fn unmap_is_idempotent() {
        let mut hm = HostMemory::new();
        hm.cpu_touch(block_page(4, 10), 1, 0, false);
        let first = hm.unmap_mapping_range(VaBlockId(4));
        assert_eq!(first.pages_unmapped, 1);
        let second = hm.unmap_mapping_range(VaBlockId(4));
        assert!(second.is_empty());
        assert_eq!(second.ipis, 0);
        assert_eq!(hm.unmap_calls(), 2);
    }

    #[test]
    fn unmap_only_touches_target_block() {
        let mut hm = HostMemory::new();
        hm.cpu_touch(block_page(5, 0), 1, 0, false);
        hm.cpu_touch(block_page(6, 0), 1, 0, false);
        hm.unmap_mapping_range(VaBlockId(5));
        assert!(!hm.is_cpu_mapped(block_page(5, 0)));
        assert!(hm.is_cpu_mapped(block_page(6, 0)));
    }

    #[test]
    fn numa_factor_reflects_remote_mappers() {
        use crate::numa::NumaTopology;
        // Worker on core 0 (node 0); Epyc remote distance is 16/10 = 1.6.
        let mut hm = HostMemory::with_numa(NumaTopology::epyc_7551p(), 0);
        hm.cpu_touch(block_page(8, 0), 1, 1, true); // node 0 (cores 0-7)
        let local = hm.unmap_mapping_range(VaBlockId(8));
        assert_eq!(local.numa_factor, 1.0);

        hm.cpu_touch(block_page(9, 0), 1, 30, true); // node 3
        let remote = hm.unmap_mapping_range(VaBlockId(9));
        assert!((remote.numa_factor - 1.6).abs() < 1e-9);

        // Uniform-memory hosts always report 1.0.
        let mut flat = HostMemory::new();
        flat.cpu_touch(block_page(10, 0), 1, 30, true);
        assert_eq!(flat.unmap_mapping_range(VaBlockId(10)).numa_factor, 1.0);
    }

    #[test]
    fn injected_unmap_failure_preserves_mappings() {
        use uvm_sim::inject::PointPlan;
        use uvm_sim::DetRng;

        let mut hm = HostMemory::new();
        hm.cpu_touch(block_page(11, 0), 16, 0, true);
        hm.set_injector(PointInjector::new(
            &PointPlan::scheduled(SimTime(0), 1),
            DetRng::new(3),
        ));
        let err = hm.try_unmap_mapping_range(VaBlockId(11), SimTime(0)).unwrap_err();
        assert_eq!(err, UvmError::HostPopulateFailed { block: 11 });
        assert_eq!(hm.mapped_pages(), 16, "failed unmap must not partially apply");
        assert_eq!(hm.unmap_calls(), 1, "the failed attempt still counts");
        // One-shot trigger consumed: the retry succeeds.
        let report = hm.try_unmap_mapping_range(VaBlockId(11), SimTime(1)).unwrap();
        assert_eq!(report.pages_unmapped, 16);
    }

    #[test]
    fn writeback_accounting_accumulates() {
        let mut hm = HostMemory::new();
        assert_eq!(hm.writeback_pages(), 0);
        hm.note_writeback(512);
        hm.note_writeback(12);
        assert_eq!(hm.writeback_pages(), 524);
        // Accounting is orthogonal to the page table: nothing is mapped.
        assert_eq!(hm.mapped_pages(), 0);
    }

    #[test]
    fn dirty_pages_are_the_written_ones() {
        let mut hm = HostMemory::new();
        for i in 0..512u64 {
            hm.cpu_touch(block_page(12, i), 1, 0, i % 4 == 0);
        }
        let report = hm.unmap_mapping_range(VaBlockId(12));
        assert_eq!((report.pages_unmapped, report.dirty_pages), (512, 128));
        assert_eq!(hm.mapped_pages(), 0);
    }

    #[test]
    fn a_write_after_a_read_dirties_the_page() {
        let mut hm = HostMemory::new();
        // A page first read, then written, is dirty; a write stays dirty
        // through later reads; a page only read stays clean.
        hm.cpu_touch(block_page(13, 1), 1, 0, false);
        hm.cpu_touch(block_page(13, 1), 1, 0, true);
        hm.cpu_touch(block_page(13, 2), 1, 0, true);
        hm.cpu_touch(block_page(13, 2), 1, 0, false);
        hm.cpu_touch(block_page(13, 3), 1, 0, false);
        let report = hm.unmap_mapping_range(VaBlockId(13));
        assert_eq!((report.pages_unmapped, report.dirty_pages), (3, 2));
    }

    #[test]
    fn mapped_pages_in_block_counts_only_that_block() {
        let mut hm = HostMemory::new();
        for &i in &[5u64, 700, 3, 511, 512, 513, 1024] {
            hm.cpu_touch(PageNum(i), 1, 0, false);
        }
        assert_eq!(hm.mapped_pages_in_block(VaBlockId(0)), 3);
        assert_eq!(hm.mapped_pages_in_block(VaBlockId(1)), 3);
        assert_eq!(hm.mapped_pages_in_block(VaBlockId(2)), 1);
        assert_eq!(hm.mapped_pages_in_block(VaBlockId(3)), 0);
        assert_eq!(hm.mapped_pages(), 7);
    }

    #[test]
    fn unmapping_one_block_leaves_the_rest_mapped() {
        let mut hm = HostMemory::new();
        hm.cpu_touch(PageNum(0), 1024, 0, false);
        assert_eq!(hm.unmap_mapping_range(VaBlockId(0)).pages_unmapped, 512);
        assert_eq!(hm.mapped_pages(), 512);
        assert!(!hm.is_cpu_mapped(PageNum(0)));
        assert!(!hm.is_cpu_mapped(PageNum(511)));
        assert!(hm.is_cpu_mapped(PageNum(512)));
        assert!(hm.is_cpu_mapped(PageNum(1023)));
    }

    #[test]
    fn pages_straddling_a_block_boundary_unmap_per_block() {
        let mut hm = HostMemory::new();
        // Pages 500..530 straddle the boundary of blocks 0 and 1.
        hm.cpu_touch(PageNum(500), 30, 1, false);
        assert_eq!(hm.unmap_mapping_range(VaBlockId(0)).pages_unmapped, 12);
        assert!(hm.is_cpu_mapped(PageNum(512)));
        assert_eq!(hm.unmap_mapping_range(VaBlockId(1)).pages_unmapped, 18);
        assert_eq!(hm.mapped_pages(), 0);
    }

    #[test]
    fn repeat_touches_count_each_core_once() {
        let mut hm = HostMemory::new();
        hm.cpu_touch(block_page(14, 0), 1, 0, false);
        hm.cpu_touch(block_page(14, 1), 1, 5, false);
        hm.cpu_touch(block_page(14, 1), 1, 5, false);
        let report = hm.unmap_mapping_range(VaBlockId(14));
        assert_eq!((report.mapper_cores, report.ipis), (2, 2));
        let untouched = hm.unmap_mapping_range(VaBlockId(9));
        assert_eq!((untouched.mapper_cores, untouched.ipis), (0, 0));
    }

    #[test]
    fn mapper_sets_are_per_block() {
        let mut hm = HostMemory::new();
        hm.cpu_touch(block_page(1, 0), 1, 0, false);
        hm.cpu_touch(block_page(2, 0), 1, 1, false);
        let first = hm.unmap_mapping_range(VaBlockId(1));
        assert_eq!((first.mapper_cores, first.ipis), (1, 1));
        // Block 2's mapper survives the teardown of block 1.
        let second = hm.unmap_mapping_range(VaBlockId(2));
        assert_eq!((second.mapper_cores, second.ipis), (1, 1));
    }

    #[test]
    fn unmapping_an_untouched_block_changes_nothing() {
        let mut hm = HostMemory::new();
        hm.cpu_touch(block_page(16, 7), 1, 0, true);
        assert_eq!(hm.unmap_mapping_range(VaBlockId(17)), UnmapReport::default());
        assert_eq!(hm.mapped_pages(), 1);
        assert_eq!(hm.unmap_calls(), 1);
        hm.check().expect("touched state is well formed");
    }

    #[test]
    fn partial_residency_counts_only_mapped_pages() {
        let mut hm = HostMemory::new();
        hm.cpu_touch(block_page(7, 0), 100, 1, false);
        assert_eq!(hm.mapped_pages_in_block(VaBlockId(7)), 100);
        let report = hm.unmap_mapping_range(VaBlockId(7));
        assert_eq!(report.pages_unmapped, 100);
        assert_eq!(report.dirty_pages, 0);
    }
}
