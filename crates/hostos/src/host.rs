//! The host-memory façade the UVM driver calls into.
//!
//! [`HostMemory`] combines the page table, reverse mappings, and TLB
//! directory into the two operations the fault path needs:
//!
//! * [`HostMemory::cpu_touch`] — a CPU thread first-touches (or writes) a
//!   page: the page is mapped, the touching core is recorded as a mapper,
//!   and its TLB caches the translation. This is what the workload
//!   generators call during host-side initialization.
//! * [`HostMemory::unmap_mapping_range`] — the fault-path teardown the UVM
//!   driver performs when the GPU touches a VABlock partially resident on
//!   the CPU. Returns an [`UnmapReport`] of the work done; the driver
//!   converts it to time via `CostModel::unmap_time`.

use serde::{Deserialize, Serialize};
use uvm_sim::error::UvmError;
use uvm_sim::hash::FastMap;
use uvm_sim::inject::PointInjector;
use uvm_sim::mem::{PageNum, VaBlockId};
use uvm_sim::time::SimTime;

use crate::numa::NumaTopology;
use crate::page_table::{PageTable, PteFlags};
use crate::rmap::CoreSet;
use crate::tlb::TlbDirectory;

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
    /// TLB-shootdown IPI targets.
    pub ipis: u32,
    /// Leaf page tables freed.
    pub tables_freed: u64,
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
            tables_freed: 0,
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

/// Host process memory state visible to the UVM driver.
///
/// Serializable in full — page table, rmap, TLB directory, NUMA topology,
/// and injector state — for whole-system snapshot/restore.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct HostMemory {
    page_table: PageTable,
    /// Reverse map: which cores have each page mapped.
    rmap: FastMap<PageNum, CoreSet>,
    tlb: TlbDirectory,
    /// NUMA topology, when modelled (None = uniform memory).
    numa: Option<NumaTopology>,
    /// The core the UVM worker thread (which performs the unmaps) runs on.
    worker_core: u32,
    /// Monotone counter of `unmap_mapping_range` invocations.
    unmap_calls: u64,
    /// Pages written back into host memory by device evictions (normal
    /// and emergency). Pure accounting: the pages become CPU-touchable
    /// again lazily, so no page-table state changes here.
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
    /// `worker_core`) performs against PTE/rmap state homed on other
    /// nodes is inflated by the node distance.
    pub fn with_numa(topology: NumaTopology, worker_core: u32) -> Self {
        HostMemory {
            numa: Some(topology),
            worker_core,
            ..Self::default()
        }
    }

    /// A CPU thread on `core` touches `page`; `write` marks it dirty.
    /// First touch maps the page; repeat touches accumulate mapper cores
    /// and dirty state.
    pub fn cpu_touch(&mut self, page: PageNum, core: u32, write: bool) {
        if self.page_table.is_mapped(page) {
            if write {
                self.page_table.set_dirty(page);
            }
        } else {
            self.page_table.map(
                page,
                PteFlags {
                    dirty: write,
                    writable: true,
                },
            );
        }
        self.rmap.entry(page).or_default().insert(core);
        self.tlb.touch(page.va_block(), core);
    }

    /// Whether `page` is currently CPU-mapped.
    pub fn is_cpu_mapped(&self, page: PageNum) -> bool {
        self.page_table.is_mapped(page)
    }

    /// Number of CPU-mapped pages in a VABlock.
    pub fn mapped_pages_in_block(&self, block: VaBlockId) -> u64 {
        self.page_table
            .mapped_in_range(block.first_page(), PageNum(block.first_page().0 + 512))
            .len() as u64
    }

    /// Total CPU-mapped pages.
    pub fn mapped_pages(&self) -> u64 {
        self.page_table.mapped_pages()
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
    /// (the driver always unmaps at VABlock granularity).
    pub fn unmap_mapping_range(&mut self, block: VaBlockId) -> UnmapReport {
        self.unmap_calls += 1;
        let start = block.first_page();
        let end = PageNum(start.0 + uvm_sim::mem::PAGES_PER_VABLOCK);

        // Collect mapper cores for the pages being torn down.
        let mut mappers = CoreSet::EMPTY;
        for page in self.page_table.mapped_in_range(start, end) {
            if let Some(set) = self.rmap.remove(&page) {
                mappers = mappers.union(set);
            }
        }

        let work = self.page_table.unmap_range(start, end);
        let ipis = if work.ptes_cleared > 0 {
            self.tlb.shootdown(block)
        } else {
            0
        };

        let numa_factor = match &self.numa {
            Some(topo) => mappers
                .iter()
                .map(|c| topo.core_distance_factor(self.worker_core, c))
                .fold(1.0, f64::max),
            None => 1.0,
        };

        UnmapReport {
            pages_unmapped: work.ptes_cleared,
            dirty_pages: work.dirty_pages,
            mapper_cores: mappers.len(),
            ipis,
            tables_freed: work.tables_freed,
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
        hm.cpu_touch(p, 3, true);
        hm.cpu_touch(p, 7, false);
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
        for i in 0..512 {
            hm.cpu_touch(block_page(2, i), 0, true);
        }
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
            hm.cpu_touch(block_page(3, i), (i % 32) as u32, true);
        }
        let report = hm.unmap_mapping_range(VaBlockId(3));
        assert_eq!(report.pages_unmapped, 512);
        assert_eq!(report.mapper_cores, 32);
        assert_eq!(report.ipis, 32);
    }

    #[test]
    fn unmap_is_idempotent() {
        let mut hm = HostMemory::new();
        hm.cpu_touch(block_page(4, 10), 0, false);
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
        hm.cpu_touch(block_page(5, 0), 0, false);
        hm.cpu_touch(block_page(6, 0), 0, false);
        hm.unmap_mapping_range(VaBlockId(5));
        assert!(!hm.is_cpu_mapped(block_page(5, 0)));
        assert!(hm.is_cpu_mapped(block_page(6, 0)));
    }

    #[test]
    fn numa_factor_reflects_remote_mappers() {
        use crate::numa::NumaTopology;
        // Worker on core 0 (node 0); Epyc remote distance is 16/10 = 1.6.
        let mut hm = HostMemory::with_numa(NumaTopology::epyc_7551p(), 0);
        hm.cpu_touch(block_page(8, 0), 1, true); // node 0 (cores 0-7)
        let local = hm.unmap_mapping_range(VaBlockId(8));
        assert_eq!(local.numa_factor, 1.0);

        hm.cpu_touch(block_page(9, 0), 30, true); // node 3
        let remote = hm.unmap_mapping_range(VaBlockId(9));
        assert!((remote.numa_factor - 1.6).abs() < 1e-9);

        // Uniform-memory hosts always report 1.0.
        let mut flat = HostMemory::new();
        flat.cpu_touch(block_page(10, 0), 30, true);
        assert_eq!(flat.unmap_mapping_range(VaBlockId(10)).numa_factor, 1.0);
    }

    #[test]
    fn injected_unmap_failure_preserves_mappings() {
        use uvm_sim::inject::PointPlan;
        use uvm_sim::DetRng;

        let mut hm = HostMemory::new();
        for i in 0..16 {
            hm.cpu_touch(block_page(11, i), 0, true);
        }
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
    fn partial_residency_counts_only_mapped_pages() {
        let mut hm = HostMemory::new();
        for i in 0..100 {
            hm.cpu_touch(block_page(7, i), 1, false);
        }
        assert_eq!(hm.mapped_pages_in_block(VaBlockId(7)), 100);
        let report = hm.unmap_mapping_range(VaBlockId(7));
        assert_eq!(report.pages_unmapped, 100);
        assert_eq!(report.dirty_pages, 0);
    }
}
