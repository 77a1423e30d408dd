//! Cross-layer invariant auditor.
//!
//! After every serviced batch (when `DriverPolicy::audit_enabled` is set)
//! the auditor cross-checks the four state holders the servicing pipeline
//! mutates — the driver's VABlock states, the GPU memory manager, the DMA
//! space, and the host page tables — and reports any disagreement as a
//! structured [`UvmError::InvariantViolation`]. The auditor is pure
//! observation: it charges no simulated time and draws no random numbers,
//! so enabling it cannot perturb an experiment's figures.
//!
//! Checked invariants, per managed VABlock:
//!
//! 1. `gpu_allocated` agrees with the GPU memory manager's resident set.
//! 2. Every page the driver believes GPU-accessible (`gpu_resident` or
//!    `remote_mapped`) is mapped in the GPU page table.
//! 3. A page is never both migrated and remote-mapped.
//! 4. A block with GPU-accessible pages holds DMA mappings for them.
//! 5. Unless read-duplicated, no GPU-resident page is still CPU-mapped
//!    (the fault path must have unmapped it).
//! 6. No state bit exists beyond the block's valid page range.
//!
//! And globally:
//!
//! 7. The GPU page table holds exactly the pages the driver accounts for.
//! 8. Residency never exceeds the memory manager's *effective* capacity
//!    (hardware capacity minus any sustained-pressure reservation).
//! 9. When multi-tenant clients are configured: every GPU-accessible page
//!    belongs to some client's VABlock range, each client's ledgered
//!    resident-page count equals the ground truth recomputed from the
//!    VABlock states, the per-client residency sums to the global page
//!    accounting of check 7, and the ledger's fault/throttle totals equal
//!    the sums of its per-client counters.
//! 10. Directory/residency coherence for the multi-GPU peer backends:
//!     every block's `peer_pages` equals exactly what the owner directory
//!     names for it (and is disjoint from GPU-accessible pages and within
//!     the valid range), each peer's used-slot count equals its directory
//!     entries and respects the per-peer capacity, and the directory's
//!     held-page total conserves its traffic counters
//!     (`held == spilled − fetched − reclaimed`). With a non-peer backend
//!     the directory is disabled and every `peer_pages` set is empty.
//!
//! Every state holder keeps one record per VABlock — the driver's block
//! state, the GPU page table ([`Gpu::resident_in`]), the DMA space
//! ([`DmaSpace::mapped_in`](uvm_hostos::dma::DmaSpace::mapped_in)) and
//! the host tables ([`HostMemory::mapped_in`]) — so checks 2, 4, 5 and 6
//! are bitmap operations on a block's records: one probe per holder and a
//! few word-wise ANDs, whatever the block's page count. Only a non-empty
//! difference is walked bit by bit, to name each offending page, in
//! ascending page order as a per-page walk would.

use uvm_gpu::device::Gpu;
use uvm_hostos::host::HostMemory;
use uvm_sim::bitmap::PageBitmap;
use uvm_sim::error::UvmError;

use crate::service::UvmDriver;

/// Audit every invariant and return all violations found (empty when the
/// system is consistent).
pub fn violations(driver: &UvmDriver, gpu: &Gpu, host: &HostMemory) -> Vec<UvmError> {
    let mut out = Vec::new();
    let mut accounted_pages: u64 = 0;

    for state in driver.va_space.blocks() {
        let id = state.id;
        let v = |subsystem: &'static str, detail: String| UvmError::InvariantViolation {
            subsystem,
            block: id.0,
            detail,
        };

        // 1. Allocation agreement with the GPU memory manager.
        if state.gpu_allocated != driver.memory().is_resident(id) {
            out.push(v(
                "gpu-mem",
                format!(
                    "driver gpu_allocated={} but memory manager resident={}",
                    state.gpu_allocated,
                    driver.memory().is_resident(id)
                ),
            ));
        }

        // 3. Migrated and remote-mapped are mutually exclusive.
        let both = state.gpu_resident.and(&state.remote_mapped);
        if !both.is_empty() {
            out.push(v(
                "va-block",
                format!("{} pages both gpu_resident and remote_mapped", both.count()),
            ));
        }

        // 6. No state beyond the valid page range.
        let mut valid = PageBitmap::EMPTY;
        valid.set_range(0, state.valid_pages as usize);
        for (name, bm) in [
            ("gpu_resident", &state.gpu_resident),
            ("remote_mapped", &state.remote_mapped),
            ("host_data", &state.host_data),
            ("peer_pages", &state.peer_pages),
        ] {
            if let Some(bad) = bm.and_not(&valid).iter_set().next() {
                out.push(v(
                    "va-block",
                    format!("{name} bit {bad} beyond valid_pages={}", state.valid_pages),
                ));
            }
        }

        let accessible = state.gpu_resident.or(&state.remote_mapped);
        accounted_pages += u64::from(accessible.count());

        // 4. GPU-accessible pages require DMA mappings.
        let dma = driver.dma_space();
        if !accessible.is_empty() && !dma.is_mapped(id) {
            out.push(v(
                "dma",
                format!(
                    "{} GPU-accessible pages but the block has no DMA mappings",
                    accessible.count()
                ),
            ));
        }

        // 2. GPU page table agreement, and 4 (cont.): a DMA address for
        // every accessible page. Named page by page, in page order.
        let not_in_gpu_pt = accessible.and_not(&gpu.resident_in(id));
        let no_dma = accessible.and_not(&dma.mapped_in(id));
        for i in not_in_gpu_pt.or(&no_dma).iter_set() {
            let page = id.page_at(i);
            if not_in_gpu_pt.get(i) {
                out.push(v(
                    "gpu-pt",
                    format!("page {} driver-accessible but absent from GPU page table", page.0),
                ));
            }
            if no_dma.get(i) {
                out.push(v("dma", format!("page {} has no DMA mapping", page.0)));
            }
        }

        // 10. Peer-held pages agree with the owner directory and never
        // overlap a GPU-accessible mapping.
        let peer_accessible = state.peer_pages.and(&accessible);
        if !peer_accessible.is_empty() {
            out.push(v(
                "peer-dir",
                format!(
                    "{} pages both peer-held and GPU-accessible",
                    peer_accessible.count()
                ),
            ));
        }
        let dir_pages = driver.peer_directory().pages_of(id);
        if dir_pages != state.peer_pages {
            out.push(v(
                "peer-dir",
                format!(
                    "block records {} peer-held pages but the owner directory names {}",
                    state.peer_pages.count(),
                    dir_pages.count()
                ),
            ));
        }

        // 5. Migration implies the CPU mapping was torn down, unless the
        // block is read-duplicated.
        if !state.read_duplicated {
            for i in state.gpu_resident.and(&host.mapped_in(id)).iter_set() {
                out.push(v(
                    "host-pt",
                    format!("page {} migrated to GPU but still CPU-mapped", id.page_at(i).0),
                ));
            }
        }
    }

    // 7. Global page accounting.
    let gpu_pages = gpu.resident_pages() as u64;
    if gpu_pages != accounted_pages {
        out.push(UvmError::InvariantViolation {
            subsystem: "gpu-pt",
            block: u64::MAX,
            detail: format!(
                "GPU page table holds {gpu_pages} pages but driver accounts for {accounted_pages}"
            ),
        });
    }

    // 9. Multi-tenant attribution agrees with ground truth.
    let ledger = driver.clients();
    if ledger.is_enabled() {
        let mut per_client: Vec<u64> = vec![0; ledger.num_clients()];
        for state in driver.va_space.blocks() {
            let accessible = u64::from(state.accessible_pages());
            if accessible == 0 {
                continue;
            }
            match ledger.client_of_block(state.id) {
                Some(c) => per_client[c] += accessible,
                None => out.push(UvmError::InvariantViolation {
                    subsystem: "tenancy",
                    block: state.id.0,
                    detail: format!(
                        "{accessible} GPU-accessible pages in a block outside every \
                         client range"
                    ),
                }),
            }
        }
        let mut ledger_resident: u64 = 0;
        let mut ledger_faults: u64 = 0;
        let mut ledger_throttled: u64 = 0;
        for (c, counters) in ledger.counters().iter().enumerate() {
            ledger_resident += counters.resident_pages;
            ledger_faults += counters.faults;
            ledger_throttled += counters.throttled;
            if counters.resident_pages != per_client[c] {
                out.push(UvmError::InvariantViolation {
                    subsystem: "tenancy",
                    block: u64::MAX,
                    detail: format!(
                        "client {} ('{}') ledgers {} resident pages but VABlock states \
                         hold {}",
                        c,
                        ledger.clients()[c].name,
                        counters.resident_pages,
                        per_client[c]
                    ),
                });
            }
        }
        if ledger_resident != accounted_pages {
            out.push(UvmError::InvariantViolation {
                subsystem: "tenancy",
                block: u64::MAX,
                detail: format!(
                    "per-client residency sums to {ledger_resident} but the driver \
                     accounts for {accounted_pages} pages globally"
                ),
            });
        }
        if ledger_faults != ledger.total_faults() || ledger_throttled != ledger.total_throttled() {
            out.push(UvmError::InvariantViolation {
                subsystem: "tenancy",
                block: u64::MAX,
                detail: format!(
                    "per-client counters sum to {ledger_faults} faults / {ledger_throttled} \
                     throttled but the ledger totals are {} / {}",
                    ledger.total_faults(),
                    ledger.total_throttled()
                ),
            });
        }
    }

    // 10 (cont). Owner-directory internal accounting: per-peer slot
    // counts match the entries, respect capacity, and the held total
    // conserves the traffic counters.
    let dir = driver.peer_directory();
    if dir.is_enabled() {
        let mut per_peer: Vec<u64> = vec![0; dir.peer_count() as usize];
        for (_, holding) in dir.entries() {
            per_peer[holding.peer as usize] += 1;
        }
        for p in 0..dir.peer_count() {
            if dir.used_slots(p) != per_peer[p as usize] {
                out.push(UvmError::InvariantViolation {
                    subsystem: "peer-dir",
                    block: u64::MAX,
                    detail: format!(
                        "peer {p} counts {} used slots but the directory holds {} \
                         of its entries",
                        dir.used_slots(p),
                        per_peer[p as usize]
                    ),
                });
            }
            if dir.used_slots(p) > dir.capacity_blocks() {
                out.push(UvmError::InvariantViolation {
                    subsystem: "peer-dir",
                    block: u64::MAX,
                    detail: format!(
                        "peer {p} holds {} blocks over its capacity {}",
                        dir.used_slots(p),
                        dir.capacity_blocks()
                    ),
                });
            }
        }
        let held = dir.total_held_pages();
        if dir.pages_spilled != held + dir.pages_fetched + dir.pages_reclaimed {
            out.push(UvmError::InvariantViolation {
                subsystem: "peer-dir",
                block: u64::MAX,
                detail: format!(
                    "peer traffic does not conserve: {} spilled != {held} held + {} \
                     fetched + {} reclaimed",
                    dir.pages_spilled, dir.pages_fetched, dir.pages_reclaimed
                ),
            });
        }
    }

    // 8. Residency respects the effective (pressure-shrunken) capacity.
    let resident = driver.memory().resident_blocks();
    let effective = driver.memory().effective_capacity();
    if resident > effective {
        out.push(UvmError::InvariantViolation {
            subsystem: "gpu-mem",
            block: u64::MAX,
            detail: format!(
                "{resident} resident blocks exceed effective capacity {effective} \
                 (hardware {}, pressure-reserved {})",
                driver.memory().capacity_blocks(),
                driver.memory().pressure_reserved()
            ),
        });
    }

    out
}

/// Audit and fail fast: `Err` carries the first violation found.
pub fn audit(driver: &UvmDriver, gpu: &Gpu, host: &HostMemory) -> Result<(), UvmError> {
    match violations(driver, gpu, host).into_iter().next() {
        None => Ok(()),
        Some(v) => Err(v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::DriverPolicy;
    use crate::service::ServiceScratch;
    use uvm_gpu::fault::{AccessKind, FaultRecord};
    use uvm_gpu::spec::GpuSpec;
    use uvm_sim::cost::CostModel;
    use uvm_sim::mem::{AddressSpaceAllocator, VABLOCK_SIZE};
    use uvm_sim::time::SimTime;

    fn setup() -> (UvmDriver, Gpu, HostMemory, ServiceScratch) {
        let driver = UvmDriver::new(DriverPolicy::default().audited(true), CostModel::titan_v(), 16, 42);
        let gpu = Gpu::new(GpuSpec::small(16 * VABLOCK_SIZE));
        (driver, gpu, HostMemory::new(), ServiceScratch::default())
    }

    fn fault(page: uvm_sim::mem::PageNum) -> FaultRecord {
        FaultRecord {
            page,
            kind: AccessKind::Read,
            warp: 0,
            arrival: SimTime(0),
            dup_of_outstanding: false,
        }
    }

    #[test]
    fn consistent_system_has_no_violations() -> Result<(), UvmError> {
        let (mut driver, mut gpu, mut host, mut scratch) = setup();
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(2 * VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        driver.cpu_touch(&mut host, alloc.page(0), 600, 0, true);
        let faults: Vec<_> = (0..100).map(|i| fault(alloc.page(i * 5))).collect();
        // service_batch_with itself audits (policy.audited(true)) and would
        // return Err on any violation.
        driver.service_batch_with(&faults, &mut gpu, &mut host, SimTime(0), &mut scratch)?;
        assert!(violations(&driver, &gpu, &host).is_empty());
        Ok(())
    }

    #[test]
    fn desynced_gpu_page_table_is_reported() -> Result<(), UvmError> {
        let (mut driver, mut gpu, mut host, mut scratch) = setup();
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        driver.service_batch_with(
            &[fault(alloc.page(0))],
            &mut gpu,
            &mut host,
            SimTime(0),
            &mut scratch,
        )?;
        // Corrupt: drop the page from the GPU page table behind the
        // driver's back.
        let page = alloc.page(0);
        gpu.unmap_block(page.va_block(), &[page.index_in_block()].into_iter().collect());
        let vs = violations(&driver, &gpu, &host);
        assert!(!vs.is_empty());
        assert!(vs.iter().any(|e| matches!(
            e,
            UvmError::InvariantViolation { subsystem: "gpu-pt", .. }
        )));
        assert!(audit(&driver, &gpu, &host).is_err());
        Ok(())
    }

    #[test]
    fn desynced_memory_manager_is_reported() -> Result<(), UvmError> {
        let (mut driver, mut gpu, mut host, mut scratch) = setup();
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        driver.service_batch_with(
            &[fault(alloc.page(0))],
            &mut gpu,
            &mut host,
            SimTime(0),
            &mut scratch,
        )?;
        let id = alloc.va_blocks().next().expect("allocation spans a block");
        driver.mem.release(id); // behind the driver's back
        let vs = violations(&driver, &gpu, &host);
        assert!(vs.iter().any(|e| matches!(
            e,
            UvmError::InvariantViolation { subsystem: "gpu-mem", .. }
        )));
        Ok(())
    }

    #[test]
    fn residency_over_effective_capacity_is_reported() -> Result<(), UvmError> {
        let (mut driver, mut gpu, mut host, mut scratch) = setup();
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(4 * VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        let faults: Vec<_> = alloc.va_blocks().map(|b| fault(b.first_page())).collect();
        driver.service_batch_with(&faults, &mut gpu, &mut host, SimTime(0), &mut scratch)?;
        assert!(violations(&driver, &gpu, &host).is_empty());
        // Corrupt: shrink capacity behind the driver's back without
        // shedding — 4 resident blocks now exceed effective capacity 2.
        driver.mem.set_pressure(14);
        let vs = violations(&driver, &gpu, &host);
        assert!(vs.iter().any(|e| matches!(
            e,
            UvmError::InvariantViolation { subsystem: "gpu-mem", block: u64::MAX, .. }
        )));
        Ok(())
    }

    #[test]
    fn peer_directory_desync_is_reported() -> Result<(), UvmError> {
        let (mut driver, mut gpu, mut host, mut scratch) = setup();
        driver.install_backend(crate::backend::BackendKind::MultiGpuPeer2);
        let mut asa = AddressSpaceAllocator::new();
        // 20 blocks on a 16-block device: servicing every block in one
        // batch forces capacity evictions, which spill to a peer.
        let alloc = asa.alloc(20 * VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        let faults: Vec<_> = alloc.va_blocks().map(|b| fault(b.first_page())).collect();
        driver.service_batch_with(&faults, &mut gpu, &mut host, SimTime(0), &mut scratch)?;
        assert!(violations(&driver, &gpu, &host).is_empty());
        assert!(driver.peer_directory().total_held_pages() > 0, "spills happened");
        // Corrupt: a block forgets its peer-held pages behind the owner
        // directory's back.
        let spilled = driver
            .va_space
            .blocks()
            .find(|s| !s.peer_pages.is_empty())
            .expect("oversubscription spilled at least one block")
            .id;
        driver.va_space.block_mut(spilled).peer_pages.reset();
        let vs = violations(&driver, &gpu, &host);
        assert!(vs.iter().any(|e| matches!(
            e,
            UvmError::InvariantViolation { subsystem: "peer-dir", .. }
        )));
        Ok(())
    }

    #[test]
    fn lingering_cpu_mapping_is_reported() -> Result<(), UvmError> {
        let (mut driver, mut gpu, mut host, mut scratch) = setup();
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        driver.service_batch_with(
            &[fault(alloc.page(0))],
            &mut gpu,
            &mut host,
            SimTime(0),
            &mut scratch,
        )?;
        // Corrupt: CPU remaps a migrated page without the driver noticing.
        host.cpu_touch(alloc.page(0), 1, 0, true);
        let vs = violations(&driver, &gpu, &host);
        assert!(vs.iter().any(|e| matches!(
            e,
            UvmError::InvariantViolation { subsystem: "host-pt", .. }
        )));
        Ok(())
    }
}
