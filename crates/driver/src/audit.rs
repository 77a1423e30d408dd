//! Cross-layer invariant auditor.
//!
//! After every serviced batch (when `DriverPolicy::audit_enabled` is set)
//! the auditor cross-checks the state holders the servicing pipeline
//! mutates — the driver's VABlock states, the GPU memory manager, the peer
//! owner directory, the client table, the DMA space, and the host page
//! tables — and reports any disagreement as a structured
//! [`UvmError::InvariantViolation`]. The auditor is pure observation: it
//! charges no simulated time and draws no random numbers, so enabling it
//! cannot perturb an experiment's figures.
//!
//! Each fact has one owner, so the checks relate different facts rather
//! than comparing copies of one. Checked invariants, per managed VABlock:
//!
//! 1. A block with GPU-resident pages is held by the GPU memory manager
//!    (and, globally, the manager holds only registered blocks).
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
//!    lies in some client's VABlock range.
//! 10. Owner-directory coherence for the multi-GPU peer backends: the
//!     pages the directory names for a block are disjoint from its
//!     GPU-accessible pages, the directory passes the same shape check
//!     restore applies ([`PeerDirectory::check`]: the backend's peer
//!     count, every entry naming a registered block and one of the peers
//!     and holding pages only inside the block's valid range, no peer
//!     over its capacity), and the held-page total conserves the
//!     traffic counters (`held == spilled − fetched − reclaimed`), so a
//!     page that leaves the directory without being counted shows up as a
//!     leak.
//!
//! Every state holder keeps one record per VABlock — the driver's block
//! state, the owner directory ([`PeerDirectory::pages_of`]), the GPU page
//! table ([`Gpu::resident_in`]), the DMA space
//! ([`DmaSpace::mapped_in`](uvm_hostos::dma::DmaSpace::mapped_in)) and
//! the host tables ([`HostMemory::mapped_in`]) — so checks 2, 4, 5, 6 and
//! 10's overlap are bitmap operations on a block's records: one probe per
//! holder and a few word-wise ANDs, whatever the block's page count. Only
//! a non-empty difference is walked bit by bit, to name each offending
//! page, in ascending page order as a per-page walk would.
//!
//! [`PeerDirectory::check`]: crate::backend::PeerDirectory::check
//! [`PeerDirectory::pages_of`]: crate::backend::PeerDirectory::pages_of

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
    let mem = driver.memory();
    let dir = driver.peer_directory();
    let ledger = driver.clients();

    for state in driver.va_space.blocks() {
        let id = state.id;
        let v = |subsystem: &'static str, detail: String| UvmError::InvariantViolation {
            subsystem,
            block: id.0,
            detail,
        };

        // 1. Resident pages live in an allocation the manager holds.
        if !state.gpu_resident.is_empty() && !mem.is_resident(id) {
            out.push(v(
                "gpu-mem",
                format!(
                    "{} GPU-resident pages but the memory manager holds no allocation",
                    state.gpu_resident.count()
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

        // 10. Peer-held pages never overlap a GPU-accessible mapping.
        let peer_accessible = dir.pages_of(id).and(&accessible);
        if !peer_accessible.is_empty() {
            out.push(v(
                "peer-dir",
                format!(
                    "{} pages both peer-held and GPU-accessible",
                    peer_accessible.count()
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

        // 9. GPU-accessible pages belong to some client.
        if ledger.is_enabled() && !accessible.is_empty() && ledger.client_of_block(id).is_none() {
            out.push(v(
                "tenancy",
                format!(
                    "{} GPU-accessible pages in a block outside every client range",
                    accessible.count()
                ),
            ));
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

    // 10 (cont). The directory's own shape (peer count, entries naming
    // registered blocks and existing peers with pages in range, per-peer
    // capacity), and the held total conserves the traffic counters.
    if let Err(detail) = dir.check(driver.backend().peers(), &driver.va_space) {
        out.push(UvmError::InvariantViolation { subsystem: "peer-dir", block: u64::MAX, detail });
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

    // 1 (cont). The manager holds only registered blocks, named in id
    // order.
    let mut unregistered: Vec<u64> = mem
        .resident()
        .filter(|&b| driver.va_space.try_block(b).is_err())
        .map(|b| b.0)
        .collect();
    unregistered.sort_unstable();
    for block in unregistered {
        out.push(UvmError::InvariantViolation {
            subsystem: "gpu-mem",
            block,
            detail: "the memory manager holds an allocation for an unregistered block".into(),
        });
    }

    // 8. Residency respects the effective (pressure-shrunken) capacity.
    let resident = mem.resident_blocks();
    let effective = mem.effective_capacity();
    if resident > effective {
        out.push(UvmError::InvariantViolation {
            subsystem: "gpu-mem",
            block: u64::MAX,
            detail: format!(
                "{resident} resident blocks exceed effective capacity {effective} \
                 (hardware {}, pressure-reserved {})",
                mem.capacity_blocks(),
                mem.pressure_reserved()
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
    use crate::evict::EvictScratch;
    use crate::policy::DriverPolicy;
    use crate::service::ServiceScratch;
    use uvm_gpu::fault::{AccessKind, FaultRecord};
    use uvm_gpu::spec::GpuSpec;
    use uvm_sim::cost::CostModel;
    use uvm_sim::mem::{AddressSpaceAllocator, VaBlockId, VABLOCK_SIZE};
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
            UvmError::InvariantViolation { subsystem: "gpu-mem", block, .. } if *block == id.0
        )));
        // The manager holding a block no allocation registered.
        let stray = VaBlockId(id.0 + 100);
        driver.mem.ensure_resident_with(stray, 1, &mut EvictScratch::default())?;
        let vs = violations(&driver, &gpu, &host);
        assert!(vs.iter().any(|e| matches!(
            e,
            UvmError::InvariantViolation { subsystem: "gpu-mem", block, .. } if *block == stray.0
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
        // Corrupt: a peer-held page turns up GPU-resident behind the owner
        // directory's back.
        let (spilled, held) = driver
            .peer_directory()
            .entries()
            .map(|(block, holding)| (block, holding.pages))
            .next()
            .expect("oversubscription spilled at least one block");
        driver.va_space.block_mut(spilled).gpu_resident.merge(&held);
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
