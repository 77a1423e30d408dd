//! The fault-servicing pipeline.
//!
//! [`UvmDriver::service_batch_with`] models the driver's per-batch work
//! loop (paper Secs. 2.2, 4, 5). Its body is the list of stages, in the
//! order the paper breaks batch service time down, each a method over the
//! batch's [`BatchRecord`]:
//!
//! 1. **sustained failures** — GPU-reset re-attach and the emergency
//!    writeback of a memory-pressure window;
//! 2. **health** — the batch-boundary health verdict that gates
//!    speculation;
//! 3. **fetch** — buffer-drop attribution, fetch-stall retries, the fetch;
//! 4. **admit** — multi-tenant fairness admission;
//! 5. **dedup** — composition accounting and duplicate classification;
//! 6. **group** — unique faults grouped by VABlock;
//! 7. **per VABlock** — the remote-mapping path, or prefetch → allocate
//!    (evicting victims) → DMA setup → CPU unmap → migrate;
//! 8. **close** — per-batch overhead and jitter; the record is appended
//!    to the driver's log.
//!
//! State transitions are applied to the GPU device model and the host OS
//! substrate as the stages run. [`UvmDriver::prefetch_async`] reuses the
//! per-block stages and the close.
//!
//! The pipeline is *fallible*: every stage that can fail in a real driver
//! (DMA-map creation, the copy engine, host page-table operations, the
//! batch fetch itself) returns a typed [`UvmError`] through one retry
//! helper, which applies the recovery policy from [`DriverPolicy`] —
//! bounded retry with deterministic exponential backoff. A block whose
//! migration keeps failing degrades to a remote (sysmem-mapped) state.
//! Only unrecoverable failures propagate to the caller.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use uvm_gpu::device::Gpu;
use uvm_gpu::fault::{AccessKind, FaultRecord};
use uvm_hostos::dma::DmaSpace;
use uvm_hostos::host::HostMemory;
use uvm_sim::bitmap::PageBitmap;
use uvm_sim::cost::CostModel;
use uvm_sim::error::UvmError;
use uvm_sim::hash::FastSet;
use uvm_sim::inject::{InjectionPoint, Injector, PointInjector};
use uvm_sim::mem::{Allocation, PageNum, VaBlockId, PAGE_SIZE};
use uvm_sim::rng::DetRng;
use uvm_sim::time::{SimDuration, SimTime};
use uvm_trace::TraceEvent;

use crate::advise::MemAdvise;
use crate::backend::{BackendKind, PeerDirectory};
use crate::batch::{BatchRecord, FaultMeta};
use crate::clients::{ClientLedger, TenancyConfig};
use crate::dedup::{classify_duplicates_with, DedupResult, DedupScratch};
use crate::engine::{run_prefetch_policy, PrefetchContext};
use crate::evict::{EvictScratch, GpuMemoryManager, ResidencyOutcome};
use crate::health::{HealthEvidence, HealthMachine};
use crate::policy::DriverPolicy;
use crate::va_space::VaSpace;

/// Emit a component span for a duration just added to `rec`.
///
/// Must be called immediately after `rec.t_* += dur`: the record's
/// component times only grow, in program order, so placing the span at
/// `rec.start + component_sum − dur` tiles the batch's service interval
/// contiguously, and the per-component span sums equal the record's final
/// `t_*` fields exactly — the invariant the trace-side breakdown
/// reconciliation relies on. Purely observational: no driver state (and
/// no RNG stream) is touched.
#[inline]
fn span(rec: &BatchRecord, dur: SimDuration, event: impl FnOnce() -> TraceEvent) {
    if uvm_trace::enabled() {
        let end = rec.start.0 + rec.component_sum().as_nanos();
        uvm_trace::emit_span(end - dur.as_nanos(), dur.as_nanos(), event);
    }
}

/// Emit an instant at the batch's current accumulated position.
#[inline]
fn mark(rec: &BatchRecord, event: impl FnOnce() -> TraceEvent) {
    if uvm_trace::enabled() {
        uvm_trace::emit_instant(rec.start.0 + rec.component_sum().as_nanos(), event);
    }
}

/// Run `op`, retrying failures up to [`DriverPolicy::max_retries`] times.
///
/// Every failure counts as an injected fault; every retry pays a
/// deterministic exponential backoff (pure policy — no RNG), charged to
/// `rec` as a `Backoff` span tagged `stage`. Returns the first success,
/// or the last error once the retries are spent.
fn retry<T>(
    policy: &DriverPolicy,
    rec: &mut BatchRecord,
    stage: &'static str,
    mut op: impl FnMut() -> Result<T, UvmError>,
) -> Result<T, UvmError> {
    let mut attempt = 0u32;
    loop {
        let err = match op() {
            Ok(value) => return Ok(value),
            Err(err) => err,
        };
        rec.injected_faults += 1;
        if attempt >= policy.max_retries {
            return Err(err);
        }
        rec.retries += 1;
        let d = DriverPolicy::RETRY_BACKOFF * (1u64 << attempt.min(20));
        rec.t_backoff += d;
        span(rec, d, || TraceEvent::Backoff {
            batch: rec.seq,
            stage: stage.into(),
        });
        attempt += 1;
    }
}

/// `Err(err)` when `inj` fires at `now` — an injection point with no
/// operation of its own to fail.
fn fire(inj: &mut PointInjector, now: SimTime, err: UvmError) -> Result<(), UvmError> {
    if inj.is_enabled() && inj.should_fail(now) {
        Err(err)
    } else {
        Ok(())
    }
}

/// Group unique faults by VABlock as `(block, unique index)` keys. Sorted
/// keys give a deterministic service order: blocks ascend, and within a
/// block the index tie-break keeps first-arrival order.
fn group_by_block(unique: &[FaultRecord], groups: &mut Vec<(VaBlockId, u32)>) {
    groups.clear();
    groups.extend(
        unique
            .iter()
            .enumerate()
            .map(|(i, f)| (f.page.va_block(), i as u32)),
    );
    groups.sort_unstable();
}

/// Reusable per-batch working memory for [`UvmDriver::service_batch_with`].
///
/// Pure scratch: contents are cleared at each use site and never influence
/// results. Kept outside [`UvmDriver`] so driver snapshots are unaffected;
/// the run loop owns one instance for the lifetime of a simulation.
#[derive(Debug, Default)]
pub struct ServiceScratch {
    /// Faults surviving multi-tenant admission (unused when tenancy is
    /// off — the raw batch slice is serviced directly).
    admitted: Vec<FaultRecord>,
    /// Working memory of the dedup stage.
    dedup: DedupBuffers,
    /// `(VABlock, unique index)` grouping keys.
    groups: Vec<(VaBlockId, u32)>,
    /// Eviction victim-list and policy-candidate buffers.
    evict: EvictScratch,
}

/// Working memory of the dedup stage.
#[derive(Debug, Default)]
struct DedupBuffers {
    /// Sort/dedup working memory for duplicate classification.
    scratch: DedupScratch,
    /// Dedup output (reused `unique` vector).
    out: DedupResult,
    /// Each fault's `(SM, μTLB)`.
    placements: Vec<(u32, u32)>,
    /// First-occurrence tracking for the per-fault metadata log.
    seen_pages: FastSet<PageNum>,
}

/// Why a block's device copy is written back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Writeback {
    /// Shed by a memory-pressure window. Nothing asked for memory — the
    /// memory shrank — so there is no allocation-failure surcharge, and
    /// the victim always returns to host RAM.
    Emergency,
    /// Evicted so an allocation can succeed (Sec. 5.1): the allocation
    /// fails, the victim is written back — or spilled to a peer GPU — and
    /// the migration step restarts.
    Capacity,
    /// A degrading block gives up its own allocation: the chunk is
    /// released without counting as an eviction.
    Degrade,
}

/// The UVM driver: policy, managed-memory registry, GPU memory manager,
/// DMA space, and the batch log.
///
/// The driver is fully serializable: a snapshot captures the VA-space and
/// VABlock trees, the eviction bookkeeping (including the evictor's own
/// RNG stream and LFU counters), the oracle prefetcher's future-access
/// table, the DMA space (as its per-block runs, from which restore rebuilds
/// the reverse radix tree), the jitter RNG mid-stream, every driver-owned
/// injector (transient and sustained), the health machine, and the
/// complete batch log, so a restored driver continues bit-identically
/// under any policy stack. Its policy, cost model and backend are the
/// run's only copies of those settings: the run loop reads them from here.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UvmDriver {
    policy: DriverPolicy,
    cost: CostModel,
    /// Managed allocations and VABlock states.
    pub va_space: VaSpace,
    pub(crate) mem: GpuMemoryManager,
    pub(crate) dma: DmaSpace,
    rng: DetRng,
    batch_seq: u64,
    /// Batch-level instrumentation (one record per serviced batch).
    pub records: Vec<BatchRecord>,
    /// Per-fault metadata, kept when `policy.log_fault_metadata`.
    pub fault_log: Vec<FaultMeta>,
    /// Copy-engine (migration) failure injection.
    inj_copy: PointInjector,
    /// Batch-fetch stall injection.
    inj_fetch: PointInjector,
    /// Sustained device-memory-pressure injection: consulted once per
    /// batch; while it fires, `pressure_reserve_blocks` are withheld from
    /// the memory manager and residency is emergency-evicted to fit.
    inj_pressure: PointInjector,
    /// Sustained GPU-reset injection: consulted once per batch; a fire
    /// destroys the fault buffer, in-flight GMMU state, and μTLB entries,
    /// and charges the re-attach cost.
    inj_reset: PointInjector,
    /// The graceful-degradation health machine, re-evaluated from evidence
    /// at every batch boundary.
    health: HealthMachine,
    /// Cumulative VABlocks degraded to remote mappings over the run — the
    /// evidence behind the `Degraded` escalation.
    degraded_total: u64,
    /// Fault-buffer overflow drops already attributed to earlier batches.
    overflow_seen: u64,
    /// The oracle prefetcher's future-access table: per VABlock, every
    /// page the workload will touch. Installed by the system layer before
    /// the run starts ([`Self::set_future_accesses`]); empty for every
    /// other prefetch policy. Serialized with the driver so a restored
    /// oracle run keeps its foresight.
    oracle_future: BTreeMap<VaBlockId, PageBitmap>,
    /// Multi-tenant client table and fairness policy. Disabled
    /// (empty) for single-tenant runs; installed by the system layer from
    /// the tenancy configuration ([`Self::install_clients`]).
    clients: ClientLedger,
    /// Which servicing architecture runs the pipeline. Stock is
    /// [`BackendKind::CpuDriver`]; installed by the system layer from the
    /// system configuration ([`Self::install_backend`]).
    backend: BackendKind,
    /// Owner directory for the multi-GPU peer backends: which peer holds
    /// which spilled pages. Disabled (zero peers) for the CPU-driven and
    /// GPU-driven backends.
    peer_dir: PeerDirectory,
}

impl UvmDriver {
    /// A driver managing a GPU with `capacity_blocks` 2 MiB chunks.
    pub fn new(policy: DriverPolicy, cost: CostModel, capacity_blocks: u64, seed: u64) -> Self {
        let mem = GpuMemoryManager::with_policy(capacity_blocks, policy.eviction_policy, seed);
        UvmDriver {
            policy,
            cost,
            va_space: VaSpace::new(),
            mem,
            dma: DmaSpace::new(),
            rng: DetRng::new(seed ^ 0xD21A_55E5),
            batch_seq: 0,
            records: Vec::new(),
            fault_log: Vec::new(),
            inj_copy: PointInjector::disabled(),
            inj_fetch: PointInjector::disabled(),
            inj_pressure: PointInjector::disabled(),
            inj_reset: PointInjector::disabled(),
            health: HealthMachine::new(),
            degraded_total: 0,
            overflow_seen: 0,
            oracle_future: BTreeMap::new(),
            clients: ClientLedger::disabled(),
            backend: BackendKind::CpuDriver,
            peer_dir: PeerDirectory::default(),
        }
    }

    /// Install the multi-tenant client table from a tenancy
    /// configuration. A disabled configuration (no clients) leaves the
    /// driver in stock single-tenant mode.
    pub fn install_clients(&mut self, config: &TenancyConfig) {
        if config.is_enabled() {
            self.clients = ClientLedger::new(config);
        }
    }

    /// The multi-tenant client ledger (read access for the auditor,
    /// experiments, and reports).
    pub fn clients(&self) -> &ClientLedger {
        &self.clients
    }

    /// Install a servicing backend. [`BackendKind::CpuDriver`] leaves the
    /// driver in stock mode; the multi-GPU peer kinds size the owner
    /// directory so each peer mirrors the main GPU's block capacity.
    pub fn install_backend(&mut self, kind: BackendKind) {
        self.backend = kind;
        if kind.peers() > 0 {
            self.peer_dir = PeerDirectory::new(kind.peers(), self.mem.capacity_blocks());
        }
    }

    /// The installed servicing backend kind.
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// The multi-GPU peer owner directory (read access for the auditor,
    /// experiments, and reports). Disabled for non-peer backends.
    pub fn peer_directory(&self) -> &PeerDirectory {
        &self.peer_dir
    }

    /// Install the oracle prefetcher's future-access table: for each
    /// VABlock, the set of pages the workload will ever touch. A no-op
    /// for every other prefetch policy (the table is only consulted by
    /// [`crate::engine::PrefetchPolicyKind::Oracle`]).
    pub fn set_future_accesses(&mut self, future: BTreeMap<VaBlockId, PageBitmap>) {
        self.oracle_future = future;
    }

    /// Install the driver-owned fault injectors — the transient points
    /// (DMA map, copy engine, batch fetch) and the sustained failure
    /// domains (device memory pressure, GPU reset) — from a wired
    /// [`Injector`]. Points not taken here belong to other subsystems (the
    /// GPU fault buffer, the host OS).
    pub fn set_injectors(&mut self, inj: &mut Injector) {
        self.dma.set_injector(inj.take(InjectionPoint::DmaMapFailure));
        self.inj_copy = inj.take(InjectionPoint::CopyEngineFault);
        self.inj_fetch = inj.take(InjectionPoint::BatchFetchStall);
        self.inj_pressure = inj.take(InjectionPoint::DeviceMemoryPressure);
        self.inj_reset = inj.take(InjectionPoint::GpuReset);
    }

    /// The health machine (read access for experiments and the harness).
    pub fn health(&self) -> &HealthMachine {
        &self.health
    }

    /// Driver policy.
    pub fn policy(&self) -> &DriverPolicy {
        &self.policy
    }

    /// Cost-model calibration.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Cumulative VABlocks degraded to remote mappings over the run.
    pub fn degraded_total(&self) -> u64 {
        self.degraded_total
    }

    /// The GPU memory manager (read access for experiments).
    pub fn memory(&self) -> &GpuMemoryManager {
        &self.mem
    }

    /// The DMA space (read access for experiments and the auditor).
    pub fn dma_space(&self) -> &DmaSpace {
        &self.dma
    }

    /// Burn one draw from the driver's jitter RNG, silently knocking the
    /// stream out of phase with an identically-seeded driver. This is a
    /// test hook: it models the class of bug a chaos trial's lockstep
    /// comparison exists to catch (a code path consuming randomness it
    /// shouldn't), and has no other effect on driver state.
    pub fn perturb_rng(&mut self) {
        let _ = self.rng.unit();
    }

    /// Register a managed allocation (the `cudaMallocManaged` entry point).
    pub fn managed_alloc(&mut self, alloc: Allocation) {
        self.va_space.register(alloc);
    }

    /// A CPU thread on `core` touches the `pages` consecutive pages from
    /// `first` of managed memory: the host OS maps them, and the driver
    /// records that host data now exists for them (so a later migration
    /// pays a real transfer, not just population), a VABlock at a time.
    ///
    /// # Panics
    ///
    /// Panics if a page lies outside every registered managed allocation.
    pub fn cpu_touch(
        &mut self,
        host: &mut HostMemory,
        first: uvm_sim::mem::PageNum,
        pages: u64,
        core: u32,
        write: bool,
    ) {
        host.cpu_touch(first, pages, core, write);
        for (block, span) in first.block_spans(pages) {
            self.va_space.block_mut(block).host_data.set_range(span.start, span.end);
        }
    }

    /// Apply a `cudaMemAdvise` hint to every VABlock of `alloc`.
    ///
    /// # Panics
    ///
    /// Panics if `alloc` was not registered via [`Self::managed_alloc`].
    pub fn set_advise(&mut self, alloc: &Allocation, advise: MemAdvise) {
        for block in alloc.va_blocks() {
            self.va_space.block_mut(block).advise = Some(advise);
        }
    }

    /// `cudaMemPrefetchAsync(alloc, device)`: driver-initiated bulk
    /// migration of the whole allocation, block by block, before any GPU
    /// fault. Pays the same compulsory costs a fault-driven first touch
    /// would (DMA setup, CPU unmap, population, transfer, PTE updates) but
    /// amortized into one operation per VABlock. Appends one record
    /// (flagged `driver_prefetch_op`) and returns its end time.
    ///
    /// Blocks already degraded to a remote mapping are skipped (they are
    /// permanently non-migratable). Unrecoverable failures propagate as
    /// [`UvmError`]; transient injected failures are retried under the
    /// same policy as fault-driven servicing.
    ///
    /// # Panics
    ///
    /// Panics if `alloc` was not registered via [`Self::managed_alloc`].
    pub fn prefetch_async(
        &mut self,
        alloc: &Allocation,
        gpu: &mut Gpu,
        host: &mut HostMemory,
        start: SimTime,
    ) -> Result<SimTime, UvmError> {
        let mut rec = self.open_batch(start, 0, true);
        // Explicit prefetch is a cold path (one call per `cudaMemPrefetchAsync`,
        // not per batch): a local scratch is fine.
        let mut evict = EvictScratch::default();
        for block_id in alloc.va_blocks() {
            let state = self.va_space.try_block(block_id)?;
            if state.degraded {
                continue;
            }
            let mut valid = PageBitmap::EMPTY;
            valid.set_range(0, state.valid_pages as usize);
            let migrate = valid.and_not(&state.gpu_resident);
            if migrate.is_empty() {
                continue;
            }
            self.lock_block(block_id, 0, &mut rec);
            self.allocate_block(block_id, gpu, &mut rec, &mut evict)?;
            self.setup_block_dma(block_id, &mut rec)?;
            self.unmap_block_if_needed(block_id, host, &mut rec)?;
            self.try_migrate_with_recovery(block_id, &migrate, gpu, &mut rec)?;
        }
        Ok(self.close_batch(rec, host))
    }

    /// Sum of all batch service times (the paper's "Batch" column in
    /// Table 4).
    pub fn total_batch_time(&self) -> SimDuration {
        self.records.iter().map(BatchRecord::service_time).sum()
    }

    /// Number of batches serviced.
    pub fn num_batches(&self) -> u64 {
        self.batch_seq
    }

    /// Service one fetched batch starting at `start`: run the stages in
    /// order (see the module docs), apply all state changes to `gpu` and
    /// `host`, and append and return the batch record. The caller (engine)
    /// is responsible for the subsequent buffer flush and replay.
    ///
    /// Transient injected failures (batch-fetch stalls, DMA-map failures,
    /// host page-table failures, copy-engine faults) are retried up to
    /// [`DriverPolicy::max_retries`] times with deterministic exponential
    /// backoff; a block whose migration keeps failing is degraded to a
    /// remote mapping. `Err` means the recovery policy was exhausted on a
    /// non-degradable stage, or an internal invariant broke.
    ///
    /// The run loop holds one [`ServiceScratch`] for the whole simulation,
    /// so the per-batch pipeline performs no steady-state allocations for
    /// dedup keys, μTLB/SM attribution, or VABlock grouping. Scratch
    /// contents never outlive the call and have no effect on the result.
    pub fn service_batch_with(
        &mut self,
        faults: &[FaultRecord],
        gpu: &mut Gpu,
        host: &mut HostMemory,
        start: SimTime,
        scratch: &mut ServiceScratch,
    ) -> Result<&BatchRecord, UvmError> {
        let ServiceScratch {
            admitted,
            dedup,
            groups,
            evict,
        } = scratch;
        let mut rec = self.open_batch(start, faults.len() as u64, false);
        let reset_absorbed = self.sustained_failures(gpu, &mut rec, evict)?;
        self.evaluate_health(reset_absorbed, &mut rec);
        self.fetch(gpu, &mut rec)?;
        let faults = self.admit(faults, &mut rec, admitted);
        self.dedup(faults, gpu, &mut rec, dedup);
        group_by_block(&dedup.out.unique, groups);
        for group in groups.chunk_by(|a, b| a.0 == b.0) {
            self.service_block(group, &dedup.out.unique, gpu, host, &mut rec, evict)?;
        }
        self.close_batch(rec, host);
        if self.policy.audit_enabled {
            crate::audit::audit(self, gpu, host)?;
        }
        // Infallible: `close_batch` just pushed the record and the auditor
        // does not mutate `records`.
        Ok(self.records.last().expect("just pushed"))
    }

    /// Open a batch: claim its sequence number and emit `BatchOpen`.
    fn open_batch(&mut self, start: SimTime, raw_faults: u64, prefetch_op: bool) -> BatchRecord {
        let seq = self.batch_seq;
        self.batch_seq += 1;
        uvm_trace::emit_instant(start.0, || TraceEvent::BatchOpen {
            batch: seq,
            raw_faults,
            prefetch_op,
        });
        BatchRecord {
            seq,
            start,
            raw_faults,
            driver_prefetch_op: prefetch_op,
            ..Default::default()
        }
    }

    /// Stage: the sustained failure domains, consulted once per batch.
    /// Every point owns an independent forked RNG stream and disabled
    /// points draw nothing, so stock runs are bit-identical to the
    /// pre-chaos pipeline. Returns whether a GPU reset was absorbed.
    fn sustained_failures(
        &mut self,
        gpu: &mut Gpu,
        rec: &mut BatchRecord,
        evict: &mut EvictScratch,
    ) -> Result<bool, UvmError> {
        let reset = self.inj_reset.is_enabled() && self.inj_reset.should_fail(rec.start);
        if reset {
            // The GPU lost its fault buffer, in-flight GMMU state, and
            // μTLB entries. The driver pays the re-attach cost and relies
            // on the end-of-batch replay to wake the blocked warps; the
            // destroyed faults then regenerate from the last consistent
            // point, exactly like overflow-dropped entries.
            rec.gpu_resets += 1;
            rec.reset_lost_faults += gpu.reset(rec.start);
            rec.t_fixed += DriverPolicy::RESET_REATTACH_COST;
            span(rec, DriverPolicy::RESET_REATTACH_COST, || TraceEvent::Fixed {
                batch: rec.seq,
            });
        }
        // Consult while the point can still fire OR a reservation is
        // active: an exhausted schedule must still close its window (an
        // exhausted injector draws nothing, so the guard stays zero-draw).
        if self.inj_pressure.is_enabled() || self.mem.pressure_reserved() > 0 {
            let fired = self.inj_pressure.is_enabled() && self.inj_pressure.should_fail(rec.start);
            self.mem.set_pressure(if fired {
                self.policy.pressure_reserve_blocks
            } else {
                0
            });
            self.mem.shed_over_capacity_with(evict);
            let reserved = self.mem.pressure_reserved();
            let evicted = evict.victims.len() as u64;
            if reserved > 0 || evicted > 0 {
                mark(rec, || TraceEvent::MemoryPressure {
                    batch: rec.seq,
                    reserved,
                    evicted,
                });
            }
            for &victim in &evict.victims {
                self.write_back(victim, Writeback::Emergency, gpu, rec)?;
            }
        }
        Ok(reset)
    }

    /// Stage: health evaluation at the batch boundary, before servicing,
    /// so the state gates this batch's speculation.
    fn evaluate_health(&mut self, reset_absorbed: bool, rec: &mut BatchRecord) {
        let evidence = HealthEvidence {
            reset_absorbed,
            pressure_reserved: self.mem.pressure_reserved(),
            total_degraded: self.degraded_total,
            degraded_threshold: self.policy.degraded_threshold,
        };
        if let Some((from, to)) = self.health.observe(&evidence) {
            mark(rec, || TraceEvent::HealthTransition {
                batch: rec.seq,
                from: from.name().into(),
                to: to.name().into(),
            });
        }
        rec.health = self.health.state();
        rec.pressure_reserved = self.mem.pressure_reserved();
    }

    /// Stage: attribute the hardware-buffer drops since the last batch,
    /// retry injected batch-fetch stalls (bounded), and charge the fetch.
    fn fetch(&mut self, gpu: &Gpu, rec: &mut BatchRecord) -> Result<(), UvmError> {
        let total_drops = gpu.fault_buffer.overflow_drops();
        rec.dropped_faults = total_drops.saturating_sub(self.overflow_seen);
        self.overflow_seen = total_drops;
        let (start, batch) = (rec.start, rec.seq);
        let inj = &mut self.inj_fetch;
        retry(&self.policy, rec, "fetch", || {
            fire(inj, start, UvmError::BatchFetchStall { batch })
        })?;
        rec.t_fetch = self.cost.fetch_per_fault * rec.raw_faults;
        span(rec, rec.t_fetch, || TraceEvent::Fetch {
            batch: rec.seq,
            faults: rec.raw_faults,
        });
        Ok(())
    }

    /// Stage: multi-tenant admission. Every fetched fault is attributed to
    /// its client; the fairness policy may then reorder the batch
    /// (round-robin) or drop faults over a client's quota — dropped faults
    /// regenerate after the end-of-batch replay, exactly like buffer-flush
    /// drops. With no clients configured the raw slice passes through.
    fn admit<'a>(
        &mut self,
        faults: &'a [FaultRecord],
        rec: &mut BatchRecord,
        admitted: &'a mut Vec<FaultRecord>,
    ) -> &'a [FaultRecord] {
        if !self.clients.is_enabled() {
            return faults;
        }
        let outcome = self
            .clients
            .admit(faults, self.policy.batch_limit as u64, admitted);
        rec.client_faults = outcome.per_client;
        rec.throttled_faults = outcome.throttled;
        for (client, &dropped) in outcome.throttled_per_client.iter().enumerate() {
            if dropped > 0 {
                mark(rec, || TraceEvent::FaultThrottled {
                    batch: rec.seq,
                    client: client as u32,
                    dropped,
                });
            }
        }
        admitted
    }

    /// Stage: composition accounting, the per-fault metadata log (the
    /// paper's first driver variant), and duplicate classification,
    /// charged as preprocessing. Each fault's SM and μTLB are its warp's
    /// placement on `gpu`'s spec, derived once here.
    fn dedup(
        &mut self,
        faults: &[FaultRecord],
        gpu: &Gpu,
        rec: &mut BatchRecord,
        bufs: &mut DedupBuffers,
    ) {
        bufs.placements.clear();
        for f in faults {
            bufs.placements.push(gpu.spec.placement(f.warp));
            match f.kind {
                AccessKind::Read => rec.read_faults += 1,
                AccessKind::Write => rec.write_faults += 1,
                AccessKind::Prefetch => rec.prefetch_faults += 1,
            }
        }

        if self.policy.log_fault_metadata {
            bufs.seen_pages.clear();
            for (f, &(sm, utlb)) in faults.iter().zip(&bufs.placements) {
                let was_duplicate = !bufs.seen_pages.insert(f.page);
                self.fault_log.push(FaultMeta {
                    batch_seq: rec.seq,
                    page: f.page.0,
                    kind: f.kind,
                    sm,
                    utlb,
                    arrival: f.arrival,
                    was_duplicate,
                });
            }
        }

        classify_duplicates_with(faults, &bufs.placements, &mut bufs.scratch, &mut bufs.out);
        let dedup = &bufs.out;
        rec.distinct_sms = dedup.distinct_sms;
        rec.distinct_utlbs = dedup.distinct_utlbs;
        rec.dup_same_utlb = dedup.dup_same_utlb;
        rec.dup_cross_utlb = dedup.dup_cross_utlb;
        rec.unique_pages = dedup.unique.len() as u64;
        rec.t_preprocess = self.cost.preprocess_per_fault * faults.len() as u64;
        if !self.policy.dedup_enabled {
            // Ablation: without dedup, every duplicate walks the servicing
            // path redundantly — block lookup, residency check, page-table
            // no-op — before being discovered already-handled.
            let redundant = dedup.total_dups();
            rec.t_preprocess += (self.cost.preprocess_per_fault
                + self.cost.pte_update_per_page)
                * redundant;
        }
        span(rec, rec.t_preprocess, || TraceEvent::Preprocess {
            batch: rec.seq,
            faults: faults.len() as u64,
        });
        mark(rec, || TraceEvent::DedupHit {
            batch: rec.seq,
            same_utlb: dedup.dup_same_utlb,
            cross_utlb: dedup.dup_cross_utlb,
            unique: dedup.unique.len() as u64,
        });
        if uvm_trace::enabled() {
            // Lifetime anchors: one per unique fault entering service, with
            // its buffer-arrival time (joined to this batch's close by the
            // fault-lifetime exporter).
            for f in &dedup.unique {
                let (sm, utlb) = gpu.spec.placement(f.warp);
                uvm_trace::emit_instant(rec.start.0, || TraceEvent::FaultServiced {
                    batch: rec.seq,
                    page: f.page.0,
                    sm,
                    utlb,
                    arrival_ns: f.arrival.0,
                });
            }
        }
    }

    /// Stage: service one VABlock's faults (`group` holds its
    /// `(block, index into unique)` keys). After the block lock, either
    /// the remote path, or prefetch → allocate → DMA → unmap → migrate.
    fn service_block(
        &mut self,
        group: &[(VaBlockId, u32)],
        unique: &[FaultRecord],
        gpu: &mut Gpu,
        host: &mut HostMemory,
        rec: &mut BatchRecord,
        evict: &mut EvictScratch,
    ) -> Result<(), UvmError> {
        let block_id = group[0].0;
        self.lock_block(block_id, group.len() as u32, rec);

        // Faulted pages not already resident (or remote-mapped) on the
        // GPU.
        let state = self.va_space.try_block(block_id)?;
        let (valid, advise, degraded) = (state.valid_pages, state.advise, state.degraded);
        let resident_now = state.gpu_resident.or(&state.remote_mapped);
        let mut faulted = PageBitmap::EMPTY;
        let mut any_write = false;
        for &(_, i) in group {
            let f = &unique[i as usize];
            any_write |= f.kind == AccessKind::Write;
            let idx = f.page.index_in_block();
            debug_assert!(
                (idx as u32) < valid,
                "fault beyond allocation end in block {block_id:?}"
            );
            faulted.set(idx);
        }
        let faulted = faulted.and_not(&resident_now);
        let pinned = self.thrashing_pin(block_id, gpu, rec);

        // PreferredLocationHost — and blocks degraded by exhausted
        // migration retries — establish remote mappings over the
        // interconnect instead of migrating.
        if pinned || degraded || advise == Some(MemAdvise::PreferredLocationHost) {
            if faulted.is_empty() {
                return Ok(());
            }
            self.setup_block_dma(block_id, rec)?;
            return self.map_remote(block_id, &faulted, gpu, rec);
        }

        let migrate = self.prefetch(block_id, &faulted, valid, rec);
        if migrate.is_empty() {
            // Stale faults for already-resident pages: management cost
            // only.
            return Ok(());
        }
        self.allocate_block(block_id, gpu, rec, evict)?;
        self.setup_block_dma(block_id, rec)?;
        // Fault-path CPU unmap — skipped under ReadMostly duplication
        // unless a write collapses it. (Simplification: the GPU page
        // table carries no write permissions, so a write to an
        // already-duplicated *resident* page does not re-fault; the
        // collapse happens only when the write itself faults. Data
        // values are not modelled, so the stale CPU copy is cost-
        // neutral.)
        let read_mostly = advise == Some(MemAdvise::ReadMostly) && !any_write;
        if !read_mostly {
            self.unmap_block_if_needed(block_id, host, rec)?;
        }
        // A block degraded instead of migrated keeps no duplicate.
        if self.try_migrate_with_recovery(block_id, &migrate, gpu, rec)? {
            self.va_space.try_block_mut(block_id)?.read_duplicated = read_mostly;
        }
        Ok(())
    }

    /// Take the VABlock lock: the per-block fixed cost, and the block
    /// joins the batch's served list.
    fn lock_block(&self, block_id: VaBlockId, faults: u32, rec: &mut BatchRecord) {
        rec.num_va_blocks += 1;
        rec.t_fixed += self.cost.per_vablock_fixed;
        span(rec, self.cost.per_vablock_fixed, || {
            TraceEvent::VaBlockLock {
                batch: rec.seq,
                block: block_id.0,
                faults: u64::from(faults),
            }
        });
        rec.served_blocks.push(block_id.0);
        rec.per_block_faults.push(faults);
    }

    /// Thrashing mitigation (extension, off by default): a block
    /// refaulted shortly after its eviction ping-pongs; pin it host-side
    /// for a while instead of re-migrating. Returns whether the block is
    /// pinned.
    fn thrashing_pin(&mut self, block_id: VaBlockId, gpu: &mut Gpu, rec: &mut BatchRecord) -> bool {
        let state = self.va_space.block_mut(block_id);
        if self.policy.thrashing_mitigation {
            if let Some(evicted_at) = state.last_evict_seq {
                if state.pinned_until.is_none()
                    && rec.seq.saturating_sub(evicted_at) <= DriverPolicy::THRASHING_WINDOW
                {
                    state.pinned_until = Some(rec.seq + DriverPolicy::THRASHING_PIN);
                    rec.thrashing_pins += 1;
                }
            }
            if let Some(until) = state.pinned_until {
                if rec.seq >= until {
                    // Pin expired: unmap the remote mappings so the next
                    // faults migrate normally.
                    state.pinned_until = None;
                    let remote = state.remote_mapped;
                    state.remote_mapped.reset();
                    gpu.unmap_block(block_id, &remote);
                }
            }
        }
        state.pinned_until.is_some()
    }

    /// Map `pages` of `block_id` remotely from sysmem: no device memory,
    /// no eviction pressure, but every access crosses PCIe. Peer-held
    /// pages come home first (sysmem must hold current data).
    fn map_remote(
        &mut self,
        block_id: VaBlockId,
        pages: &PageBitmap,
        gpu: &mut Gpu,
        rec: &mut BatchRecord,
    ) -> Result<(), UvmError> {
        self.reclaim_peer_overlap(block_id, pages, rec)?;
        let n = u64::from(pages.count());
        rec.t_pte += self.cost.pte_time(n);
        span(rec, self.cost.pte_time(n), || TraceEvent::PteUpdate {
            batch: rec.seq,
            block: block_id.0,
            pages: n,
        });
        rec.remote_mapped_pages += n;
        self.va_space.try_block_mut(block_id)?.remote_mapped.merge(pages);
        gpu.map_block(block_id, pages);
        Ok(())
    }

    /// Prefetch expansion, confined to this block, dispatched through the
    /// policy engine. The engine's invariant mask is an identity for the
    /// stock tree policy, so TreeDensity output is bit-identical to a
    /// direct `compute_prefetch` call. Any non-Healthy regime suspends
    /// speculation: migrating pages nobody asked for into a pressured or
    /// resetting device is how real drivers thrash. Returns the pages to
    /// migrate: `faulted` plus the expansion.
    fn prefetch(
        &self,
        block_id: VaBlockId,
        faulted: &PageBitmap,
        valid_pages: u32,
        rec: &mut BatchRecord,
    ) -> PageBitmap {
        // `PrefetchPolicyKind::None` expands nothing, so it needs no gate.
        let prefetched = if self.health.state().prefetch_allowed() {
            run_prefetch_policy(
                self.policy.prefetch_policy,
                &PrefetchContext {
                    resident: &self.va_space.block(block_id).gpu_resident,
                    faulted,
                    valid_pages,
                    future: self.oracle_future.get(&block_id),
                },
            )
        } else {
            PageBitmap::EMPTY
        };
        rec.prefetched_pages += u64::from(prefetched.count());
        mark(rec, || TraceEvent::PrefetchDecision {
            batch: rec.seq,
            block: block_id.0,
            faulted: u64::from(faulted.count()),
            prefetched: u64::from(prefetched.count()),
        });
        faulted.or(&prefetched)
    }

    /// Ensure `block_id` holds a GPU physical allocation, writing back
    /// policy-selected victims (with their fail/writeback/restart costs)
    /// if the device is full.
    fn allocate_block(
        &mut self,
        block_id: VaBlockId,
        gpu: &mut Gpu,
        rec: &mut BatchRecord,
        evict: &mut EvictScratch,
    ) -> Result<(), UvmError> {
        match self.mem.ensure_resident_with(block_id, rec.seq, evict)? {
            ResidencyOutcome::AlreadyResident => return Ok(()),
            ResidencyOutcome::Allocated => {}
            ResidencyOutcome::Evicted => {
                let policy = self.mem.policy().name();
                mark(rec, || TraceEvent::EvictDecision {
                    batch: rec.seq,
                    policy: policy.into(),
                    victims: evict.victims.len() as u64,
                });
                for &victim in &evict.victims {
                    self.write_back(victim, Writeback::Capacity, gpu, rec)?;
                }
                rec.t_evict += self.cost.service_restart;
                // Victimless span: the service-restart surcharge.
                span(rec, self.cost.service_restart, || TraceEvent::Evict {
                    batch: rec.seq,
                    victim: None,
                    bytes: 0,
                });
            }
        }
        Ok(())
    }

    /// Write a block's device copy back to host RAM — or, for a capacity
    /// victim under a multi-GPU peer backend, spill it to a peer — and
    /// charge the transfer to `t_evict`. `how` selects the flavour's
    /// surcharge, counters, and state transition (see [`Writeback`]).
    fn write_back(
        &mut self,
        victim: VaBlockId,
        how: Writeback,
        gpu: &mut Gpu,
        rec: &mut BatchRecord,
    ) -> Result<(), UvmError> {
        let vstate = self.va_space.try_block_mut(victim)?;
        let resident = vstate.gpu_resident;
        // Peer spills ride the interconnect: cheaper per byte, and a later
        // re-fault fetches the pages back at P2P cost. Read-duplicated
        // victims keep the host path (dropping the GPU copy is free — no
        // transfer to save), and a full directory falls back to it.
        let spill = how == Writeback::Capacity
            && !vstate.read_duplicated
            && self.peer_dir.try_spill(victim, &resident).is_some();
        // Read-duplicated victims have an intact host copy: dropping the
        // GPU copy needs no writeback.
        let bytes = if vstate.read_duplicated {
            0
        } else {
            u64::from(resident.count()) * PAGE_SIZE
        };
        let mut d = self.cost.evict_fixed;
        d += if spill {
            self.cost.p2p_time(bytes)
        } else {
            self.cost.d2h_time(bytes)
        };
        match how {
            Writeback::Emergency => rec.emergency_evictions += 1,
            Writeback::Capacity => {
                rec.evictions += 1;
                d += self.cost.alloc_fail;
            }
            Writeback::Degrade => {}
        }
        if spill {
            // Peer bytes are NOT host writeback: `bytes_evicted` (and so
            // `note_writeback`) stays untouched.
            rec.pages_spilled_to_peer += u64::from(resident.count());
            rec.bytes_spilled_to_peer += bytes;
        } else {
            rec.bytes_evicted += bytes;
        }
        rec.t_evict += d;
        span(rec, d, || TraceEvent::Evict {
            batch: rec.seq,
            victim: Some(victim.0),
            bytes,
        });
        gpu.unmap_block(victim, &resident);
        if how == Writeback::Degrade {
            // The block's own state transition is the degradation's.
            self.mem.release(victim);
            return Ok(());
        }
        rec.evicted_blocks.push(victim.0);
        // The data returns to host RAM (or a peer) but is NOT re-mapped
        // into CPU page tables — so a re-migration later skips the unmap
        // cost (the Fig. 13 levels).
        vstate.evict(spill);
        vstate.last_evict_seq = Some(rec.seq);
        Ok(())
    }

    /// First GPU touch of a block: create DMA mappings for every valid
    /// page and store reverse mappings in the kernel radix tree.
    /// Compulsory; prefetching cannot eliminate it (Sec. 5.2). An injected
    /// DMA-map failure is retried with backoff; exhaustion is fatal for
    /// the batch (the block cannot be serviced at all without mappings).
    fn setup_block_dma(&mut self, block_id: VaBlockId, rec: &mut BatchRecord) -> Result<(), UvmError> {
        let valid = self.va_space.try_block(block_id)?.valid_pages;
        if self.dma.is_mapped(block_id) {
            return Ok(());
        }
        let (dma, start) = (&mut self.dma, rec.start);
        let report = retry(&self.policy, rec, "dma", || dma.try_map_block(block_id, valid, start))?;
        let base = self
            .cost
            .dma_setup_time(report.pages_mapped, report.radix_nodes_allocated);
        // Drawn only after a successful mapping, so the injection-off RNG
        // stream is identical to the pre-injection pipeline.
        let tail = self
            .rng
            .heavy_tail(self.cost.dma_tail_prob, self.cost.dma_tail_max_factor);
        let d = base.mul_f64(tail);
        rec.t_dma_setup += d;
        span(rec, d, || TraceEvent::DmaSetup { batch: rec.seq, block: block_id.0 });
        rec.new_va_blocks += 1;
        Ok(())
    }

    /// Fault-path CPU unmap: tear down every CPU mapping in the block
    /// before migrating. An injected host page-table failure is retried
    /// with backoff; exhaustion is fatal (migrating while CPU mappings
    /// persist would alias the page).
    fn unmap_block_if_needed(
        &mut self,
        block_id: VaBlockId,
        host: &mut HostMemory,
        rec: &mut BatchRecord,
    ) -> Result<(), UvmError> {
        if host.mapped_pages_in_block(block_id) == 0 {
            return Ok(());
        }
        let start = rec.start;
        let report = retry(&self.policy, rec, "unmap", || {
            host.try_unmap_mapping_range(block_id, start)
        })?;
        rec.cpu_pages_unmapped += report.pages_unmapped;
        // A GPU-driven backend still tears the CPU mappings down (the
        // host page-table state transition is a correctness requirement —
        // audit invariant 5 — and the unmapped-page count stays
        // comparable), but the work happens off the fault critical path:
        // no time is charged and no `CpuUnmap` span is emitted, so the
        // unmap component vanishes from the batch breakdown entirely.
        if self.backend.charges_host_unmap() {
            let d = self
                .cost
                .unmap_time(report.pages_unmapped, report.mapper_cores)
                .mul_f64(report.numa_factor);
            rec.t_unmap += d;
            span(rec, d, || TraceEvent::CpuUnmap {
                batch: rec.seq,
                block: block_id.0,
                pages: report.pages_unmapped,
            });
        }
        Ok(())
    }

    /// Run the copy engine for `migrate` pages of `block_id`, retrying
    /// injected copy-engine faults with backoff. Returns `Ok(true)` when
    /// the migration happened, `Ok(false)` when retries were exhausted and
    /// the block was degraded to a remote mapping instead.
    fn try_migrate_with_recovery(
        &mut self,
        block_id: VaBlockId,
        migrate: &PageBitmap,
        gpu: &mut Gpu,
        rec: &mut BatchRecord,
    ) -> Result<bool, UvmError> {
        let start = rec.start;
        let inj = &mut self.inj_copy;
        let copy = retry(&self.policy, rec, "copy", || {
            fire(inj, start, UvmError::CopyEngineFault { block: block_id.0 })
        });
        if copy.is_err() {
            self.degrade_to_remote(block_id, migrate, gpu, rec)?;
            return Ok(false);
        }
        self.migrate_pages(block_id, migrate, gpu, rec)?;
        Ok(true)
    }

    /// Last-resort recovery when migration keeps failing: give up the
    /// block's device allocation (writing any resident data back) and map
    /// the pages remotely from sysmem, permanently. Mirrors the real
    /// driver's fallback of leaving pages at their current location when
    /// the copy engine is unusable.
    fn degrade_to_remote(
        &mut self,
        block_id: VaBlockId,
        pages: &PageBitmap,
        gpu: &mut Gpu,
        rec: &mut BatchRecord,
    ) -> Result<(), UvmError> {
        let resident = self.va_space.try_block(block_id)?.gpu_resident;
        if self.mem.is_resident(block_id) {
            self.write_back(block_id, Writeback::Degrade, gpu, rec)?;
        }
        // The block permanently serves from sysmem: its resident data is
        // back in host RAM (always there under read duplication), and the
        // formerly resident pages map remotely along with the faulted ones.
        let state = self.va_space.try_block_mut(block_id)?;
        if !state.read_duplicated {
            state.host_data.merge(&resident);
        }
        state.gpu_resident.reset();
        state.read_duplicated = false;
        state.degraded = true;
        rec.degraded_blocks += 1;
        self.degraded_total += 1;
        self.map_remote(block_id, &pages.or(&resident), gpu, rec)
    }

    /// Population (zero-fill of fresh GPU pages), migration, and
    /// page-table updates for `migrate` pages of `block_id`. Only pages
    /// with host data pay a transfer; never-touched pages are populated
    /// directly on the GPU.
    fn migrate_pages(
        &mut self,
        block_id: VaBlockId,
        migrate: &PageBitmap,
        gpu: &mut Gpu,
        rec: &mut BatchRecord,
    ) -> Result<(), UvmError> {
        let state = self.va_space.try_block_mut(block_id)?;
        let n_pages = u64::from(migrate.count());
        // Pages whose current copy sits on a peer GPU come back over the
        // interconnect (move semantics: the directory releases the peer
        // copy); the rest pay a host→device transfer if they have host
        // data, or are populated only. A page with both a peer copy and
        // stale host data fetches from the peer — that copy is current.
        let from_peer = self
            .peer_dir
            .take_overlap(block_id, migrate)
            .map_or(PageBitmap::EMPTY, |(_, pages)| pages);
        let data_pages = u64::from(migrate.and(&state.host_data).and_not(&from_peer).count());
        let bytes = data_pages * PAGE_SIZE;
        rec.t_populate += self.cost.populate_time(n_pages);
        span(rec, self.cost.populate_time(n_pages), || TraceEvent::Populate {
            batch: rec.seq,
            block: block_id.0,
            pages: n_pages,
        });
        if !from_peer.is_empty() {
            let peer_pages = u64::from(from_peer.count());
            let peer_bytes = peer_pages * PAGE_SIZE;
            rec.pages_from_peer += peer_pages;
            rec.bytes_from_peer += peer_bytes;
            let d = self.cost.p2p_time(peer_bytes);
            rec.t_transfer += d;
            span(rec, d, || TraceEvent::Transfer {
                batch: rec.seq,
                block: block_id.0,
                bytes: peer_bytes,
            });
        }
        rec.t_transfer += self.cost.h2d_time(bytes);
        span(rec, self.cost.h2d_time(bytes), || TraceEvent::Transfer {
            batch: rec.seq,
            block: block_id.0,
            bytes,
        });
        rec.t_pte += self.cost.pte_time(n_pages);
        span(rec, self.cost.pte_time(n_pages), || TraceEvent::PteUpdate {
            batch: rec.seq,
            block: block_id.0,
            pages: n_pages,
        });
        rec.pages_migrated += n_pages;
        rec.bytes_migrated += bytes;

        state.gpu_resident.merge(migrate);
        gpu.map_block(block_id, migrate);
        Ok(())
    }

    /// Reclaim any peer-held pages of `block_id` overlapping `wanted` back
    /// into host RAM. Called before the pages are remote-mapped from
    /// sysmem (the remote-mapping and degradation paths): a remote mapping
    /// serves host data, so the authoritative peer copy must come home
    /// first. Pays the peer→host interconnect transfer into `t_evict`.
    /// A no-op for non-peer backends and peer-clean overlaps.
    fn reclaim_peer_overlap(
        &mut self,
        block_id: VaBlockId,
        wanted: &PageBitmap,
        rec: &mut BatchRecord,
    ) -> Result<(), UvmError> {
        if !self.peer_dir.is_enabled() {
            return Ok(());
        }
        let state = self.va_space.try_block_mut(block_id)?;
        let Some((_, overlap)) = self.peer_dir.reclaim_overlap(block_id, wanted) else {
            return Ok(());
        };
        let bytes = u64::from(overlap.count()) * PAGE_SIZE;
        let d = self.cost.p2p_time(bytes);
        rec.t_evict += d;
        span(rec, d, || TraceEvent::Evict {
            batch: rec.seq,
            victim: Some(block_id.0),
            bytes,
        });
        state.host_data.merge(&overlap);
        Ok(())
    }

    /// Stage: close a batch — charge the per-batch fixed overhead, account
    /// the batch's writebacks to the host, stamp the end time, emit
    /// `BatchClose`, and append the record. Returns the end time.
    fn close_batch(&mut self, mut rec: BatchRecord, host: &mut HostMemory) -> SimTime {
        rec.t_fixed += self.cost.per_batch_fixed;
        // Host-side scheduling noise on the management portion of a fault
        // batch (everything but the DMA transfers, which are
        // hardware-paced, and the retry backoff, which is deterministic
        // policy). Driver-initiated prefetch operations draw none.
        let jitter = if rec.driver_prefetch_op {
            SimDuration::ZERO
        } else {
            let mgmt = rec.component_sum() - rec.t_transfer - rec.t_evict - rec.t_backoff;
            let factor = self.rng.jitter_factor(self.cost.service_jitter);
            mgmt.mul_f64(factor).saturating_sub(mgmt)
        };
        rec.t_fixed += jitter;
        // One span covering the per-batch fixed overhead plus its jitter.
        span(&rec, self.cost.per_batch_fixed + jitter, || {
            TraceEvent::Fixed { batch: rec.seq }
        });
        // Host-side accounting of this batch's eviction writebacks
        // (capacity, emergency, and degradation paths all accumulate
        // `bytes_evicted`).
        host.note_writeback(rec.bytes_evicted / PAGE_SIZE);
        rec.end = rec.start + rec.component_sum();
        uvm_trace::emit_instant(rec.end.0, || TraceEvent::BatchClose {
            batch: rec.seq,
            raw_faults: rec.raw_faults,
            unique_pages: rec.unique_pages,
            pages_migrated: rec.pages_migrated,
            bytes_migrated: rec.bytes_migrated,
            components: rec.component_ns().to_vec(),
        });
        let end = rec.end;
        self.records.push(rec);
        end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvm_gpu::spec::GpuSpec;
    use uvm_sim::mem::{AddressSpaceAllocator, VABLOCK_SIZE};

    fn setup(
        capacity_blocks: u64,
        policy: DriverPolicy,
    ) -> (UvmDriver, Gpu, HostMemory, ServiceScratch) {
        let driver = UvmDriver::new(policy, CostModel::titan_v(), capacity_blocks, 42);
        let gpu = Gpu::new(GpuSpec::small(capacity_blocks * VABLOCK_SIZE));
        (driver, gpu, HostMemory::new(), ServiceScratch::default())
    }

    /// A fault from the warp that `GpuSpec::small` places on SM
    /// `2 * utlb`, the first SM of μTLB `utlb`.
    fn fault(page: uvm_sim::mem::PageNum, utlb: u32, kind: AccessKind) -> FaultRecord {
        FaultRecord {
            page,
            kind,
            warp: utlb * 2,
            arrival: SimTime(0),
            dup_of_outstanding: false,
        }
    }

    #[test]
    fn simple_batch_migrates_faulted_pages() -> Result<(), UvmError> {
        let (mut driver, mut gpu, mut host, mut scratch) = setup(16, DriverPolicy::default());
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        driver.cpu_touch(&mut host, alloc.page(0), alloc.num_pages(), 0, true);

        let faults: Vec<_> = (0..10)
            .map(|i| fault(alloc.page(i), 0, AccessKind::Read))
            .collect();
        let rec =
            driver.service_batch_with(&faults, &mut gpu, &mut host, SimTime(1000), &mut scratch)?;
        assert_eq!(rec.raw_faults, 10);
        assert_eq!(rec.unique_pages, 10);
        assert_eq!(rec.pages_migrated, 10);
        assert_eq!(rec.bytes_migrated, 10 * PAGE_SIZE);
        assert_eq!(rec.num_va_blocks, 1);
        assert_eq!(rec.new_va_blocks, 1);
        assert!(rec.t_dma_setup > SimDuration::ZERO, "first touch pays DMA setup");
        assert!(gpu.is_resident(alloc.page(0)));
        assert!(gpu.is_resident(alloc.page(9)));
        assert!(!gpu.is_resident(alloc.page(10)));
        assert!(rec.end > rec.start);
        Ok(())
    }

    #[test]
    fn untouched_pages_migrate_without_transfer() -> Result<(), UvmError> {
        // Pages never written by the CPU have no host data: the driver
        // populates them directly on the GPU, moving zero bytes.
        let (mut driver, mut gpu, mut host, mut scratch) = setup(16, DriverPolicy::default());
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        let faults: Vec<_> = (0..10)
            .map(|i| fault(alloc.page(i), 0, AccessKind::Write))
            .collect();
        let rec =
            driver.service_batch_with(&faults, &mut gpu, &mut host, SimTime(0), &mut scratch)?;
        assert_eq!(rec.pages_migrated, 10);
        assert_eq!(rec.bytes_migrated, 0, "no host data, nothing to transfer");
        assert_eq!(rec.t_transfer, SimDuration::ZERO);
        assert!(rec.t_populate > SimDuration::ZERO);
        assert!(gpu.is_resident(alloc.page(0)));
        Ok(())
    }

    #[test]
    fn second_batch_same_block_skips_dma_setup() -> Result<(), UvmError> {
        let (mut driver, mut gpu, mut host, mut scratch) = setup(16, DriverPolicy::default());
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);

        let f1: Vec<_> = (0..4).map(|i| fault(alloc.page(i), 0, AccessKind::Read)).collect();
        driver.service_batch_with(&f1, &mut gpu, &mut host, SimTime(0), &mut scratch)?;
        let f2: Vec<_> = (4..8)
            .map(|i| fault(alloc.page(i), 0, AccessKind::Read))
            .collect();
        let rec = driver.service_batch_with(
            &f2,
            &mut gpu,
            &mut host,
            SimTime(1_000_000),
            &mut scratch,
        )?;
        assert_eq!(rec.new_va_blocks, 0);
        assert_eq!(rec.t_dma_setup, SimDuration::ZERO);
        Ok(())
    }

    #[test]
    fn duplicates_counted_but_not_migrated() -> Result<(), UvmError> {
        let (mut driver, mut gpu, mut host, mut scratch) = setup(16, DriverPolicy::default());
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);

        let p = alloc.page(0);
        let faults = vec![
            fault(p, 0, AccessKind::Read),
            fault(p, 0, AccessKind::Read), // type 1
            fault(p, 2, AccessKind::Read), // type 2
        ];
        let rec =
            driver.service_batch_with(&faults, &mut gpu, &mut host, SimTime(0), &mut scratch)?;
        assert_eq!(rec.raw_faults, 3);
        assert_eq!(rec.unique_pages, 1);
        assert_eq!(rec.dup_same_utlb, 1);
        assert_eq!(rec.dup_cross_utlb, 1);
        assert_eq!(rec.pages_migrated, 1);
        Ok(())
    }

    #[test]
    fn cpu_resident_block_pays_unmap_once() -> Result<(), UvmError> {
        let (mut driver, mut gpu, mut host, mut scratch) = setup(16, DriverPolicy::default());
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        // CPU initializes the first 100 pages from core 0.
        driver.cpu_touch(&mut host, alloc.page(0), 100, 0, true);

        let f1 = vec![fault(alloc.page(0), 0, AccessKind::Read)];
        let r1 = driver
            .service_batch_with(&f1, &mut gpu, &mut host, SimTime(0), &mut scratch)?
            .clone();
        assert_eq!(r1.cpu_pages_unmapped, 100, "whole block range unmapped");
        assert!(r1.t_unmap > SimDuration::ZERO);

        let f2 = vec![fault(alloc.page(1), 0, AccessKind::Read)];
        let r2 = driver
            .service_batch_with(&f2, &mut gpu, &mut host, SimTime(1_000_000), &mut scratch)?
            .clone();
        assert_eq!(r2.cpu_pages_unmapped, 0, "second touch pays no unmap");
        assert_eq!(r2.t_unmap, SimDuration::ZERO);
        Ok(())
    }

    #[test]
    fn multithreaded_init_inflates_unmap_cost() -> Result<(), UvmError> {
        // Fig. 11: same pages, same faults — more mapper cores, higher cost.
        let run = |threads: u32| {
            let (mut driver, mut gpu, mut host, mut scratch) = setup(16, DriverPolicy::default());
            let mut asa = AddressSpaceAllocator::new();
            let alloc = asa.alloc(VABLOCK_SIZE);
            driver.managed_alloc(alloc);
            for i in 0..512 {
                driver.cpu_touch(&mut host, alloc.page(i), 1, (i as u32) % threads, true);
            }
            let f = vec![fault(alloc.page(0), 0, AccessKind::Read)];
            Ok::<_, UvmError>(
                driver
                    .service_batch_with(&f, &mut gpu, &mut host, SimTime(0), &mut scratch)?
                    .t_unmap,
            )
        };
        let single = run(1)?;
        let multi = run(32)?;
        assert!(multi > single * 2, "single {single}, multi {multi}");
        Ok(())
    }

    #[test]
    fn oversubscription_evicts_lru_block() -> Result<(), UvmError> {
        let (mut driver, mut gpu, mut host, mut scratch) = setup(2, DriverPolicy::default());
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(3 * VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        let blocks: Vec<VaBlockId> = alloc.va_blocks().collect();

        // Touch blocks 0, 1, then 2: block 0 must be evicted.
        for (i, &b) in blocks.iter().enumerate() {
            let f = vec![fault(b.first_page(), 0, AccessKind::Read)];
            let rec = driver.service_batch_with(
                &f,
                &mut gpu,
                &mut host,
                SimTime(i as u64 * 1_000_000),
                &mut scratch,
            )?;
            if i < 2 {
                assert_eq!(rec.evictions, 0);
            } else {
                assert_eq!(rec.evictions, 1);
                assert!(rec.t_evict > SimDuration::ZERO);
                assert!(rec.bytes_evicted > 0);
            }
        }
        assert!(!gpu.is_resident(blocks[0].first_page()));
        assert!(gpu.is_resident(blocks[2].first_page()));
        assert_eq!(driver.va_space.block(blocks[0]).last_evict_seq, Some(2));
        Ok(())
    }

    #[test]
    fn re_migration_after_eviction_skips_unmap() -> Result<(), UvmError> {
        // Fig. 13's cost levels: the first migration pays unmap; after an
        // eviction, re-migration does not (data is in host RAM, unmapped).
        let (mut driver, mut gpu, mut host, mut scratch) = setup(1, DriverPolicy::default());
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(2 * VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        let blocks: Vec<VaBlockId> = alloc.va_blocks().collect();
        driver.cpu_touch(&mut host, alloc.page(0), 1024, 0, true);

        // Migrate block 0 (pays unmap), then block 1 (evicts 0, pays its
        // own unmap), then block 0 again (evicts 1, NO unmap).
        let r0 = driver
            .service_batch_with(
                &[fault(blocks[0].first_page(), 0, AccessKind::Read)],
                &mut gpu,
                &mut host,
                SimTime(0),
                &mut scratch,
            )?
            .clone();
        let r1 = driver
            .service_batch_with(
                &[fault(blocks[1].first_page(), 0, AccessKind::Read)],
                &mut gpu,
                &mut host,
                SimTime(1_000_000),
                &mut scratch,
            )?
            .clone();
        let r2 = driver
            .service_batch_with(
                &[fault(blocks[0].first_page(), 0, AccessKind::Read)],
                &mut gpu,
                &mut host,
                SimTime(2_000_000),
                &mut scratch,
            )?
            .clone();
        assert!(r0.t_unmap > SimDuration::ZERO);
        assert!(r1.t_unmap > SimDuration::ZERO);
        assert_eq!(r1.evictions, 1);
        assert_eq!(r2.evictions, 1);
        assert_eq!(r2.t_unmap, SimDuration::ZERO, "re-migration skips unmap");
        assert_eq!((r0.new_va_blocks, r2.new_va_blocks), (1, 0), "DMA mappings survive eviction");
        assert_eq!(r2.t_dma_setup, SimDuration::ZERO);
        Ok(())
    }

    #[test]
    fn prefetch_expands_dense_faults() -> Result<(), UvmError> {
        let (mut driver, mut gpu, mut host, mut scratch) = setup(16, DriverPolicy::with_prefetch());
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);

        // 12 of the first 16 pages fault: the 64 KiB leaf upgrades.
        let faults: Vec<_> = (0..12)
            .map(|i| fault(alloc.page(i), 0, AccessKind::Read))
            .collect();
        let rec =
            driver.service_batch_with(&faults, &mut gpu, &mut host, SimTime(0), &mut scratch)?;
        assert_eq!(rec.prefetched_pages, 4);
        assert_eq!(rec.pages_migrated, 16);
        assert!(gpu.is_resident(alloc.page(15)));
        Ok(())
    }

    #[test]
    fn prefetch_disabled_migrates_only_faulted() -> Result<(), UvmError> {
        let (mut driver, mut gpu, mut host, mut scratch) = setup(16, DriverPolicy::default());
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        let faults: Vec<_> = (0..12)
            .map(|i| fault(alloc.page(i), 0, AccessKind::Read))
            .collect();
        let rec =
            driver.service_batch_with(&faults, &mut gpu, &mut host, SimTime(0), &mut scratch)?;
        assert_eq!(rec.prefetched_pages, 0);
        assert_eq!(rec.pages_migrated, 12);
        assert!(!gpu.is_resident(alloc.page(15)));
        Ok(())
    }

    #[test]
    fn transfer_is_minority_of_batch_time() -> Result<(), UvmError> {
        // Fig. 7: transfer at most ~25% of batch time.
        let (mut driver, mut gpu, mut host, mut scratch) = setup(16, DriverPolicy::default());
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(4 * VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        driver.cpu_touch(&mut host, alloc.page(0), alloc.num_pages(), 0, true);
        // A realistic batch: 200 faults spread over 4 blocks.
        let faults: Vec<_> = (0..200)
            .map(|i| fault(alloc.page(i * 10), (i % 4) as u32, AccessKind::Read))
            .collect();
        let rec =
            driver.service_batch_with(&faults, &mut gpu, &mut host, SimTime(0), &mut scratch)?;
        assert!(
            rec.transfer_fraction() < 0.30,
            "transfer fraction {}",
            rec.transfer_fraction()
        );
        Ok(())
    }

    #[test]
    fn fault_metadata_logged_when_enabled() -> Result<(), UvmError> {
        let policy = DriverPolicy::default().log_faults(true);
        let (mut driver, mut gpu, mut host, mut scratch) = setup(16, policy);
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        let p = alloc.page(0);
        let faults = vec![fault(p, 0, AccessKind::Read), fault(p, 0, AccessKind::Read)];
        driver.service_batch_with(&faults, &mut gpu, &mut host, SimTime(0), &mut scratch)?;
        assert_eq!(driver.fault_log.len(), 2);
        assert!(!driver.fault_log[0].was_duplicate);
        assert!(driver.fault_log[1].was_duplicate);
        Ok(())
    }

    #[test]
    fn read_mostly_skips_unmap_and_writeback() -> Result<(), UvmError> {
        let (mut driver, mut gpu, mut host, mut scratch) = setup(1, DriverPolicy::default());
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(2 * VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        driver.set_advise(&alloc, crate::advise::MemAdvise::ReadMostly);
        driver.cpu_touch(&mut host, alloc.page(0), 1024, 0, true);
        let blocks: Vec<VaBlockId> = alloc.va_blocks().collect();

        // Read fault: migrates WITHOUT unmapping the CPU copy.
        let r0 = driver
            .service_batch_with(
                &[fault(blocks[0].first_page(), 0, AccessKind::Read)],
                &mut gpu,
                &mut host,
                SimTime(0),
                &mut scratch,
            )?
            .clone();
        assert_eq!(r0.t_unmap, SimDuration::ZERO, "read duplication keeps CPU mapping");
        assert_eq!(r0.cpu_pages_unmapped, 0);
        assert!(r0.bytes_migrated > 0, "data still transfers");
        assert!(host.is_cpu_mapped(blocks[0].first_page()), "CPU copy intact");

        // Evicting the duplicated block (capacity 1) writes nothing back.
        let r1 = driver
            .service_batch_with(
                &[fault(blocks[1].first_page(), 0, AccessKind::Read)],
                &mut gpu,
                &mut host,
                SimTime(1_000_000),
                &mut scratch,
            )?
            .clone();
        assert_eq!(r1.evictions, 1);
        assert_eq!(r1.bytes_evicted, 0, "dropping a duplicate needs no writeback");
        Ok(())
    }

    #[test]
    fn read_mostly_write_collapses_duplication() -> Result<(), UvmError> {
        let (mut driver, mut gpu, mut host, mut scratch) = setup(4, DriverPolicy::default());
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        driver.set_advise(&alloc, crate::advise::MemAdvise::ReadMostly);
        driver.cpu_touch(&mut host, alloc.page(0), 512, 0, true);
        let rec = driver
            .service_batch_with(
                &[fault(alloc.page(0), 0, AccessKind::Write)],
                &mut gpu,
                &mut host,
                SimTime(0),
                &mut scratch,
            )?
            .clone();
        assert!(rec.t_unmap > SimDuration::ZERO, "a write collapses the duplication");
        assert!(rec.cpu_pages_unmapped > 0);
        Ok(())
    }

    #[test]
    fn preferred_location_host_maps_remotely() -> Result<(), UvmError> {
        // Capacity 1 block, but the advised allocation never consumes it.
        let (mut driver, mut gpu, mut host, mut scratch) = setup(1, DriverPolicy::default());
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(2 * VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        driver.set_advise(&alloc, crate::advise::MemAdvise::PreferredLocationHost);
        driver.cpu_touch(&mut host, alloc.page(0), 1024, 0, true);
        let faults: Vec<_> = (0..1024)
            .step_by(64)
            .map(|i| fault(alloc.page(i as u64), 0, AccessKind::Read))
            .collect();
        let rec = driver
            .service_batch_with(&faults, &mut gpu, &mut host, SimTime(0), &mut scratch)?
            .clone();
        assert_eq!(rec.pages_migrated, 0, "no migration under host preference");
        assert_eq!(rec.bytes_migrated, 0);
        assert_eq!(rec.remote_mapped_pages, 16);
        assert_eq!(rec.evictions, 0, "no device memory consumed");
        assert_eq!(rec.t_unmap, SimDuration::ZERO, "CPU mappings survive");
        assert!(rec.t_dma_setup > SimDuration::ZERO, "remote access needs DMA maps");
        assert!(gpu.is_resident(alloc.page(0)), "remote mapping satisfies accesses");
        assert_eq!(driver.memory().resident_blocks(), 0);
        Ok(())
    }

    #[test]
    fn prefetch_async_migrates_everything_upfront() -> Result<(), UvmError> {
        let (mut driver, mut gpu, mut host, mut scratch) = setup(16, DriverPolicy::default());
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(2 * VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        driver.cpu_touch(&mut host, alloc.page(0), 1024, 0, true);
        let end = driver.prefetch_async(&alloc, &mut gpu, &mut host, SimTime(0))?;
        assert!(end > SimTime(0));
        let rec = driver.records.last().expect("operation logged a record").clone();
        assert!(rec.driver_prefetch_op);
        assert_eq!(rec.pages_migrated, 1024);
        assert_eq!(rec.num_va_blocks, 2);
        assert!(rec.cpu_pages_unmapped == 1024, "prefetch pays the unmap too");
        assert!(rec.t_dma_setup > SimDuration::ZERO);
        // Subsequent faults are all hits: a batch of stale faults migrates
        // nothing.
        let rec2 = driver
            .service_batch_with(
                &[fault(alloc.page(5), 0, AccessKind::Read)],
                &mut gpu,
                &mut host,
                end,
                &mut scratch,
            )?
            .clone();
        assert_eq!(rec2.pages_migrated, 0);
        Ok(())
    }

    #[test]
    fn prefetch_async_is_idempotent() -> Result<(), UvmError> {
        let (mut driver, mut gpu, mut host, _) = setup(16, DriverPolicy::default());
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        driver.prefetch_async(&alloc, &mut gpu, &mut host, SimTime(0))?;
        let first = driver.records.last().expect("operation logged a record").pages_migrated;
        driver.prefetch_async(&alloc, &mut gpu, &mut host, SimTime(10_000_000))?;
        let second = driver.records.last().expect("operation logged a record");
        assert_eq!(first, 512);
        assert_eq!(second.pages_migrated, 0, "already resident");
        assert_eq!(second.num_va_blocks, 0);
        Ok(())
    }

    #[test]
    fn thrashing_pin_breaks_eviction_ping_pong() -> Result<(), UvmError> {
        // Capacity 1, two blocks faulted alternately: without mitigation
        // every access cycle evicts; with it, the re-faulted block pins
        // host-side and evictions stop.
        let run = |mitigate: bool| {
            let policy = DriverPolicy::default().thrashing(mitigate);
            let (mut driver, mut gpu, mut host, mut scratch) = setup(1, policy);
            let mut asa = AddressSpaceAllocator::new();
            let alloc = asa.alloc(2 * VABLOCK_SIZE);
            driver.managed_alloc(alloc);
            let blocks: Vec<VaBlockId> = alloc.va_blocks().collect();
            for round in 0..12u64 {
                let block = blocks[(round % 2) as usize];
                let page = block.page_at((round % 512) as usize);
                driver.service_batch_with(
                    &[fault(page, 0, AccessKind::Read)],
                    &mut gpu,
                    &mut host,
                    SimTime(round * 1_000_000),
                    &mut scratch,
                )?;
            }
            Ok::<_, UvmError>((
                driver.records.iter().map(|r| r.evictions).sum::<u64>(),
                driver.records.iter().map(|r| r.thrashing_pins).sum::<u64>(),
            ))
        };
        let (evictions_off, pins_off) = run(false)?;
        let (evictions_on, pins_on) = run(true)?;
        assert_eq!(pins_off, 0);
        assert!(pins_on > 0, "thrashing detected and pinned");
        assert!(
            evictions_on < evictions_off,
            "pinning reduces evictions: {evictions_on} vs {evictions_off}"
        );
        Ok(())
    }

    // ---- fault-injection recovery ----

    use uvm_sim::inject::{FaultPlan, InjectionPoint, Injector, PointPlan};

    fn inject_setup(
        capacity_blocks: u64,
        policy: DriverPolicy,
        plan: &FaultPlan,
    ) -> (UvmDriver, Gpu, HostMemory, ServiceScratch) {
        let (mut driver, mut gpu, mut host, scratch) = setup(capacity_blocks, policy);
        let mut inj = Injector::new(plan, 7);
        gpu.fault_buffer.set_injector(inj.take(InjectionPoint::FaultBufferOverflow));
        host.set_injector(inj.take(InjectionPoint::HostPopulateFailure));
        driver.set_injectors(&mut inj);
        (driver, gpu, host, scratch)
    }

    #[test]
    fn transient_copy_fault_retries_then_succeeds() -> Result<(), UvmError> {
        let plan = FaultPlan::none().with(
            InjectionPoint::CopyEngineFault,
            PointPlan::scheduled(SimTime(0), 1),
        );
        let (mut driver, mut gpu, mut host, mut scratch) =
            inject_setup(16, DriverPolicy::default(), &plan);
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        let rec = driver.service_batch_with(
            &[fault(alloc.page(0), 0, AccessKind::Read)],
            &mut gpu,
            &mut host,
            SimTime(0),
            &mut scratch,
        )?;
        assert_eq!(rec.injected_faults, 1);
        assert_eq!(rec.retries, 1);
        assert!(rec.t_backoff > SimDuration::ZERO, "retry charged backoff");
        assert_eq!(rec.degraded_blocks, 0);
        assert_eq!(rec.pages_migrated, 1, "migration succeeded on retry");
        assert!(gpu.is_resident(alloc.page(0)));
        Ok(())
    }

    #[test]
    fn exhausted_copy_retries_degrade_block_to_remote() -> Result<(), UvmError> {
        let plan = FaultPlan::none()
            .with(InjectionPoint::CopyEngineFault, PointPlan::with_probability(1.0));
        let (mut driver, mut gpu, mut host, mut scratch) =
            inject_setup(16, DriverPolicy::default().retries(2), &plan);
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        let id = alloc.va_blocks().next().expect("allocation spans a block");

        let rec = driver
            .service_batch_with(
                &[fault(alloc.page(0), 0, AccessKind::Read)],
                &mut gpu,
                &mut host,
                SimTime(0),
                &mut scratch,
            )?
            .clone();
        assert_eq!(rec.injected_faults, 3, "initial attempt + 2 retries all failed");
        assert_eq!(rec.retries, 2);
        assert_eq!(rec.degraded_blocks, 1);
        assert_eq!(rec.pages_migrated, 0);
        assert_eq!(rec.remote_mapped_pages, 1, "faulted page served from sysmem");
        let state = driver.va_space.block(id);
        assert!(state.degraded, "degradation is sticky");
        assert!(!driver.memory().is_resident(id));
        assert!(gpu.is_resident(alloc.page(0)), "remote mapping satisfies the access");

        // A later fault on the degraded block takes the remote path
        // directly: the (still always-failing) copy engine is never asked.
        let rec2 = driver
            .service_batch_with(
                &[fault(alloc.page(1), 0, AccessKind::Read)],
                &mut gpu,
                &mut host,
                SimTime(1_000_000),
                &mut scratch,
            )?
            .clone();
        assert_eq!(rec2.injected_faults, 0, "degraded block bypasses the copy engine");
        assert_eq!(rec2.degraded_blocks, 0);
        assert_eq!(rec2.remote_mapped_pages, 1);
        assert_eq!(rec2.pages_migrated, 0);
        Ok(())
    }

    #[test]
    fn degraded_block_releases_its_device_memory() -> Result<(), UvmError> {
        // Migrate successfully first, then degrade on a later batch: the
        // resident pages must write back and the device chunk must free.
        let plan = FaultPlan::none()
            .with(InjectionPoint::CopyEngineFault, PointPlan::scheduled(SimTime(1_000_000), 100));
        let (mut driver, mut gpu, mut host, mut scratch) =
            inject_setup(16, DriverPolicy::default().retries(1), &plan);
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        driver.cpu_touch(&mut host, alloc.page(0), 8, 0, true);
        driver.service_batch_with(
            &[fault(alloc.page(0), 0, AccessKind::Read)],
            &mut gpu,
            &mut host,
            SimTime(0),
            &mut scratch,
        )?;
        assert_eq!(driver.memory().resident_blocks(), 1);

        let rec = driver
            .service_batch_with(
                &[fault(alloc.page(1), 0, AccessKind::Read)],
                &mut gpu,
                &mut host,
                SimTime(1_000_000),
                &mut scratch,
            )?
            .clone();
        assert_eq!(rec.degraded_blocks, 1);
        assert!(rec.bytes_evicted > 0, "resident data written back");
        assert_eq!(driver.memory().resident_blocks(), 0, "device chunk freed");
        assert_eq!(rec.evictions + rec.emergency_evictions, 0, "degradation is not an LRU eviction");
        // Both the previously-resident page and the new fault are remote.
        assert!(gpu.is_resident(alloc.page(0)));
        assert!(gpu.is_resident(alloc.page(1)));
        Ok(())
    }

    #[test]
    fn dma_map_failure_retries_then_succeeds() -> Result<(), UvmError> {
        let plan = FaultPlan::none().with(
            InjectionPoint::DmaMapFailure,
            PointPlan::scheduled(SimTime(0), 2),
        );
        let (mut driver, mut gpu, mut host, mut scratch) =
            inject_setup(16, DriverPolicy::default(), &plan);
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        let rec = driver.service_batch_with(
            &[fault(alloc.page(0), 0, AccessKind::Read)],
            &mut gpu,
            &mut host,
            SimTime(0),
            &mut scratch,
        )?;
        assert_eq!(rec.injected_faults, 2);
        assert_eq!(rec.retries, 2);
        assert_eq!(rec.new_va_blocks, 1, "mapping eventually succeeded");
        assert_eq!(rec.pages_migrated, 1);
        Ok(())
    }

    #[test]
    fn exhausted_dma_retries_fail_the_batch() {
        let plan = FaultPlan::none()
            .with(InjectionPoint::DmaMapFailure, PointPlan::with_probability(1.0));
        let (mut driver, mut gpu, mut host, mut scratch) =
            inject_setup(16, DriverPolicy::default().retries(1), &plan);
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        let id = alloc.va_blocks().next().expect("allocation spans a block");
        let err = driver
            .service_batch_with(
                &[fault(alloc.page(0), 0, AccessKind::Read)],
                &mut gpu,
                &mut host,
                SimTime(0),
                &mut scratch,
            )
            .expect_err("retries must exhaust");
        assert_eq!(err, UvmError::DmaMapFailed { block: id.0 });
    }

    #[test]
    fn host_unmap_failure_retries_then_succeeds() -> Result<(), UvmError> {
        let plan = FaultPlan::none().with(
            InjectionPoint::HostPopulateFailure,
            PointPlan::scheduled(SimTime(0), 1),
        );
        let (mut driver, mut gpu, mut host, mut scratch) =
            inject_setup(16, DriverPolicy::default(), &plan);
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        driver.cpu_touch(&mut host, alloc.page(0), 1, 0, true);
        let rec = driver.service_batch_with(
            &[fault(alloc.page(0), 0, AccessKind::Read)],
            &mut gpu,
            &mut host,
            SimTime(0),
            &mut scratch,
        )?;
        assert_eq!(rec.injected_faults, 1);
        assert_eq!(rec.retries, 1);
        assert_eq!(rec.cpu_pages_unmapped, 1, "unmap succeeded on retry");
        Ok(())
    }

    #[test]
    fn exhausted_host_unmap_retries_fail_the_batch() {
        let plan = FaultPlan::none()
            .with(InjectionPoint::HostPopulateFailure, PointPlan::with_probability(1.0));
        let (mut driver, mut gpu, mut host, mut scratch) =
            inject_setup(16, DriverPolicy::default().retries(0), &plan);
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        driver.cpu_touch(&mut host, alloc.page(0), 1, 0, true);
        let id = alloc.va_blocks().next().expect("allocation spans a block");
        let err = driver
            .service_batch_with(
                &[fault(alloc.page(0), 0, AccessKind::Read)],
                &mut gpu,
                &mut host,
                SimTime(0),
                &mut scratch,
            )
            .expect_err("retries must exhaust");
        assert_eq!(err, UvmError::HostPopulateFailed { block: id.0 });
    }

    #[test]
    fn fetch_stall_retries_within_budget_and_fails_beyond_it() -> Result<(), UvmError> {
        // Burst of 2 stalls with 3 retries allowed: recovers.
        let plan = FaultPlan::none().with(
            InjectionPoint::BatchFetchStall,
            PointPlan::scheduled(SimTime(0), 2),
        );
        let (mut driver, mut gpu, mut host, mut scratch) =
            inject_setup(16, DriverPolicy::default(), &plan);
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        let rec = driver.service_batch_with(
            &[fault(alloc.page(0), 0, AccessKind::Read)],
            &mut gpu,
            &mut host,
            SimTime(0),
            &mut scratch,
        )?;
        assert_eq!(rec.injected_faults, 2);
        assert_eq!(rec.retries, 2);
        assert_eq!(rec.pages_migrated, 1);

        // Burst larger than the retry budget: the batch is lost.
        let plan = FaultPlan::none()
            .with(InjectionPoint::BatchFetchStall, PointPlan::scheduled(SimTime(0), 10));
        let (mut driver, mut gpu, mut host, mut scratch) =
            inject_setup(16, DriverPolicy::default().retries(2), &plan);
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        let err = driver
            .service_batch_with(
                &[fault(alloc.page(0), 0, AccessKind::Read)],
                &mut gpu,
                &mut host,
                SimTime(0),
                &mut scratch,
            )
            .expect_err("retries must exhaust");
        assert_eq!(err, UvmError::BatchFetchStall { batch: 0 });
        Ok(())
    }

    // ---- sustained failure domains & health ----

    use crate::health::HealthState;

    #[test]
    fn sustained_pressure_forces_emergency_eviction_and_recovers() -> Result<(), UvmError> {
        // Pressure window spanning batches 1–2: capacity 16 shrinks by 12,
        // residency sheds to 4, and the window closing restores everything.
        let plan = FaultPlan::none().with(
            InjectionPoint::DeviceMemoryPressure,
            PointPlan::scheduled(SimTime(1_000_000), 2),
        );
        let policy = DriverPolicy::default().pressure_reserve(12);
        let (mut driver, mut gpu, mut host, mut scratch) = inject_setup(16, policy, &plan);
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(16 * VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        let blocks: Vec<VaBlockId> = alloc.va_blocks().collect();

        // Batch 0 (pre-window): fill all 16 blocks.
        let fill: Vec<_> = blocks
            .iter()
            .map(|b| fault(b.first_page(), 0, AccessKind::Read))
            .collect();
        let r0 = driver
            .service_batch_with(&fill, &mut gpu, &mut host, SimTime(0), &mut scratch)?
            .clone();
        assert_eq!(r0.health, HealthState::Healthy);
        assert_eq!(r0.emergency_evictions, 0);
        assert_eq!(driver.memory().resident_blocks(), 16);

        // Batch 1: the window opens. 12 blocks shed via full writeback.
        let r1 = driver
            .service_batch_with(
                &[fault(blocks[15].page_at(1), 0, AccessKind::Read)],
                &mut gpu,
                &mut host,
                SimTime(1_000_000),
                &mut scratch,
            )?
            .clone();
        assert_eq!(r1.health, HealthState::Pressured);
        assert_eq!(r1.pressure_reserved, 12);
        assert_eq!(r1.emergency_evictions, 12);
        assert!(r1.bytes_evicted > 0, "shed blocks write their data back");
        assert!(r1.t_evict > SimDuration::ZERO);
        assert_eq!(driver.memory().resident_blocks(), 4);
        assert_eq!(driver.memory().effective_capacity(), 4);
        // LRU sheds the earliest blocks; the latest survive.
        assert!(!gpu.is_resident(blocks[0].first_page()));
        assert!(gpu.is_resident(blocks[15].first_page()));

        // Batch 2: window persists (burst 2); nothing more to shed.
        let r2 = driver
            .service_batch_with(
                &[fault(blocks[15].page_at(2), 0, AccessKind::Read)],
                &mut gpu,
                &mut host,
                SimTime(2_000_000),
                &mut scratch,
            )?
            .clone();
        assert_eq!(r2.health, HealthState::Pressured);
        assert_eq!(r2.emergency_evictions, 0);

        // Batch 3: window closed. Capacity restores, health recovers.
        let r3 = driver
            .service_batch_with(
                &[fault(blocks[0].first_page(), 0, AccessKind::Read)],
                &mut gpu,
                &mut host,
                SimTime(3_000_000),
                &mut scratch,
            )?
            .clone();
        assert_eq!(r3.health, HealthState::Healthy);
        assert_eq!(r3.pressure_reserved, 0);
        assert_eq!(driver.memory().effective_capacity(), 16);
        assert_eq!(r3.evictions, 0, "restored capacity allocates freely");
        assert_eq!(driver.health().transitions(), 2, "Healthy→Pressured→Healthy");
        assert_eq!(driver.health().batches_in(HealthState::Pressured), 2);
        Ok(())
    }

    #[test]
    fn gpu_reset_loses_buffer_state_and_health_recovers() -> Result<(), UvmError> {
        let plan = FaultPlan::none().with(
            InjectionPoint::GpuReset,
            PointPlan::scheduled(SimTime(1_000_000), 1),
        );
        let (mut driver, mut gpu, mut host, mut scratch) =
            inject_setup(16, DriverPolicy::default(), &plan);
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);

        let r0 = driver
            .service_batch_with(
                &[fault(alloc.page(0), 0, AccessKind::Read)],
                &mut gpu,
                &mut host,
                SimTime(0),
                &mut scratch,
            )?
            .clone();
        assert_eq!(r0.gpu_resets, 0);
        assert_eq!(r0.health, HealthState::Healthy);

        // Entries sitting in the hardware buffer when the reset hits are
        // destroyed and accounted to the absorbing batch.
        for i in 8..11u64 {
            gpu.fault_buffer.push(fault(alloc.page(i), 0, AccessKind::Read));
        }
        let r1 = driver
            .service_batch_with(
                &[fault(alloc.page(1), 0, AccessKind::Read)],
                &mut gpu,
                &mut host,
                SimTime(1_000_000),
                &mut scratch,
            )?
            .clone();
        assert_eq!(r1.gpu_resets, 1);
        assert_eq!(r1.reset_lost_faults, 3, "buffered entries destroyed by the reset");
        assert_eq!(r1.health, HealthState::Resetting);
        assert_eq!(gpu.resets, 1);
        assert_eq!(gpu.fault_buffer.reset_losses(), 3);
        assert!(
            r1.t_fixed >= DriverPolicy::RESET_REATTACH_COST,
            "re-attach cost charged"
        );
        // Driver-side state survived: the already-migrated page stays
        // resident and serviceable.
        assert!(gpu.is_resident(alloc.page(0)));

        let r2 = driver
            .service_batch_with(
                &[fault(alloc.page(2), 0, AccessKind::Read)],
                &mut gpu,
                &mut host,
                SimTime(2_000_000),
                &mut scratch,
            )?
            .clone();
        assert_eq!(r2.health, HealthState::Healthy, "one-batch regime, then recovery");
        assert_eq!(r2.gpu_resets, 0);
        Ok(())
    }

    #[test]
    fn accumulated_degradations_escalate_health_and_gate_prefetch() -> Result<(), UvmError> {
        // One copy-engine failure with a zero retry budget degrades block
        // 0; threshold 1 escalates the driver to Degraded, which must
        // suppress speculative prefetch on later (healthy-path) batches.
        let plan = FaultPlan::none()
            .with(InjectionPoint::CopyEngineFault, PointPlan::scheduled(SimTime(0), 1));
        let policy = DriverPolicy::with_prefetch().retries(0).degraded_escalation(1);
        let (mut driver, mut gpu, mut host, mut scratch) = inject_setup(16, policy, &plan);
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(2 * VABLOCK_SIZE);
        driver.managed_alloc(alloc);

        let r0 = driver
            .service_batch_with(
                &[fault(alloc.page(0), 0, AccessKind::Read)],
                &mut gpu,
                &mut host,
                SimTime(0),
                &mut scratch,
            )?
            .clone();
        assert_eq!(r0.degraded_blocks, 1);
        assert_eq!(r0.health, HealthState::Healthy, "evidence is a batch-boundary view");

        // Dense faults on the healthy second block: 12 of the first 16
        // pages would prefetch the remaining 4 under TreeDensity — but the
        // driver is Degraded now.
        let faults: Vec<_> =
            (512..524).map(|i| fault(alloc.page(i), 0, AccessKind::Read)).collect();
        let r1 = driver
            .service_batch_with(
                &faults,
                &mut gpu,
                &mut host,
                SimTime(1_000_000),
                &mut scratch,
            )?
            .clone();
        assert_eq!(r1.health, HealthState::Degraded);
        assert_eq!(r1.prefetched_pages, 0, "degraded driver does not speculate");
        assert_eq!(r1.pages_migrated, 12, "demand servicing continues");

        // Degradation is sticky: with the threshold still crossed, the
        // state persists.
        let r2 = driver
            .service_batch_with(
                &[fault(alloc.page(524), 0, AccessKind::Read)],
                &mut gpu,
                &mut host,
                SimTime(2_000_000),
                &mut scratch,
            )?
            .clone();
        assert_eq!(r2.health, HealthState::Degraded);
        Ok(())
    }

    #[test]
    fn sustained_injection_is_seed_deterministic() {
        // Stochastic pressure and reset points composed over a transient
        // plan: identical seeds must produce byte-identical record streams
        // (including health states and emergency-eviction accounting).
        let run = |seed: u64| {
            let plan = FaultPlan::uniform(0.1)
                .with(InjectionPoint::DeviceMemoryPressure, PointPlan::with_probability(0.3))
                .with(InjectionPoint::GpuReset, PointPlan::with_probability(0.15));
            let policy = DriverPolicy::default().pressure_reserve(2);
            let mut driver = UvmDriver::new(policy, CostModel::titan_v(), 4, seed);
            let mut gpu = Gpu::new(GpuSpec::small(4 * VABLOCK_SIZE));
            let mut host = HostMemory::new();
            let mut scratch = ServiceScratch::default();
            let mut inj = Injector::new(&plan, seed);
            gpu.fault_buffer.set_injector(inj.take(InjectionPoint::FaultBufferOverflow));
            host.set_injector(inj.take(InjectionPoint::HostPopulateFailure));
            driver.set_injectors(&mut inj);
            let mut asa = AddressSpaceAllocator::new();
            let alloc = asa.alloc(8 * VABLOCK_SIZE);
            driver.managed_alloc(alloc);
            for round in 0..20u64 {
                let faults: Vec<_> = (0..16)
                    .map(|i| fault(alloc.page((round * 97 + i * 31) % 4096), (i % 4) as u32, AccessKind::Read))
                    .collect();
                let _ = driver.service_batch_with(
                    &faults,
                    &mut gpu,
                    &mut host,
                    SimTime(round * 1_000_000),
                    &mut scratch,
                );
            }
            serde_json::to_string(&driver.records).expect("records serialize")
        };
        assert_eq!(run(0x5C21), run(0x5C21), "same seed, byte-identical records");
        assert_ne!(run(0x5C21), run(0x1234), "different seed diverges");
    }

    #[test]
    fn buffer_overflow_drops_are_attributed_to_the_next_batch() -> Result<(), UvmError> {
        let (mut driver, mut gpu, mut host, mut scratch) = setup(16, DriverPolicy::default());
        let mut inj = Injector::new(
            &FaultPlan::none()
                .with(InjectionPoint::FaultBufferOverflow, PointPlan::scheduled(SimTime(5), 3)),
            7,
        );
        gpu.fault_buffer.set_injector(inj.take(InjectionPoint::FaultBufferOverflow));
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);

        // Push 6 faults; the injected storm at t=5 swallows 3 of them.
        for i in 0..6u64 {
            let mut f = fault(alloc.page(i), 0, AccessKind::Read);
            f.arrival = SimTime(5 + i);
            gpu.fault_buffer.push(f);
        }
        assert_eq!(gpu.fault_buffer.overflow_drops(), 3);
        let batch = gpu.fault_buffer.fetch(256, SimTime(100));
        let rec = driver
            .service_batch_with(&batch, &mut gpu, &mut host, SimTime(100), &mut scratch)?
            .clone();
        assert_eq!(rec.raw_faults, 3, "survivors serviced");
        assert_eq!(rec.dropped_faults, 3, "storm drops attributed here");
        // The attribution is once-only.
        let rec2 = driver.service_batch_with(
            &[fault(alloc.page(10), 0, AccessKind::Read)],
            &mut gpu,
            &mut host,
            SimTime(200),
            &mut scratch,
        )?;
        assert_eq!(rec2.dropped_faults, 0);
        Ok(())
    }

    #[test]
    fn identical_seeds_give_identical_record_streams_under_injection() {
        let run = |seed: u64| {
            let policy = DriverPolicy::default();
            let mut driver = UvmDriver::new(policy, CostModel::titan_v(), 4, seed);
            let mut gpu = Gpu::new(GpuSpec::small(4 * VABLOCK_SIZE));
            let mut host = HostMemory::new();
            let mut scratch = ServiceScratch::default();
            let mut inj = Injector::new(&FaultPlan::uniform(0.2), seed);
            gpu.fault_buffer.set_injector(inj.take(InjectionPoint::FaultBufferOverflow));
            host.set_injector(inj.take(InjectionPoint::HostPopulateFailure));
            driver.set_injectors(&mut inj);
            let mut asa = AddressSpaceAllocator::new();
            let alloc = asa.alloc(8 * VABLOCK_SIZE);
            driver.managed_alloc(alloc);
            for round in 0..20u64 {
                let faults: Vec<_> = (0..16)
                    .map(|i| fault(alloc.page((round * 97 + i * 31) % 4096), (i % 4) as u32, AccessKind::Read))
                    .collect();
                // Exhaustion under p=0.2 is possible in principle; ignore
                // failed batches — both runs must fail identically too.
                let _ = driver.service_batch_with(
                    &faults,
                    &mut gpu,
                    &mut host,
                    SimTime(round * 1_000_000),
                    &mut scratch,
                );
            }
            serde_json::to_string(&driver.records).expect("records serialize")
        };
        assert_eq!(run(0x5C21), run(0x5C21), "same seed, byte-identical records");
        assert_ne!(run(0x5C21), run(0x1234), "different seed diverges");
    }

    #[test]
    fn disabled_injection_leaves_baseline_records_unchanged() -> Result<(), UvmError> {
        // Wiring a FaultPlan::none() injector must not perturb the RNG
        // stream or any recorded time.
        let run = |wire: bool| {
            let (mut driver, mut gpu, mut host, mut scratch) = setup(16, DriverPolicy::default());
            if wire {
                let mut inj = Injector::new(&FaultPlan::none(), 99);
                driver.set_injectors(&mut inj);
            }
            let mut asa = AddressSpaceAllocator::new();
            let alloc = asa.alloc(2 * VABLOCK_SIZE);
            driver.managed_alloc(alloc);
            driver.cpu_touch(&mut host, alloc.page(0), 100, 0, true);
            for round in 0..5u64 {
                let faults: Vec<_> = (0..32)
                    .map(|i| fault(alloc.page(round * 100 + i), 0, AccessKind::Read))
                    .collect();
                driver.service_batch_with(
                    &faults,
                    &mut gpu,
                    &mut host,
                    SimTime(round * 1_000_000),
                    &mut scratch,
                )?;
            }
            Ok::<_, UvmError>(serde_json::to_string(&driver.records).expect("records serialize"))
        };
        assert_eq!(run(false)?, run(true)?);
        Ok(())
    }

    /// The `BatchRecord` fields a victim writeback may touch.
    #[derive(Debug, PartialEq)]
    struct WritebackDelta {
        t_evict: SimDuration,
        bytes_evicted: u64,
        evictions: u64,
        emergency_evictions: u64,
        pages_spilled_to_peer: u64,
        bytes_spilled_to_peer: u64,
        evicted_blocks: Vec<u64>,
        degraded_blocks: u64,
    }

    impl From<&BatchRecord> for WritebackDelta {
        fn from(r: &BatchRecord) -> Self {
            WritebackDelta {
                t_evict: r.t_evict,
                bytes_evicted: r.bytes_evicted,
                evictions: r.evictions,
                emergency_evictions: r.emergency_evictions,
                pages_spilled_to_peer: r.pages_spilled_to_peer,
                bytes_spilled_to_peer: r.bytes_spilled_to_peer,
                evicted_blocks: r.evicted_blocks.clone(),
                degraded_blocks: r.degraded_blocks,
            }
        }
    }

    /// Faults on the first `pages` pages of `block`.
    fn block_faults(block: VaBlockId, pages: usize) -> Vec<FaultRecord> {
        (0..pages)
            .map(|i| fault(block.page_at(i), 0, AccessKind::Read))
            .collect()
    }

    #[test]
    fn writeback_flavours_charge_their_own_counters() -> Result<(), UvmError> {
        // Each flavour writes back one or two 8-page victims; the record
        // deltas pin what each flavour charges and counts.
        const PAGES: usize = 8;
        let bytes = PAGES as u64 * PAGE_SIZE;
        let cost = CostModel::titan_v();

        // Emergency: a pressure window sheds two of four resident blocks.
        // Never spills, even with peers available, and pays no
        // allocation-failure surcharge.
        let plan = FaultPlan::none().with(
            InjectionPoint::DeviceMemoryPressure,
            PointPlan::scheduled(SimTime(1_000_000), 1),
        );
        let (mut driver, mut gpu, mut host, mut scratch) =
            inject_setup(4, DriverPolicy::default().pressure_reserve(2), &plan);
        driver.install_backend(BackendKind::MultiGpuPeer2);
        let alloc = AddressSpaceAllocator::new().alloc(4 * VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        let blocks: Vec<VaBlockId> = alloc.va_blocks().collect();
        let fill: Vec<_> = blocks
            .iter()
            .flat_map(|&b| block_faults(b, PAGES))
            .collect();
        driver.service_batch_with(&fill, &mut gpu, &mut host, SimTime(0), &mut scratch)?;
        let shed = [fault(blocks[3].page_at(PAGES), 0, AccessKind::Read)];
        let rec = driver.service_batch_with(
            &shed,
            &mut gpu,
            &mut host,
            SimTime(1_000_000),
            &mut scratch,
        )?;
        assert_eq!(
            WritebackDelta::from(rec),
            WritebackDelta {
                t_evict: (cost.evict_fixed + cost.d2h_time(bytes)) * 2,
                bytes_evicted: 2 * bytes,
                evictions: 0,
                emergency_evictions: 2,
                pages_spilled_to_peer: 0,
                bytes_spilled_to_peer: 0,
                evicted_blocks: vec![blocks[0].0, blocks[1].0],
                degraded_blocks: 0,
            }
        );

        // Capacity, to host and to a peer: the third block evicts the
        // first on a two-block device.
        for backend in [BackendKind::CpuDriver, BackendKind::MultiGpuPeer2] {
            let (mut driver, mut gpu, mut host, mut scratch) = setup(2, DriverPolicy::default());
            driver.install_backend(backend);
            let alloc = AddressSpaceAllocator::new().alloc(3 * VABLOCK_SIZE);
            driver.managed_alloc(alloc);
            let blocks: Vec<VaBlockId> = alloc.va_blocks().collect();
            let mut rec = None;
            for (i, &b) in blocks.iter().enumerate() {
                let start = SimTime(i as u64 * 1_000_000);
                let faults = block_faults(b, PAGES);
                rec = Some(
                    driver
                        .service_batch_with(&faults, &mut gpu, &mut host, start, &mut scratch)?
                        .clone(),
                );
            }
            let rec = rec.expect("three batches ran");
            let spill = backend.peers() > 0;
            let leg = if spill {
                cost.p2p_time(bytes)
            } else {
                cost.d2h_time(bytes)
            };
            assert_eq!(
                WritebackDelta::from(&rec),
                WritebackDelta {
                    t_evict: cost.alloc_fail + cost.evict_fixed + leg + cost.service_restart,
                    bytes_evicted: if spill { 0 } else { bytes },
                    evictions: 1,
                    emergency_evictions: 0,
                    pages_spilled_to_peer: if spill { PAGES as u64 } else { 0 },
                    bytes_spilled_to_peer: if spill { bytes } else { 0 },
                    evicted_blocks: vec![blocks[0].0],
                    degraded_blocks: 0,
                },
                "{}",
                backend.name()
            );
        }

        // Degrade: a resident block whose copy engine keeps failing gives
        // up its own allocation. It writes back without counting an
        // eviction or listing itself as a victim.
        let plan = FaultPlan::none().with(
            InjectionPoint::CopyEngineFault,
            PointPlan::scheduled(SimTime(1_000_000), 100),
        );
        let (mut driver, mut gpu, mut host, mut scratch) =
            inject_setup(16, DriverPolicy::default().retries(1), &plan);
        let alloc = AddressSpaceAllocator::new().alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        let block = alloc.va_blocks().next().expect("allocation spans a block");
        driver.service_batch_with(
            &block_faults(block, PAGES),
            &mut gpu,
            &mut host,
            SimTime(0),
            &mut scratch,
        )?;
        let refault = [fault(block.page_at(PAGES), 0, AccessKind::Read)];
        let rec = driver.service_batch_with(
            &refault,
            &mut gpu,
            &mut host,
            SimTime(1_000_000),
            &mut scratch,
        )?;
        assert_eq!(
            WritebackDelta::from(rec),
            WritebackDelta {
                t_evict: cost.evict_fixed + cost.d2h_time(bytes),
                bytes_evicted: bytes,
                evictions: 0,
                emergency_evictions: 0,
                pages_spilled_to_peer: 0,
                bytes_spilled_to_peer: 0,
                evicted_blocks: vec![],
                degraded_blocks: 1,
            }
        );
        Ok(())
    }

    #[test]
    fn batch_time_grows_with_data_moved() -> Result<(), UvmError> {
        // Fig. 6: average batch cost rises with migration size.
        let (mut driver, mut gpu, mut host, mut scratch) = setup(64, DriverPolicy::default());
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(8 * VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        driver.cpu_touch(&mut host, alloc.page(0), alloc.num_pages(), 0, true);

        let small: Vec<_> = (0..8)
            .map(|i| fault(alloc.page(i), 0, AccessKind::Read))
            .collect();
        let r_small = driver
            .service_batch_with(&small, &mut gpu, &mut host, SimTime(0), &mut scratch)?
            .clone();
        let big: Vec<_> = (0..256)
            .map(|i| fault(alloc.page(512 + i), 0, AccessKind::Read))
            .collect();
        let r_big = driver
            .service_batch_with(&big, &mut gpu, &mut host, SimTime(10_000_000), &mut scratch)?
            .clone();
        assert!(r_big.service_time() > r_small.service_time());
        assert!(r_big.bytes_migrated > r_small.bytes_migrated);
        Ok(())
    }

    #[test]
    fn more_vablocks_cost_more_at_same_size() -> Result<(), UvmError> {
        // Fig. 10: for equal migration size, more VABlocks → higher cost.
        let (mut driver, mut gpu, mut host, mut scratch) = setup(64, DriverPolicy::default());
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(32 * VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        // Pre-touch all blocks so neither batch pays first-touch DMA setup.
        let warmup: Vec<_> = (0..32)
            .map(|b| fault(alloc.page(b * 512 + 511), 0, AccessKind::Read))
            .collect();
        driver.service_batch_with(&warmup, &mut gpu, &mut host, SimTime(0), &mut scratch)?;

        // 64 pages in 1 block vs 64 pages across 16 blocks.
        let concentrated: Vec<_> =
            (0..64).map(|i| fault(alloc.page(i), 0, AccessKind::Read)).collect();
        let rc = driver
            .service_batch_with(
                &concentrated,
                &mut gpu,
                &mut host,
                SimTime(100_000_000),
                &mut scratch,
            )?
            .clone();
        let spread: Vec<_> = (0..64)
            .map(|i| fault(alloc.page(512 + (i % 16) * 512 + 32 + i / 16), 0, AccessKind::Read))
            .collect();
        let rs = driver
            .service_batch_with(
                &spread,
                &mut gpu,
                &mut host,
                SimTime(200_000_000),
                &mut scratch,
            )?
            .clone();
        assert_eq!(rc.pages_migrated, rs.pages_migrated);
        assert!(rs.num_va_blocks > rc.num_va_blocks);
        assert!(
            rs.service_time() > rc.service_time(),
            "spread {} <= concentrated {}",
            rs.service_time(),
            rc.service_time()
        );
        Ok(())
    }
}
