//! The typed trace-event vocabulary.
//!
//! One [`TraceEvent`] variant per instrumentation point of the servicing
//! stack, mirroring the stages the paper's instrumented driver timestamps
//! (batch assembly, dedup, DMA map, CPU unmap, eviction, population,
//! transfer, PTE updates) plus the GPU-side fault lifecycle (generation,
//! replay, buffer flush) and host-OS operations. Every event is either a
//! *span* (it accounts a duration against one batch-time component) or an
//! *instant* (a point observation); [`TraceEvent::phase`] tells which.
//!
//! The crate deliberately depends on nothing but the vendored `serde`
//! shim, so every layer of the workspace — including `uvm-sim` itself —
//! can emit without a dependency cycle. All times cross this boundary as
//! raw `u64` nanoseconds.

use serde::{Deserialize, Serialize};

/// The subsystem an event originates from (the `--trace-filter` axis and
/// the Chrome-trace thread lane).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Subsystem {
    /// GPU device model (μTLBs, GMMU, fault buffer, replay).
    Gpu,
    /// UVM driver (batching, dedup, VABlock servicing).
    Driver,
    /// Host OS substrate (page tables, DMA/IOMMU).
    HostOs,
    /// Simulation substrate (fault injection).
    Sim,
    /// The full-system event loop (kernel launches, flushes).
    Engine,
}

impl Subsystem {
    /// All subsystems, in Chrome-trace lane order.
    pub const ALL: [Subsystem; 5] = [
        Subsystem::Gpu,
        Subsystem::Driver,
        Subsystem::HostOs,
        Subsystem::Sim,
        Subsystem::Engine,
    ];

    /// Stable lower-case name (used by filters and exporters).
    pub fn name(self) -> &'static str {
        match self {
            Subsystem::Gpu => "gpu",
            Subsystem::Driver => "driver",
            Subsystem::HostOs => "hostos",
            Subsystem::Sim => "sim",
            Subsystem::Engine => "engine",
        }
    }

    /// Chrome-trace thread id for this subsystem's lane (1-based).
    pub fn lane(self) -> u64 {
        1 + Subsystem::ALL.iter().position(|&s| s == self).expect("in ALL") as u64
    }
}

/// Access type of a faulting instruction, as recorded in trace events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceAccess {
    /// Global load.
    Read,
    /// Global store.
    Write,
    /// Software prefetch instruction.
    Prefetch,
}

/// Whether an event is a duration span or a point instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Has a duration; accounts against a batch-time component.
    Span,
    /// A point observation.
    Instant,
}

/// Names of the ten batch-time components, aligned with the
/// `BatchRecord::t_*` fields and the `BatchRecord::component_ns` order.
pub const COMPONENTS: [&str; 10] = [
    "fetch",
    "preprocess",
    "dma_setup",
    "unmap",
    "populate",
    "transfer",
    "evict",
    "pte",
    "fixed",
    "backoff",
];

/// One typed trace event.
///
/// Span variants carry the batch they account against; the recording
/// duration lives on the enclosing [`TraceRecord`]. Instant variants carry
/// whatever identifies the observation (page, SM, μTLB, VABlock).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    // ---- engine ----
    /// A system run began (separates batch-id spaces when one trace holds
    /// several runs).
    RunBegin {
        /// Workload name.
        workload: String,
    },
    /// A sequential kernel launched.
    KernelLaunch {
        /// Kernel ordinal within the workload (0-based).
        kernel: u64,
    },
    /// A sequential kernel completed (its event queue drained).
    KernelComplete {
        /// Kernel ordinal within the workload (0-based).
        kernel: u64,
    },
    /// The pre-replay buffer flush dropped unserviced entries.
    BufferFlush {
        /// Entries discarded (fault buffer + in-flight GMMU).
        dropped: u64,
    },

    // ---- gpu ----
    /// A fault was arbitrated into the replayable fault buffer.
    FaultGenerated {
        /// Faulting page number.
        page: u64,
        /// Access type.
        kind: TraceAccess,
        /// Originating SM.
        sm: u32,
        /// Originating μTLB.
        utlb: u32,
        /// Issuing warp.
        warp: u32,
        /// Duplicate of an already-outstanding μTLB entry.
        dup: bool,
    },
    /// A fault was dropped at the buffer (overflow or injected storm).
    FaultDropped {
        /// Faulting page number.
        page: u64,
        /// Originating SM.
        sm: u32,
        /// Originating μTLB.
        utlb: u32,
    },
    /// A replay was issued after batch service.
    Replay {
        /// Monotone replay ordinal (1-based).
        seq: u64,
        /// Warps woken by this replay.
        woken: u64,
    },
    /// The GPU reset: fault buffer, GMMU queues, and μTLB tracking state
    /// were lost; in-flight faults regenerate after the next replay.
    GpuReset {
        /// Monotone reset ordinal (1-based).
        seq: u64,
        /// Buffered + in-flight fault entries lost to the reset.
        dropped: u64,
    },

    // ---- sim ----
    /// A fault-injection point fired.
    InjectionFired {
        /// Stable point name (`overflow`, `dma-map`, `copy-engine`,
        /// `host-populate`, `fetch-stall`, `mem-pressure`, `gpu-reset`).
        point: String,
    },

    // ---- hostos ----
    /// `unmap_mapping_range` tore down a block's CPU mappings.
    HostUnmap {
        /// VABlock whose range was unmapped.
        block: u64,
        /// PTEs cleared.
        pages: u64,
        /// Of those, dirty pages.
        dirty: u64,
        /// Distinct CPU cores that had mapped pages (IPI targets).
        mapper_cores: u64,
        /// TLB-shootdown IPIs issued.
        ipis: u64,
    },
    /// DMA/IOMMU mappings were created for a block.
    DmaMap {
        /// VABlock mapped.
        block: u64,
        /// Pages newly mapped.
        pages: u64,
        /// Pages that already had mappings.
        already_mapped: u64,
        /// Radix-tree nodes allocated for reverse mappings.
        radix_nodes: u64,
    },

    // ---- driver: batch lifecycle ----
    /// Batch service began.
    BatchOpen {
        /// Batch sequence number.
        batch: u64,
        /// Raw faults fetched.
        raw_faults: u64,
        /// Whether this is a driver-initiated `cudaMemPrefetchAsync`
        /// operation rather than a fault batch.
        prefetch_op: bool,
    },
    /// Batch service completed. Emitted at the batch's end time with the
    /// final per-component breakdown (nanoseconds, [`COMPONENTS`] order) —
    /// the reconciliation anchor for span-derived breakdowns and for the
    /// batch records' summed `component_ns`.
    BatchClose {
        /// Batch sequence number.
        batch: u64,
        /// Raw faults fetched.
        raw_faults: u64,
        /// Distinct pages after dedup.
        unique_pages: u64,
        /// Pages migrated host→device.
        pages_migrated: u64,
        /// Bytes migrated host→device.
        bytes_migrated: u64,
        /// Final component times in [`COMPONENTS`] order (ns).
        components: Vec<u64>,
    },
    /// Dedup classified this batch's duplicates.
    DedupHit {
        /// Batch sequence number.
        batch: u64,
        /// Same-μTLB duplicates (type 1).
        same_utlb: u64,
        /// Cross-μTLB duplicates (type 2).
        cross_utlb: u64,
        /// Distinct pages remaining.
        unique: u64,
    },
    /// A unique fault entered service with this batch (lifetime anchor:
    /// birth at `arrival_ns`, resolution at the batch's `BatchClose`).
    FaultServiced {
        /// Servicing batch.
        batch: u64,
        /// Faulting page number.
        page: u64,
        /// Originating SM.
        sm: u32,
        /// Originating μTLB.
        utlb: u32,
        /// Arrival time in the fault buffer (ns).
        arrival_ns: u64,
    },
    /// The prefetcher decided how far to expand a block's faulted set.
    PrefetchDecision {
        /// Batch sequence number.
        batch: u64,
        /// VABlock considered.
        block: u64,
        /// Faulted, non-resident pages.
        faulted: u64,
        /// Pages added by tree-density expansion.
        prefetched: u64,
    },
    /// The driver's health state machine transitioned.
    HealthTransition {
        /// Batch sequence number at which the transition was observed.
        batch: u64,
        /// State left (`healthy`, `pressured`, `degraded`, `resetting`).
        from: String,
        /// State entered.
        to: String,
    },
    /// Device memory pressure changed: `reserved` blocks are currently
    /// withheld from UVM (0 = pressure lifted).
    MemoryPressure {
        /// Batch sequence number observing the change.
        batch: u64,
        /// Device blocks reserved away from UVM.
        reserved: u64,
        /// Blocks emergency-evicted to fit the shrunken capacity.
        evicted: u64,
    },
    /// Multi-tenant admission dropped faults above a client's per-batch
    /// quota (instant; the dropped faults regenerate after the
    /// end-of-batch replay, like buffer-flush drops).
    FaultThrottled {
        /// Batch sequence number.
        batch: u64,
        /// Client index the dropped faults belong to.
        client: u32,
        /// Faults dropped.
        dropped: u64,
    },
    /// The eviction policy picked victims for a full device (instant,
    /// emitted once per eviction episode — the per-victim costs are the
    /// [`TraceEvent::Evict`] spans that follow).
    EvictDecision {
        /// Batch sequence number.
        batch: u64,
        /// Active eviction policy name (`lru`, `random`, `lfu`).
        policy: String,
        /// Victims evicted in this episode.
        victims: u64,
    },

    // ---- driver: component spans ----
    /// Span: fetching fault entries from the GPU buffer (`t_fetch`).
    Fetch {
        /// Batch sequence number.
        batch: u64,
        /// Faults fetched.
        faults: u64,
    },
    /// Span: parse/sort/dedup preprocessing (`t_preprocess`).
    Preprocess {
        /// Batch sequence number.
        batch: u64,
        /// Faults processed.
        faults: u64,
    },
    /// Span: per-VABlock management overhead while the block's service
    /// lock is held (`t_fixed`, per-block share).
    VaBlockLock {
        /// Batch sequence number.
        batch: u64,
        /// VABlock serviced.
        block: u64,
        /// Unique faults for this block.
        faults: u64,
    },
    /// Span: DMA-map creation + reverse radix-tree inserts
    /// (`t_dma_setup`).
    DmaSetup {
        /// Batch sequence number.
        batch: u64,
        /// VABlock mapped.
        block: u64,
    },
    /// Span: fault-path `unmap_mapping_range` (`t_unmap`).
    CpuUnmap {
        /// Batch sequence number.
        batch: u64,
        /// VABlock unmapped.
        block: u64,
        /// CPU pages unmapped.
        pages: u64,
    },
    /// Span: eviction work (`t_evict`): one per victim writeback, plus a
    /// victimless span for the service-restart surcharge and for
    /// degradation writebacks.
    Evict {
        /// Batch sequence number.
        batch: u64,
        /// Victim block, when this span is a victim writeback.
        victim: Option<u64>,
        /// Bytes written back device→host.
        bytes: u64,
    },
    /// Span: zero-fill population of fresh GPU pages (`t_populate`).
    Populate {
        /// Batch sequence number.
        batch: u64,
        /// VABlock populated.
        block: u64,
        /// Pages populated.
        pages: u64,
    },
    /// Span: host→device data transfer on the copy engines
    /// (`t_transfer`).
    Transfer {
        /// Batch sequence number.
        batch: u64,
        /// VABlock transferred.
        block: u64,
        /// Bytes moved.
        bytes: u64,
    },
    /// Span: GPU page-table updates (`t_pte`).
    PteUpdate {
        /// Batch sequence number.
        batch: u64,
        /// VABlock updated.
        block: u64,
        /// Pages whose PTEs were written.
        pages: u64,
    },
    /// Span: per-batch fixed management overhead + scheduling jitter
    /// (`t_fixed`, end-of-batch share).
    Fixed {
        /// Batch sequence number.
        batch: u64,
    },
    /// Span: deterministic retry backoff after an injected transient
    /// failure (`t_backoff`).
    Backoff {
        /// Batch sequence number.
        batch: u64,
        /// Which stage retried (`fetch`, `dma`, `unmap`, `copy`).
        stage: String,
    },
}

impl TraceEvent {
    /// Stable kebab-case event name (the `--trace-filter` event axis and
    /// the Chrome-trace `name`).
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::RunBegin { .. } => "run-begin",
            TraceEvent::KernelLaunch { .. } => "kernel-launch",
            TraceEvent::KernelComplete { .. } => "kernel-complete",
            TraceEvent::BufferFlush { .. } => "buffer-flush",
            TraceEvent::FaultGenerated { .. } => "fault-generated",
            TraceEvent::FaultDropped { .. } => "fault-dropped",
            TraceEvent::Replay { .. } => "replay",
            TraceEvent::GpuReset { .. } => "gpu-reset",
            TraceEvent::InjectionFired { .. } => "injection-fired",
            TraceEvent::HealthTransition { .. } => "health-transition",
            TraceEvent::MemoryPressure { .. } => "memory-pressure",
            TraceEvent::HostUnmap { .. } => "host-unmap",
            TraceEvent::DmaMap { .. } => "dma-map",
            TraceEvent::BatchOpen { .. } => "batch-open",
            TraceEvent::BatchClose { .. } => "batch-close",
            TraceEvent::DedupHit { .. } => "dedup-hit",
            TraceEvent::FaultServiced { .. } => "fault-serviced",
            TraceEvent::PrefetchDecision { .. } => "prefetch-decision",
            TraceEvent::FaultThrottled { .. } => "fault-throttled",
            TraceEvent::EvictDecision { .. } => "evict-decision",
            TraceEvent::Fetch { .. } => "fetch",
            TraceEvent::Preprocess { .. } => "preprocess",
            TraceEvent::VaBlockLock { .. } => "vablock-lock",
            TraceEvent::DmaSetup { .. } => "dma-setup",
            TraceEvent::CpuUnmap { .. } => "cpu-unmap",
            TraceEvent::Evict { .. } => "evict",
            TraceEvent::Populate { .. } => "populate",
            TraceEvent::Transfer { .. } => "transfer",
            TraceEvent::PteUpdate { .. } => "pte-update",
            TraceEvent::Fixed { .. } => "fixed",
            TraceEvent::Backoff { .. } => "backoff",
        }
    }

    /// Originating subsystem.
    pub fn subsystem(&self) -> Subsystem {
        match self {
            TraceEvent::RunBegin { .. }
            | TraceEvent::KernelLaunch { .. }
            | TraceEvent::KernelComplete { .. }
            | TraceEvent::BufferFlush { .. } => Subsystem::Engine,
            TraceEvent::FaultGenerated { .. }
            | TraceEvent::FaultDropped { .. }
            | TraceEvent::Replay { .. }
            | TraceEvent::GpuReset { .. } => Subsystem::Gpu,
            TraceEvent::InjectionFired { .. } => Subsystem::Sim,
            TraceEvent::HostUnmap { .. } | TraceEvent::DmaMap { .. } => Subsystem::HostOs,
            _ => Subsystem::Driver,
        }
    }

    /// Span or instant.
    pub fn phase(&self) -> Phase {
        match self.component() {
            Some(_) => Phase::Span,
            None => Phase::Instant,
        }
    }

    /// Index into [`COMPONENTS`] of the batch-time component this span
    /// accounts against; `None` for instants.
    pub fn component(&self) -> Option<usize> {
        match self {
            TraceEvent::Fetch { .. } => Some(0),
            TraceEvent::Preprocess { .. } => Some(1),
            TraceEvent::DmaSetup { .. } => Some(2),
            TraceEvent::CpuUnmap { .. } => Some(3),
            TraceEvent::Populate { .. } => Some(4),
            TraceEvent::Transfer { .. } => Some(5),
            TraceEvent::Evict { .. } => Some(6),
            TraceEvent::PteUpdate { .. } => Some(7),
            TraceEvent::VaBlockLock { .. } | TraceEvent::Fixed { .. } => Some(8),
            TraceEvent::Backoff { .. } => Some(9),
            _ => None,
        }
    }

    /// Batch this event belongs to, when it has one.
    pub fn batch(&self) -> Option<u64> {
        match self {
            TraceEvent::BatchOpen { batch, .. }
            | TraceEvent::BatchClose { batch, .. }
            | TraceEvent::HealthTransition { batch, .. }
            | TraceEvent::MemoryPressure { batch, .. }
            | TraceEvent::DedupHit { batch, .. }
            | TraceEvent::FaultServiced { batch, .. }
            | TraceEvent::PrefetchDecision { batch, .. }
            | TraceEvent::FaultThrottled { batch, .. }
            | TraceEvent::EvictDecision { batch, .. }
            | TraceEvent::Fetch { batch, .. }
            | TraceEvent::Preprocess { batch, .. }
            | TraceEvent::VaBlockLock { batch, .. }
            | TraceEvent::DmaSetup { batch, .. }
            | TraceEvent::CpuUnmap { batch, .. }
            | TraceEvent::Evict { batch, .. }
            | TraceEvent::Populate { batch, .. }
            | TraceEvent::Transfer { batch, .. }
            | TraceEvent::PteUpdate { batch, .. }
            | TraceEvent::Fixed { batch, .. }
            | TraceEvent::Backoff { batch, .. } => Some(*batch),
            _ => None,
        }
    }
}

/// One recorded event: a monotone sequence number, the simulated
/// timestamp, the span duration (0 for instants), and the typed payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Monotone per-tracer sequence number (never reused, survives
    /// snapshot/restore).
    pub seq: u64,
    /// Simulated start time in nanoseconds.
    pub at_ns: u64,
    /// Span duration in nanoseconds; 0 for instants.
    pub dur_ns: u64,
    /// The typed event.
    pub event: TraceEvent,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_subsystems_and_phases_are_consistent() {
        let span = TraceEvent::Transfer { batch: 3, block: 1, bytes: 4096 };
        assert_eq!(span.name(), "transfer");
        assert_eq!(span.subsystem(), Subsystem::Driver);
        assert_eq!(span.phase(), Phase::Span);
        assert_eq!(span.component(), Some(5));
        assert_eq!(COMPONENTS[5], "transfer");
        assert_eq!(span.batch(), Some(3));

        let instant = TraceEvent::Replay { seq: 1, woken: 8 };
        assert_eq!(instant.phase(), Phase::Instant);
        assert_eq!(instant.subsystem(), Subsystem::Gpu);
        assert_eq!(instant.batch(), None);
        assert_eq!(Subsystem::Gpu.lane(), 1);
        assert_eq!(Subsystem::Engine.lane(), 5);
    }

    #[test]
    fn events_round_trip_through_serde() {
        let ev = TraceEvent::FaultGenerated {
            page: 42,
            kind: TraceAccess::Write,
            sm: 3,
            utlb: 1,
            warp: 9,
            dup: false,
        };
        let v = ev.to_value();
        let back = TraceEvent::from_value(&v).expect("round trip");
        assert_eq!(back, ev);

        let rec = TraceRecord { seq: 7, at_ns: 123, dur_ns: 0, event: ev };
        let back = TraceRecord::from_value(&rec.to_value()).expect("round trip");
        assert_eq!(back, rec);
    }
}
