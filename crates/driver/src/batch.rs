//! Batch-level instrumentation records.
//!
//! One [`BatchRecord`] per serviced fault batch, with the same fields the
//! paper's instrumented driver logs: raw and deduplicated fault counts,
//! duplicate classification, VABlock counts, migrated/evicted bytes, and a
//! per-component time breakdown (fetch, preprocess, DMA setup, CPU unmap,
//! population, transfer, eviction, PTE updates). Every figure and table in
//! the evaluation is computed from sequences of these records.

use serde::{Deserialize, Serialize};
use uvm_gpu::fault::AccessKind;
use uvm_sim::time::{SimDuration, SimTime};

use crate::health::HealthState;

/// Instrumentation for one serviced batch.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchRecord {
    /// Batch sequence number (0-based).
    pub seq: u64,
    /// Service start time (fetch begins).
    pub start: SimTime,
    /// Service end time (replay issued).
    pub end: SimTime,

    // ---- fault composition ----
    /// Faults fetched from the buffer (raw batch size; upper series of
    /// Fig. 8).
    pub raw_faults: u64,
    /// Distinct pages after deduplication (lower series of Fig. 8).
    pub unique_pages: u64,
    /// Same-μTLB duplicates (type 1).
    pub dup_same_utlb: u64,
    /// Cross-μTLB duplicates (type 2).
    pub dup_cross_utlb: u64,
    /// Read faults in the raw batch.
    pub read_faults: u64,
    /// Write faults in the raw batch.
    pub write_faults: u64,
    /// Prefetch-instruction faults in the raw batch.
    pub prefetch_faults: u64,
    /// Distinct SMs contributing faults (Table 2's "combination of work
    /// across the GPU SMs").
    pub distinct_sms: u32,
    /// Distinct μTLBs contributing faults.
    pub distinct_utlbs: u32,

    // ---- VABlock composition ----
    /// Distinct VABlocks serviced (Table 3, Fig. 10).
    pub num_va_blocks: u64,
    /// Of those, blocks paying first-touch DMA-map setup.
    pub new_va_blocks: u64,
    /// The VABlocks serviced, in service (ascending block) order.
    pub served_blocks: Vec<u64>,
    /// Unique-fault count per serviced VABlock, aligned with
    /// `served_blocks` — the per-block distribution behind Table 3.
    pub per_block_faults: Vec<u32>,
    /// VABlocks evicted by this batch, in eviction order (Figs. 16c/17c).
    pub evicted_blocks: Vec<u64>,

    // ---- data movement ----
    /// Pages migrated host→device (including prefetched pages).
    pub pages_migrated: u64,
    /// Bytes migrated host→device.
    pub bytes_migrated: u64,
    /// Pages added by the prefetcher beyond the faulted set.
    pub prefetched_pages: u64,
    /// VABlocks evicted to make room.
    pub evictions: u64,
    /// Bytes written back device→host by evictions.
    pub bytes_evicted: u64,
    /// CPU pages unmapped via `unmap_mapping_range`.
    pub cpu_pages_unmapped: u64,
    /// Pages mapped remotely (PreferredLocationHost) instead of migrated.
    pub remote_mapped_pages: u64,
    /// Whether this record describes a driver-initiated
    /// `cudaMemPrefetchAsync` operation rather than a fault batch.
    pub driver_prefetch_op: bool,
    /// Blocks newly pinned host-side by the thrashing-mitigation
    /// extension in this batch.
    pub thrashing_pins: u64,

    // ---- fault injection & recovery ----
    /// Faults dropped by the hardware buffer (genuine overflow plus
    /// injected overflow storms) since the previous batch was serviced.
    pub dropped_faults: u64,
    /// Injected failures the driver observed while servicing this batch
    /// (DMA map, copy engine, host page table, fetch stall).
    pub injected_faults: u64,
    /// Retry attempts performed after transient failures.
    pub retries: u64,
    /// Blocks degraded to a remote (sysmem) mapping after migration
    /// retries were exhausted.
    pub degraded_blocks: u64,

    // ---- sustained failure domains & health ----
    /// Driver health state this batch was serviced under.
    pub health: HealthState,
    /// Device blocks reserved away from UVM at batch close (sustained
    /// memory pressure; 0 when no pressure window is active).
    pub pressure_reserved: u64,
    /// Blocks emergency-evicted this batch to fit a shrunken capacity.
    pub emergency_evictions: u64,
    /// GPU resets absorbed while servicing this batch.
    pub gpu_resets: u64,
    /// Fault entries destroyed by those resets (buffer + in-flight GMMU).
    pub reset_lost_faults: u64,

    // ---- peer migration traffic (multi-GPU peer backends; 0 otherwise) ----
    /// Pages spilled device→peer by capacity evictions this batch.
    pub pages_spilled_to_peer: u64,
    /// Bytes spilled device→peer (charged to `t_evict` at interconnect
    /// cost; *not* part of `bytes_evicted`, which counts host writeback).
    pub bytes_spilled_to_peer: u64,
    /// Pages migrated peer→device on re-faults this batch.
    pub pages_from_peer: u64,
    /// Bytes migrated peer→device (charged to `t_transfer` at
    /// interconnect cost; *not* part of `bytes_migrated`, which counts
    /// host→device copy-engine traffic).
    pub bytes_from_peer: u64,

    // ---- multi-tenant attribution (empty/zero when tenancy is off) ----
    /// Faults attributed to each client at admission (arrival counts,
    /// parallel to the driver's client table; empty when no clients are
    /// configured).
    pub client_faults: Vec<u64>,
    /// Faults dropped at admission over client quotas; they regenerate
    /// after the end-of-batch replay.
    pub throttled_faults: u64,

    // ---- component times ----
    /// Fetching fault entries from the GPU buffer.
    pub t_fetch: SimDuration,
    /// Parsing, sorting, deduplication.
    pub t_preprocess: SimDuration,
    /// DMA-map creation + reverse radix-tree inserts.
    pub t_dma_setup: SimDuration,
    /// `unmap_mapping_range` on the fault path.
    pub t_unmap: SimDuration,
    /// Zero-fill population of fresh GPU pages.
    pub t_populate: SimDuration,
    /// Host→device data transfer (copy engines).
    pub t_transfer: SimDuration,
    /// Eviction handling including device→host writeback.
    pub t_evict: SimDuration,
    /// GPU page-table updates.
    pub t_pte: SimDuration,
    /// Fixed per-batch and per-VABlock management overhead (+ jitter).
    pub t_fixed: SimDuration,
    /// Deterministic retry backoff after injected transient failures.
    pub t_backoff: SimDuration,
}

impl BatchRecord {
    /// Total service time.
    pub fn service_time(&self) -> SimDuration {
        self.end - self.start
    }

    /// Fraction of service time spent in host→device transfer (Fig. 7).
    pub fn transfer_fraction(&self) -> f64 {
        let total = self.service_time().as_nanos();
        if total == 0 {
            0.0
        } else {
            self.t_transfer.as_nanos() as f64 / total as f64
        }
    }

    /// Fraction of service time spent unmapping CPU pages (Fig. 11).
    pub fn unmap_fraction(&self) -> f64 {
        let total = self.service_time().as_nanos();
        if total == 0 {
            0.0
        } else {
            self.t_unmap.as_nanos() as f64 / total as f64
        }
    }

    /// Fraction of service time spent in DMA/VABlock state setup (Fig. 14).
    pub fn dma_fraction(&self) -> f64 {
        let total = self.service_time().as_nanos();
        if total == 0 {
            0.0
        } else {
            self.t_dma_setup.as_nanos() as f64 / total as f64
        }
    }

    /// Total duplicates.
    pub fn total_dups(&self) -> u64 {
        self.dup_same_utlb + self.dup_cross_utlb
    }

    /// The component times as nanoseconds in [`uvm_trace::COMPONENTS`]
    /// order — the vector carried by the `batch-close` trace event, and
    /// the exact quantity the trace-side breakdown reconciles against.
    pub fn component_ns(&self) -> [u64; 10] {
        [
            self.t_fetch.as_nanos(),
            self.t_preprocess.as_nanos(),
            self.t_dma_setup.as_nanos(),
            self.t_unmap.as_nanos(),
            self.t_populate.as_nanos(),
            self.t_transfer.as_nanos(),
            self.t_evict.as_nanos(),
            self.t_pte.as_nanos(),
            self.t_fixed.as_nanos(),
            self.t_backoff.as_nanos(),
        ]
    }

    /// Sum of the recorded component times (consistency check against
    /// `service_time`, which also includes rounding from jitter).
    pub fn component_sum(&self) -> SimDuration {
        self.t_fetch
            + self.t_preprocess
            + self.t_dma_setup
            + self.t_unmap
            + self.t_populate
            + self.t_transfer
            + self.t_evict
            + self.t_pte
            + self.t_fixed
            + self.t_backoff
    }
}

/// Per-fault metadata (the paper's first instrumented-driver variant),
/// retained when `DriverPolicy::log_fault_metadata` is set.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FaultMeta {
    /// Batch that serviced (or dropped) the fault.
    pub batch_seq: u64,
    /// Faulting page.
    pub page: u64,
    /// Access type.
    pub kind: AccessKind,
    /// Originating SM.
    pub sm: u32,
    /// Originating μTLB.
    pub utlb: u32,
    /// Arrival time in the GPU fault buffer.
    pub arrival: SimTime,
    /// Whether dedup discarded it.
    pub was_duplicate: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_are_bounded() {
        let mut r = BatchRecord {
            start: SimTime(0),
            end: SimTime(1000),
            t_transfer: SimDuration(250),
            t_unmap: SimDuration(100),
            t_dma_setup: SimDuration(0),
            ..Default::default()
        };
        assert!((r.transfer_fraction() - 0.25).abs() < 1e-9);
        assert!((r.unmap_fraction() - 0.10).abs() < 1e-9);
        assert_eq!(r.dma_fraction(), 0.0);
        r.end = r.start;
        assert_eq!(r.transfer_fraction(), 0.0);
    }

    #[test]
    fn component_sum_adds_everything() {
        let r = BatchRecord {
            t_fetch: SimDuration(1),
            t_preprocess: SimDuration(2),
            t_dma_setup: SimDuration(3),
            t_unmap: SimDuration(4),
            t_populate: SimDuration(5),
            t_transfer: SimDuration(6),
            t_evict: SimDuration(7),
            t_pte: SimDuration(8),
            t_fixed: SimDuration(9),
            t_backoff: SimDuration(10),
            ..Default::default()
        };
        assert_eq!(r.component_sum(), SimDuration(55));
    }

    #[test]
    fn record_serializes() -> Result<(), serde_json::Error> {
        let r = BatchRecord {
            seq: 7,
            raw_faults: 256,
            unique_pages: 100,
            ..Default::default()
        };
        let json = serde_json::to_string(&r)?;
        assert!(json.contains("\"raw_faults\":256"));
        Ok(())
    }

    #[test]
    fn component_ns_matches_component_sum() {
        let r = BatchRecord {
            t_fetch: SimDuration(1),
            t_preprocess: SimDuration(2),
            t_dma_setup: SimDuration(3),
            t_unmap: SimDuration(4),
            t_populate: SimDuration(5),
            t_transfer: SimDuration(6),
            t_evict: SimDuration(7),
            t_pte: SimDuration(8),
            t_fixed: SimDuration(9),
            t_backoff: SimDuration(10),
            ..Default::default()
        };
        assert_eq!(r.component_ns().iter().sum::<u64>(), r.component_sum().as_nanos());
        assert_eq!(r.component_ns()[0], 1);
        assert_eq!(r.component_ns()[9], 10);
    }
}
