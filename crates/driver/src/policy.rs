//! Driver tunables.

use serde::{Deserialize, Serialize};
use uvm_sim::time::SimDuration;

use crate::engine::{EvictionPolicyKind, PrefetchPolicyKind};

/// UVM driver policy knobs: one field per decision a run can vary.
/// Defaults match the stock `nvidia-uvm` driver configuration the paper
/// studies. Tunables no configuration varies are the associated constants
/// ([`Self::PREFETCH_THRESHOLD`] and the rest).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriverPolicy {
    /// Maximum faults fetched into one batch. The stock driver uses 256;
    /// Fig. 9 sweeps this up to 6144.
    pub batch_limit: usize,
    /// Which prefetcher runs (the policy engine, [`crate::engine`]).
    /// [`PrefetchPolicyKind::None`], the default, is demand paging only;
    /// any other kind enables prefetching (`uvm_perf_prefetch`).
    pub prefetch_policy: PrefetchPolicyKind,
    /// Which evictor picks victims when device memory is full.
    pub eviction_policy: EvictionPolicyKind,
    /// Whether to retain per-fault metadata (the paper's first instrumented
    /// driver variant). Costs memory on long runs; batch-level records are
    /// always kept.
    pub log_fault_metadata: bool,
    /// Whether duplicate faults are collapsed before servicing (ablation
    /// knob; the stock driver always deduplicates). When disabled, every
    /// duplicate incurs redundant per-fault servicing work.
    pub dedup_enabled: bool,
    /// Whether the fault buffer is flushed before each replay (ablation
    /// knob; the stock driver always flushes). When disabled, stale
    /// in-flight faults survive into later batches instead of being
    /// dropped and re-generated.
    pub flush_on_replay: bool,
    /// Thrashing mitigation (the real driver's `uvm_perf_thrashing`
    /// module, simplified): a block refaulted within
    /// [`Self::THRASHING_WINDOW`] batches of its eviction is *pinned*
    /// host-side — mapped remotely instead of re-migrated — for
    /// [`Self::THRASHING_PIN`] batches, breaking eviction ping-pong. Off by
    /// default (the paper's analysis runs without it).
    pub thrashing_mitigation: bool,
    /// Recovery: maximum retry attempts after a transient failure (DMA map,
    /// copy-engine fault, host page-table populate, batch-fetch stall)
    /// before the error escalates — to degradation for migration failures,
    /// to a hard [`UvmError`](uvm_sim::error::UvmError) otherwise.
    pub max_retries: u32,
    /// Run the cross-subsystem invariant audit (`uvm_driver::audit`) at the
    /// end of every serviced batch. Off by default: the audit costs real
    /// wall-clock time on large runs (it charges no *simulated* time).
    pub audit_enabled: bool,
    /// Health escalation: device blocks reserved away from UVM while the
    /// memory-pressure injection point fires (the sustained-pressure
    /// failure domain). Clamped so at least one block stays usable. Only
    /// consulted when the injector fires, so the default perturbs nothing.
    pub pressure_reserve_blocks: u64,
    /// Health escalation: cumulative degraded VABlocks at or above which
    /// the driver enters the `Degraded` state (0 disables escalation).
    pub degraded_threshold: u64,
}

impl Default for DriverPolicy {
    fn default() -> Self {
        DriverPolicy {
            batch_limit: 256,
            prefetch_policy: PrefetchPolicyKind::None,
            eviction_policy: EvictionPolicyKind::default(),
            log_fault_metadata: false,
            dedup_enabled: true,
            flush_on_replay: true,
            thrashing_mitigation: false,
            max_retries: 3,
            audit_enabled: false,
            pressure_reserve_blocks: 8,
            degraded_threshold: 4,
        }
    }
}

impl DriverPolicy {
    /// Density threshold of the tree prefetcher: a subtree is prefetched
    /// when strictly more than this fraction of its pages are
    /// faulted/resident.
    pub const PREFETCH_THRESHOLD: f64 = 0.5;
    /// Expansion depth (in pages) of the sequential-stride prefetcher.
    pub const STRIDE_PAGES: u32 = 16;
    /// Recovery: deterministic base backoff charged to the batch per retry;
    /// attempt `n` (0-based) waits `RETRY_BACKOFF << n`.
    pub const RETRY_BACKOFF: SimDuration = SimDuration::from_micros(20);
    /// Recovery: fixed re-attach cost the driver pays (charged to
    /// `t_fixed`) in the batch that absorbs a GPU reset — channel
    /// re-initialization, fault-buffer re-registration, push-buffer
    /// re-binding.
    pub const RESET_REATTACH_COST: SimDuration = SimDuration::from_micros(500);
    /// Eviction→refault distance (in batches) that counts as thrashing.
    pub const THRASHING_WINDOW: u64 = 16;
    /// How long (in batches) a thrashing block stays pinned host-side.
    pub const THRASHING_PIN: u64 = 64;

    /// Stock configuration with the tree-density prefetcher enabled (the
    /// driver default in production; the paper flips it per experiment).
    pub fn with_prefetch() -> Self {
        Self::default().prefetcher(PrefetchPolicyKind::TreeDensity)
    }

    /// Builder-style prefetcher selection (`PrefetchPolicyKind::None`
    /// disables prefetching).
    pub fn prefetcher(mut self, kind: PrefetchPolicyKind) -> Self {
        self.prefetch_policy = kind;
        self
    }

    /// Builder-style evictor selection.
    pub fn evictor(mut self, kind: EvictionPolicyKind) -> Self {
        self.eviction_policy = kind;
        self
    }

    /// Builder-style batch limit override (Fig. 9 sweep).
    pub fn batch_limit(mut self, limit: usize) -> Self {
        self.batch_limit = limit;
        self
    }

    /// Builder-style fault-metadata logging toggle.
    pub fn log_faults(mut self, on: bool) -> Self {
        self.log_fault_metadata = on;
        self
    }

    /// Builder-style dedup toggle (ablation).
    pub fn dedup(mut self, on: bool) -> Self {
        self.dedup_enabled = on;
        self
    }

    /// Builder-style flush-before-replay toggle (ablation).
    pub fn flush(mut self, on: bool) -> Self {
        self.flush_on_replay = on;
        self
    }

    /// Builder-style thrashing-mitigation toggle (extension).
    pub fn thrashing(mut self, on: bool) -> Self {
        self.thrashing_mitigation = on;
        self
    }

    /// Builder-style retry budget for transient-failure recovery.
    pub fn retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    /// Builder-style per-batch invariant audit toggle.
    pub fn audited(mut self, on: bool) -> Self {
        self.audit_enabled = on;
        self
    }

    /// Builder-style pressure reservation size (blocks withheld while the
    /// memory-pressure point fires).
    pub fn pressure_reserve(mut self, blocks: u64) -> Self {
        self.pressure_reserve_blocks = blocks;
        self
    }

    /// Builder-style degraded-escalation threshold (0 disables).
    pub fn degraded_escalation(mut self, blocks: u64) -> Self {
        self.degraded_threshold = blocks;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_stock_driver() {
        let p = DriverPolicy::default();
        assert_eq!(p.batch_limit, 256);
        assert_eq!(p.prefetch_policy, PrefetchPolicyKind::None);
        assert_eq!(DriverPolicy::PREFETCH_THRESHOLD, 0.5);
        assert!(p.dedup_enabled);
        assert!(p.flush_on_replay);
    }

    #[test]
    fn builders_compose() {
        let p = DriverPolicy::with_prefetch().batch_limit(1024).log_faults(true);
        assert_eq!(p.prefetch_policy, PrefetchPolicyKind::TreeDensity);
        assert_eq!(p.batch_limit, 1024);
        assert!(p.log_fault_metadata);
    }

    #[test]
    fn policy_engine_defaults_match_stock_driver() {
        let p = DriverPolicy::default();
        assert_eq!(p.prefetch_policy, PrefetchPolicyKind::None);
        assert_eq!(p.eviction_policy, EvictionPolicyKind::Lru);
        assert_eq!(DriverPolicy::STRIDE_PAGES, 16);
        // with_prefetch() is exactly prefetcher(TreeDensity).
        assert_eq!(
            DriverPolicy::with_prefetch(),
            DriverPolicy::default().prefetcher(PrefetchPolicyKind::TreeDensity)
        );
    }

    #[test]
    fn prefetcher_builder_gates_on_none() {
        let p = DriverPolicy::default().prefetcher(PrefetchPolicyKind::Oracle);
        assert_eq!(p.prefetch_policy, PrefetchPolicyKind::Oracle);
        let p = p.prefetcher(PrefetchPolicyKind::None);
        assert_eq!(p, DriverPolicy::default(), "None is the stock demand-paging policy");
        let p = DriverPolicy::default()
            .prefetcher(PrefetchPolicyKind::SequentialStride)
            .evictor(EvictionPolicyKind::Lfu);
        assert_eq!(p.prefetch_policy, PrefetchPolicyKind::SequentialStride);
        assert_eq!(p.eviction_policy, EvictionPolicyKind::Lfu);
    }

    #[test]
    fn recovery_defaults_and_builders() {
        let p = DriverPolicy::default();
        assert_eq!(p.max_retries, 3);
        assert_eq!(DriverPolicy::RETRY_BACKOFF, SimDuration::from_micros(20));
        assert!(!p.audit_enabled);

        let p = DriverPolicy::default().retries(5).audited(true);
        assert_eq!(p.max_retries, 5);
        assert!(p.audit_enabled);
    }

    #[test]
    fn health_defaults_and_builders() {
        let p = DriverPolicy::default();
        assert_eq!(p.pressure_reserve_blocks, 8);
        assert_eq!(p.degraded_threshold, 4);
        assert_eq!(DriverPolicy::RESET_REATTACH_COST, SimDuration::from_micros(500));

        let p = DriverPolicy::default().pressure_reserve(16).degraded_escalation(0);
        assert_eq!(p.pressure_reserve_blocks, 16);
        assert_eq!(p.degraded_threshold, 0);
    }
}
