//! GPU physical-memory management and pluggable eviction.
//!
//! UVM tracks all physical GPU allocations and, under oversubscription,
//! evicts at VABlock (2 MiB) granularity (paper Sec. 2.2, 5.1). Because
//! the driver sees only *migrations*, never GPU-side page hits, its "LRU"
//! ordering is migration order — effectively *earliest allocated first*
//! for densely accessed workloads, which is exactly the eviction pattern
//! Fig. 17(c) visualizes.
//!
//! Victim selection is delegated to the policy engine
//! ([`EvictionPolicyKind::select`]). The stock LRU policy keeps its
//! original allocation-free fast path; alternative policies receive the
//! candidate set sorted by block id (so `HashMap` iteration order never
//! leaks into results) plus the manager's own serialized [`DetRng`]
//! stream (so stochastic policies replay bit-identically across
//! snapshot/restore).

use serde::{Deserialize, Serialize};
use uvm_sim::error::UvmError;
use uvm_sim::hash::FastMap;
use uvm_sim::mem::VaBlockId;
use uvm_sim::rng::DetRng;

use crate::engine::{EvictionPolicyKind, VictimCandidate};

/// Outcome of a block-residency request
/// ([`GpuMemoryManager::ensure_resident_with`]). On `Evicted` the victims
/// sit in the caller-supplied [`EvictScratch`], in eviction order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResidencyOutcome {
    /// The block already holds a GPU allocation.
    AlreadyResident,
    /// A free 2 MiB chunk was allocated.
    Allocated,
    /// Memory was full: the scratch victim list was filled (in eviction
    /// order), then the allocation succeeded.
    Evicted,
}

/// Reusable working memory for the eviction path.
///
/// Pure scratch: contents are cleared at each use site and never
/// influence results. One instance serves a whole simulation, so
/// steady-state eviction performs no victim-list or policy-candidate
/// allocations.
#[derive(Debug, Default)]
pub struct EvictScratch {
    /// Victims of the most recent `*_with` call, in eviction order.
    pub(crate) victims: Vec<VaBlockId>,
    /// Candidate set handed to non-LRU policies.
    candidates: Vec<VictimCandidate>,
}

impl EvictScratch {
    /// Victims of the most recent `*_with` call, in eviction order.
    pub fn victims(&self) -> &[VaBlockId] {
        &self.victims
    }
}

/// Per-resident-block bookkeeping consulted by eviction policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct BlockMeta {
    /// Migration sequence number of the last batch that touched the block
    /// (the LRU key).
    last_migrate: u64,
    /// How many batches have migrated pages into the block (the LFU key).
    touches: u64,
}

/// The GPU physical-memory manager.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GpuMemoryManager {
    capacity_blocks: u64,
    /// Resident blocks → their policy bookkeeping.
    resident: FastMap<VaBlockId, BlockMeta>,
    /// Monotone count of evictions performed.
    evictions: u64,
    /// Which eviction policy picks victims.
    policy: EvictionPolicyKind,
    /// The manager's own stream for stochastic policies. Serialized, so a
    /// restored run's random evictor continues exactly where it left off.
    rng: DetRng,
    /// Blocks currently reserved away from UVM by a sustained
    /// memory-pressure window; effective capacity shrinks by this much.
    pressure_reserved: u64,
    /// Monotone count of emergency evictions (evictions forced by a
    /// capacity shrink rather than by an allocation request).
    emergency_evictions: u64,
}

impl GpuMemoryManager {
    /// A manager over `capacity_blocks` 2 MiB chunks of device memory,
    /// with the stock LRU policy.
    pub fn new(capacity_blocks: u64) -> Self {
        GpuMemoryManager::with_policy(capacity_blocks, EvictionPolicyKind::Lru, 0)
    }

    /// A manager using `policy` for victim selection; `seed` keys the
    /// stream stochastic policies draw from.
    pub fn with_policy(capacity_blocks: u64, policy: EvictionPolicyKind, seed: u64) -> Self {
        assert!(capacity_blocks > 0, "GPU must have at least one block of memory");
        GpuMemoryManager {
            capacity_blocks,
            resident: FastMap::default(),
            evictions: 0,
            policy,
            rng: DetRng::new(seed ^ 0xE71C_7015_AB1E_5EED),
            pressure_reserved: 0,
            emergency_evictions: 0,
        }
    }

    /// Device capacity in blocks (hardware size, ignoring pressure).
    pub fn capacity_blocks(&self) -> u64 {
        self.capacity_blocks
    }

    /// Capacity actually usable by UVM right now: hardware capacity minus
    /// the pressure reservation, never below one block.
    pub fn effective_capacity(&self) -> u64 {
        (self.capacity_blocks - self.pressure_reserved).max(1)
    }

    /// Blocks currently reserved away by memory pressure.
    pub fn pressure_reserved(&self) -> u64 {
        self.pressure_reserved
    }

    /// Monotone count of emergency evictions forced by capacity shrinks.
    pub fn emergency_evictions(&self) -> u64 {
        self.emergency_evictions
    }

    /// Set the pressure reservation (clamped so at least one block stays
    /// usable). Shrinking capacity does not evict by itself — call
    /// [`GpuMemoryManager::shed_over_capacity_with`] to pick the victims,
    /// so the caller can run the full writeback path per victim.
    pub fn set_pressure(&mut self, blocks: u64) {
        self.pressure_reserved = blocks.min(self.capacity_blocks - 1);
    }

    /// Emergency eviction: pick the victims (policy-selected, in eviction
    /// order) that must be written back so residency fits the effective
    /// capacity. Removes them from the resident set, counts them as both
    /// regular and emergency evictions, and leaves them in
    /// `scratch.victims` (replacing its previous contents) for writeback.
    pub fn shed_over_capacity_with(&mut self, scratch: &mut EvictScratch) {
        scratch.victims.clear();
        while (self.resident.len() as u64) > self.effective_capacity() {
            let Some(victim) = self.select_victim(&mut scratch.candidates) else { break };
            self.resident.remove(&victim);
            self.evictions += 1;
            self.emergency_evictions += 1;
            scratch.victims.push(victim);
        }
    }

    /// Currently allocated blocks.
    pub fn resident_blocks(&self) -> u64 {
        self.resident.len() as u64
    }

    /// Whether `block` holds a GPU allocation.
    pub fn is_resident(&self, block: VaBlockId) -> bool {
        self.resident.contains_key(&block)
    }

    /// Monotone eviction count.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// The active eviction policy.
    pub fn policy(&self) -> EvictionPolicyKind {
        self.policy
    }

    /// Record that a batch migrated pages into `block` at sequence `seq`
    /// (refreshes the LRU key and bumps the LFU count).
    pub fn touch(&mut self, block: VaBlockId, seq: u64) {
        if let Some(m) = self.resident.get_mut(&block) {
            m.last_migrate = seq;
            m.touches += 1;
        }
    }

    /// Pick the victim for one eviction. LRU keeps the original
    /// allocation-free scan; other policies get an id-sorted candidate
    /// set (rebuilt into `candidates`, so the buffer's capacity is
    /// reused across evictions) and the manager's rng.
    fn select_victim(&mut self, candidates: &mut Vec<VictimCandidate>) -> Option<VaBlockId> {
        if self.policy == EvictionPolicyKind::Lru {
            return self
                .resident
                .iter()
                .min_by_key(|(id, m)| (m.last_migrate, id.0))
                .map(|(&id, _)| id);
        }
        candidates.clear();
        candidates.extend(self.resident.iter().map(|(&block, m)| VictimCandidate {
            block,
            last_migrate: m.last_migrate,
            touches: m.touches,
        }));
        if candidates.is_empty() {
            return None;
        }
        candidates.sort_unstable_by_key(|c| c.block.0);
        let idx = self.policy.select(candidates, &mut self.rng);
        Some(candidates[idx.min(candidates.len() - 1)].block)
    }

    /// Ensure `block` holds a GPU allocation, evicting policy-selected
    /// victims if the device is full. `seq` is the requesting batch's
    /// sequence number (becomes the block's LRU key). On
    /// [`ResidencyOutcome::Evicted`] the victims sit in `scratch.victims`
    /// (replacing its previous contents), so the steady-state eviction
    /// path allocates nothing.
    ///
    /// `Err` is returned only on a broken internal invariant (an empty
    /// resident map while the device reports full) — a state the servicing
    /// pipeline treats as a structured [`UvmError::InvariantViolation`]
    /// rather than a panic.
    pub fn ensure_resident_with(
        &mut self,
        block: VaBlockId,
        seq: u64,
        scratch: &mut EvictScratch,
    ) -> Result<ResidencyOutcome, UvmError> {
        if let Some(m) = self.resident.get_mut(&block) {
            m.last_migrate = seq;
            m.touches += 1;
            return Ok(ResidencyOutcome::AlreadyResident);
        }
        if (self.resident.len() as u64) < self.effective_capacity() {
            self.resident.insert(block, BlockMeta { last_migrate: seq, touches: 1 });
            return Ok(ResidencyOutcome::Allocated);
        }
        // Memory full: evict the policy's victim. One victim frees exactly
        // the one chunk we need, but we keep the loop for robustness
        // against future multi-chunk requests.
        //
        // The loop guard makes the victim scan provably non-empty today
        // (`len >= capacity` and the constructor asserts `capacity > 0`);
        // the error path exists so a future capacity-0 or concurrent-release
        // bug surfaces as a typed error instead of a panic.
        scratch.victims.clear();
        while (self.resident.len() as u64) >= self.effective_capacity() {
            let Some(victim) = self.select_victim(&mut scratch.candidates) else {
                return Err(UvmError::InvariantViolation {
                    subsystem: "gpu-mem",
                    block: block.0,
                    detail: "resident map empty while device reports full".into(),
                });
            };
            self.resident.remove(&victim);
            self.evictions += 1;
            scratch.victims.push(victim);
        }
        self.resident.insert(block, BlockMeta { last_migrate: seq, touches: 1 });
        Ok(ResidencyOutcome::Evicted)
    }

    /// Release `block`'s allocation without counting an eviction (teardown).
    pub fn release(&mut self, block: VaBlockId) {
        self.resident.remove(&block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Request residency for `block` at `seq`: the outcome and, on
    /// `Evicted`, the victims in eviction order.
    fn ensure(
        mm: &mut GpuMemoryManager,
        block: u64,
        seq: u64,
    ) -> Result<(ResidencyOutcome, Vec<VaBlockId>), UvmError> {
        let mut scratch = EvictScratch::default();
        let outcome = mm.ensure_resident_with(VaBlockId(block), seq, &mut scratch)?;
        Ok((outcome, scratch.victims().to_vec()))
    }

    /// Shed residency down to the effective capacity, returning the
    /// victims.
    fn shed(mm: &mut GpuMemoryManager) -> Vec<VaBlockId> {
        let mut scratch = EvictScratch::default();
        mm.shed_over_capacity_with(&mut scratch);
        scratch.victims().to_vec()
    }

    #[test]
    fn allocates_until_full_then_evicts_lru() -> Result<(), UvmError> {
        let mut mm = GpuMemoryManager::new(3);
        assert_eq!(
            ensure(&mut mm, 1, 1)?,
            (ResidencyOutcome::Allocated, vec![])
        );
        assert_eq!(
            ensure(&mut mm, 2, 2)?,
            (ResidencyOutcome::Allocated, vec![])
        );
        assert_eq!(
            ensure(&mut mm, 3, 3)?,
            (ResidencyOutcome::Allocated, vec![])
        );
        // Full: block 1 is LRU.
        assert_eq!(
            ensure(&mut mm, 4, 4)?,
            (ResidencyOutcome::Evicted, vec![VaBlockId(1)])
        );
        assert!(!mm.is_resident(VaBlockId(1)));
        assert!(mm.is_resident(VaBlockId(4)));
        assert_eq!(mm.evictions(), 1);
        Ok(())
    }

    #[test]
    fn touch_refreshes_lru_order() -> Result<(), UvmError> {
        let mut mm = GpuMemoryManager::new(2);
        ensure(&mut mm, 1, 1)?;
        ensure(&mut mm, 2, 2)?;
        mm.touch(VaBlockId(1), 3); // block 1 now most recent
        assert_eq!(
            ensure(&mut mm, 3, 4)?,
            (ResidencyOutcome::Evicted, vec![VaBlockId(2)])
        );
        Ok(())
    }

    #[test]
    fn already_resident_refreshes_key() -> Result<(), UvmError> {
        let mut mm = GpuMemoryManager::new(2);
        ensure(&mut mm, 1, 1)?;
        ensure(&mut mm, 2, 2)?;
        assert_eq!(
            ensure(&mut mm, 1, 3)?,
            (ResidencyOutcome::AlreadyResident, vec![])
        );
        // Block 2 is now LRU.
        assert_eq!(
            ensure(&mut mm, 9, 4)?,
            (ResidencyOutcome::Evicted, vec![VaBlockId(2)])
        );
        Ok(())
    }

    #[test]
    fn eviction_order_is_earliest_allocated_without_touches() -> Result<(), UvmError> {
        // The Sec. 5.4 observation: with no hit information, LRU degrades
        // to allocation order.
        let mut mm = GpuMemoryManager::new(4);
        for i in 1..=4u64 {
            ensure(&mut mm, i, i)?;
        }
        let mut evicted = Vec::new();
        for i in 5..=8u64 {
            if let (ResidencyOutcome::Evicted, v) = ensure(&mut mm, i, i)? {
                evicted.extend(v);
            }
        }
        assert_eq!(
            evicted,
            vec![VaBlockId(1), VaBlockId(2), VaBlockId(3), VaBlockId(4)]
        );
        Ok(())
    }

    #[test]
    fn release_frees_without_counting_eviction() -> Result<(), UvmError> {
        let mut mm = GpuMemoryManager::new(1);
        ensure(&mut mm, 1, 1)?;
        mm.release(VaBlockId(1));
        assert_eq!(mm.resident_blocks(), 0);
        assert_eq!(mm.evictions(), 0);
        assert_eq!(
            ensure(&mut mm, 2, 2)?,
            (ResidencyOutcome::Allocated, vec![])
        );
        Ok(())
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_capacity_rejected() {
        let _ = GpuMemoryManager::new(0);
    }

    #[test]
    fn lfu_evicts_least_migrated_block() -> Result<(), UvmError> {
        let mut mm = GpuMemoryManager::with_policy(3, EvictionPolicyKind::Lfu, 0);
        ensure(&mut mm, 1, 1)?;
        ensure(&mut mm, 2, 2)?;
        ensure(&mut mm, 3, 3)?;
        // Blocks 1 and 3 accumulate extra migrations; block 2 stays cold.
        mm.touch(VaBlockId(1), 4);
        mm.touch(VaBlockId(3), 5);
        mm.touch(VaBlockId(1), 6);
        assert_eq!(
            ensure(&mut mm, 9, 7)?,
            (ResidencyOutcome::Evicted, vec![VaBlockId(2)])
        );
        Ok(())
    }

    #[test]
    fn random_eviction_is_seed_deterministic_and_valid() -> Result<(), UvmError> {
        let run = |seed: u64| -> Result<Vec<VaBlockId>, UvmError> {
            let mut mm = GpuMemoryManager::with_policy(4, EvictionPolicyKind::Random, seed);
            for i in 1..=4u64 {
                ensure(&mut mm, i, i)?;
            }
            let mut evicted = Vec::new();
            for i in 5..=20u64 {
                if let (ResidencyOutcome::Evicted, v) = ensure(&mut mm, i, i)? {
                    evicted.extend(v);
                }
            }
            Ok(evicted)
        };
        let a = run(0x5C21)?;
        let b = run(0x5C21)?;
        assert_eq!(a, b, "same seed must evict the same victims");
        assert_eq!(a.len(), 16);
        let c = run(0x5C22)?;
        assert_ne!(a, c, "different seeds should pick different victim orders");
        Ok(())
    }

    #[test]
    fn pressure_shrinks_effective_capacity_and_sheds_residents() -> Result<(), UvmError> {
        let mut mm = GpuMemoryManager::new(8);
        for i in 1..=8u64 {
            ensure(&mut mm, i, i)?;
        }
        assert_eq!(mm.resident_blocks(), 8);
        assert_eq!(mm.effective_capacity(), 8);

        // Reserve 3 blocks away: effective capacity drops, nothing is
        // evicted until the caller sheds.
        mm.set_pressure(3);
        assert_eq!(mm.pressure_reserved(), 3);
        assert_eq!(mm.effective_capacity(), 5);
        assert_eq!(mm.resident_blocks(), 8);

        let victims = shed(&mut mm);
        assert_eq!(victims.len(), 3, "must shed down to effective capacity");
        assert_eq!(mm.resident_blocks(), 5);
        assert_eq!(mm.emergency_evictions(), 3);
        // LRU sheds the earliest-migrated blocks first.
        assert_eq!(victims, vec![VaBlockId(1), VaBlockId(2), VaBlockId(3)]);

        // New allocations now respect the shrunken capacity.
        if let (ResidencyOutcome::Evicted, v) = ensure(&mut mm, 9, 9)? {
            assert_eq!(v.len(), 1);
        } else {
            panic!("full-at-effective-capacity must evict");
        }
        assert_eq!(mm.resident_blocks(), 5);

        // Pressure lifts: capacity restores, no further shedding needed.
        mm.set_pressure(0);
        assert_eq!(mm.effective_capacity(), 8);
        assert!(shed(&mut mm).is_empty());
        Ok(())
    }

    #[test]
    fn pressure_is_clamped_to_leave_one_block() {
        let mut mm = GpuMemoryManager::new(4);
        mm.set_pressure(100);
        assert_eq!(mm.pressure_reserved(), 3);
        assert_eq!(mm.effective_capacity(), 1);
    }

    #[test]
    fn manager_snapshot_round_trips_with_policy_state() -> Result<(), UvmError> {
        // Serialize a mid-run random-policy manager; the restored copy must
        // continue with the identical victim stream (rng + meta survive).
        let mut mm = GpuMemoryManager::with_policy(3, EvictionPolicyKind::Random, 7);
        for i in 1..=3u64 {
            ensure(&mut mm, i, i)?;
        }
        for i in 4..=9u64 {
            ensure(&mut mm, i, i)?;
        }
        let json = serde_json::to_string(&mm).expect("serialize");
        let mut restored: GpuMemoryManager = serde_json::from_str(&json).expect("deserialize");
        let mut next_live = Vec::new();
        let mut next_restored = Vec::new();
        for i in 10..=20u64 {
            if let (ResidencyOutcome::Evicted, v) = ensure(&mut mm, i, i)? {
                next_live.extend(v);
            }
            if let (ResidencyOutcome::Evicted, v) = ensure(&mut restored, i, i)? {
                next_restored.extend(v);
            }
        }
        assert_eq!(next_live, next_restored);
        Ok(())
    }
}
