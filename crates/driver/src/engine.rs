//! The pluggable policy engine: prefetch and eviction strategies selected
//! by plain serde enums.
//!
//! The paper analyzes one hard-wired policy stack — the tree-based density
//! prefetcher (Sec. 5.2) and migration-order LRU eviction (Sec. 5.1) — but
//! frames both as points in a design space (UVMBench and the
//! DL-prefetching line of work explore it). This module names each point
//! as an enum variant and dispatches with a `match`, so a policy study is
//! a [`crate::policy::DriverPolicy`] change instead of a driver change:
//!
//! * [`PrefetchPolicyKind`] — expands a block's faulted set before
//!   migration ([`run_prefetch_policy`]): `None`, `TreeDensity` (stock),
//!   `SequentialStride`, and `Oracle` (reads the workload's future access
//!   list — the upper bound no reactive policy can beat).
//! * [`EvictionPolicyKind`] — picks the victim block when device memory is
//!   full ([`EvictionPolicyKind::select`]): `Lru` (stock migration-order
//!   LRU), `Random`, and `Lfu` (fewest migrations first).
//!
//! ## Determinism and snapshot contract
//!
//! Policies are stateless: every input they may consult arrives through
//! [`PrefetchContext`] / the candidate slice, and all mutable policy state
//! lives in the serialized driver — the oracle's future-access table on
//! [`crate::service::UvmDriver`], the LFU touch counters and the random
//! evictor's [`DetRng`] on [`crate::evict::GpuMemoryManager`]. A snapshot
//! therefore captures every bit a policy depends on, and a restored run
//! continues bit-identically under any policy stack, not just the stock
//! one. Eviction candidates are handed to the policy sorted by block id,
//! so no `HashMap` iteration order can leak into victim selection.

use serde::{Deserialize, Serialize};
use uvm_sim::mem::VaBlockId;
use uvm_sim::rng::DetRng;

use crate::bitmap::PageBitmap;
use crate::prefetch::compute_prefetch;

/// Serde-configurable prefetcher selection (the
/// [`crate::policy::DriverPolicy::prefetch_policy`] knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PrefetchPolicyKind {
    /// No expansion: migrate exactly the faulted pages.
    None,
    /// The stock tree-based density prefetcher
    /// ([`crate::prefetch::compute_prefetch`]).
    #[default]
    TreeDensity,
    /// Prefetch the next `stride_pages` pages after the highest faulted
    /// page (a classic next-line/stream prefetcher at page granularity).
    SequentialStride,
    /// Perfect knowledge: prefetch every page of the block the workload
    /// will ever touch. An upper bound, not implementable in a real
    /// driver.
    Oracle,
}

impl PrefetchPolicyKind {
    /// Every prefetcher, in sweep order.
    pub const ALL: [PrefetchPolicyKind; 4] = [
        PrefetchPolicyKind::None,
        PrefetchPolicyKind::TreeDensity,
        PrefetchPolicyKind::SequentialStride,
        PrefetchPolicyKind::Oracle,
    ];

    /// Stable lower-case name (sweep tables, trace events).
    pub fn name(self) -> &'static str {
        match self {
            PrefetchPolicyKind::None => "none",
            PrefetchPolicyKind::TreeDensity => "tree",
            PrefetchPolicyKind::SequentialStride => "stride",
            PrefetchPolicyKind::Oracle => "oracle",
        }
    }

    /// The *additional* pages this policy would migrate, before the
    /// engine's mask ([`run_prefetch_policy`]) is applied.
    fn compute(self, ctx: &PrefetchContext<'_>) -> PageBitmap {
        match self {
            PrefetchPolicyKind::None => PageBitmap::EMPTY,
            PrefetchPolicyKind::TreeDensity => {
                compute_prefetch(ctx.resident, ctx.faulted, ctx.valid_pages, ctx.threshold)
            }
            // Next-line prefetch: the `stride_pages` pages after the
            // highest faulted page.
            PrefetchPolicyKind::SequentialStride => {
                let Some(last) = ctx.faulted.iter_set().max() else {
                    return PageBitmap::EMPTY;
                };
                let lo = last + 1;
                let hi = (lo + ctx.stride_pages as usize).min(ctx.valid_pages as usize);
                let mut p = PageBitmap::EMPTY;
                if lo < hi {
                    p.set_range(lo, hi);
                }
                p
            }
            // No table installed (e.g. a raw `service_batch_with` call
            // outside a full-system run): degrade to no expansion.
            PrefetchPolicyKind::Oracle => ctx.future.copied().unwrap_or(PageBitmap::EMPTY),
        }
    }
}

/// Serde-configurable evictor selection (the
/// [`crate::policy::DriverPolicy::eviction_policy`] knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum EvictionPolicyKind {
    /// Stock migration-order LRU: least-recently-*migrated* block first
    /// (the driver never sees GPU-side hits — Sec. 5.4's "effectively
    /// earliest allocated").
    #[default]
    Lru,
    /// Uniform random victim from the resident set.
    Random,
    /// Least-frequently-migrated block first (migration count, ties by
    /// LRU key then block id).
    Lfu,
}

impl EvictionPolicyKind {
    /// Every evictor, in sweep order.
    pub const ALL: [EvictionPolicyKind; 3] = [
        EvictionPolicyKind::Lru,
        EvictionPolicyKind::Random,
        EvictionPolicyKind::Lfu,
    ];

    /// Stable lower-case name (sweep tables, trace events).
    pub fn name(self) -> &'static str {
        match self {
            EvictionPolicyKind::Lru => "lru",
            EvictionPolicyKind::Random => "random",
            EvictionPolicyKind::Lfu => "lfu",
        }
    }

    /// Index into `candidates` of the victim. `candidates` is non-empty
    /// and sorted by block id ascending (a deterministic order independent
    /// of map internals); `rng` is the memory manager's serialized stream,
    /// so the random policy survives snapshot/restore bit-identically.
    pub fn select(self, candidates: &[VictimCandidate], rng: &mut DetRng) -> usize {
        match self {
            // Ties broken by block id.
            EvictionPolicyKind::Lru => argmin(candidates, |c| (c.last_migrate, c.block.0)),
            EvictionPolicyKind::Random => rng.below(candidates.len() as u64) as usize,
            // Ties by LRU key, then block id.
            EvictionPolicyKind::Lfu => {
                argmin(candidates, |c| (c.touches, c.last_migrate, c.block.0))
            }
        }
    }
}

/// Index of the first candidate with the smallest `key`.
fn argmin<K: Ord>(candidates: &[VictimCandidate], key: impl Fn(&VictimCandidate) -> K) -> usize {
    candidates
        .iter()
        .enumerate()
        .min_by_key(|(_, c)| key(c))
        .map_or(0, |(i, _)| i)
}

/// Everything a prefetcher may consult for one VABlock of one batch.
#[derive(Debug)]
pub struct PrefetchContext<'a> {
    /// Pages already GPU-resident in this block.
    pub resident: &'a PageBitmap,
    /// Faulted, non-resident pages the current batch migrates.
    pub faulted: &'a PageBitmap,
    /// Usable pages in the block (partial final blocks prefetch only
    /// within their valid range).
    pub valid_pages: u32,
    /// Density threshold for [`PrefetchPolicyKind::TreeDensity`].
    pub threshold: f64,
    /// Expansion depth for [`PrefetchPolicyKind::SequentialStride`].
    pub stride_pages: u32,
    /// This block's future access list (pages the workload will touch),
    /// when the driver has one installed — consumed by
    /// [`PrefetchPolicyKind::Oracle`].
    pub future: Option<&'a PageBitmap>,
}

/// Dispatch one prefetch decision through `kind`, enforcing the engine
/// contract on the result: never a resident/faulted page, never beyond
/// `valid_pages`. The stock tree policy already satisfies both, so stock
/// outputs are bit-identical to the pre-engine driver.
pub fn run_prefetch_policy(kind: PrefetchPolicyKind, ctx: &PrefetchContext<'_>) -> PageBitmap {
    let raw = kind.compute(ctx);
    if raw.is_empty() {
        return raw;
    }
    let mut valid = PageBitmap::EMPTY;
    valid.set_range(0, ctx.valid_pages as usize);
    raw.and(&valid).and_not(&ctx.resident.or(ctx.faulted))
}

/// One eviction candidate: a resident block and its bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VictimCandidate {
    /// The resident block.
    pub block: VaBlockId,
    /// Migration sequence number of the last batch that touched it (the
    /// LRU key).
    pub last_migrate: u64,
    /// How many batches have migrated pages into it (the LFU key).
    pub touches: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bm(pages: impl IntoIterator<Item = usize>) -> PageBitmap {
        pages.into_iter().collect()
    }

    fn ctx<'a>(
        resident: &'a PageBitmap,
        faulted: &'a PageBitmap,
        future: Option<&'a PageBitmap>,
    ) -> PrefetchContext<'a> {
        PrefetchContext {
            resident,
            faulted,
            valid_pages: 512,
            threshold: 0.5,
            stride_pages: 16,
            future,
        }
    }

    #[test]
    fn policy_kinds_name_in_sweep_order() {
        let names: Vec<_> = PrefetchPolicyKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, ["none", "tree", "stride", "oracle"]);
        let names: Vec<_> = EvictionPolicyKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, ["lru", "random", "lfu"]);
    }

    #[test]
    fn kinds_round_trip_through_serde_and_name_their_policies() {
        for k in PrefetchPolicyKind::ALL {
            let json = serde_json::to_string(&k).expect("serialize");
            let back: PrefetchPolicyKind = serde_json::from_str(&json).expect("round trip");
            assert_eq!(back, k);
        }
        for k in EvictionPolicyKind::ALL {
            let json = serde_json::to_string(&k).expect("serialize");
            let back: EvictionPolicyKind = serde_json::from_str(&json).expect("round trip");
            assert_eq!(back, k);
        }
        assert_eq!(PrefetchPolicyKind::default(), PrefetchPolicyKind::TreeDensity);
        assert_eq!(EvictionPolicyKind::default(), EvictionPolicyKind::Lru);
    }

    #[test]
    fn none_prefetches_nothing() {
        let faulted = bm(0..100);
        let p = run_prefetch_policy(PrefetchPolicyKind::None, &ctx(&PageBitmap::EMPTY, &faulted, None));
        assert!(p.is_empty());
    }

    #[test]
    fn tree_kind_matches_direct_compute_prefetch() {
        let resident = bm(0..200);
        let faulted = bm(200..300);
        let via_engine =
            run_prefetch_policy(PrefetchPolicyKind::TreeDensity, &ctx(&resident, &faulted, None));
        let direct = compute_prefetch(&resident, &faulted, 512, 0.5);
        assert_eq!(via_engine, direct, "engine dispatch must not perturb the stock policy");
    }

    #[test]
    fn stride_prefetches_next_pages_only() {
        let faulted = bm([10usize, 40]);
        let p = run_prefetch_policy(
            PrefetchPolicyKind::SequentialStride,
            &ctx(&PageBitmap::EMPTY, &faulted, None),
        );
        assert_eq!(p.iter_set().collect::<Vec<_>>(), (41..57).collect::<Vec<_>>());
    }

    #[test]
    fn stride_respects_valid_range_and_occupancy() {
        let resident = bm([505usize]);
        let faulted = bm([500usize]);
        let mut c = ctx(&resident, &faulted, None);
        c.valid_pages = 508;
        let p = run_prefetch_policy(PrefetchPolicyKind::SequentialStride, &c);
        // 501..508 minus the resident page 505.
        assert_eq!(p.iter_set().collect::<Vec<_>>(), vec![501, 502, 503, 504, 506, 507]);
    }

    #[test]
    fn oracle_prefetches_future_minus_occupied() {
        let resident = bm(0..8);
        let faulted = bm(8..16);
        let future = bm(0..64);
        let p = run_prefetch_policy(
            PrefetchPolicyKind::Oracle,
            &ctx(&resident, &faulted, Some(&future)),
        );
        assert_eq!(p.iter_set().collect::<Vec<_>>(), (16..64).collect::<Vec<_>>());
        // Without a table the oracle degrades to no expansion.
        let p = run_prefetch_policy(PrefetchPolicyKind::Oracle, &ctx(&resident, &faulted, None));
        assert!(p.is_empty());
    }

    #[test]
    fn engine_masks_a_misbehaving_policy() {
        // A policy returning FULL must still come back clipped to the
        // valid range minus occupied pages.
        let resident = bm(0..8);
        let faulted = bm(8..16);
        let future = PageBitmap::FULL;
        let mut c = ctx(&resident, &faulted, Some(&future));
        c.valid_pages = 100;
        let p = run_prefetch_policy(PrefetchPolicyKind::Oracle, &c);
        assert_eq!(p.iter_set().collect::<Vec<_>>(), (16..100).collect::<Vec<_>>());
    }

    fn cands() -> Vec<VictimCandidate> {
        vec![
            VictimCandidate { block: VaBlockId(1), last_migrate: 9, touches: 4 },
            VictimCandidate { block: VaBlockId(2), last_migrate: 3, touches: 7 },
            VictimCandidate { block: VaBlockId(3), last_migrate: 5, touches: 1 },
        ]
    }

    #[test]
    fn lru_picks_oldest_migration() {
        let mut rng = DetRng::new(0);
        assert_eq!(EvictionPolicyKind::Lru.select(&cands(), &mut rng), 1);
    }

    #[test]
    fn lfu_picks_fewest_touches() {
        let mut rng = DetRng::new(0);
        assert_eq!(EvictionPolicyKind::Lfu.select(&cands(), &mut rng), 2);
    }

    #[test]
    fn random_is_deterministic_per_stream() {
        let c = cands();
        let picks_a: Vec<usize> = {
            let mut rng = DetRng::new(7);
            (0..16)
                .map(|_| EvictionPolicyKind::Random.select(&c, &mut rng))
                .collect()
        };
        let picks_b: Vec<usize> = {
            let mut rng = DetRng::new(7);
            (0..16)
                .map(|_| EvictionPolicyKind::Random.select(&c, &mut rng))
                .collect()
        };
        assert_eq!(picks_a, picks_b);
        assert!(picks_a.iter().all(|&i| i < c.len()));
        // The stream actually varies its picks.
        let distinct: std::collections::HashSet<_> = picks_a.iter().collect();
        assert!(distinct.len() > 1, "16 draws over 3 candidates should vary: {picks_a:?}");
    }
}
