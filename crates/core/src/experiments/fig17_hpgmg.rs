//! Fig. 17 — HPGMG case study (~25 % oversubscription, prefetching on).
//!
//! Beyond the eviction/prefetch interplay shared with Fig. 16, panel (c)
//! exposes the LRU policy: because the driver only observes *migrations*
//! (never GPU-side hits), "least recently used" degenerates to earliest
//! allocated — the first large eviction wave targets the first-allocated
//! blocks (the fine multigrid level), which the V-cycle is about to need
//! again.

use serde::{Deserialize, Serialize};

use crate::experiments::suite::Bench;
use crate::experiments::fig16_gauss_seidel::{run_case_study, CaseStudyResult};
use crate::runctl::RunCtx;

/// The Fig. 17 dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig17Result {
    /// The case-study panels.
    pub case: CaseStudyResult,
    /// Block ids of the first eviction wave (first quarter of evictions).
    pub first_wave_blocks: Vec<u64>,
    /// Blocks in first-GPU-touch (= first-migration) order.
    pub first_touch_order: Vec<u64>,
}

/// Run the HPGMG case study at ~25 % oversubscription.
pub fn run(ctx: &RunCtx, seed: u64) -> Fig17Result {
    let case = run_case_study(ctx, Bench::Hpgmg, 125, seed);
    let all_evicted: Vec<u64> = case
        .points
        .iter()
        .flat_map(|p| p.evicted_blocks.iter().copied())
        .collect();
    let first_wave: Vec<u64> =
        all_evicted.iter().take((all_evicted.len() / 4).max(1)).copied().collect();
    // Reconstruct first-touch order from the per-batch served blocks.
    let mut seen = std::collections::HashSet::new();
    let mut first_touch_order = Vec::new();
    for p in &case.points {
        for &b in &p.served_blocks {
            if seen.insert(b) {
                first_touch_order.push(b);
            }
        }
    }
    Fig17Result {
        case,
        first_wave_blocks: first_wave,
        first_touch_order,
    }
}

impl Fig17Result {
    /// Mean rank (in first-touch order) of the first eviction wave,
    /// normalized to [0, 1]: values near 0 mean the earliest-allocated
    /// blocks are evicted first.
    pub fn first_wave_mean_rank(&self) -> f64 {
        if self.first_wave_blocks.is_empty() || self.first_touch_order.is_empty() {
            return 0.0;
        }
        let rank_of = |b: u64| {
            self.first_touch_order.iter().position(|&x| x == b).unwrap_or(0) as f64
                / self.first_touch_order.len() as f64
        };
        self.first_wave_blocks.iter().map(|&b| rank_of(b)).sum::<f64>()
            / self.first_wave_blocks.len() as f64
    }

    /// Paper-style text rendering.
    pub fn render(&self) -> String {
        format!(
            "{}\nfirst eviction wave mean first-touch rank {:.2} (0 = earliest allocated)",
            self.case.render(),
            self.first_wave_mean_rank(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_earliest_allocated_first() {
        let r = run(&RunCtx::new(1), 1);
        assert!(r.case.total_evictions > 0);
        // The first eviction wave targets the earliest-allocated blocks:
        // its mean first-touch rank sits in the early part of the order.
        let rank = r.first_wave_mean_rank();
        assert!(
            rank < 0.5,
            "first eviction wave should target early allocations, mean rank {rank:.2}"
        );
        // Eviction/prefetch interplay holds here too.
        let evicting = r.case.points.iter().filter(|p| p.evictions > 0).count();
        let followed = r.case.evictions_preceding_prefetch(10);
        assert!(followed * 10 >= evicting, "{followed}/{evicting}");
        assert!(r.render().contains("first eviction wave"));
    }
}
