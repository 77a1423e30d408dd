//! Fig. 13 — stream under oversubscription: eviction cost "levels".
//!
//! Batches with the *same* eviction count split into distinct cost levels.
//! The mechanism: a VABlock's first migration pays the CPU
//! `unmap_mapping_range()` cost, but an evicted block is *not* re-mapped
//! on the CPU — so when it is paged back in later (stream iterates the
//! triad), the unmap cost vanishes, creating a lower level whose
//! unmapping-range time is near zero.

use serde::{Deserialize, Serialize};
use uvm_workloads::cpu_init::CpuInitPolicy;
use uvm_workloads::stream::{self, StreamParams};

use crate::experiments::suite::experiment_config;
use crate::runctl::RunCtx;

/// One evicting-batch observation.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Fig13Point {
    /// Evictions in this batch.
    pub evictions: u64,
    /// Service time (ms).
    pub ms: f64,
    /// Time spent in `unmap_mapping_range` (ms).
    pub unmap_ms: f64,
}

/// The Fig. 13 dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig13Result {
    /// Evicting batches only.
    pub points: Vec<Fig13Point>,
    /// Of those, batches paying the CPU-unmap cost (the upper level).
    pub with_unmap: usize,
    /// Batches with near-zero unmap cost (the lower level — re-migrations
    /// of previously evicted blocks).
    pub without_unmap: usize,
    /// Mean ms of the upper level.
    pub mean_ms_with_unmap: f64,
    /// Mean ms of the lower level.
    pub mean_ms_without_unmap: f64,
}

/// Run the iterated stream triad oversubscribed.
pub fn run(ctx: &RunCtx, seed: u64) -> Fig13Result {
    // More warps than the GPU's occupancy (5120 resident): the grid drains
    // in waves, so new VABlocks are first-touched *throughout* the run —
    // first-touch unmap and eviction coincide, as they do at the paper's
    // GB scale. Two iterations re-touch evicted blocks. Memory at ~80% of
    // the footprint.
    let workload = stream::build(StreamParams {
        warps: 7680,
        pages_per_warp: 1,
        iters: 2,
        warps_per_page: 1,
        cpu_init: Some(CpuInitPolicy::SingleThread),
    });
    let mem_mb = workload.footprint_bytes() * 4 / 5 / (1024 * 1024);
    let config = experiment_config(mem_mb).with_seed(seed);
    let result = ctx.run(config, &workload);

    let points: Vec<Fig13Point> = result
        .records
        .iter()
        .filter(|r| r.evictions > 0)
        .map(|r| Fig13Point {
            evictions: r.evictions,
            ms: r.service_time().as_nanos() as f64 / 1e6,
            unmap_ms: r.t_unmap.as_nanos() as f64 / 1e6,
        })
        .collect();
    let (upper, lower): (Vec<&Fig13Point>, Vec<&Fig13Point>) =
        points.iter().partition(|p| p.unmap_ms > 0.01);
    let mean = |ps: &[&Fig13Point]| {
        if ps.is_empty() { 0.0 } else { ps.iter().map(|p| p.ms).sum::<f64>() / ps.len() as f64 }
    };
    Fig13Result {
        with_unmap: upper.len(),
        without_unmap: lower.len(),
        mean_ms_with_unmap: mean(&upper),
        mean_ms_without_unmap: mean(&lower),
        points,
    }
}

impl Fig13Result {
    /// Paper-style text rendering.
    pub fn render(&self) -> String {
        format!(
            "Fig. 13 — stream oversubscription cost levels\n\
             evicting batches            {}\n\
             upper level (pays unmap)    {} batches, mean {:.3} ms\n\
             lower level (no unmap)      {} batches, mean {:.3} ms",
            self.points.len(),
            self.with_unmap,
            self.mean_ms_with_unmap,
            self.without_unmap,
            self.mean_ms_without_unmap,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_batches_form_two_cost_levels() {
        let r = run(&RunCtx::new(1), 1);
        assert!(!r.points.is_empty(), "oversubscribed stream must evict");
        assert!(r.with_unmap > 0, "first-touch migrations pay unmap");
        assert!(
            r.without_unmap > 0,
            "re-migrations of evicted blocks skip unmap (the lower level)"
        );
        assert!(
            r.mean_ms_with_unmap > r.mean_ms_without_unmap,
            "upper {:.3}ms must exceed lower {:.3}ms",
            r.mean_ms_with_unmap,
            r.mean_ms_without_unmap
        );
        assert!(r.render().contains("lower level"));
    }
}
