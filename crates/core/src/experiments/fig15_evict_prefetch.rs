//! Fig. 15 — dgemm with eviction *and* prefetching: the four panels.
//!
//! The most complex scenario combines every cost source. The paper's four
//! panels show that (a) prefetching stays active throughout, (b) eviction
//! ranges match the non-prefetching runs and concentrate late, (c) CPU
//! unmapping happens on first touches and diminishes once every block has
//! been GPU-touched, and (d) DMA-map creation remains intermittent and
//! occasionally expensive.

use serde::{Deserialize, Serialize};
use uvm_driver::policy::DriverPolicy;

use crate::experiments::suite::{experiment_config, Bench};
use crate::runctl::RunCtx;

/// One batch observation across all four panels.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Fig15Point {
    /// Batch start (s).
    pub t: f64,
    /// Migrated MiB.
    pub mib: f64,
    /// Service time (ms).
    pub ms: f64,
    /// Prefetched pages (panel a).
    pub prefetched: u64,
    /// Evictions (panel b).
    pub evictions: u64,
    /// Unmap time ms (panel c).
    pub unmap_ms: f64,
    /// DMA-setup time ms (panel d).
    pub dma_ms: f64,
}

/// The Fig. 15 dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig15Result {
    /// All batches in time order.
    pub points: Vec<Fig15Point>,
    /// Oversubscription ratio.
    pub oversub_ratio: f64,
    /// Total evictions.
    pub total_evictions: u64,
    /// Total prefetched pages.
    pub total_prefetched: u64,
}

/// Run dgemm oversubscribed with prefetching enabled.
pub fn run(ctx: &RunCtx, seed: u64) -> Fig15Result {
    let bench = Bench::Dgemm;
    let workload = bench.build();
    let mem_mb = bench.oversub_memory_mb();
    let config = experiment_config(mem_mb)
        .with_policy(DriverPolicy::with_prefetch())
        .with_seed(seed);
    let oversub_ratio = workload.footprint_bytes() as f64 / (mem_mb * 1024 * 1024) as f64;
    let result = ctx.run(config, &workload);
    let points: Vec<Fig15Point> = result
        .records
        .iter()
        .map(|r| Fig15Point {
            t: r.start.as_secs_f64(),
            mib: r.bytes_migrated as f64 / (1024.0 * 1024.0),
            ms: r.service_time().as_nanos() as f64 / 1e6,
            prefetched: r.prefetched_pages,
            evictions: r.evictions,
            unmap_ms: r.t_unmap.as_nanos() as f64 / 1e6,
            dma_ms: r.t_dma_setup.as_nanos() as f64 / 1e6,
        })
        .collect();
    Fig15Result {
        oversub_ratio,
        total_evictions: result.evictions,
        total_prefetched: points.iter().map(|p| p.prefetched).sum(),
        points,
    }
}

impl Fig15Result {
    /// Paper-style text rendering.
    pub fn render(&self) -> String {
        let n = self.points.len();
        let span = self.points.last().map(|p| p.t).unwrap_or(0.0);
        format!(
            "Fig. 15 — dgemm with eviction + prefetching ({:.0}% oversubscription)\n\
             batches           {}\n\
             time span         {:.4} s\n\
             total evictions   {}\n\
             prefetched pages  {}",
            self.oversub_ratio * 100.0,
            n,
            span,
            self.total_evictions,
            self.total_prefetched,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_panel_shape_holds() {
        let r = run(&RunCtx::new(1), 1);
        assert!(r.oversub_ratio > 1.05);
        assert!(r.total_evictions > 0);
        assert!(r.total_prefetched > 0, "prefetching stays active");

        let t_end = r.points.last().unwrap().t.max(1e-9);
        // (a) prefetching occurs in both halves of the run.
        let half = t_end / 2.0;
        assert!(r.points.iter().any(|p| p.prefetched > 0 && p.t < half));
        assert!(r.points.iter().any(|p| p.prefetched > 0 && p.t >= half));
        // (b) evictions start only after memory fills (not in the earliest
        // tenth of the run).
        let first_evict = r.points.iter().find(|p| p.evictions > 0).unwrap();
        assert!(first_evict.t > t_end / 10.0, "evictions come later: {:.4}", first_evict.t);
        // (c) CPU unmapping diminishes: more unmap time in the first half
        // than the second (every block is eventually GPU-touched).
        let unmap_first: f64 =
            r.points.iter().filter(|p| p.t < half).map(|p| p.unmap_ms).sum();
        let unmap_second: f64 =
            r.points.iter().filter(|p| p.t >= half).map(|p| p.unmap_ms).sum();
        assert!(
            unmap_first > unmap_second,
            "unmap concentrates early: {:.2} vs {:.2}",
            unmap_first,
            unmap_second
        );
        // (d) DMA setup is intermittent: some batches pay it, most do not.
        let with_dma = r.points.iter().filter(|p| p.dma_ms > 0.0).count();
        assert!(with_dma > 0 && with_dma < r.points.len());
        assert!(r.render().contains("prefetched pages"));
    }
}
