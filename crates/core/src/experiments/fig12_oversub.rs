//! Fig. 12 — sgemm under oversubscription and eviction.
//!
//! With the problem exceeding device memory, batches divide into a
//! non-evicting population (before memory fills, or hitting resident
//! blocks) and an evicting one that pays failed allocation + writeback +
//! restart on top of normal servicing — visibly costlier at the same
//! migration size.

use serde::{Deserialize, Serialize};

use crate::experiments::suite::{experiment_config, Bench};
use crate::runctl::RunCtx;

/// One batch observation.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Fig12Point {
    /// Batch start (s).
    pub t: f64,
    /// Migrated MiB.
    pub mib: f64,
    /// Service time (ms).
    pub ms: f64,
    /// Evictions performed by this batch.
    pub evictions: u64,
}

/// The Fig. 12 dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig12Result {
    /// All batches.
    pub points: Vec<Fig12Point>,
    /// Total evictions.
    pub total_evictions: u64,
    /// Oversubscription ratio (footprint / device memory).
    pub oversub_ratio: f64,
    /// Mean ms of non-evicting batches.
    pub mean_ms_no_evict: f64,
    /// Mean ms of evicting batches.
    pub mean_ms_evict: f64,
}

/// Run sgemm oversubscribed (~125 % of device memory).
pub fn run(ctx: &RunCtx, seed: u64) -> Fig12Result {
    let bench = Bench::Sgemm;
    let workload = bench.build();
    let mem_mb = bench.oversub_memory_mb();
    let config = experiment_config(mem_mb).with_seed(seed);
    let oversub_ratio = workload.footprint_bytes() as f64 / (mem_mb * 1024 * 1024) as f64;
    let result = ctx.run(config, &workload);
    let points: Vec<Fig12Point> = result
        .records
        .iter()
        .map(|r| Fig12Point {
            t: r.start.as_secs_f64(),
            mib: r.bytes_migrated as f64 / (1024.0 * 1024.0),
            ms: r.service_time().as_nanos() as f64 / 1e6,
            evictions: r.evictions,
        })
        .collect();
    let mean = |pred: &dyn Fn(&Fig12Point) -> bool| {
        let sel: Vec<f64> = points.iter().filter(|p| pred(p)).map(|p| p.ms).collect();
        if sel.is_empty() { 0.0 } else { sel.iter().sum::<f64>() / sel.len() as f64 }
    };
    Fig12Result {
        total_evictions: result.evictions,
        oversub_ratio,
        mean_ms_no_evict: mean(&|p| p.evictions == 0),
        mean_ms_evict: mean(&|p| p.evictions > 0),
        points,
    }
}

impl Fig12Result {
    /// Paper-style text rendering.
    pub fn render(&self) -> String {
        format!(
            "Fig. 12 — sgemm under oversubscription ({:.0}% of memory)\n\
             batches                {}\n\
             total evictions        {}\n\
             mean batch, no evict   {:.3} ms\n\
             mean batch, evicting   {:.3} ms",
            self.oversub_ratio * 100.0,
            self.points.len(),
            self.total_evictions,
            self.mean_ms_no_evict,
            self.mean_ms_evict,
        )
    }
}

impl Fig12Result {
    /// Terminal scatter: batch time vs migrated size, evicting batches as
    /// a separate series (the paper's coloring).
    pub fn render_plot(&self) -> String {
        let clean: Vec<(f64, f64)> = self
            .points
            .iter()
            .filter(|p| p.evictions == 0)
            .map(|p| (p.mib, p.ms))
            .collect();
        let evicting: Vec<(f64, f64)> = self
            .points
            .iter()
            .filter(|p| p.evictions > 0)
            .map(|p| (p.mib, p.ms))
            .collect();
        uvm_stats::ScatterPlot::new(
            "Fig. 12 — sgemm under oversubscription",
            "MiB migrated",
            "ms",
        )
        .log_y()
        .series("no eviction", clean)
        .series("evicting", evicting)
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicting_batches_cost_more() {
        let r = run(&RunCtx::new(1), 1);
        assert!(r.oversub_ratio > 1.05, "workload oversubscribes: {:.2}", r.oversub_ratio);
        assert!(r.total_evictions > 0);
        // Many batches execute before memory fills, without evictions.
        let no_evict = r.points.iter().filter(|p| p.evictions == 0).count();
        let evict = r.points.iter().filter(|p| p.evictions > 0).count();
        assert!(no_evict > 0 && evict > 0);
        assert!(
            r.mean_ms_evict > r.mean_ms_no_evict,
            "evicting {:.3}ms <= clean {:.3}ms",
            r.mean_ms_evict,
            r.mean_ms_no_evict
        );
        // Evictions start only after memory has filled.
        let first_evict_t = r
            .points
            .iter()
            .find(|p| p.evictions > 0)
            .map(|p| p.t)
            .unwrap();
        assert!(first_evict_t > r.points[0].t);
        assert!(r.render().contains("evictions"));
    }
}
