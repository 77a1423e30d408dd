//! Fig. 16 — Gauss-Seidel case study (~16 % oversubscription, prefetching
//! on).
//!
//! The three panels: (a) batch profile with prefetching, (b) batch profile
//! with evictions, and (c) the page-level fault/eviction behaviour showing
//! the indirect allocation → eviction → prefetching relationship: evicting
//! a block creates a freshly paged-in block whose subsequent accesses
//! trigger a robust prefetch response.

use serde::{Deserialize, Serialize};
use uvm_driver::policy::DriverPolicy;

use crate::experiments::suite::{experiment_config, Bench};
use crate::runctl::RunCtx;

/// Per-batch observation for the case-study panels.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CaseStudyPoint {
    /// Batch sequence number (panel c's x axis).
    pub seq: u64,
    /// Batch start (s).
    pub t: f64,
    /// Service time (ms).
    pub ms: f64,
    /// Migrated MiB.
    pub mib: f64,
    /// Prefetched pages.
    pub prefetched: u64,
    /// Evictions.
    pub evictions: u64,
    /// Evicted block ids (page-range visualization).
    pub evicted_blocks: Vec<u64>,
    /// Serviced block ids (first-touch order reconstruction).
    pub served_blocks: Vec<u64>,
}

/// A case-study dataset (shared by Figs. 16 and 17).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CaseStudyResult {
    /// Workload name.
    pub bench: String,
    /// Oversubscription ratio.
    pub oversub_ratio: f64,
    /// All batches.
    pub points: Vec<CaseStudyPoint>,
    /// Total evictions.
    pub total_evictions: u64,
    /// Kernel time (ms).
    pub kernel_ms: f64,
}

/// Shared runner for the case studies.
pub fn run_case_study(ctx: &RunCtx, bench: Bench, oversub_pct: u64, seed: u64) -> CaseStudyResult {
    let workload = bench.build();
    let footprint_mb = workload.footprint_bytes() / (1024 * 1024);
    let mem_mb = (footprint_mb * 100 / oversub_pct).max(4);
    let config = experiment_config(mem_mb)
        .with_policy(DriverPolicy::with_prefetch())
        .with_seed(seed);
    let result = ctx.run(config, &workload);
    CaseStudyResult {
        bench: bench.name().to_string(),
        oversub_ratio: workload.footprint_bytes() as f64 / (mem_mb * 1024 * 1024) as f64,
        total_evictions: result.evictions,
        kernel_ms: result.kernel_time.as_nanos() as f64 / 1e6,
        points: result
            .records
            .iter()
            .map(|r| CaseStudyPoint {
                seq: r.seq,
                t: r.start.as_secs_f64(),
                ms: r.service_time().as_nanos() as f64 / 1e6,
                mib: r.bytes_migrated as f64 / (1024.0 * 1024.0),
                prefetched: r.prefetched_pages,
                evictions: r.evictions,
                evicted_blocks: r.evicted_blocks.clone(),
                served_blocks: r.served_blocks.clone(),
            })
            .collect(),
    }
}

impl CaseStudyResult {
    /// Paper-style text rendering.
    pub fn render(&self) -> String {
        format!(
            "{} case study ({:.0}% oversubscription)\n\
             batches          {}\n\
             kernel           {:.2} ms\n\
             total evictions  {}\n\
             prefetched pages {}",
            self.bench,
            self.oversub_ratio * 100.0,
            self.points.len(),
            self.kernel_ms,
            self.total_evictions,
            self.points.iter().map(|p| p.prefetched).sum::<u64>(),
        )
    }

    /// Terminal time-series: batch time with prefetching and evicting
    /// batches as separate series (the paper's panels a/b).
    pub fn render_plot(&self) -> String {
        let pf: Vec<(f64, f64)> = self
            .points
            .iter()
            .filter(|p| p.prefetched > 0)
            .map(|p| (p.t, p.ms))
            .collect();
        let ev: Vec<(f64, f64)> = self
            .points
            .iter()
            .filter(|p| p.evictions > 0)
            .map(|p| (p.t, p.ms))
            .collect();
        let rest: Vec<(f64, f64)> = self
            .points
            .iter()
            .filter(|p| p.prefetched == 0 && p.evictions == 0)
            .map(|p| (p.t, p.ms))
            .collect();
        uvm_stats::ScatterPlot::new(
            &format!("{} — batch time series", self.bench),
            "time (s)",
            "ms",
        )
        .log_y()
        .series("plain", rest)
        .series("prefetching", pf)
        .series("evicting", ev)
        .render()
    }

    /// Batches where an eviction occurs within `window` batches *before* a
    /// prefetch burst — the paper's eviction-precedes-prefetch coincidence.
    pub fn evictions_preceding_prefetch(&self, window: u64) -> usize {
        self.points
            .iter()
            .filter(|p| p.evictions > 0)
            .filter(|e| {
                self.points
                    .iter()
                    .any(|p| p.seq > e.seq && p.seq <= e.seq + window && p.prefetched > 0)
            })
            .count()
    }
}

/// Run the Gauss-Seidel case study at ~16 % oversubscription.
pub fn run(ctx: &RunCtx, seed: u64) -> CaseStudyResult {
    run_case_study(ctx, Bench::GaussSeidel, 116, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_and_prefetch_interleave() {
        let r = run(&RunCtx::new(1), 1);
        assert!(r.oversub_ratio > 1.1 && r.oversub_ratio < 1.25, "{}", r.oversub_ratio);
        assert!(r.total_evictions > 0);
        let evicting = r.points.iter().filter(|p| p.evictions > 0).count();
        assert!(evicting > 0);
        // Eviction creates prefetching opportunities: a meaningful share of
        // evicting batches is followed shortly by a prefetch burst, and
        // prefetching stays active in the eviction-heavy phase.
        let followed = r.evictions_preceding_prefetch(10);
        assert!(
            followed * 10 >= evicting,
            "evictions should precede prefetch bursts: {}/{}",
            followed,
            evicting
        );
        let first_evict_seq = r.points.iter().find(|p| p.evictions > 0).unwrap().seq;
        let prefetch_after_evictions: u64 = r
            .points
            .iter()
            .filter(|p| p.seq > first_evict_seq)
            .map(|p| p.prefetched)
            .sum();
        assert!(prefetch_after_evictions > 0, "prefetching continues amid evictions");
        assert!(r.render().contains("oversubscription"));
    }
}
