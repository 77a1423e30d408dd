//! Fig. 14 — sgemm with prefetching: far fewer batches, DMA-setup
//! outliers.
//!
//! The tree-based density prefetcher collapses the mid-range batch
//! population (the paper reports a 93 % batch-count reduction for sgemm)
//! by migrating up to a full VABlock per fault burst. What remains are the
//! compulsory costs prefetching cannot remove: first-touch DMA-map
//! creation whose radix-tree storage makes some batches spend most of
//! their time in VABlock state initialization (up to 64 % in the paper).

use serde::{Deserialize, Serialize};
use uvm_driver::policy::DriverPolicy;

use crate::experiments::suite::{experiment_config, Bench};
use crate::runctl::RunCtx;

/// The Fig. 14 dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig14Result {
    /// Batches without prefetching (the Fig. 7 baseline).
    pub batches_baseline: u64,
    /// Batches with prefetching.
    pub batches_prefetch: u64,
    /// Relative reduction in batch count.
    pub reduction: f64,
    /// Pages added by the prefetcher.
    pub prefetched_pages: u64,
    /// `(migrated MiB, ms, dma fraction)` per prefetching batch.
    pub points: Vec<(f64, f64, f64)>,
    /// Maximum per-batch DMA-setup fraction.
    pub max_dma_fraction: f64,
    /// Kernel time without prefetching (ms).
    pub kernel_ms_baseline: f64,
    /// Kernel time with prefetching (ms).
    pub kernel_ms_prefetch: f64,
}

/// Run sgemm with and without prefetching.
pub fn run(ctx: &RunCtx, seed: u64) -> Fig14Result {
    let baseline = ctx.run(experiment_config(768).with_seed(seed), &Bench::Sgemm.build());
    let pf_config = experiment_config(768)
        .with_policy(DriverPolicy::with_prefetch())
        .with_seed(seed);
    let prefetch = ctx.run(pf_config, &Bench::Sgemm.build());

    let points: Vec<(f64, f64, f64)> = prefetch
        .records
        .iter()
        .map(|r| {
            (
                r.bytes_migrated as f64 / (1024.0 * 1024.0),
                r.service_time().as_nanos() as f64 / 1e6,
                r.dma_fraction(),
            )
        })
        .collect();
    Fig14Result {
        batches_baseline: baseline.num_batches,
        batches_prefetch: prefetch.num_batches,
        reduction: 1.0 - prefetch.num_batches as f64 / baseline.num_batches.max(1) as f64,
        prefetched_pages: prefetch.records.iter().map(|r| r.prefetched_pages).sum(),
        max_dma_fraction: points.iter().map(|&(_, _, d)| d).fold(0.0, f64::max),
        kernel_ms_baseline: baseline.kernel_time.as_nanos() as f64 / 1e6,
        kernel_ms_prefetch: prefetch.kernel_time.as_nanos() as f64 / 1e6,
        points,
    }
}

impl Fig14Result {
    /// Paper-style text rendering.
    pub fn render(&self) -> String {
        format!(
            "Fig. 14 — sgemm batch profile with prefetching\n\
             batches, no prefetch   {}\n\
             batches, prefetch      {}  ({:.0}% reduction)\n\
             prefetched pages       {}\n\
             max DMA-setup share    {:.0}%\n\
             kernel, no prefetch    {:.2} ms\n\
             kernel, prefetch       {:.2} ms",
            self.batches_baseline,
            self.batches_prefetch,
            self.reduction * 100.0,
            self.prefetched_pages,
            self.max_dma_fraction * 100.0,
            self.kernel_ms_baseline,
            self.kernel_ms_prefetch,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_collapses_batches_and_exposes_dma_outliers() {
        let r = run(&RunCtx::new(1), 1);
        assert!(
            r.reduction >= 0.70,
            "prefetch should eliminate most batches (paper: 93%), got {:.0}%",
            r.reduction * 100.0
        );
        assert!(r.prefetched_pages > 1000);
        assert!(
            r.max_dma_fraction >= 0.25,
            "DMA-setup outlier batches should dominate their time, got {:.2}",
            r.max_dma_fraction
        );
        assert!(
            r.kernel_ms_prefetch < r.kernel_ms_baseline,
            "prefetching speeds up sgemm"
        );
        assert!(r.render().contains("reduction"));
    }
}
