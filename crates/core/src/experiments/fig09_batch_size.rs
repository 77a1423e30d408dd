//! Fig. 9 — the batch-size-limit sweep (sgemm).
//!
//! Larger batch limits admit more duplicates per batch but need fewer
//! batches overall, and the per-batch overhead dominates the duplicate
//! cost: performance improves with batch size, with diminishing returns
//! beyond ~1024 (the supply of unique faults per service window runs out
//! long before the 6144 hardware maximum).

use serde::{Deserialize, Serialize};
use uvm_driver::policy::DriverPolicy;

use crate::experiments::suite::{experiment_config, Bench};
use crate::runctl::RunCtx;

/// One point of the sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig9Point {
    /// Batch size limit.
    pub batch_limit: usize,
    /// Kernel time (ms).
    pub kernel_ms: f64,
    /// Total batch service time (ms).
    pub batch_ms: f64,
    /// Number of batches.
    pub num_batches: u64,
    /// Mean raw batch size.
    pub mean_batch_size: f64,
    /// Mean *unique* faults per batch.
    pub mean_unique_per_batch: f64,
    /// Duplicate fraction of all fetched faults.
    pub dup_rate: f64,
}

/// The Fig. 9 dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig9Result {
    /// Sweep points in increasing batch-limit order.
    pub points: Vec<Fig9Point>,
}

/// Run the batch-size sweep.
pub fn run(ctx: &RunCtx, seed: u64) -> Fig9Result {
    run_limits(ctx, seed, &[64, 256, 512, 1024, 2048])
}

/// Run the sweep over explicit limits. The per-limit sims are independent
/// (each constructs its own seeded system), so the grid fans out across
/// the configured worker pool; points stay in `limits` order.
pub fn run_limits(ctx: &RunCtx, seed: u64, limits: &[usize]) -> Fig9Result {
    let points = ctx.map(limits.to_vec(), |ctx, limit| {
            let config = experiment_config(768)
                .with_policy(DriverPolicy::default().batch_limit(limit))
                .with_seed(seed);
            let result = ctx.run(config, &Bench::Sgemm.build());
            let raw: u64 = result.records.iter().map(|r| r.raw_faults).sum();
            let unique: u64 = result.records.iter().map(|r| r.unique_pages).sum();
            Fig9Point {
                batch_limit: limit,
                kernel_ms: result.kernel_time.as_nanos() as f64 / 1e6,
                batch_ms: result.total_batch_time.as_nanos() as f64 / 1e6,
                num_batches: result.num_batches,
                mean_batch_size: result.mean_batch_size(),
                mean_unique_per_batch: unique as f64 / result.num_batches.max(1) as f64,
                dup_rate: 1.0 - unique as f64 / raw.max(1) as f64,
            }
        });
    Fig9Result { points }
}

impl Fig9Result {
    /// Paper-style text rendering.
    pub fn render(&self) -> String {
        let mut t = uvm_stats::Table::new(vec![
            "Batch limit",
            "Kernel (ms)",
            "Batches",
            "Mean size",
            "Mean unique",
            "Dup rate",
        ]);
        for p in &self.points {
            t.row(vec![
                p.batch_limit.to_string(),
                format!("{:.2}", p.kernel_ms),
                p.num_batches.to_string(),
                format!("{:.1}", p.mean_batch_size),
                format!("{:.1}", p.mean_unique_per_batch),
                format!("{:.1}%", p.dup_rate * 100.0),
            ]);
        }
        format!("Fig. 9 — batch-size-limit sweep (sgemm)\n{}", t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn larger_batches_win_with_diminishing_returns() {
        let r = run(&RunCtx::new(1), 1);
        let by_limit = |l: usize| r.points.iter().find(|p| p.batch_limit == l).unwrap();
        let b64 = by_limit(64);
        let b256 = by_limit(256);
        let b1024 = by_limit(1024);
        let b2048 = by_limit(2048);

        // Strong correlation between batch size and performance.
        assert!(
            b256.kernel_ms < b64.kernel_ms,
            "256 ({:.2}ms) beats 64 ({:.2}ms)",
            b256.kernel_ms,
            b64.kernel_ms
        );
        assert!(
            b1024.kernel_ms < b256.kernel_ms * 1.02,
            "1024 at least matches 256"
        );
        // Diminishing returns past 1024.
        let delta = (b2048.kernel_ms - b1024.kernel_ms).abs() / b1024.kernel_ms;
        assert!(delta < 0.12, "1024 -> 2048 changes little, got {:.1}%", delta * 100.0);
        // Fewer batches with larger limits.
        assert!(b2048.num_batches < b64.num_batches);
        // Larger batches carry more duplicates.
        assert!(b2048.dup_rate >= b64.dup_rate * 0.8);
        assert!(r.render().contains("Dup rate"));
    }
}
