//! Fig. 10 — batch time vs migration size, colored by VABlock count.
//!
//! The driver services each VABlock in a batch independently, so for equal
//! migration sizes, batches touching more VABlocks cost more and vary
//! more. We bucket batches by migrated bytes and compare service times of
//! the high-block-count and low-block-count halves within each bucket.

use serde::{Deserialize, Serialize};

use crate::experiments::suite::{experiment_config, Bench};
use crate::runctl::RunCtx;

/// One batch observation.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Fig10Point {
    /// Migrated MiB.
    pub mib: f64,
    /// Service time (ms).
    pub ms: f64,
    /// Distinct VABlocks serviced.
    pub blocks: u64,
}

/// Paired comparison within one size bucket.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BucketComparison {
    /// Bucket's mean migrated MiB.
    pub mib: f64,
    /// Mean ms of the low-block-count half.
    pub low_blocks_ms: f64,
    /// Mean ms of the high-block-count half.
    pub high_blocks_ms: f64,
    /// Points in the bucket.
    pub n: usize,
}

/// The Fig. 10 dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig10Result {
    /// All batch points across benchmarks.
    pub points: Vec<Fig10Point>,
    /// Per-size-bucket comparisons.
    pub buckets: Vec<BucketComparison>,
}

/// Run the VABlock-cost experiment across several benchmarks.
pub fn run(ctx: &RunCtx, seed: u64) -> Fig10Result {
    // Independent per-benchmark sims, fanned across the worker pool; the
    // concatenation below keeps the serial benchmark order.
    let benches = vec![Bench::Regular, Bench::Random, Bench::Sgemm, Bench::Cufft, Bench::GaussSeidel];
    let per_bench = ctx.map(benches, |ctx, b| {
        let config = experiment_config(768).with_seed(seed);
        let result = ctx.run(config, &b.build());
        result
            .records
            .iter()
            .map(|r| Fig10Point {
                mib: r.bytes_migrated as f64 / (1024.0 * 1024.0),
                ms: r.service_time().as_nanos() as f64 / 1e6,
                blocks: r.num_va_blocks,
            })
            .collect::<Vec<_>>()
    });
    let points: Vec<Fig10Point> = per_bench.into_iter().flatten().collect();

    // Bucket by migrated size; split each bucket at its median block count.
    let mut buckets = Vec::new();
    let max_mib = points.iter().map(|p| p.mib).fold(0.0f64, f64::max);
    let n_buckets = 8;
    for i in 0..n_buckets {
        let lo = max_mib * i as f64 / n_buckets as f64;
        let hi = max_mib * (i + 1) as f64 / n_buckets as f64;
        let mut in_bucket: Vec<&Fig10Point> =
            points.iter().filter(|p| p.mib >= lo && p.mib < hi).collect();
        if in_bucket.len() < 8 {
            continue;
        }
        in_bucket.sort_by_key(|p| p.blocks);
        let mid = in_bucket.len() / 2;
        let mean_ms = |ps: &[&Fig10Point]| ps.iter().map(|p| p.ms).sum::<f64>() / ps.len() as f64;
        buckets.push(BucketComparison {
            mib: in_bucket.iter().map(|p| p.mib).sum::<f64>() / in_bucket.len() as f64,
            low_blocks_ms: mean_ms(&in_bucket[..mid]),
            high_blocks_ms: mean_ms(&in_bucket[mid..]),
            n: in_bucket.len(),
        });
    }
    Fig10Result { points, buckets }
}

impl Fig10Result {
    /// Paper-style text rendering.
    pub fn render(&self) -> String {
        let mut t = uvm_stats::Table::new(vec![
            "Size bucket (MiB)",
            "n",
            "Few-blocks (ms)",
            "Many-blocks (ms)",
        ]);
        for b in &self.buckets {
            t.row(vec![
                format!("{:.2}", b.mib),
                b.n.to_string(),
                format!("{:.3}", b.low_blocks_ms),
                format!("{:.3}", b.high_blocks_ms),
            ]);
        }
        format!(
            "Fig. 10 — batch cost vs migration size by VABlock count ({} batches)\n{}",
            self.points.len(),
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_vablocks_cost_more_at_equal_size() {
        let r = run(&RunCtx::new(1), 1);
        assert!(r.points.len() > 100);
        assert!(!r.buckets.is_empty());
        let higher = r
            .buckets
            .iter()
            .filter(|b| b.high_blocks_ms > b.low_blocks_ms)
            .count();
        assert!(
            higher * 4 >= r.buckets.len() * 3,
            "many-block batches should cost more in most size buckets: {}/{}",
            higher,
            r.buckets.len()
        );
        assert!(r.render().contains("Many-blocks"));
    }
}
