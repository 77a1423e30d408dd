//! Table 3 — VABlock source statistics in a batch.
//!
//! The distribution of faults over VABlocks varies enormously by
//! application — Random touches hundreds of blocks with ~1 fault each,
//! Gauss-Seidel a couple of blocks with dozens — and the per-block fault
//! counts have high variance. This is the paper's argument against naive
//! per-VABlock driver parallelization (the workload would be badly
//! imbalanced).

use serde::{Deserialize, Serialize};
use uvm_stats::Summary;

use crate::experiments::suite::{experiment_config, Bench};
use crate::runctl::RunCtx;

/// One benchmark's row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table3Row {
    /// Benchmark name.
    pub bench: String,
    /// Mean distinct VABlocks per batch.
    pub vablocks_per_batch: f64,
    /// Mean faults per VABlock (over all per-block counts).
    pub faults_per_vablock: f64,
    /// Standard deviation of per-block fault counts.
    pub std_dev: f64,
    /// Minimum per-block fault count.
    pub min: u32,
    /// Maximum per-block fault count.
    pub max: u32,
}

/// The Table 3 dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table3Result {
    /// One row per benchmark, in paper order.
    pub rows: Vec<Table3Row>,
}

/// Run Table 3 over the benchmark suite.
pub fn run(ctx: &RunCtx, seed: u64) -> Table3Result {
    // Independent per-benchmark sims: parallel over the suite, paper order.
    let rows = ctx.map(Bench::table_suite().to_vec(), |ctx, b| {
            let config = experiment_config(768).with_seed(seed);
            let result = ctx.run(config, &b.build());
            let blocks_per_batch: Vec<f64> = result
                .records
                .iter()
                .map(|r| r.num_va_blocks as f64)
                .collect();
            let per_block: Vec<u32> = result
                .records
                .iter()
                .flat_map(|r| r.per_block_faults.iter().copied())
                .collect();
            let s = Summary::of(&per_block.iter().map(|&c| c as f64).collect::<Vec<_>>());
            Table3Row {
                bench: b.name().to_string(),
                vablocks_per_batch: Summary::of(&blocks_per_batch).mean,
                faults_per_vablock: s.mean,
                std_dev: s.std_dev,
                min: per_block.iter().copied().min().unwrap_or(0),
                max: per_block.iter().copied().max().unwrap_or(0),
            }
        });
    Table3Result { rows }
}

impl Table3Result {
    /// Paper-style text rendering.
    pub fn render(&self) -> String {
        let mut t = uvm_stats::Table::new(vec![
            "Benchmark",
            "VABlock/Batch",
            "Faults/VABlock",
            "Std. Dev.",
            "Min.",
            "Max.",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.bench.clone(),
                format!("{:.2}", r.vablocks_per_batch),
                format!("{:.2}", r.faults_per_vablock),
                format!("{:.2}", r.std_dev),
                r.min.to_string(),
                r.max.to_string(),
            ]);
        }
        format!("Table 3 — VABlock source statistics in a batch\n{}", t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vablock_distribution_matches_paper_shape() {
        let r = run(&RunCtx::new(1), 1);
        assert_eq!(r.rows.len(), 7);
        let by_name = |n: &str| r.rows.iter().find(|row| row.bench == n).unwrap();
        let random = by_name("Random");
        let gauss = by_name("gauss-seidel");

        // Random: no locality — the most blocks per batch, the fewest
        // faults per block (paper: 233 blocks at 1.04 faults).
        for row in &r.rows {
            if row.bench != "Random" {
                assert!(
                    random.vablocks_per_batch > row.vablocks_per_batch,
                    "Random ({:.1}) should top {} ({:.1})",
                    random.vablocks_per_batch,
                    row.bench,
                    row.vablocks_per_batch
                );
            }
        }
        assert!(
            random.faults_per_vablock < 2.0,
            "Random has ~1 fault per block: {:.2}",
            random.faults_per_vablock
        );
        assert!(random.std_dev < 2.0, "Random is the only low-variance workload");

        // Gauss-Seidel: highest locality — few blocks, many faults each
        // (paper: 2.3 blocks at 22 faults).
        assert!(
            gauss.vablocks_per_batch < random.vablocks_per_batch / 5.0,
            "gauss-seidel concentrates in few blocks: {:.2} vs {:.2}",
            gauss.vablocks_per_batch,
            random.vablocks_per_batch
        );
        assert!(
            gauss.faults_per_vablock > random.faults_per_vablock * 1.8,
            "gauss-seidel packs more faults per block: {:.2} vs {:.2}",
            gauss.faults_per_vablock,
            random.faults_per_vablock
        );

        // Per-block imbalance is real for the apps (the anti-parallelization
        // argument): high max vs min.
        assert!(by_name("sgemm").max > 30);
        assert!(r.rows.iter().all(|row| row.min >= 1));
        assert!(r.render().contains("VABlock/Batch"));
    }
}
