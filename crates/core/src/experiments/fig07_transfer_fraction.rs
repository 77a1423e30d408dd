//! Fig. 7 — the share of batch time spent on data transfer (sgemm).
//!
//! The striking result: although data movement is the leading cost
//! indicator (Fig. 6), the actual transfer accounts for *at most ~25 %* of
//! any batch's time, and typically far less — the driver's management work
//! dominates. This is the paper's core motivation for dissecting the
//! servicing path.

use serde::{Deserialize, Serialize};
use uvm_stats::{percentile, Summary};

use crate::experiments::suite::{experiment_config, Bench};
use crate::runctl::RunCtx;

/// The Fig. 7 dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig7Result {
    /// `(batch seq, transfer fraction)` per batch.
    pub fractions: Vec<(u64, f64)>,
    /// Distribution summary of the fractions.
    pub summary: Summary,
    /// 95th percentile of the fractions.
    pub p95: f64,
    /// Total batches.
    pub num_batches: u64,
}

/// Run the transfer-fraction experiment (sgemm, stock policy).
pub fn run(ctx: &RunCtx, seed: u64) -> Fig7Result {
    let config = experiment_config(768).with_seed(seed);
    let result = ctx.run(config, &Bench::Sgemm.build());
    let fractions: Vec<(u64, f64)> = result
        .records
        .iter()
        .map(|r| (r.seq, r.transfer_fraction()))
        .collect();
    let vals: Vec<f64> = fractions.iter().map(|&(_, f)| f).collect();
    Fig7Result {
        summary: Summary::of(&vals),
        p95: percentile(&vals, 95.0),
        num_batches: result.num_batches,
        fractions,
    }
}

impl Fig7Result {
    /// Paper-style text rendering.
    pub fn render(&self) -> String {
        format!(
            "Fig. 7 — transfer share of batch time (sgemm, {} batches)\n\
             mean   {:.1}%\n\
             median {:.1}%\n\
             p95    {:.1}%\n\
             max    {:.1}%",
            self.num_batches,
            self.summary.mean * 100.0,
            self.summary.median * 100.0,
            self.p95 * 100.0,
            self.summary.max * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_is_at_most_a_quarter_of_batch_time() {
        let r = run(&RunCtx::new(1), 1);
        assert!(r.num_batches > 20);
        // The paper's bound: at most ~25%, typically far lower.
        assert!(
            r.summary.max <= 0.32,
            "max transfer fraction {:.2} should stay near the paper's 25% ceiling",
            r.summary.max
        );
        assert!(
            r.summary.median < r.summary.max,
            "typical batches are well below the max"
        );
        assert!(r.summary.mean < 0.25);
        assert!(r.render().contains("p95"));
    }
}
