//! Fig. 5 — a single warp fills an entire fault batch via software
//! prefetching.
//!
//! `prefetch.global.L2` needs no destination register, so it bypasses the
//! scoreboard and the 56-entry μTLB outstanding-fault budget. A single
//! warp prefetching a large region generates faults up to the *software*
//! batch-size limit (256); everything beyond the limit in the buffer is
//! dropped by the pre-replay flush (the paper's footnote 1).

use serde::{Deserialize, Serialize};
use uvm_workloads::prefetch_ub::{self, PrefetchUbParams};

use crate::experiments::suite::experiment_config;
use crate::runctl::RunCtx;

/// The Fig. 5 dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5Result {
    /// Pages prefetched by the single warp.
    pub pages_prefetched: u64,
    /// Size of the first batch (should equal the batch limit).
    pub first_batch_size: u64,
    /// Batch size limit in force.
    pub batch_limit: u64,
    /// Faults dropped by flushes (the tail beyond the limit).
    pub flush_drops: u64,
    /// Raw sizes of all batches.
    pub batch_sizes: Vec<u64>,
}

/// Run the prefetch microbenchmark.
pub fn run(ctx: &RunCtx, seed: u64) -> Fig5Result {
    let config = experiment_config(64).with_seed(seed);
    let batch_limit = config.policy.batch_limit as u64;
    let workload = prefetch_ub::build(PrefetchUbParams::default());
    let pages = workload.total_accesses() as u64;
    let result = ctx.run(config, &workload);
    Fig5Result {
        pages_prefetched: pages,
        first_batch_size: result.records.first().map(|r| r.raw_faults).unwrap_or(0),
        batch_limit,
        flush_drops: result.flush_drops,
        batch_sizes: result.records.iter().map(|r| r.raw_faults).collect(),
    }
}

impl Fig5Result {
    /// Paper-style text rendering.
    pub fn render(&self) -> String {
        format!(
            "Fig. 5 — single-warp prefetch burst\n\
             pages prefetched        {}\n\
             batch size limit        {}\n\
             first batch size        {}\n\
             faults dropped at flush {}\n\
             batch sizes             {:?}",
            self.pages_prefetched,
            self.batch_limit,
            self.first_batch_size,
            self.flush_drops,
            self.batch_sizes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_warp_fills_the_batch_limit() {
        let r = run(&RunCtx::new(1), 1);
        assert_eq!(r.pages_prefetched, 300);
        assert_eq!(r.first_batch_size, r.batch_limit, "batch capped at software limit");
        assert!(
            r.flush_drops >= r.pages_prefetched - r.batch_limit,
            "the tail beyond the limit is dropped: {}",
            r.flush_drops
        );
        assert!(r.render().contains("first batch size"));
    }
}
