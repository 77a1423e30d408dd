//! Figs. 3 & 4 — the vector-addition fault microscope.
//!
//! Fig. 3 plots every fault of the Listing 1 page-strided vector addition
//! in arrival order, separated by batch: the first batch holds exactly 56
//! faults (the μTLB outstanding limit — all of A's reads plus most of B's),
//! and no write can fault until all 64 prerequisite reads are fulfilled.
//! Fig. 4 plots the same faults against real arrival timestamps: faults of
//! a batch cluster tightly, separated by the much longer batch-service
//! gaps.

use serde::{Deserialize, Serialize};
use uvm_driver::policy::DriverPolicy;
use uvm_gpu::fault::AccessKind;
use uvm_workloads::vecadd::{self, VecAddParams};

use crate::experiments::suite::experiment_config;
use crate::runctl::RunCtx;

/// One fault observation (a point in Figs. 3/4).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FaultPoint {
    /// Servicing batch.
    pub batch: u64,
    /// Faulting page number.
    pub page: u64,
    /// Access type.
    pub kind: AccessKind,
    /// Arrival time in the fault buffer (ns).
    pub arrival_ns: u64,
}

/// Per-batch summary for the Fig. 3 grouping.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchSummary {
    /// Batch sequence number.
    pub seq: u64,
    /// Raw faults fetched.
    pub faults: u64,
    /// Read faults.
    pub reads: u64,
    /// Write faults.
    pub writes: u64,
    /// First fault arrival (ns).
    pub first_arrival_ns: u64,
    /// Last fault arrival (ns).
    pub last_arrival_ns: u64,
}

/// The Figs. 3/4 dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig3Result {
    /// Every fault in arrival order.
    pub faults: Vec<FaultPoint>,
    /// Per-batch summaries.
    pub batches: Vec<BatchSummary>,
    /// Mean intra-batch arrival spread (ns) — Fig. 4's tight vertical
    /// clusters.
    pub mean_intra_batch_spread_ns: f64,
    /// Mean gap between consecutive batches' arrivals (ns).
    pub mean_inter_batch_gap_ns: f64,
}

/// Run the vector-addition microscope.
pub fn run(ctx: &RunCtx, seed: u64) -> Fig3Result {
    let config = experiment_config(64)
        .with_policy(DriverPolicy::default().log_faults(true))
        .with_seed(seed);
    let workload = vecadd::build(VecAddParams::default());
    let result = ctx.run(config, &workload);

    let faults: Vec<FaultPoint> = result
        .fault_log
        .iter()
        .map(|f| FaultPoint {
            batch: f.batch_seq,
            page: f.page,
            kind: f.kind,
            arrival_ns: f.arrival.as_nanos(),
        })
        .collect();

    let batches: Vec<BatchSummary> = result
        .records
        .iter()
        .map(|r| {
            let in_batch: Vec<&FaultPoint> =
                faults.iter().filter(|f| f.batch == r.seq).collect();
            BatchSummary {
                seq: r.seq,
                faults: r.raw_faults,
                reads: r.read_faults,
                writes: r.write_faults,
                first_arrival_ns: in_batch.iter().map(|f| f.arrival_ns).min().unwrap_or(0),
                last_arrival_ns: in_batch.iter().map(|f| f.arrival_ns).max().unwrap_or(0),
            }
        })
        .collect();

    let spreads: Vec<f64> = batches
        .iter()
        .filter(|b| b.faults > 1)
        .map(|b| (b.last_arrival_ns - b.first_arrival_ns) as f64)
        .collect();
    let gaps: Vec<f64> = batches
        .windows(2)
        .map(|w| w[1].first_arrival_ns.saturating_sub(w[0].last_arrival_ns) as f64)
        .collect();

    Fig3Result {
        mean_intra_batch_spread_ns: mean(&spreads),
        mean_inter_batch_gap_ns: mean(&gaps),
        faults,
        batches,
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

impl Fig3Result {
    /// Paper-style text rendering.
    pub fn render(&self) -> String {
        let mut t = uvm_stats::Table::new(vec![
            "Batch", "Faults", "Reads", "Writes", "Arrival span (us)",
        ]);
        for b in &self.batches {
            t.row(vec![
                b.seq.to_string(),
                b.faults.to_string(),
                b.reads.to_string(),
                b.writes.to_string(),
                format!("{:.2}", (b.last_arrival_ns - b.first_arrival_ns) as f64 / 1e3),
            ]);
        }
        format!(
            "Figs. 3/4 — vecadd fault batches (intra-batch spread {:.1} us, inter-batch gap {:.1} us)\n{}",
            self.mean_intra_batch_spread_ns / 1e3,
            self.mean_inter_batch_gap_ns / 1e3,
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_fig3_and_fig4_shape() {
        let r = run(&RunCtx::new(1), 1);
        // Fig. 3: first batch = 56 reads (μTLB limit), second = remaining 8.
        assert_eq!(r.batches[0].faults, 56);
        assert_eq!(r.batches[0].writes, 0);
        assert_eq!(r.batches[1].faults, 8);
        // Writes appear only after all 64 reads of the statement resolved.
        let first_write_batch = r
            .batches
            .iter()
            .find(|b| b.writes > 0)
            .expect("writes must fault eventually")
            .seq;
        assert!(first_write_batch >= 2);
        // Fig. 4: intra-batch arrival spread is far smaller than the gap
        // between batches (batch servicing dominates).
        assert!(
            r.mean_inter_batch_gap_ns > 5.0 * r.mean_intra_batch_spread_ns,
            "spread {} vs gap {}",
            r.mean_intra_batch_spread_ns,
            r.mean_inter_batch_gap_ns
        );
        // All 288 unique accesses appear.
        let unique: std::collections::HashSet<u64> = r.faults.iter().map(|f| f.page).collect();
        assert_eq!(unique.len(), 288);
        assert!(r.render().contains("Batch"));
    }
}
