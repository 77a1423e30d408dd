//! Fig. 1 — access latency: abstracted unified memory vs explicit direct
//! management.
//!
//! The paper's opening figure shows that transparently managed (UVM)
//! accesses cost one or more orders of magnitude more than explicit
//! `cudaMemcpy`-style management. We run each benchmark twice: once under
//! the full fault-driven UVM pipeline and once under the
//! explicit-management baseline (bulk copy up front, fault-free kernel),
//! and report the per-access latency ratio.

use serde::{Deserialize, Serialize};

use crate::experiments::suite::{experiment_config, Bench};
use crate::system::UvmSystem;
use crate::runctl::RunCtx;

/// One benchmark's latency comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencyRow {
    /// Benchmark name.
    pub bench: String,
    /// Total page accesses issued by the kernel.
    pub accesses: u64,
    /// UVM end-to-end time (ns): faulting kernel.
    pub uvm_total_ns: u64,
    /// Explicit-management end-to-end time (ns): bulk copy + fault-free
    /// kernel.
    pub explicit_total_ns: u64,
    /// Mean ns per access under UVM.
    pub uvm_ns_per_access: f64,
    /// Mean ns per access under explicit management.
    pub explicit_ns_per_access: f64,
    /// Latency inflation factor (UVM / explicit).
    pub ratio: f64,
}

/// The Fig. 1 dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig1Result {
    /// One row per benchmark.
    pub rows: Vec<LatencyRow>,
}

/// Run the Fig. 1 comparison.
pub fn run(ctx: &RunCtx, seed: u64) -> Fig1Result {
    let benches = [Bench::Stream, Bench::Sgemm, Bench::Cufft];
    let rows = benches
        .iter()
        .map(|&b| {
            let workload = b.build();
            let accesses = workload.total_accesses() as u64;
            let config = experiment_config(768).with_seed(seed);
            let uvm = ctx.run(config.clone(), &workload);
            let explicit = UvmSystem::new(config).run_explicit(&workload);
            let uvm_total_ns = uvm.kernel_time.as_nanos();
            let explicit_total_ns =
                (explicit.kernel_time + explicit.upfront_copy_time).as_nanos();
            LatencyRow {
                bench: b.name().to_string(),
                accesses,
                uvm_total_ns,
                explicit_total_ns,
                uvm_ns_per_access: uvm_total_ns as f64 / accesses as f64,
                explicit_ns_per_access: explicit_total_ns as f64 / accesses as f64,
                ratio: uvm_total_ns as f64 / explicit_total_ns as f64,
            }
        })
        .collect();
    Fig1Result { rows }
}

impl Fig1Result {
    /// Paper-style text rendering.
    pub fn render(&self) -> String {
        let mut t = uvm_stats::Table::new(vec![
            "Benchmark",
            "Accesses",
            "UVM ns/acc",
            "Explicit ns/acc",
            "Ratio",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.bench.clone(),
                r.accesses.to_string(),
                format!("{:.1}", r.uvm_ns_per_access),
                format!("{:.1}", r.explicit_ns_per_access),
                format!("{:.1}x", r.ratio),
            ]);
        }
        format!("Fig. 1 — UVM vs explicit-management access latency\n{}", t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uvm_latency_is_an_order_of_magnitude_higher() {
        let result = run(&RunCtx::new(1), 1);
        assert_eq!(result.rows.len(), 3);
        for row in &result.rows {
            assert!(
                row.ratio >= 5.0,
                "{}: UVM should be >=5x slower, got {:.1}x",
                row.bench,
                row.ratio
            );
            assert!(row.uvm_total_ns > 0 && row.explicit_total_ns > 0);
        }
        // At least one benchmark shows a full order of magnitude.
        assert!(result.rows.iter().any(|r| r.ratio >= 10.0));
        let text = result.render();
        assert!(text.contains("stream") && text.contains("Ratio"));
    }
}
