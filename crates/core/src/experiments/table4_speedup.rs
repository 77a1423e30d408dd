//! Table 4 — batch and kernel execution times with and without
//! prefetching (Gauss-Seidel and HPGMG, modest oversubscription).
//!
//! With < 125 % oversubscription, prefetching improves kernel time 3.39×
//! (Gauss-Seidel) and 2.72× (HPGMG) in the paper; aggregate batch time is
//! always below kernel time (it excludes interrupt latency and GPU compute
//! on resident data).

use serde::{Deserialize, Serialize};
use uvm_driver::policy::DriverPolicy;

use crate::experiments::suite::{experiment_config, Bench};
use crate::runctl::RunCtx;

/// One benchmark's row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table4Row {
    /// Benchmark name.
    pub bench: String,
    /// Batch time without prefetching (ms).
    pub batch_ms_no_prefetch: f64,
    /// Kernel time without prefetching (ms).
    pub kernel_ms_no_prefetch: f64,
    /// Batch time with prefetching (ms).
    pub batch_ms_prefetch: f64,
    /// Kernel time with prefetching (ms).
    pub kernel_ms_prefetch: f64,
    /// Kernel speedup from prefetching.
    pub speedup: f64,
}

/// The Table 4 dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table4Result {
    /// Gauss-Seidel and HPGMG rows.
    pub rows: Vec<Table4Row>,
}

/// One `(benchmark, prefetch?)` cell: batch and kernel time in ns.
fn run_cell(ctx: &RunCtx, bench: Bench, prefetch: bool, seed: u64) -> (u64, u64) {
    let workload = bench.build();
    // Modest oversubscription, as in the paper. At this simulator's reduced
    // scale (tens of VABlocks instead of thousands), LRU-horizon thrash
    // appears at lower ratios than on a 12 GiB device, so "modest" is ~105%
    // here; see EXPERIMENTS.md for the calibration notes.
    let mem_mb = (workload.footprint_bytes() / (1024 * 1024)) * 100 / 105;
    let mut config = experiment_config(mem_mb).with_seed(seed);
    if prefetch {
        config = config.with_policy(DriverPolicy::with_prefetch());
    }
    let result = ctx.run(config, &workload);
    (result.total_batch_time.as_nanos(), result.kernel_time.as_nanos())
}

/// Run Table 4. The app × config matrix is four independent sims, fanned
/// out across the worker pool; rows assemble in fixed benchmark order.
pub fn run(ctx: &RunCtx, seed: u64) -> Table4Result {
    let benches = [Bench::GaussSeidel, Bench::Hpgmg];
    let cells: Vec<(Bench, bool)> = benches
        .iter()
        .flat_map(|&b| [(b, false), (b, true)])
        .collect();
    let timings = ctx.map(cells, |ctx, (bench, prefetch)| run_cell(ctx, bench, prefetch, seed));
    let rows = benches
        .iter()
        .zip(timings.chunks_exact(2))
        .map(|(bench, pair)| {
            let (batch_base, kernel_base) = pair[0];
            let (batch_pf, kernel_pf) = pair[1];
            Table4Row {
                bench: bench.name().to_string(),
                batch_ms_no_prefetch: batch_base as f64 / 1e6,
                kernel_ms_no_prefetch: kernel_base as f64 / 1e6,
                batch_ms_prefetch: batch_pf as f64 / 1e6,
                kernel_ms_prefetch: kernel_pf as f64 / 1e6,
                speedup: kernel_base as f64 / kernel_pf.max(1) as f64,
            }
        })
        .collect();
    Table4Result { rows }
}

impl Table4Result {
    /// Paper-style text rendering.
    pub fn render(&self) -> String {
        let mut t = uvm_stats::Table::new(vec![
            "Benchmark",
            "Batch no-PF (ms)",
            "Kernel no-PF (ms)",
            "Batch PF (ms)",
            "Kernel PF (ms)",
            "Speedup",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.bench.clone(),
                format!("{:.2}", r.batch_ms_no_prefetch),
                format!("{:.2}", r.kernel_ms_no_prefetch),
                format!("{:.2}", r.batch_ms_prefetch),
                format!("{:.2}", r.kernel_ms_prefetch),
                format!("{:.2}x", r.speedup),
            ]);
        }
        format!("Table 4 — batch and kernel execution times\n{}", t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_speeds_up_oversubscribed_kernels() {
        let r = run(&RunCtx::new(1), 1);
        assert_eq!(r.rows.len(), 2);
        for row in &r.rows {
            // Paper: 3.39x and 2.72x. We require the same winner at the
            // same order of magnitude.
            assert!(
                row.speedup > 1.6,
                "{}: prefetch speedup {:.2}x too small",
                row.bench,
                row.speedup
            );
            assert!(row.speedup < 6.0, "{}: speedup {:.2}x implausible", row.bench, row.speedup);
            // Batch time is a subset of kernel time in all configurations.
            assert!(row.batch_ms_no_prefetch < row.kernel_ms_no_prefetch);
            assert!(row.batch_ms_prefetch < row.kernel_ms_prefetch);
        }
        assert!(r.render().contains("Speedup"));
    }
}
