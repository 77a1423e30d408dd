//! Fig. 11 — host-side parallelization inflates fault-path unmap cost
//! (HPGMG).
//!
//! The same HPGMG problem, initialized by one CPU thread vs the default
//! one-thread-per-core OpenMP configuration: with striped multithreaded
//! initialization every VABlock is mapped by many cores, so the fault-path
//! `unmap_mapping_range()` pays cross-core PTE state and a wide TLB
//! shootdown — roughly doubling batch cost in the paper.

use serde::{Deserialize, Serialize};
use uvm_workloads::cpu_init::CpuInitPolicy;

use crate::experiments::suite::{experiment_config, Bench};
use crate::runctl::RunCtx;

/// One configuration's measurements.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig11Config {
    /// Initializing CPU thread count.
    pub cpu_threads: u32,
    /// Total batch time (ms).
    pub batch_ms: f64,
    /// Kernel time (ms).
    pub kernel_ms: f64,
    /// Mean per-batch unmap fraction among batches that unmapped.
    pub mean_unmap_fraction: f64,
    /// Max per-batch unmap fraction.
    pub max_unmap_fraction: f64,
    /// Total `unmap_mapping_range` time (ms).
    pub unmap_ms: f64,
    /// `(batch seq, unmap fraction)` series for the figure coloring.
    pub fractions: Vec<(u64, f64)>,
}

/// The Fig. 11 dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig11Result {
    /// Single-threaded initialization.
    pub single: Fig11Config,
    /// Multithreaded (striped) initialization.
    pub multi: Fig11Config,
}

fn run_one(ctx: &RunCtx, seed: u64, policy: CpuInitPolicy, threads: u32) -> Fig11Config {
    let config = experiment_config(768).with_seed(seed);
    let workload = Bench::Hpgmg.build_with_init(Some(policy));
    let result = ctx.run(config, &workload);
    let fractions: Vec<(u64, f64)> = result
        .records
        .iter()
        .map(|r| (r.seq, r.unmap_fraction()))
        .collect();
    let unmapping: Vec<f64> = fractions.iter().map(|&(_, f)| f).filter(|&f| f > 0.0).collect();
    Fig11Config {
        cpu_threads: threads,
        batch_ms: result.total_batch_time.as_nanos() as f64 / 1e6,
        kernel_ms: result.kernel_time.as_nanos() as f64 / 1e6,
        mean_unmap_fraction: if unmapping.is_empty() {
            0.0
        } else {
            unmapping.iter().sum::<f64>() / unmapping.len() as f64
        },
        max_unmap_fraction: fractions.iter().map(|&(_, f)| f).fold(0.0, f64::max),
        unmap_ms: result.records.iter().map(|r| r.t_unmap.as_nanos()).sum::<u64>() as f64 / 1e6,
        fractions,
    }
}

/// Run the single- vs multi-threaded comparison (32 threads, the Epyc
/// 7551P core count).
pub fn run(ctx: &RunCtx, seed: u64) -> Fig11Result {
    Fig11Result {
        single: run_one(ctx, seed, CpuInitPolicy::SingleThread, 1),
        multi: run_one(ctx, seed, CpuInitPolicy::Striped { threads: 32 }, 32),
    }
}

impl Fig11Result {
    /// Paper-style text rendering.
    pub fn render(&self) -> String {
        let mut t = uvm_stats::Table::new(vec![
            "CPU threads",
            "Batch (ms)",
            "Kernel (ms)",
            "Unmap (ms)",
            "Mean unmap %",
            "Max unmap %",
        ]);
        for c in [&self.single, &self.multi] {
            t.row(vec![
                c.cpu_threads.to_string(),
                format!("{:.2}", c.batch_ms),
                format!("{:.2}", c.kernel_ms),
                format!("{:.2}", c.unmap_ms),
                format!("{:.1}%", c.mean_unmap_fraction * 100.0),
                format!("{:.1}%", c.max_unmap_fraction * 100.0),
            ]);
        }
        format!("Fig. 11 — HPGMG: CPU-thread count vs unmap cost\n{}", t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multithreaded_init_roughly_doubles_unmap_cost() {
        let r = run(&RunCtx::new(1), 1);
        // The unmap component itself inflates sharply.
        assert!(
            r.multi.unmap_ms > 1.8 * r.single.unmap_ms,
            "unmap: single {:.2}ms multi {:.2}ms",
            r.single.unmap_ms,
            r.multi.unmap_ms
        );
        // Overall batch time suffers (the paper sees ~2x; we require a
        // clear regression).
        assert!(
            r.multi.batch_ms > 1.15 * r.single.batch_ms,
            "batch: single {:.2}ms multi {:.2}ms",
            r.single.batch_ms,
            r.multi.batch_ms
        );
        // And the per-batch unmap share rises.
        assert!(r.multi.mean_unmap_fraction > r.single.mean_unmap_fraction);
        assert!(r.render().contains("Max unmap"));
    }
}
