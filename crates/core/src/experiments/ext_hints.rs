//! Extension experiment (beyond the paper): the `cudaMemAdvise` /
//! `cudaMemPrefetchAsync` escape hatches.
//!
//! The paper's related work (Chien/Peng/Markidis, MCHPC'19; Min et al.'s
//! EMOGI) evaluates UVM's advanced features as remedies for the
//! fault-path costs this repository dissects. This experiment runs the
//! same workload under four managements and compares end-to-end time and
//! driver work:
//!
//! 1. **default** — fault-driven demand migration;
//! 2. **prefetch-async** — explicit bulk migration before launch
//!    (`cudaMemPrefetchAsync` + synchronize);
//! 3. **read-mostly** — read duplication for the input arrays (no
//!    fault-path unmap, no eviction writeback);
//! 4. **preferred-host** — inputs pinned host-side and mapped remotely
//!    (no migration at all; every access crosses the interconnect).

use serde::{Deserialize, Serialize};
use uvm_driver::advise::MemAdvise;
use uvm_workloads::cpu_init::CpuInitPolicy;
use uvm_workloads::stream::{self, StreamParams};
use uvm_workloads::workload::Workload;

use crate::experiments::suite::experiment_config;
use crate::system::RunHints;
use crate::runctl::RunCtx;

/// One management strategy's outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HintRow {
    /// Strategy name.
    pub strategy: String,
    /// End-to-end time (ms), including any upfront prefetch.
    pub total_ms: f64,
    /// Fault batches serviced.
    pub fault_batches: u64,
    /// Pages migrated.
    pub pages_migrated: u64,
    /// Pages mapped remotely.
    pub remote_mapped: u64,
    /// Fault-path unmap time (ms).
    pub unmap_ms: f64,
}

/// The extension-experiment dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExtHintsResult {
    /// One row per strategy.
    pub rows: Vec<HintRow>,
}

fn workload() -> Workload {
    stream::build(StreamParams {
        warps: 256,
        pages_per_warp: 16,
        iters: 2,
        warps_per_page: 1,
        cpu_init: Some(CpuInitPolicy::SingleThread),
    })
}

fn measure(ctx: &RunCtx, name: &str, w: &Workload, hints: RunHints, seed: u64) -> HintRow {
    let config = experiment_config(256).with_seed(seed);
    let result = ctx.try_run(config, w, &hints).expect("hint runs inject no faults");
    let fault_batches = result.records.iter().filter(|r| !r.driver_prefetch_op).count() as u64;
    HintRow {
        strategy: name.to_string(),
        total_ms: result.kernel_time.as_nanos() as f64 / 1e6,
        fault_batches,
        pages_migrated: result.records.iter().map(|r| r.pages_migrated).sum(),
        remote_mapped: result.records.iter().map(|r| r.remote_mapped_pages).sum(),
        unmap_ms: result.records.iter().map(|r| r.t_unmap.as_nanos()).sum::<u64>() as f64 / 1e6,
    }
}

/// Run the four-strategy comparison.
pub fn run(ctx: &RunCtx, seed: u64) -> ExtHintsResult {
    let w = workload();
    let inputs = &w.allocations[..2]; // a and b (c is output)
    let advise = |hint| RunHints {
        advise: inputs.iter().map(|&a| (a, hint)).collect(),
        ..Default::default()
    };
    let strategies = [
        ("default", RunHints::default()),
        ("prefetch-async", RunHints { prefetch: w.allocations.clone(), ..Default::default() }),
        ("read-mostly", advise(MemAdvise::ReadMostly)),
        ("preferred-host", advise(MemAdvise::PreferredLocationHost)),
    ];
    let rows = strategies.into_iter().map(|(name, hints)| measure(ctx, name, &w, hints, seed));
    ExtHintsResult { rows: rows.collect() }
}

impl ExtHintsResult {
    /// Paper-style text rendering.
    pub fn render(&self) -> String {
        let mut t = uvm_stats::Table::new(vec![
            "Strategy",
            "Total (ms)",
            "Fault batches",
            "Migrated",
            "Remote",
            "Unmap (ms)",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.strategy.clone(),
                format!("{:.2}", r.total_ms),
                r.fault_batches.to_string(),
                r.pages_migrated.to_string(),
                r.remote_mapped.to_string(),
                format!("{:.2}", r.unmap_ms),
            ]);
        }
        format!(
            "Extension — memory-usage hints (stream triad, 2 iterations)\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hints_trade_costs_as_designed() {
        let r = run(&RunCtx::new(1), 1);
        let by = |n: &str| r.rows.iter().find(|row| row.strategy == n).unwrap();
        let default = by("default");
        let prefetch = by("prefetch-async");
        let read_mostly = by("read-mostly");
        let host = by("preferred-host");

        // Prefetch: far fewer fault batches, faster end to end.
        assert!(prefetch.fault_batches * 2 < default.fault_batches);
        assert!(prefetch.total_ms < default.total_ms);

        // Read-mostly: no fault-path unmap for the inputs (only the
        // output's blocks could ever unmap, and c is GPU-written only).
        assert!(read_mostly.unmap_ms < default.unmap_ms * 0.2);

        // Preferred-host: the inputs never migrate; remote mappings appear.
        assert!(host.remote_mapped > 0);
        assert!(host.pages_migrated < default.pages_migrated);
        assert_eq!(host.unmap_ms, 0.0, "host-pinned inputs keep CPU mappings");
    }
}
