//! Extension experiment (beyond the paper): thrashing mitigation.
//!
//! The production driver ships a thrashing detector
//! (`uvm_perf_thrashing`) that the paper's analysis does not exercise.
//! Our simplified version pins a block host-side (remote mappings, no
//! migration) when it re-faults shortly after being evicted. Thrashing is
//! a property of *irregular* oversubscribed workloads (Ganguly et al.,
//! IPDPS'20), so this experiment runs the Random benchmark with half the
//! footprint resident: uniform accesses re-fault evicted blocks almost
//! immediately, and pinning converts the migration ping-pong into remote
//! accesses.

use serde::{Deserialize, Serialize};
use uvm_driver::policy::DriverPolicy;

use crate::experiments::suite::{experiment_config, Bench};
use crate::runctl::RunCtx;

/// One configuration's outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThrashRow {
    /// Whether mitigation was enabled.
    pub mitigation: bool,
    /// Kernel time (ms).
    pub kernel_ms: f64,
    /// VABlock evictions.
    pub evictions: u64,
    /// Thrashing pins applied.
    pub pins: u64,
    /// Pages migrated (including re-migrations).
    pub pages_migrated: u64,
    /// Pages mapped remotely by pins.
    pub remote_mapped: u64,
}

/// The extension-experiment dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExtThrashingResult {
    /// Mitigation off, then on.
    pub rows: Vec<ThrashRow>,
}

fn measure(ctx: &RunCtx, mitigation: bool, seed: u64) -> ThrashRow {
    let bench = Bench::Random;
    let workload = bench.build();
    // Uniform random at 200% oversubscription: heavy eviction ping-pong.
    let mem_mb = (workload.footprint_bytes() / (1024 * 1024)) / 2;
    let config = experiment_config(mem_mb)
        .with_policy(DriverPolicy::default().thrashing(mitigation))
        .with_seed(seed);
    let r = ctx.run(config, &workload);
    ThrashRow {
        mitigation,
        kernel_ms: r.kernel_time.as_nanos() as f64 / 1e6,
        evictions: r.evictions,
        pins: r.records.iter().map(|x| x.thrashing_pins).sum(),
        pages_migrated: r.records.iter().map(|x| x.pages_migrated).sum(),
        remote_mapped: r.records.iter().map(|x| x.remote_mapped_pages).sum(),
    }
}

/// Run the comparison.
pub fn run(ctx: &RunCtx, seed: u64) -> ExtThrashingResult {
    ExtThrashingResult {
        rows: vec![measure(ctx, false, seed), measure(ctx, true, seed)],
    }
}

impl ExtThrashingResult {
    /// Paper-style text rendering.
    pub fn render(&self) -> String {
        let mut t = uvm_stats::Table::new(vec![
            "Mitigation",
            "Kernel (ms)",
            "Evictions",
            "Pins",
            "Migrated",
            "Remote",
        ]);
        for r in &self.rows {
            t.row(vec![
                if r.mitigation { "on" } else { "off" }.to_string(),
                format!("{:.2}", r.kernel_ms),
                r.evictions.to_string(),
                r.pins.to_string(),
                r.pages_migrated.to_string(),
                r.remote_mapped.to_string(),
            ]);
        }
        format!(
            "Extension — thrashing mitigation (Random, 200% oversubscription)\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mitigation_cuts_evictions_and_migration_churn() {
        let r = run(&RunCtx::new(1), 1);
        let off = &r.rows[0];
        let on = &r.rows[1];
        assert!(!off.mitigation && on.mitigation);
        assert_eq!(off.pins, 0);
        assert!(on.pins > 0, "thrashing must be detected");
        assert!(
            on.evictions * 2 < off.evictions,
            "pinning should cut evictions sharply: {} vs {}",
            on.evictions,
            off.evictions
        );
        assert!(on.pages_migrated < off.pages_migrated, "less re-migration churn");
        assert!(on.kernel_ms < off.kernel_ms, "and the kernel speeds up");
        assert!(r.render().contains("Mitigation"));
    }
}
