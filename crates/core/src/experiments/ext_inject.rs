//! Extension experiment (beyond the paper): fault injection and recovery.
//!
//! The paper analyses the servicing pipeline on a healthy system; a real
//! driver additionally survives replayable-buffer overflows, IOMMU map
//! failures, copy-engine faults, and populate errors. This experiment
//! sweeps a uniform per-operation failure probability across **all five**
//! injection points
//! ([`FaultPlan::uniform`](uvm_sim::inject::FaultPlan::uniform)) on an
//! oversubscribed Stream run with the invariant auditor enabled, and
//! reports how much recovery work (retries, deterministic backoff,
//! degradations to remote mappings, dropped faults) each failure rate
//! causes. The zero-rate row doubles as a regression guard: it must be
//! identical to a run without any injection wiring at all.
//!
//! The rates run as one [`grid`](super::grid) over the worker pool, so the
//! report is byte-identical for any `--jobs N`.

use uvm_driver::policy::DriverPolicy;

use crate::experiments::grid::{Axis, Rows, Sweep, Table, KERNEL_MS};
use crate::experiments::suite::Bench;

/// The swept per-operation failure probabilities.
pub const RATES: [f64; 4] = [0.0, 0.01, 0.05, 0.15];

/// The failure-rate sweep: audited Stream with 75 % of its footprint
/// resident, so evictions and re-migrations give the copy-engine and DMA
/// injection points plenty of operations to fail.
pub fn sweep() -> Sweep {
    Sweep {
        title: "Extension — fault injection & recovery (Stream, 133% oversubscription, audited)",
        workloads: vec![("stream", Bench::Stream.build())],
        resident: (3, 4),
        policy: DriverPolicy::default().audited(true),
        tenancy: Default::default(),
        axis: RATES.map(Axis::FaultRate).to_vec(),
        tables: vec![Table {
            caption: None,
            rows: Rows::Cells(vec![
                ("Rate", |c| c.config[0].clone()),
                ("Status", |c| match &c.error {
                    Some(e) => format!("failed: {e}"),
                    None => "ok".to_string(),
                }),
                KERNEL_MS,
                ("Injected", |c| c.injected.to_string()),
                ("Retries", |c| c.retries.to_string()),
                ("Backoff (us)", |c| (c.component_ns[9] / 1000).to_string()),
                ("Degraded", |c| c.degraded_blocks.to_string()),
                ("Dropped", |c| c.dropped_faults.to_string()),
                ("Remote", |c| c.remote_mapped.to_string()),
                ("Migrated", |c| c.pages_migrated.to_string()),
            ]),
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::grid::Cell;
    use crate::experiments::suite::experiment_config;
    use crate::system::UvmSystem;

    /// The sweep's cell at one failure rate.
    fn measure(rate: f64, seed: u64) -> Cell {
        let mut grid = sweep();
        grid.axis = vec![Axis::FaultRate(rate)];
        grid.run(seed).remove(0)
    }

    #[test]
    fn zero_rate_row_matches_an_uninjected_baseline() {
        let baseline = {
            let workload = Bench::Stream.build();
            let mem_mb = (workload.footprint_bytes() / (1024 * 1024)) * 3 / 4;
            let config = experiment_config(mem_mb)
                .with_policy(DriverPolicy::default().audited(true))
                .with_seed(9);
            UvmSystem::new(config).try_run(&workload).unwrap()
        };
        let row = measure(0.0, 9);
        assert!(row.error.is_none());
        assert_eq!(row.injected, 0);
        assert_eq!(row.retries, 0);
        assert_eq!(row.kernel_ms, baseline.kernel_time.as_nanos() as f64 / 1e6);
        assert_eq!(
            row.pages_migrated,
            baseline.records.iter().map(|x| x.pages_migrated).sum::<u64>()
        );
    }

    #[test]
    fn nonzero_rates_inject_and_recover() {
        let row = measure(0.05, 9);
        assert!(row.injected > 0, "failures must fire at 5%");
        if row.error.is_none() {
            assert!(row.retries > 0, "recovery implies retries");
            assert!(row.component_ns[9] / 1000 > 0, "retries accumulate backoff");
        }
    }

    #[test]
    fn same_seed_gives_identical_sweeps() {
        let grid = sweep();
        let a = grid.run(0x5C21);
        let b = grid.run(0x5C21);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        assert_eq!(grid.render(&a), grid.render(&b));
    }

    #[test]
    fn render_matches_checked_in_golden() {
        // Regenerate with:
        //   cargo run --release -p uvm-bench --bin paper -- ext-inject --bless
        let golden = include_str!("golden/ext_inject.txt");
        let grid = sweep();
        assert_eq!(grid.render(&grid.run(0x5C21)).trim_end(), golden.trim_end());
    }
}
