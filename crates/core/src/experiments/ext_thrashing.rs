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
//!
//! Mitigation off and on are one [`grid`](super::grid) axis of
//! [`Axis::Thrashing`] values.

use uvm_driver::policy::DriverPolicy;

use crate::experiments::grid::{Axis, Rows, Sweep, Table, KERNEL_MS};
use crate::experiments::suite::Bench;

/// Random at 200 % oversubscription, mitigation off then on.
pub fn sweep() -> Sweep {
    Sweep {
        title: "Extension — thrashing mitigation (Random, 200% oversubscription)",
        workloads: vec![("random", Bench::Random.build())],
        resident: (1, 2),
        policy: DriverPolicy::default(),
        tenancy: Default::default(),
        axis: vec![Axis::Thrashing(false), Axis::Thrashing(true)],
        tables: vec![Table {
            caption: None,
            rows: Rows::Cells(vec![
                ("Mitigation", |c| c.config[0].clone()),
                KERNEL_MS,
                ("Evictions", |c| c.evictions.to_string()),
                ("Pins", |c| c.thrashing_pins.to_string()),
                ("Migrated", |c| c.pages_migrated.to_string()),
                ("Remote", |c| c.remote_mapped.to_string()),
            ]),
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::grid::find;
    use crate::runctl::RunCtx;

    #[test]
    fn mitigation_cuts_evictions_and_migration_churn() {
        let grid = sweep();
        let cells = grid.run(&RunCtx::new(1), 1);
        let off = find(&cells, "random", &["off"]).unwrap();
        let on = find(&cells, "random", &["on"]).unwrap();
        assert_eq!([cells[0].config[0].as_str(), cells[1].config[0].as_str()], ["off", "on"]);
        assert_eq!(off.thrashing_pins, 0);
        assert!(on.thrashing_pins > 0, "thrashing must be detected");
        assert!(
            on.evictions * 2 < off.evictions,
            "pinning should cut evictions sharply: {} vs {}",
            on.evictions,
            off.evictions
        );
        assert!(on.pages_migrated < off.pages_migrated, "less re-migration churn");
        assert!(on.kernel_ms < off.kernel_ms, "and the kernel speeds up");
        assert!(grid.render(&cells).contains("Mitigation"));
    }
}
