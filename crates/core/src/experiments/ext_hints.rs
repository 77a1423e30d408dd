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
//!
//! The managements are one [`grid`](super::grid) axis of
//! [`Axis::Hints`] values.

use uvm_driver::advise::MemAdvise;
use uvm_driver::policy::DriverPolicy;
use uvm_workloads::cpu_init::CpuInitPolicy;
use uvm_workloads::stream::{self, StreamParams};
use uvm_workloads::workload::Workload;

use crate::experiments::grid::{Axis, Rows, Sweep, Table, BATCHES, KERNEL_MS};
use crate::system::RunHints;

/// `hint` on the triad's inputs, `a` and `b` (`c` is the output).
fn advise_inputs(w: &Workload, hint: MemAdvise) -> RunHints {
    let advise = w.allocations[..2].iter().map(|&a| (a, hint)).collect();
    RunHints { advise, ..Default::default() }
}

/// The four managements of a 48 MiB stream triad (2 iterations) with
/// 256 MiB of device memory, so nothing is evicted.
pub fn sweep() -> Sweep {
    let triad = stream::build(StreamParams {
        warps: 256,
        pages_per_warp: 16,
        iters: 2,
        warps_per_page: 1,
        cpu_init: Some(CpuInitPolicy::SingleThread),
    });
    Sweep {
        title: "Extension — memory-usage hints (stream triad, 2 iterations)",
        workloads: vec![("stream", triad)],
        resident: (16, 3),
        policy: DriverPolicy::default(),
        tenancy: Default::default(),
        axis: vec![
            Axis::Hints("default", |_| RunHints::default()),
            Axis::Hints("prefetch-async", |w| RunHints {
                prefetch: w.allocations.clone(),
                ..Default::default()
            }),
            Axis::Hints("read-mostly", |w| advise_inputs(w, MemAdvise::ReadMostly)),
            Axis::Hints("preferred-host", |w| {
                advise_inputs(w, MemAdvise::PreferredLocationHost)
            }),
        ],
        tables: vec![Table {
            caption: None,
            rows: Rows::Cells(vec![
                ("Strategy", |c| c.config[0].clone()),
                ("Total (ms)", KERNEL_MS.1),
                ("Fault batches", BATCHES.1),
                ("Migrated", |c| c.pages_migrated.to_string()),
                ("Remote", |c| c.remote_mapped.to_string()),
                ("Unmap (ms)", |c| format!("{:.2}", c.ms(&[3]))),
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
    fn hints_trade_costs_as_designed() {
        let cells = sweep().run(&RunCtx::new(1), 1);
        let by = |n: &str| find(&cells, "stream", &[n]).unwrap();
        let default = by("default");
        let prefetch = by("prefetch-async");
        let read_mostly = by("read-mostly");
        let host = by("preferred-host");

        // Prefetch: far fewer fault batches, faster end to end.
        assert!(prefetch.batches * 2 < default.batches);
        assert!(prefetch.kernel_ms < default.kernel_ms);

        // Read-mostly: no fault-path unmap for the inputs (only the
        // output's blocks could ever unmap, and c is GPU-written only).
        assert!(read_mostly.ms(&[3]) < default.ms(&[3]) * 0.2);

        // Preferred-host: the inputs never migrate; remote mappings appear.
        assert!(host.remote_mapped > 0);
        assert!(host.pages_migrated < default.pages_migrated);
        assert_eq!(host.ms(&[3]), 0.0, "host-pinned inputs keep CPU mappings");
    }
}
