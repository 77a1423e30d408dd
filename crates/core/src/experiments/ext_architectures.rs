//! Extension experiment: servicing-architecture sweep.
//!
//! The paper's entire analysis instruments one servicing architecture —
//! the CPU-driven driver in which every fault batch crosses the host
//! interrupt path and pays `unmap_mapping_range` on the fault path. This
//! sweep re-runs four paper-style workloads (stream, gauss-seidel, bfs,
//! attention) at ~125 % oversubscription under every
//! [`BackendKind`]: the stock CPU driver, GPUVM-style GPU-driven fault
//! queues (no interrupt/wake round-trip, zero host unmap time on the
//! critical path), and 2/4-peer multi-GPU far-fault servicing (capacity
//! victims spill to a peer over an NVLink-like interconnect instead of
//! writing back to sysmem, and re-faults fetch them back peer-to-peer).
//!
//! Reported per cell: kernel time, batches, and the fault-service latency
//! breakdown (fetch/unmap/populate/transfer/evict and the rest), plus a
//! migration-traffic table separating host-writeback bytes from
//! peer-spill and peer-fetch traffic. The headline contrasts: the
//! GPU-driven backend's unmap column is exactly zero, and the peer
//! backends convert host writeback into cheaper interconnect traffic.
//!
//! Every cell is an independent seeded simulation, run by
//! [`grid`](super::grid) across `--jobs N` workers with byte-identical
//! output.

use uvm_driver::backend::BackendKind;
use uvm_driver::policy::DriverPolicy;
use uvm_workloads::cpu_init::CpuInitPolicy;
use uvm_workloads::{attention, gauss_seidel, graph_bfs, stream};

use crate::experiments::grid::{Axis, Column, Rows, Sweep, Table, BATCHES, KERNEL_MS, WORKLOAD};

/// Every backend over four workloads at ~125 % oversubscription, in report
/// order. `quick` shrinks each workload for CI smoke and debug-mode tests.
pub fn sweep(quick: bool) -> Sweep {
    let init = Some(CpuInitPolicy::SingleThread);
    let workloads = vec![
        (
            "stream",
            stream::build(stream::StreamParams {
                warps: if quick { 64 } else { 192 },
                pages_per_warp: if quick { 8 } else { 16 },
                iters: 1,
                warps_per_page: 4,
                cpu_init: init,
            }),
        ),
        (
            "gauss-seidel",
            gauss_seidel::build(gauss_seidel::GaussSeidelParams {
                rows: if quick { 1024 } else { 4096 },
                pages_per_row: 4,
                warps: if quick { 64 } else { 128 },
                iters: 2,
                compute_per_row: uvm_sim::time::SimDuration::from_micros(2),
                cpu_init: init,
            }),
        ),
        (
            "bfs",
            graph_bfs::build(graph_bfs::GraphBfsParams {
                vertices: if quick { 2048 } else { 6144 },
                vdata_bytes: 1024,
                max_levels: if quick { 6 } else { 10 },
                ..graph_bfs::GraphBfsParams::default()
            }),
        ),
        (
            "attn",
            attention::build(attention::AttentionParams {
                kv_rows: if quick { 1024 } else { 4096 },
                batches: if quick { 3 } else { 6 },
                queries_per_batch: if quick { 8 } else { 16 },
                hot_rows: if quick { 64 } else { 256 },
                ..attention::AttentionParams::default()
            }),
        ),
    ];
    const BACKEND: Column = ("Backend", |c| c.config[0].clone());
    fn mib(bytes: u64) -> String {
        format!("{:.1}", bytes as f64 / (1024.0 * 1024.0))
    }
    Sweep {
        title:
            "Extension — servicing-architecture sweep (backend x workload, ~125% oversubscription)",
        workloads,
        resident: (4, 5),
        policy: DriverPolicy::default(),
        tenancy: Default::default(),
        axis: BackendKind::ALL.into_iter().map(Axis::Backend).collect(),
        tables: vec![
            Table {
                caption: Some("Fault-service latency breakdown (component ms summed over batches)"),
                rows: Rows::Cells(vec![
                    WORKLOAD,
                    BACKEND,
                    KERNEL_MS,
                    BATCHES,
                    ("Fetch", |c| format!("{:.2}", c.ms(&[0]))),
                    ("Unmap", |c| format!("{:.2}", c.ms(&[3]))),
                    ("Pop+PTE", |c| format!("{:.2}", c.ms(&[4, 7]))),
                    ("Transfer", |c| format!("{:.2}", c.ms(&[5]))),
                    ("Evict", |c| format!("{:.2}", c.ms(&[6]))),
                    ("Other", |c| format!("{:.2}", c.ms(&[1, 2, 8, 9]))),
                ]),
            },
            Table {
                caption: Some("Migration traffic by source and destination"),
                rows: Rows::Cells(vec![
                    WORKLOAD,
                    BACKEND,
                    ("Migrated (pages)", |c| c.pages_migrated.to_string()),
                    ("Host WB (MiB)", |c| mib(c.bytes_evicted)),
                    ("To peer (MiB)", |c| mib(c.bytes_spilled_to_peer)),
                    ("From peer (MiB)", |c| mib(c.bytes_from_peer)),
                ]),
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::grid::{find, Cell};

    #[test]
    fn quick_sweep_covers_every_backend_and_workload() {
        let grid = sweep(true);
        let cells = grid.run(1);
        assert_eq!(cells.len(), 4 * 4);
        for c in &cells {
            assert!(c.batches > 0, "{c:?}");
            assert!(c.kernel_ms > 0.0, "{c:?}");
            assert!(c.pages_migrated > 0, "{c:?}");
        }
        let cell = |b: &str, w: &str| -> &Cell { find(&cells, w, &[b]).expect("sweep cell") };
        let unmap_ms = |c: &Cell| c.ms(&[3]);
        for w in ["stream", "gauss-seidel", "bfs", "attn"] {
            // The headline claim: GPU-driven servicing removes the host
            // unmap component entirely; the stock driver pays it on every
            // CPU-initialized workload.
            assert!(unmap_ms(cell("cpu-driver", w)) > 0.0, "{w}");
            assert_eq!(unmap_ms(cell("gpu-driven", w)), 0.0, "{w}");
            // Oversubscription forces evictions; under the peer backends
            // they become interconnect spills, not host writeback.
            for b in ["peer-2", "peer-4"] {
                let c = cell(b, w);
                assert!(c.bytes_spilled_to_peer > 0, "{b}/{w}: {c:?}");
                assert!(c.bytes_from_peer > 0, "{b}/{w}: {c:?}");
            }
            let stock = cell("cpu-driver", w);
            assert!(stock.bytes_spilled_to_peer == 0 && stock.bytes_from_peer == 0, "{w}");
        }
        let rendered = grid.render(&cells);
        assert!(rendered.contains("gpu-driven"));
        assert!(rendered.contains("peer-4"));
        assert!(rendered.contains("Host WB (MiB)"));
    }

    #[test]
    fn cells_are_deterministic_per_seed() {
        let mut grid = sweep(true);
        grid.workloads.truncate(1);
        grid.axis = vec![Axis::Backend(BackendKind::MultiGpuPeer2)];
        let a = grid.run(7);
        let b = grid.run(7);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
