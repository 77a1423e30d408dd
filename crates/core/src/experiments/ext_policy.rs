//! Extension experiment: pluggable-policy sweep over regular and
//! irregular workloads.
//!
//! The paper's driver hard-wires one prefetcher (the tree-based density
//! heuristic) and one evictor (LRU VABlock order). The policy engine
//! makes both pluggable; this experiment runs the full policy × workload
//! grid under ~125 % oversubscription so the interaction is visible:
//!
//! * dense streaming (vecadd) rewards the tree prefetcher and the
//!   sequential-stride policy almost equally — the access order *is* a
//!   stride;
//! * Gauss-Seidel's row sweep re-touches evicted rows, so aggressive
//!   prefetching under oversubscription amplifies eviction churn
//!   (Fig. 15/16's pathology);
//! * pointer-chasing BFS and skewed attention gathers give a reactive
//!   prefetcher nothing to learn — only the oracle (perfect future
//!   knowledge, the upper bound adaptive schemes chase) still wins;
//! * eviction policy matters most where the working set is skewed
//!   (attention's hot rows make LRU ≈ LFU ≫ random).
//!
//! Every cell is an independent seeded simulation, run by
//! [`grid`](super::grid) across `--jobs N` workers with byte-identical
//! output.

use uvm_driver::policy::DriverPolicy;
use uvm_driver::{EvictionPolicyKind, PrefetchPolicyKind};
use uvm_sim::time::SimDuration;
use uvm_workloads::cpu_init::CpuInitPolicy;
use uvm_workloads::{attention, gauss_seidel, graph_bfs, vecadd};

use crate::experiments::grid::{Axis, Rows, Sweep, Table, BATCHES, KERNEL_MS, WORKLOAD};

/// The policy grid over four workloads — two regular (streaming, stencil)
/// and two irregular (pointer-chasing, skewed gathers) — at ~125 %
/// oversubscription. `quick` shrinks every problem for CI smoke and
/// debug-mode tests.
pub fn sweep(quick: bool) -> Sweep {
    let init = Some(CpuInitPolicy::SingleThread);
    let workloads = vec![
        (
            "vecadd",
            vecadd::build(vecadd::VecAddParams {
                warps: if quick { 128 } else { 256 },
                statements: if quick { 6 } else { 8 },
                coalesced: true,
                cpu_init: init,
            }),
        ),
        (
            "gauss-seidel",
            gauss_seidel::build(gauss_seidel::GaussSeidelParams {
                rows: if quick { 512 } else { 1024 },
                pages_per_row: 4,
                warps: if quick { 32 } else { 64 },
                iters: 2,
                compute_per_row: SimDuration::from_micros(2),
                cpu_init: init,
            }),
        ),
        (
            "graph-bfs",
            graph_bfs::build(graph_bfs::GraphBfsParams {
                vertices: if quick { 4096 } else { 8192 },
                vdata_bytes: 1024,
                ..graph_bfs::GraphBfsParams::default()
            }),
        ),
        (
            "attention",
            attention::build(attention::AttentionParams {
                kv_rows: if quick { 2048 } else { 8192 },
                batches: if quick { 4 } else { 8 },
                queries_per_batch: if quick { 8 } else { 16 },
                hot_rows: if quick { 128 } else { 256 },
                ..attention::AttentionParams::default()
            }),
        ),
    ];
    Sweep {
        title: "Extension — policy sweep (prefetch x eviction grid, ~125% oversubscription)",
        workloads,
        resident: (4, 5),
        policy: DriverPolicy::default(),
        tenancy: Default::default(),
        axis: PrefetchPolicyKind::ALL
            .iter()
            .flat_map(|&p| EvictionPolicyKind::ALL.iter().map(move |&e| Axis::Policy(p, e)))
            .collect(),
        tables: vec![Table {
            caption: None,
            rows: Rows::Cells(vec![
                WORKLOAD,
                ("Prefetch", |c| c.config[0].clone()),
                ("Evict", |c| c.config[1].clone()),
                KERNEL_MS,
                BATCHES,
                ("Migrated", |c| c.pages_migrated.to_string()),
                ("Prefetched", |c| c.pages_prefetched.to_string()),
                ("Evictions", |c| c.evictions.to_string()),
            ]),
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runctl::RunCtx;
    use crate::experiments::grid::Cell;

    #[test]
    fn quick_grid_covers_every_policy_combination() {
        let grid = sweep(true);
        let rows = grid.run(&RunCtx::new(1), 1);
        assert_eq!(
            rows.len(),
            4 * PrefetchPolicyKind::ALL.len() * EvictionPolicyKind::ALL.len()
        );
        let prefetch = |r: &Cell| r.config[0].clone();
        // Every cell ran a real oversubscribed simulation.
        for row in &rows {
            assert!(row.batches > 0, "{row:?}");
            assert!(row.pages_migrated > 0, "{row:?}");
            assert!(row.evictions > 0, "oversubscription must force evictions: {row:?}");
        }
        // The `none` prefetcher never prefetches; the others do somewhere.
        for row in rows.iter().filter(|r| prefetch(r) == "none") {
            assert_eq!(row.pages_prefetched, 0, "{row:?}");
        }
        for name in ["tree", "stride", "oracle"] {
            let total: u64 = rows
                .iter()
                .filter(|r| prefetch(r) == name)
                .map(|r| r.pages_prefetched)
                .sum();
            assert!(total > 0, "{name} never prefetched a page");
        }
        let rendered = grid.render(&rows);
        assert!(rendered.contains("vecadd"));
        assert!(rendered.contains("graph-bfs"));
        assert!(rendered.contains("oracle"));
        assert!(rendered.contains("lfu"));
    }

    #[test]
    fn cells_are_deterministic_per_seed() {
        // Grid-level determinism (and jobs-invariance) is covered by the
        // `policy_matrix` integration tests and the CI sweep smoke job;
        // here just pin the per-cell contract on a cheap cell.
        let mut grid = sweep(true);
        grid.workloads.drain(..3);
        grid.axis = vec![Axis::Policy(PrefetchPolicyKind::Oracle, EvictionPolicyKind::Random)];
        let a = grid.run(&RunCtx::new(1), 7);
        let b = grid.run(&RunCtx::new(1), 7);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = grid.run(&RunCtx::new(1), 8);
        assert_ne!(format!("{a:?}"), format!("{c:?}"), "seed must perturb the run");
    }
}
