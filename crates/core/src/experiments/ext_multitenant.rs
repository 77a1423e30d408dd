//! Extension experiment: multi-tenant fairness sweep.
//!
//! Three clients share one GPU under ~125 % oversubscription: a dense
//! streaming client (`stream`, coalesced vecadd), a pointer-chasing
//! client (`bfs`), and a weight-2 skewed-gather client (`attn`,
//! attention). Their kernels co-schedule round by round
//! ([`crate::tenancy::InterleaveMode::Coschedule`]), so all three fault
//! into the same batches and contend for the driver's servicing pipeline
//! — the regime the paper's per-SM fault throttle targets, lifted here to
//! per-client admission.
//!
//! The sweep runs the same composed workload under every
//! [`FairnessPolicy`] and reports, per policy: kernel time, batches,
//! faults throttled at admission, and the Jain fairness index over the
//! clients' mean fault-service latencies; and per client: attributed
//! faults plus p50/p99 fault-service latency (fault-buffer arrival →
//! batch close, from the per-fault metadata log).
//!
//! Every policy cell is an independent seeded simulation, run by
//! [`grid`](super::grid) across `--jobs N` workers with byte-identical
//! output.

use uvm_driver::clients::FairnessPolicy;
use uvm_driver::policy::DriverPolicy;
use uvm_workloads::cpu_init::CpuInitPolicy;
use uvm_workloads::{attention, graph_bfs, vecadd};

use crate::experiments::grid::{Axis, Rows, Sweep, Table, BATCHES, KERNEL_MS};
use crate::tenancy::{compose, ClientSpec, InterleaveMode};

/// The three tenants composed once (the composed workload does not depend
/// on the fairness policy) and run under every fairness policy, with
/// per-fault metadata logging for the latency attribution. `quick`
/// shrinks every client for CI smoke and debug-mode tests.
pub fn sweep(quick: bool) -> Sweep {
    let init = Some(CpuInitPolicy::SingleThread);
    let specs = [
        ClientSpec::new(
            "stream",
            vecadd::build(vecadd::VecAddParams {
                warps: if quick { 64 } else { 192 },
                statements: if quick { 4 } else { 8 },
                coalesced: true,
                cpu_init: init,
            }),
        ),
        ClientSpec::new(
            "bfs",
            graph_bfs::build(graph_bfs::GraphBfsParams {
                vertices: if quick { 2048 } else { 6144 },
                vdata_bytes: 1024,
                max_levels: if quick { 6 } else { 10 },
                ..graph_bfs::GraphBfsParams::default()
            }),
        ),
        ClientSpec::new(
            "attn",
            attention::build(attention::AttentionParams {
                kv_rows: if quick { 1024 } else { 4096 },
                batches: if quick { 3 } else { 6 },
                queries_per_batch: if quick { 8 } else { 16 },
                hot_rows: if quick { 64 } else { 256 },
                ..attention::AttentionParams::default()
            }),
        )
        .with_weight(2),
    ];
    let (workload, tenancy) = compose(&specs, InterleaveMode::Coschedule, FairnessPolicy::None);
    Sweep {
        title:
            "Extension — multi-tenant fairness sweep (3 clients, coschedule, ~125% oversubscription)",
        workloads: vec![("stream+bfs+attn", workload)],
        resident: (4, 5),
        policy: DriverPolicy::default().log_faults(true),
        tenancy,
        axis: [
            FairnessPolicy::None,
            FairnessPolicy::RoundRobin,
            FairnessPolicy::FaultQuota(64),
            FairnessPolicy::WeightedShare,
        ]
        .map(Axis::Fairness)
        .to_vec(),
        tables: vec![
            Table {
                caption: None,
                rows: Rows::Cells(vec![
                    ("Policy", |c| c.config[0].clone()),
                    KERNEL_MS,
                    BATCHES,
                    ("Throttled", |c| c.throttled.to_string()),
                    ("Jain", |c| format!("{:.4}", c.jain())),
                ]),
            },
            Table {
                caption: Some("Per-client fault attribution and service latency"),
                rows: Rows::Clients(vec![
                    ("Policy", |c, _| c.config[0].clone()),
                    ("Client", |_, t| t.name.clone()),
                    ("Weight", |_, t| t.weight.to_string()),
                    ("Faults", |_, t| t.faults.to_string()),
                    ("p50 (ms)", |_, t| format!("{:.3}", t.p50_ms)),
                    ("p99 (ms)", |_, t| format!("{:.3}", t.p99_ms)),
                ]),
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runctl::RunCtx;
    use crate::experiments::grid::Cell;

    #[test]
    fn quick_sweep_covers_every_policy_and_client() {
        let grid = sweep(true);
        let cells = grid.run(&RunCtx::new(1), 1);
        assert_eq!(cells.len(), 4);
        assert_eq!(cells.iter().map(|c| c.clients.len()).sum::<usize>(), 4 * 3);
        for s in &cells {
            assert!(s.batches > 0, "{s:?}");
            assert!(s.jain() > 0.0 && s.jain() <= 1.0 + 1e-9, "{s:?}");
        }
        let summary = |policy: &str| -> &Cell {
            cells.iter().find(|c| c.config[0] == policy).expect("policy row")
        };
        // Pure attribution policies never throttle; quota policies must.
        assert_eq!(summary("none").throttled, 0);
        assert_eq!(summary("round-robin").throttled, 0);
        for policy in ["fault-quota", "weighted-share"] {
            let s = summary(policy);
            assert!(s.throttled > 0, "{policy} should clip a 3-client coschedule: {s:?}");
        }
        for row in cells.iter().flat_map(|c| &c.clients) {
            assert!(row.faults > 0, "every client faults: {row:?}");
            assert!(row.p99_ms >= row.p50_ms, "{row:?}");
            assert!(row.p50_ms > 0.0, "{row:?}");
        }
        // The attn client carries weight 2 into the report.
        let attn = summary("none").clients.iter().find(|c| c.name == "attn");
        assert_eq!(attn.expect("attn row").weight, 2);
        let rendered = grid.render(&cells);
        assert!(rendered.contains("weighted-share"));
        assert!(rendered.contains("stream"));
        assert!(rendered.contains("Jain"));
    }

    #[test]
    fn cells_are_deterministic_per_seed() {
        let mut grid = sweep(true);
        grid.axis = vec![Axis::Fairness(FairnessPolicy::WeightedShare)];
        let a = grid.run(&RunCtx::new(1), 7);
        let b = grid.run(&RunCtx::new(1), 7);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
