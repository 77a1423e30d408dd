//! Differential invariant tests across the servicing-backend grid.
//!
//! Every servicing architecture ([`BackendKind`]) must uphold the same
//! system-level contracts the stock CPU-driven driver does, on every
//! paper workload family:
//!
//! * the per-batch cross-subsystem audit (including the owner-directory
//!   coherence invariant) passes on every serviced batch;
//! * page residency is conserved — the VA space never holds more
//!   GPU-resident pages than the memory manager has resident blocks, and
//!   the manager never exceeds its capacity (peer-held pages are *not*
//!   GPU-resident, so the bound holds unchanged under the peer backends);
//! * reruns at the same seed are bit-identical (the full serialized
//!   `RunResult`, not just summary numbers), and running batch-by-batch
//!   is indistinguishable from `run()`;
//! * fanning the grid across worker threads changes nothing;
//! * a mid-run snapshot/restore under a non-stock backend (the peer
//!   owner directory, the GPU-driven wake schedule) resumes
//!   bit-identically.
//!
//! All four workload families run oversubscribed, so every backend
//! actually evicts — and the peer backends actually spill.

use uvm_core::{
    Progress, RunCtx, RunHints, RunInProgress, SystemConfig, SystemSnapshot, UvmSystem,
};
use uvm_driver::backend::BackendKind;
use uvm_driver::policy::DriverPolicy;
use uvm_sim::mem::PAGES_PER_VABLOCK;
use uvm_sim::time::SimDuration;
use uvm_workloads::cpu_init::CpuInitPolicy;
use uvm_workloads::workload::Workload;
use uvm_workloads::{attention, gauss_seidel, graph_bfs, stream};

/// The harness-wide default seed (`uvm_bench::SEED`).
const SEED: u64 = 0x5C21;

/// The four paper workload families at CI-smoke scale.
fn workloads() -> Vec<(&'static str, Workload)> {
    let init = Some(CpuInitPolicy::SingleThread);
    vec![
        (
            "stream",
            stream::build(stream::StreamParams {
                warps: 64,
                pages_per_warp: 8,
                iters: 1,
                warps_per_page: 4,
                cpu_init: init,
            }),
        ),
        (
            "gauss-seidel",
            gauss_seidel::build(gauss_seidel::GaussSeidelParams {
                rows: 512,
                pages_per_row: 4,
                warps: 32,
                iters: 2,
                compute_per_row: SimDuration::from_micros(2),
                cpu_init: init,
            }),
        ),
        (
            "bfs",
            graph_bfs::build(graph_bfs::GraphBfsParams {
                vertices: 2048,
                vdata_bytes: 1024,
                max_levels: 6,
                ..graph_bfs::GraphBfsParams::default()
            }),
        ),
        (
            "attn",
            attention::build(attention::AttentionParams {
                kv_rows: 1024,
                batches: 3,
                queries_per_batch: 8,
                hot_rows: 64,
                ..attention::AttentionParams::default()
            }),
        ),
    ]
}

/// Memory budget forcing ~125 % oversubscription for `workload`.
fn memory_bytes(workload: &Workload) -> u64 {
    (workload.footprint_bytes() / (1024 * 1024) * 4 / 5).max(4) * 1024 * 1024
}

/// Oversubscribed audited config for one backend.
fn config(workload: &Workload, backend: BackendKind) -> SystemConfig {
    SystemConfig::test_small(memory_bytes(workload))
        .with_policy(DriverPolicy::default().audited(true))
        .with_backend(backend)
        .with_seed(SEED)
}

/// Run `workload` batch-by-batch under `backend`, checking residency
/// conservation after every batch, and return the serialized result.
fn stepped_run(name: &str, workload: &Workload, backend: BackendKind) -> String {
    let mut run = UvmSystem::new(config(workload, backend))
        .start(workload, &RunHints::default())
        .expect("run starts");
    let capacity = run.driver().memory().capacity_blocks();
    loop {
        let progress = run
            .advance_batch(workload)
            .unwrap_or_else(|err| panic!("audit/service failed under {}/{name}: {err}", backend.name()));
        let resident_blocks = run.driver().memory().resident_blocks();
        let resident_pages = run.driver().va_space.total_resident_pages();
        assert!(
            resident_blocks <= capacity,
            "{}/{name}: {resident_blocks} resident blocks exceed capacity {capacity}",
            backend.name()
        );
        assert!(
            resident_pages <= resident_blocks * PAGES_PER_VABLOCK,
            "{}/{name}: {resident_pages} resident pages in {resident_blocks} blocks",
            backend.name()
        );
        if progress == Progress::Finished {
            break;
        }
    }
    let result = run.into_result(workload);
    serde_json::to_string(&result).expect("result serializes")
}

/// The audit + conservation + bit-identical-rerun differential, for one
/// workload across every backend.
fn check_matrix(name: &str, workload: &Workload) {
    // Capacity pressure is block-granular, so even footprints below the
    // memory floor thrash once live VABlocks exceed the block budget; the
    // per-cell `evictions > 0` assert below enforces it either way.
    for backend in BackendKind::ALL {
        // One-shot run (also audited): the rerun baseline.
        let oneshot = UvmSystem::new(config(workload, backend)).run(workload);
        assert!(
            oneshot.evictions > 0,
            "{}/{name}: oversubscription must force evictions",
            backend.name()
        );
        // The eviction count is derived from the batch log's counters;
        // each evicted block is also listed where it is written back.
        let evicted: usize = oneshot.records.iter().map(|r| r.evicted_blocks.len()).sum();
        assert_eq!(
            oneshot.evictions,
            evicted as u64,
            "{}/{name}: evictions must match the evicted-block lists",
            backend.name()
        );
        let oneshot = serde_json::to_string(&oneshot).expect("result serializes");
        // Stepped rerun with per-batch conservation checks: bit-identical.
        let stepped = stepped_run(name, workload, backend);
        assert_eq!(
            oneshot,
            stepped,
            "{}/{name}: rerun diverged at seed {SEED:#x}",
            backend.name()
        );
    }
}

#[test]
fn stream_matrix_audits_conserves_and_reruns_identically() {
    let (name, w) = workloads().remove(0);
    check_matrix(name, &w);
}

#[test]
fn gauss_seidel_matrix_audits_conserves_and_reruns_identically() {
    let (name, w) = workloads().remove(1);
    check_matrix(name, &w);
}

#[test]
fn bfs_matrix_audits_conserves_and_reruns_identically() {
    let (name, w) = workloads().remove(2);
    check_matrix(name, &w);
}

#[test]
fn attn_matrix_audits_conserves_and_reruns_identically() {
    let (name, w) = workloads().remove(3);
    check_matrix(name, &w);
}

#[test]
fn backend_grid_is_jobs_invariant() {
    let (_, workload) = workloads().remove(0);
    let grid = |jobs: usize| -> Vec<String> {
        RunCtx::new(jobs).map(BackendKind::ALL.to_vec(), |ctx, backend| {
            let r = ctx.run(config(&workload, backend), &workload);
            serde_json::to_string(&r).expect("result serializes")
        })
    };
    let serial = grid(1);
    let fanned = grid(4);
    assert_eq!(serial, fanned, "--jobs 4 must be byte-identical to --jobs 1");
}

/// Satellite check: snapshot mid-run under every non-stock backend and
/// restore — the peer owner directory (holdings, counters) and the
/// backend selection itself must survive the round-trip for the resumed
/// run to stay bit-identical.
#[test]
fn snapshot_restore_mid_run_under_non_stock_backends() {
    let (name, workload) = workloads().remove(2);
    for backend in [
        BackendKind::GpuDriven,
        BackendKind::MultiGpuPeer2,
        BackendKind::MultiGpuPeer4,
    ] {
        let straight = UvmSystem::new(config(&workload, backend)).run(&workload);
        assert!(
            straight.num_batches > 4,
            "{}/{name}: need enough batches to snapshot mid-run",
            backend.name()
        );
        let straight = serde_json::to_string(&straight).expect("result serializes");

        let mut run = UvmSystem::new(config(&workload, backend))
            .start(&workload, &RunHints::default())
            .expect("run starts");
        let snap = loop {
            match run.advance_batch(&workload).expect("batch services") {
                Progress::Batch(3) => break run.snapshot(&workload, 0),
                Progress::Batch(_) => {}
                Progress::Finished => panic!("finished before snapshot point"),
            }
        };
        // Full fidelity must survive the on-disk encoding.
        let json = serde_json::to_string(&snap).expect("snapshot serializes");
        let back: SystemSnapshot = serde_json::from_str(&json).expect("snapshot parses");
        let mut resumed = RunInProgress::restore(&back, &workload).expect("snapshot restores");
        while resumed.advance_batch(&workload).expect("batch services") != Progress::Finished {}
        let resumed = serde_json::to_string(&resumed.into_result(&workload)).expect("serializes");
        assert_eq!(
            straight,
            resumed,
            "{}/{name}: restored run diverged from the uninterrupted run",
            backend.name()
        );
    }
}
