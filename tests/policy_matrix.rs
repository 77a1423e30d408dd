//! Differential invariant tests across the pluggable-policy grid.
//!
//! Every (prefetch, eviction) policy combination must uphold the same
//! system-level contracts the stock driver does:
//!
//! * the per-batch cross-subsystem audit (`DriverPolicy::audit_enabled`)
//!   passes on every serviced batch;
//! * page residency is conserved — the VA space never holds more
//!   GPU-resident pages than the memory manager has resident blocks, and
//!   the manager never exceeds its capacity;
//! * reruns at the same seed are bit-identical (the full serialized
//!   `RunResult`, not just summary numbers), and running batch-by-batch
//!   is indistinguishable from `run()`;
//! * fanning the grid across worker threads changes nothing;
//! * a mid-run snapshot/restore under a non-default policy stack (oracle
//!   future maps, LFU touch counts, the random evictor's RNG) resumes
//!   bit-identically.
//!
//! Both a regular workload (vecadd) and an irregular one (graph BFS) run
//! under oversubscription, so every combination actually evicts.

use uvm_core::{
    Progress, RunCtx, RunHints, RunInProgress, SystemConfig, SystemSnapshot, UvmSystem,
};
use uvm_driver::policy::DriverPolicy;
use uvm_driver::{EvictionPolicyKind, PrefetchPolicyKind};
use uvm_sim::mem::PAGES_PER_VABLOCK;
use uvm_sim::time::SimDuration;
use uvm_workloads::cpu_init::CpuInitPolicy;
use uvm_workloads::workload::Workload;
use uvm_workloads::{graph_bfs, vecadd};

/// The harness-wide default seed (`uvm_bench::SEED`).
const SEED: u64 = 0x5C21;

/// Regular workload: page-strided vecadd, ~9 MiB footprint.
fn vecadd_small() -> Workload {
    vecadd::build(vecadd::VecAddParams {
        warps: 8,
        statements: 3,
        coalesced: false,
        cpu_init: Some(CpuInitPolicy::SingleThread),
    })
}

/// Irregular workload: pointer-chasing BFS, ~5 MiB footprint.
fn bfs_small() -> Workload {
    graph_bfs::build(graph_bfs::GraphBfsParams {
        vertices: 2048,
        avg_degree: 4,
        vdata_bytes: 2048,
        frontier_per_warp: 32,
        max_levels: 8,
        compute_per_vertex: SimDuration::from_nanos(100),
        seed: 0xBF5,
        cpu_init: Some(CpuInitPolicy::SingleThread),
    })
}

/// Every (prefetch, eviction) combination the engine supports.
fn combos() -> Vec<(PrefetchPolicyKind, EvictionPolicyKind)> {
    let mut out = Vec::new();
    for &p in &PrefetchPolicyKind::ALL {
        for &e in &EvictionPolicyKind::ALL {
            out.push((p, e));
        }
    }
    out
}

/// Oversubscribed audited config for one policy combination.
fn config(mem_mb: u64, p: PrefetchPolicyKind, e: EvictionPolicyKind) -> SystemConfig {
    SystemConfig::test_small(mem_mb * 1024 * 1024)
        .with_policy(DriverPolicy::default().prefetcher(p).evictor(e).audited(true))
        .with_seed(SEED)
}

/// Run `workload` batch-by-batch under (`p`, `e`), checking residency
/// conservation after every batch, and return the serialized result.
fn stepped_run(
    workload: &Workload,
    mem_mb: u64,
    p: PrefetchPolicyKind,
    e: EvictionPolicyKind,
) -> String {
    let mut run = UvmSystem::new(config(mem_mb, p, e))
        .start(workload, &RunHints::default())
        .expect("run starts");
    let capacity = run.driver().memory().capacity_blocks();
    loop {
        let progress = run
            .advance_batch(workload)
            .unwrap_or_else(|err| panic!("audit/service failed under {}/{}: {err}", p.name(), e.name()));
        let resident_blocks = run.driver().memory().resident_blocks();
        let resident_pages = run.driver().va_space.total_resident_pages();
        assert!(
            resident_blocks <= capacity,
            "{}/{}: {resident_blocks} resident blocks exceed capacity {capacity}",
            p.name(),
            e.name()
        );
        assert!(
            resident_pages <= resident_blocks * PAGES_PER_VABLOCK,
            "{}/{}: {resident_pages} resident pages in {resident_blocks} blocks",
            p.name(),
            e.name()
        );
        if progress == Progress::Finished {
            break;
        }
    }
    let result = run.into_result(workload);
    serde_json::to_string(&result).expect("result serializes")
}

/// The audit + conservation + bit-identical-rerun differential, for one
/// workload at one memory size.
fn check_matrix(workload: &Workload, mem_mb: u64) {
    assert!(
        mem_mb * 1024 * 1024 < workload.footprint_bytes(),
        "matrix must run oversubscribed"
    );
    for (p, e) in combos() {
        // One-shot run (also audited): the rerun baseline.
        let oneshot = UvmSystem::new(config(mem_mb, p, e)).run(workload);
        assert!(
            oneshot.evictions > 0,
            "{}/{}: oversubscription must force evictions",
            p.name(),
            e.name()
        );
        // The eviction count is derived from the batch log's counters;
        // each evicted block is also listed where it is written back.
        let evicted: usize = oneshot.records.iter().map(|r| r.evicted_blocks.len()).sum();
        assert_eq!(
            oneshot.evictions,
            evicted as u64,
            "{}/{}: evictions must match the evicted-block lists",
            p.name(),
            e.name()
        );
        let oneshot = serde_json::to_string(&oneshot).expect("result serializes");
        // Stepped rerun with per-batch conservation checks: bit-identical.
        let stepped = stepped_run(workload, mem_mb, p, e);
        assert_eq!(
            oneshot,
            stepped,
            "{}/{}: rerun diverged at seed {SEED:#x}",
            p.name(),
            e.name()
        );
    }
}

#[test]
fn vecadd_matrix_audits_conserves_and_reruns_identically() {
    check_matrix(&vecadd_small(), 4);
}

#[test]
fn bfs_matrix_audits_conserves_and_reruns_identically() {
    check_matrix(&bfs_small(), 4);
}

#[test]
fn policy_grid_is_jobs_invariant() {
    let workload = vecadd_small();
    let grid = |jobs: usize| -> Vec<String> {
        RunCtx::new(jobs).map(combos(), |ctx, (p, e)| {
            let r = ctx.run(config(4, p, e), &workload);
            serde_json::to_string(&r).expect("result serializes")
        })
    };
    let serial = grid(1);
    let fanned = grid(4);
    assert_eq!(serial, fanned, "--jobs 4 must be byte-identical to --jobs 1");
}

/// Satellite check: snapshot mid-run under non-default policy stacks and
/// restore — the oracle's future-access map, the LFU evictor's touch
/// counts, and the random evictor's RNG must all survive the round-trip
/// for the resumed run to stay bit-identical.
#[test]
fn snapshot_restore_mid_run_under_non_default_policies() {
    let workload = bfs_small();
    for (p, e) in [
        (PrefetchPolicyKind::Oracle, EvictionPolicyKind::Lfu),
        (PrefetchPolicyKind::SequentialStride, EvictionPolicyKind::Random),
    ] {
        let straight = UvmSystem::new(config(4, p, e)).run(&workload);
        assert!(
            straight.num_batches > 4,
            "{}/{}: need enough batches to snapshot mid-run",
            p.name(),
            e.name()
        );
        let straight = serde_json::to_string(&straight).expect("result serializes");

        let mut run = UvmSystem::new(config(4, p, e))
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
            "{}/{}: restored run diverged from the uninterrupted run",
            p.name(),
            e.name()
        );
    }
}

