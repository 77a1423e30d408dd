//! Multi-tenant determinism and attribution invariants.
//!
//! The tenancy subsystem must not disturb any of the harness-wide
//! bit-identity contracts:
//!
//! * a single client routed through the client table is byte-identical
//!   to the same workload run without tenancy (the ledger only *adds*
//!   attribution fields, it never perturbs scheduling);
//! * a composed multi-client run serviced batch-by-batch is
//!   indistinguishable from `run()`, and its per-record attribution sums
//!   reconcile exactly with the driver's client ledger;
//! * fanning the `ext-multitenant` sweep across worker threads changes
//!   nothing in the rendered report;
//! * a mid-run snapshot/restore with two clients and an active fairness
//!   policy (ledger counters, admission state) resumes bit-identically.

use uvm_core::experiments::{ext_multitenant, golden_form};
use uvm_core::tenancy::{compose, ClientSpec};
use uvm_core::{
    Progress, RunCtx, RunHints, RunInProgress, SystemConfig, SystemSnapshot, UvmSystem,
};
use uvm_driver::clients::FairnessPolicy;
use uvm_driver::policy::DriverPolicy;
use uvm_sim::time::SimDuration;
use uvm_workloads::cpu_init::CpuInitPolicy;
use uvm_workloads::workload::Workload;
use uvm_workloads::{graph_bfs, vecadd};

/// The harness-wide default seed (`uvm_bench::SEED`).
const SEED: u64 = 0x5C21;

/// Dense streaming client: page-strided vecadd, ~9 MiB footprint.
fn stream_client() -> Workload {
    vecadd::build(vecadd::VecAddParams {
        warps: 8,
        statements: 3,
        coalesced: false,
        cpu_init: Some(CpuInitPolicy::SingleThread),
    })
}

/// Irregular client: pointer-chasing BFS, ~5 MiB footprint.
fn bfs_client() -> Workload {
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

/// Audited, seeded config at `mem_mb` device memory.
fn config(mem_mb: u64) -> SystemConfig {
    SystemConfig::test_small(mem_mb * 1024 * 1024)
        .with_policy(DriverPolicy::default().audited(true))
        .with_seed(SEED)
}

/// Routing one client through the tenancy machinery must not change a
/// single observable bit of the run: the records gain attribution fields
/// (which we strip before comparing) but every timing, fault count, and
/// eviction stays identical to the stock driver.
#[test]
fn single_client_through_tenancy_is_byte_identical() {
    for fairness in [FairnessPolicy::None, FairnessPolicy::RoundRobin] {
        let direct = stream_client();
        let (composed, tenancy) = compose(&[ClientSpec::new("solo", direct.clone())], fairness);
        // Single-spec composition is the identity on the workload itself.
        assert_eq!(
            serde_json::to_string(&composed).expect("workload serializes"),
            serde_json::to_string(&direct).expect("workload serializes"),
            "{}: composing one client must not rewrite the workload",
            fairness.name()
        );

        let base = UvmSystem::new(config(4)).run(&direct);
        let tenant = UvmSystem::new(config(4).with_tenancy(tenancy)).run(&composed);
        assert!(base.evictions > 0, "baseline must run oversubscribed");

        // Attribution is present and complete: every fetched fault lands
        // on the sole client, none are throttled by a pure-attribution
        // policy.
        let mut scrubbed = tenant.clone();
        for rec in &mut scrubbed.records {
            assert_eq!(rec.client_faults.len(), 1, "{}: one client expected", fairness.name());
            assert_eq!(
                rec.client_faults.iter().sum::<u64>(),
                rec.raw_faults,
                "{}: batch {} arrivals must all be attributed",
                fairness.name(),
                rec.seq
            );
            assert_eq!(rec.throttled_faults, 0, "{}: nothing to throttle", fairness.name());
            rec.client_faults = Vec::new();
        }
        assert_eq!(
            serde_json::to_string(&base).expect("result serializes"),
            serde_json::to_string(&scrubbed).expect("result serializes"),
            "{}: tenancy perturbed a single-client run at seed {SEED:#x}",
            fairness.name()
        );
    }
}

/// Two coscheduled clients under an active throttle: stepped servicing is
/// bit-identical to `run()`, and every fetched fault is attributed to
/// exactly one client in its batch record (the records are the only
/// per-client tally).
#[test]
fn two_client_stepped_run_matches_oneshot_and_ledger_conserves() {
    let specs = [
        ClientSpec::new("stream", stream_client()),
        ClientSpec::new("bfs", bfs_client()),
    ];
    let (workload, tenancy) = compose(&specs, FairnessPolicy::FaultQuota(16));
    assert!(
        8 * 1024 * 1024 < workload.footprint_bytes(),
        "composed run must be oversubscribed"
    );

    let oneshot = UvmSystem::new(config(8).with_tenancy(tenancy.clone())).run(&workload);
    assert!(oneshot.evictions > 0, "oversubscription must force evictions");
    let oneshot = serde_json::to_string(&oneshot).expect("result serializes");

    let mut run = UvmSystem::new(config(8).with_tenancy(tenancy))
        .start(&workload, &RunHints::default())
        .expect("run starts");
    while run.advance_batch(&workload).expect("audit/service passes") != Progress::Finished {}

    let ledger = run.driver().clients();
    assert!(ledger.is_enabled());
    assert_eq!(ledger.num_clients(), 2);

    let result = run.into_result(&workload);
    let mut rec_faults = [0u64; 2];
    let mut rec_throttled = 0u64;
    for rec in &result.records {
        assert_eq!(
            rec.client_faults.iter().sum::<u64>(),
            rec.raw_faults,
            "batch {}: every fetched fault belongs to one client",
            rec.seq
        );
        assert!(rec.throttled_faults <= rec.raw_faults);
        for (c, &f) in rec.client_faults.iter().enumerate() {
            rec_faults[c] += f;
        }
        rec_throttled += rec.throttled_faults;
    }
    for (c, &faults) in rec_faults.iter().enumerate() {
        assert!(faults > 0, "client {c} must fault");
    }
    assert!(rec_throttled > 0, "FaultQuota(16) must clip a 2-client coschedule");

    let stepped = serde_json::to_string(&result).expect("result serializes");
    assert_eq!(oneshot, stepped, "stepped multi-client run diverged at seed {SEED:#x}");
}

/// The `ext-multitenant` sweep fans policy cells across workers; the
/// rendered report must be byte-identical for any `--jobs N`, and equal to
/// the quick golden that CI's sweep smoke job diffs.
#[test]
fn multitenant_sweep_is_jobs_invariant() {
    let grid = ext_multitenant::sweep(true);
    let sweep = |jobs: usize| grid.render(&grid.run(&RunCtx::new(jobs), SEED));
    let serial = sweep(1);
    let fanned = sweep(4);
    assert_eq!(serial, fanned, "--jobs 4 must be byte-identical to --jobs 1");
    assert_eq!(
        golden_form(&serial),
        include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/src/experiments/golden/ext_multitenant_quick.txt"
        )),
        "the quick sweep must match its checked-in golden"
    );
}

/// Kill/restore mid-run with two clients: the snapshot must carry the
/// client ledger (counters, ranges, fairness state) for the resumed run
/// to finish bit-identically to the uninterrupted one.
#[test]
fn snapshot_restore_mid_run_with_two_clients() {
    let specs = [
        ClientSpec::new("stream", stream_client()),
        ClientSpec::new("bfs", bfs_client()).with_weight(2),
    ];
    let (workload, tenancy) = compose(&specs, FairnessPolicy::WeightedShare);

    let straight = UvmSystem::new(config(8).with_tenancy(tenancy.clone())).run(&workload);
    assert!(straight.num_batches > 4, "need enough batches to snapshot mid-run");
    let straight = serde_json::to_string(&straight).expect("result serializes");

    let mut run = UvmSystem::new(config(8).with_tenancy(tenancy))
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
    assert_eq!(straight, resumed, "restored multi-client run diverged from the uninterrupted run");
}
