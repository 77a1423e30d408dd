//! The harness's resume path: `runctl` computes a run key only under a
//! checkpoint or resume policy, and a pending snapshot carrying a run's
//! key makes `UvmSystem::run` continue from it.
//!
//! The run-control policy and the run ordinal are process-global, so this
//! file holds a single test: the run it resumes must be the first
//! `UvmSystem::run` of the process (ordinal 0).

use serde::Serialize;
use uvm_core::runctl::{self, RunCtl};
use uvm_core::snapshot::run_key;
use uvm_core::{Progress, RunHints, SystemConfig, UvmSystem};
use uvm_driver::policy::DriverPolicy;
use uvm_sim::snapshot::digest_value;
use uvm_workloads::cpu_init::CpuInitPolicy;
use uvm_workloads::stream::{self, StreamParams};

const MB: u64 = 1024 * 1024;

#[test]
fn resume_snapshot_keyed_to_the_first_run_is_consumed_and_replays_bit_identically() {
    let workload = stream::build(StreamParams {
        warps: 32,
        pages_per_warp: 8,
        iters: 1,
        warps_per_page: 4,
        cpu_init: Some(CpuInitPolicy::SingleThread),
    });
    let config = SystemConfig::test_small(2 * MB).with_policy(DriverPolicy::with_prefetch());

    // The uninterrupted run, stepped so it claims no run ordinal; take a
    // checkpoint mid-way, keyed as the harness keys run 0 (from the
    // Value-tree digests checkpoints have always carried).
    let key = run_key(
        0,
        digest_value(&workload.to_value()),
        digest_value(&config.to_value()),
    );
    let mut run = UvmSystem::new(config.clone())
        .start(&workload, &RunHints::default())
        .expect("run starts");
    let mut snapshot = None;
    while let Progress::Batch(n) = run.advance_batch(&workload).expect("batch services") {
        if n == 3 {
            snapshot = Some(run.snapshot(&workload, key));
        }
    }
    let snapshot = snapshot.expect("the run services at least three batches");
    let uninterrupted = serde_json::to_string(&run.into_result(&workload)).expect("serializes");

    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let path = dir.join(format!("run-resume-{}.json", std::process::id()));
    snapshot.save(&path).expect("checkpoint saves");
    runctl::configure(RunCtl {
        resume_from: Some(path.clone()),
        ..RunCtl::default()
    })
    .expect("checkpoint loads");
    std::fs::remove_file(&path).ok();
    assert!(runctl::resume_pending());

    let resumed = UvmSystem::new(config).run(&workload);
    assert!(
        !runctl::resume_pending(),
        "run 0 did not take its resume snapshot"
    );
    assert_eq!(
        serde_json::to_string(&resumed).expect("serializes"),
        uninterrupted
    );
}
