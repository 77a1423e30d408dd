//! Snapshot-format pins: the exact JSON bytes of mid-run snapshots.
//!
//! `SNAPSHOT_VERSION` promises that a snapshot's encoding only changes
//! together with the version number. The digest and restore tests check
//! that a snapshot round-trips, not that its bytes stay put, so a change of
//! container type or a hand-written serializer could silently re-encode
//! the state. This test pauses runs mid-way and pins the byte length and
//! the FNV-1a hash of `serde_json::to_string(&snapshot)` to constants
//! recorded from the format as it stands:
//!
//! * stream and gauss-seidel at the `ext-architectures` quick sizes, with
//!   device memory at 80 % of the footprint, under every servicing
//!   backend, paused at batch 700 (or where the run ends, if sooner);
//! * one chaos scenario with two or more tenants and an enabled fault plan.
//!
//! A mismatch means the snapshot bytes changed: either the change is a
//! bug, or it is a format change that must bump `SNAPSHOT_VERSION` and
//! re-record these constants. The pinned lengths make a size regression
//! fail on its own, showing the recorded and the new byte counts side by
//! side.

use uvm_core::experiments::suite::experiment_config;
use uvm_core::{Progress, RunHints, RunInProgress, Scenario, UvmSystem};
use uvm_driver::backend::BackendKind;
use uvm_sim::snapshot::SNAPSHOT_VERSION;
use uvm_sim::time::SimDuration;
use uvm_workloads::cpu_init::CpuInitPolicy;
use uvm_workloads::workload::Workload;
use uvm_workloads::{gauss_seidel, stream};

/// The harness-wide default seed (`uvm_bench::SEED`).
const SEED: u64 = 0x5C21;
const MB: u64 = 1024 * 1024;
/// Batches serviced before the arch-oversub snapshots are taken.
const PAUSE_AT: u64 = 700;

/// FNV-1a over the snapshot's JSON text.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Advance `run` by up to `batches` serviced batches (fewer when the run
/// finishes or its fault plan aborts it).
fn advance(run: &mut RunInProgress, workload: &Workload, batches: u64) {
    for _ in 0..batches {
        if !matches!(run.advance_batch(workload), Ok(Progress::Batch(_))) {
            break;
        }
    }
}

/// `(batches serviced, bytes of the snapshot JSON, FNV of those bytes)`
/// at the pause point.
fn pin(run: &RunInProgress, workload: &Workload) -> (u64, usize, u64) {
    let json = serde_json::to_string(&run.snapshot(workload, 0)).expect("snapshot encodes");
    (run.batches(), json.len(), fnv(json.as_bytes()))
}

/// The stream and gauss-seidel cells of the `ext-architectures` quick grid.
fn arch_workloads() -> [(&'static str, Workload); 2] {
    let init = Some(CpuInitPolicy::SingleThread);
    [
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
                rows: 1024,
                pages_per_row: 4,
                warps: 64,
                iters: 2,
                compute_per_row: SimDuration::from_micros(2),
                cpu_init: init,
            }),
        ),
    ]
}

/// `(workload, backend, batches at the pause, bytes of the snapshot JSON,
/// FNV of those bytes)`.
const ARCH_PINS: [(&str, &str, u64, usize, u64); 8] = [
    ("stream", "cpu-driver", 16, 31_109, 11_802_541_406_310_728_531),
    ("stream", "gpu-driven", 160, 167_235, 17_458_556_791_983_018_155),
    ("stream", "peer-2", 16, 31_350, 15_568_783_725_616_218_728),
    ("stream", "peer-4", 16, 31_350, 5_285_334_031_573_614_809),
    ("gauss-seidel", "cpu-driver", 700, 703_309, 16_635_562_176_777_739_107),
    ("gauss-seidel", "gpu-driven", 700, 693_679, 14_531_139_262_449_023_692),
    ("gauss-seidel", "peer-2", 700, 703_315, 17_543_582_610_618_723_798),
    ("gauss-seidel", "peer-4", 700, 703_315, 493_427_564_627_668_849),
];

#[test]
fn arch_oversub_snapshots_keep_their_bytes() {
    assert_eq!(SNAPSHOT_VERSION, 12, "re-record every pin for a new version");
    let mut got = Vec::new();
    let mut blocked = 0;
    for (name, workload) in arch_workloads() {
        let memory_mb = (workload.footprint_bytes() / MB * 4 / 5).max(4);
        for backend in BackendKind::ALL {
            let config = experiment_config(memory_mb)
                .with_seed(SEED)
                .with_backend(backend);
            let mut run = UvmSystem::new(config)
                .start(&workload, &RunHints::default())
                .expect("run starts");
            advance(&mut run, &workload, PAUSE_AT);
            blocked += run.gpu().blocked_warps();
            let (batches, bytes, hash) = pin(&run, &workload);
            got.push((name, backend.name(), batches, bytes, hash));
        }
    }
    assert_eq!(
        got, ARCH_PINS,
        "snapshot bytes changed under SNAPSHOT_VERSION 12"
    );
    // The pins cover warps paused with faulted accesses on their
    // scoreboards, not only idle devices.
    assert!(blocked > 0, "no paused run had a blocked warp");
}

/// The first scenario of the default campaign with several tenants and an
/// enabled fault plan.
fn tenant_fault_scenario() -> (u64, Scenario) {
    (0..10_000)
        .map(|i| (i, Scenario::generate(SEED, i)))
        .find(|(_, s)| s.config().tenancy.clients.len() > 1 && s.plan.is_enabled())
        .expect("the campaign draws a multi-tenant scenario with faults")
}

#[test]
fn chaos_snapshot_keeps_its_bytes() {
    let (index, scenario) = tenant_fault_scenario();
    let workload = scenario.workload.build();
    let mut run = UvmSystem::new(scenario.config())
        .start(&workload, &RunHints::default())
        .expect("run starts");
    advance(&mut run, &workload, 12);
    let (batches, bytes, hash) = pin(&run, &workload);
    assert_eq!(
        (index, batches, bytes, hash),
        (4, 12, 31_883, 12_445_098_297_974_438_518),
        "snapshot bytes changed under SNAPSHOT_VERSION 12"
    );
}
