//! Snapshot-format pins: the exact JSON bytes of mid-run snapshots.
//!
//! `SNAPSHOT_VERSION` promises that a snapshot's encoding only changes
//! together with the version number. The digest and restore tests check
//! that a snapshot round-trips, not that its bytes stay put, so a change of
//! container type or a hand-written serializer could silently re-encode
//! the state. This test pauses runs mid-way and pins the FNV-1a hash of
//! `serde_json::to_string(&snapshot)` to constants recorded from the
//! format as it stands:
//!
//! * stream and gauss-seidel at the `ext-architectures` quick sizes, with
//!   device memory at 80 % of the footprint, under every servicing
//!   backend, paused at batch 700 (or where the run ends, if sooner);
//! * one chaos scenario with two or more tenants and an enabled fault plan.
//!
//! A mismatch means the snapshot bytes changed: either the change is a
//! bug, or it is a format change that must bump `SNAPSHOT_VERSION` and
//! re-record these constants.

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

/// `(batches serviced, FNV of the snapshot JSON)` at the pause point.
fn pin(run: &RunInProgress, workload: &Workload) -> (u64, u64) {
    let json = serde_json::to_string(&run.snapshot(workload, 0)).expect("snapshot encodes");
    (run.batches(), fnv(json.as_bytes()))
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

/// `(workload, backend, batches at the pause, FNV of the snapshot JSON)`.
const ARCH_PINS: [(&str, &str, u64, u64); 8] = [
    ("stream", "cpu-driver", 16, 8_165_212_830_310_164_704),
    ("stream", "gpu-driven", 160, 4_325_741_101_847_667_878),
    ("stream", "peer-2", 16, 16_250_981_111_787_748_633),
    ("stream", "peer-4", 16, 16_849_273_273_991_049_105),
    ("gauss-seidel", "cpu-driver", 700, 10_678_274_836_069_902_831),
    ("gauss-seidel", "gpu-driven", 700, 7_478_043_665_286_015_579),
    ("gauss-seidel", "peer-2", 700, 11_149_122_857_416_545_551),
    ("gauss-seidel", "peer-4", 700, 12_627_350_579_453_669_828),
];

#[test]
fn arch_oversub_snapshots_keep_their_bytes() {
    assert_eq!(SNAPSHOT_VERSION, 5, "re-record every pin for a new version");
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
            let (batches, hash) = pin(&run, &workload);
            got.push((name, backend.name(), batches, hash));
        }
    }
    assert_eq!(
        got, ARCH_PINS,
        "snapshot bytes changed under SNAPSHOT_VERSION 5"
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
    let (batches, hash) = pin(&run, &workload);
    assert_eq!(
        (index, batches, hash),
        (4, 12, 15_955_534_861_004_235_724),
        "snapshot bytes changed under SNAPSHOT_VERSION 5"
    );
}
