//! Integration tests for the `uvm-trace` subsystem: perturbation freedom
//! (tracing never changes simulated results), reconciliation (span-derived
//! breakdowns match the driver's batch records exactly), and snapshot
//! awareness (a killed-and-resumed traced run records every event exactly
//! once).
//!
//! The tracer sink is thread-local; each test installs and uninstalls its
//! own backend, so these tests are safe under the default parallel test
//! runner.

use uvm_core::trace::{self, RingTracer, TraceFilter, TraceRecord};
use uvm_core::{Progress, RunHints, RunInProgress, RunResult, SystemConfig, UvmSystem};
use uvm_workloads::cpu_init::CpuInitPolicy;
use uvm_workloads::stream::{self, StreamParams};
use uvm_workloads::Workload;

const MB: u64 = 1024 * 1024;

fn workload() -> Workload {
    stream::build(StreamParams {
        warps: 32,
        pages_per_warp: 8,
        iters: 1,
        warps_per_page: 1,
        cpu_init: Some(CpuInitPolicy::Striped { threads: 4 }),
    })
}

fn config() -> SystemConfig {
    // Small enough to force evictions, so the evict span path is covered.
    SystemConfig::test_small(16 * MB).with_seed(0x5C21)
}

/// Uninstalls the thread-local tracer when dropped, so a failing assert
/// cannot leak a tracer into the next test on this thread.
struct TracerGuard;

impl Drop for TracerGuard {
    fn drop(&mut self) {
        trace::uninstall();
    }
}

fn run_traced(config: SystemConfig, w: &Workload) -> (RunResult, Vec<TraceRecord>) {
    let _guard = TracerGuard;
    trace::install(Box::new(RingTracer::new(1 << 20)));
    let result = UvmSystem::new(config).run(w);
    let tracer = trace::uninstall().expect("tracer still installed");
    let ring = tracer.as_ring().expect("ring backend");
    assert_eq!(ring.dropped(), 0, "ring must be large enough for the run");
    (result, ring.records().cloned().collect())
}

fn result_json(r: &RunResult) -> String {
    serde_json::to_string(r).expect("result serializes")
}

#[test]
fn ring_tracing_is_perturbation_free() {
    let w = workload();
    let plain = UvmSystem::new(config()).run(&w);
    let (traced, records) = run_traced(config(), &w);
    assert_eq!(
        result_json(&plain),
        result_json(&traced),
        "installing a RingTracer must not change simulated results"
    );
    assert!(!records.is_empty(), "the traced run must record events");
}

/// Run `w` traced under `config` and require every batch's span breakdown
/// to reconcile exactly with its record: each component's span sum equals
/// both the `BatchClose` vector and the record's `t_*` field. Returns the
/// result, the trace, and the breakdowns for case-specific checks.
fn assert_reconciles(
    config: SystemConfig,
    w: &Workload,
) -> (RunResult, Vec<TraceRecord>, Vec<trace::BatchBreakdown>) {
    let label = config.backend.name();
    let (result, records) = run_traced(config, w);
    let breakdowns = trace::breakdown(&records);
    assert_eq!(breakdowns.len(), result.records.len(), "{label}");
    let mut want = [0u64; 10];
    for (b, r) in breakdowns.iter().zip(result.records.iter()) {
        assert_eq!(b.batch, r.seq, "{label}");
        assert!(b.complete(), "{label}: batch {} missing open/close", r.seq);
        assert!(
            b.reconciled(),
            "{label}: batch {}: spans {:?} != close {:?}",
            r.seq,
            b.spans,
            b.close
        );
        assert_eq!(b.close, Some(r.component_ns()), "{label}");
        for (slot, c) in want.iter_mut().zip(r.component_ns()) {
            *slot += c;
        }
    }
    assert_eq!(trace::totals(&breakdowns), want, "{label}");
    (result, records, breakdowns)
}

#[test]
fn trace_breakdown_reconciles_with_batch_records() {
    let w = workload();
    let (result, records, _) = assert_reconciles(config(), &w);

    // The exporters accept the full run: the Chrome trace parses as JSON
    // and the CSV carries one row per record.
    let json = trace::chrome_trace(&records);
    serde_json::parse(&json).expect("chrome trace is valid JSON");
    assert_eq!(trace::csv(&records).lines().count(), records.len() + 1);

    // Fault lifetimes cover every uniquely serviced page of every batch.
    let unique: u64 = result.records.iter().map(|r| r.unique_pages).sum();
    assert_eq!(trace::fault_lifetimes(&records).len() as u64, unique);
}

#[test]
fn every_backend_reconciles_with_batch_records() {
    use uvm_driver::backend::BackendKind;

    let w = workload();
    for backend in BackendKind::ALL {
        assert_reconciles(config().with_backend(backend), &w);
    }
}

/// Blocks degraded to remote mappings charge their page-table updates to
/// the record like every other path, so degrading batches still tile.
#[test]
fn degrading_batches_reconcile_with_batch_records() {
    use uvm_core::driver::policy::DriverPolicy;
    use uvm_core::sim::inject::{FaultPlan, InjectionPoint, PointPlan};

    // A revisiting stream under copy-engine faults aggressive enough to
    // exhaust `retries(1)` on several blocks.
    let w = stream::build(StreamParams {
        warps: 32,
        pages_per_warp: 16,
        iters: 2,
        warps_per_page: 1,
        cpu_init: Some(CpuInitPolicy::Striped { threads: 8 }),
    });
    let plan = FaultPlan::none().with(
        InjectionPoint::CopyEngineFault,
        PointPlan::with_probability(0.35),
    );
    let config = SystemConfig::test_small(16 * MB)
        .with_policy(DriverPolicy::default().retries(1))
        .with_fault_plan(plan);
    let (result, _, _) = assert_reconciles(config, &w);
    assert!(
        result.records.iter().any(|r| r.degraded_blocks > 0),
        "the plan must degrade at least one block"
    );
}

/// Span tiling must reconcile exactly when a batch contains *zero*
/// host-side work: the GPU-driven backend emits no `cpu-unmap` spans at
/// all (the unmap state transition happens off the critical path), so
/// every batch's unmap component is empty on both sides of the contract —
/// absent spans must read as an exact zero, not as a truncated batch.
#[test]
fn gpu_driven_batches_reconcile_with_empty_unmap_component() {
    use uvm_driver::backend::BackendKind;

    let w = workload();
    let (_, records, breakdowns) =
        assert_reconciles(config().with_backend(BackendKind::GpuDriven), &w);
    assert!(
        records.iter().all(|r| r.event.name() != "cpu-unmap"),
        "GPU-driven servicing must emit no host unmap spans"
    );
    for b in &breakdowns {
        // The unmap slot is zero in the span sum *and* the close vector.
        assert_eq!(b.spans[3], 0, "batch {}: unmap span appeared", b.batch);
        assert_eq!(
            b.close.expect("complete")[3],
            0,
            "batch {}: unmap closed nonzero",
            b.batch
        );
    }
    // The claim is only meaningful if the workload would have paid unmap
    // under the stock driver.
    let (stock, _) = run_traced(config(), &w);
    assert!(stock.records.iter().any(|r| r.t_unmap.as_nanos() > 0));
}

#[test]
fn resumed_traced_run_records_every_event_exactly_once() {
    let w = workload();
    let (_, straight) = run_traced(config(), &w);

    // Kill the run mid-flight: trace to a checkpoint at batch 3, then
    // throw away the live tracer (process death), restore into a fresh
    // one, and finish.
    let _guard = TracerGuard;
    trace::install(Box::new(RingTracer::new(1 << 20)));
    let mut run = UvmSystem::new(config())
        .start(&w, &RunHints::default())
        .expect("run starts");
    let snap = loop {
        match run.advance_batch(&w).expect("batch services") {
            Progress::Batch(3) => break run.snapshot(&w, 0),
            Progress::Batch(_) => {}
            Progress::Finished => panic!("run finished before the checkpoint batch"),
        }
    };
    let json = serde_json::to_string(&snap).expect("snapshot serializes");
    trace::uninstall();

    trace::install(Box::new(RingTracer::new(1 << 20)));
    let back = serde_json::from_str(&json).expect("snapshot parses");
    let mut resumed = RunInProgress::restore(&back, &w).expect("snapshot restores");
    while resumed.advance_batch(&w).expect("batch services") != Progress::Finished {}
    resumed.into_result(&w);
    let tracer = trace::uninstall().expect("tracer installed");
    let replayed: Vec<TraceRecord> =
        tracer.as_ring().expect("ring backend").records().cloned().collect();

    assert_eq!(
        replayed, straight,
        "a killed-and-resumed traced run must record the same events, \
         each exactly once, as an uninterrupted traced run"
    );
}

#[test]
fn traced_snapshot_restores_without_a_tracer() {
    let w = workload();
    let plain = UvmSystem::new(config()).run(&w);

    let _guard = TracerGuard;
    trace::install(Box::new(RingTracer::new(1 << 20)));
    let mut run = UvmSystem::new(config())
        .start(&w, &RunHints::default())
        .expect("run starts");
    let snap = loop {
        match run.advance_batch(&w).expect("batch services") {
            Progress::Batch(2) => break run.snapshot(&w, 0),
            Progress::Batch(_) => {}
            Progress::Finished => panic!("run finished before the checkpoint batch"),
        }
    };
    trace::uninstall();

    // Restoring a traced checkpoint with tracing off must work (the
    // buffered events are simply dropped) and still finish bit-identically.
    let mut resumed = RunInProgress::restore(&snap, &w).expect("snapshot restores");
    while resumed.advance_batch(&w).expect("batch services") != Progress::Finished {}
    assert_eq!(result_json(&plain), result_json(&resumed.into_result(&w)));
}

#[test]
fn trace_filter_narrows_capture_without_perturbing() {
    let w = workload();
    let plain = UvmSystem::new(config()).run(&w);

    let _guard = TracerGuard;
    let filter = TraceFilter::parse("batch-close").expect("valid filter");
    trace::install(Box::new(RingTracer::with_filter(1 << 20, filter)));
    let filtered = UvmSystem::new(config()).run(&w);
    let tracer = trace::uninstall().expect("tracer installed");
    let records: Vec<TraceRecord> =
        tracer.as_ring().expect("ring backend").records().cloned().collect();

    assert_eq!(result_json(&plain), result_json(&filtered));
    assert_eq!(records.len(), plain.records.len());
    assert!(records
        .iter()
        .all(|r| r.event.name() == "batch-close"));
    // Filtered-out events must not consume sequence numbers.
    let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
    assert_eq!(seqs, (0..records.len() as u64).collect::<Vec<_>>());
}
