//! One pass over a workload's cells, with its output checks.
//!
//! * [`untraced`] runs every cell through the simulator's public entry
//!   points (`UvmSystem::run`, `chaos::run_trial`) with tracing off; it
//!   gives the end-to-end metrics.
//! * [`stepped`] drives the same cells through the calls those entry
//!   points make (`start`, `advance_batch`, `snapshot`, `restore`, ...),
//!   timing each one. With `traced` set it installs the host-clock tracer
//!   for each cell and uninstalls it afterwards; it gives the per-layer
//!   metrics.
//!
//! Every cell's output is reduced to a digest. The first pass records it
//! in [`Expected`]; every later pass, traced or not, must reproduce it.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::ops::AddAssign;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::{Duration, Instant};

use serde::Serialize;
use uvm_core::chaos::{self, Scenario, TrialVerdict};
use uvm_core::driver::audit;
use uvm_core::sim::error::UvmError;
use uvm_core::sim::snapshot::digest_value;
use uvm_core::snapshot::SubsystemDigests;
use uvm_core::workloads::workload::Workload;
use uvm_core::{
    Progress, RunHints, RunInProgress, RunResult, SystemConfig, SystemSnapshot, UvmSystem,
};

use crate::cells::CellSet;
use crate::probe::{HostClockTracer, Probe};

/// `chaos::run_trial`'s hang guard, reproduced by the stepped driver.
const MAX_BATCHES: u64 = 50_000;

/// What the first pass recorded for each cell.
#[derive(Debug, Default)]
pub struct Expected {
    /// Output digest per cell.
    pub digests: Vec<Option<u64>>,
    /// Simulated faults per cell (both executions of a chaos trial).
    pub faults: Vec<u64>,
}

impl Expected {
    /// Compare `digest` with the recorded one, recording it if none is.
    fn check(&mut self, cell: usize, digest: u64) -> Result<(), Failure> {
        if self.digests.len() <= cell {
            self.digests.resize(cell + 1, None);
        }
        match self.digests[cell] {
            Some(expected) if expected != digest => Err(format!(
                "output digest {digest:#018x}, expected {expected:#018x}"
            )),
            Some(_) => Ok(()),
            None => {
                self.digests[cell] = Some(digest);
                Ok(())
            }
        }
    }

    fn faults(&self, cell: usize) -> u64 {
        self.faults.get(cell).copied().unwrap_or(0)
    }

    fn record_faults(&mut self, cell: usize, faults: u64) {
        if self.faults.len() <= cell {
            self.faults.resize(cell + 1, 0);
        }
        self.faults[cell] = faults;
    }
}

/// Why a cell failed: a panic, an `Err`, audit violations, a chaos verdict
/// other than `Pass`, or an output digest that differs from the recorded one.
pub type Failure = String;

/// Host time and counts of one traced pass, by layer.
#[derive(Debug, Default)]
pub struct Layers {
    /// Workload generators (`Scenario::generate` and `WorkloadSpec::build`
    /// included).
    pub build: Duration,
    /// Config and workload `to_value` + `digest_value` before each run.
    pub run_key: Duration,
    /// `UvmSystem::new` + `start`.
    pub start: Duration,
    /// `advance_batch` time before `BatchOpen` (or in calls with no batch).
    pub event_loop: Duration,
    /// `BatchOpen` → `BatchClose`.
    pub service: Duration,
    /// `BatchClose` → return of `advance_batch`.
    pub audit: Duration,
    /// Host nanoseconds per driver/host-OS stage, in `Stage::ALL` order.
    pub stage_ns: [u64; 9],
    /// Host nanoseconds of each `advance_batch` call.
    pub batch_ns: Vec<u64>,
    /// Host nanoseconds of each batch's service.
    pub service_ns: Vec<u64>,
    /// Per kill: `snapshot`, JSON encode, JSON decode, `restore` (ns).
    pub kill_ns: [Vec<u64>; 4],
    /// Per kill: snapshot JSON bytes.
    pub snapshot_bytes: Vec<u64>,
    /// `fault-generated` events the tracer counted.
    pub fault_events: u64,
    /// Simulated-work counts.
    pub counts: Counts,
}

/// Exact simulated-work counts, summed over a pass's runs.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// `total_faults_inserted`.
    pub faults: u64,
    /// Serviced batches.
    pub batches: u64,
    /// VABlock evictions.
    pub evictions: u64,
    /// `unmap_mapping_range` calls.
    pub unmap_calls: u64,
    /// Pages migrated to the device.
    pub pages_migrated: u64,
    /// Raw faults fetched into batches.
    pub raw_faults: u64,
    /// Unique pages after dedup.
    pub unique_pages: u64,
    /// Flush plus overflow drops.
    pub drops: u64,
}

impl Counts {
    fn of(r: &RunResult) -> Counts {
        let mut c = Counts {
            faults: r.total_faults_inserted,
            batches: r.num_batches,
            evictions: r.evictions,
            unmap_calls: r.unmap_calls,
            drops: r.flush_drops + r.overflow_drops,
            ..Counts::default()
        };
        for rec in &r.records {
            c.pages_migrated += rec.pages_migrated;
            c.raw_faults += rec.raw_faults;
            c.unique_pages += rec.unique_pages;
        }
        c
    }
}

impl AddAssign for Counts {
    fn add_assign(&mut self, o: Counts) {
        self.faults += o.faults;
        self.batches += o.batches;
        self.evictions += o.evictions;
        self.unmap_calls += o.unmap_calls;
        self.pages_migrated += o.pages_migrated;
        self.raw_faults += o.raw_faults;
        self.unique_pages += o.unique_pages;
        self.drops += o.drops;
    }
}

/// The outcome of one pass.
#[derive(Debug, Default)]
pub struct Pass {
    /// Input generation and system assembly.
    pub setup: Duration,
    /// Simulation: everything after set-up, less the output checks.
    pub wall: Duration,
    /// Host time of each cell, in cell order (untraced passes only; their
    /// sum is `wall`).
    pub cells: Vec<Duration>,
    /// Simulated faults.
    pub faults: u64,
    /// Cells run.
    pub attempted: u64,
    /// Cells that failed.
    pub failed: u64,
    /// Per-layer breakdown (stepped passes only).
    pub layers: Layers,
}

impl Pass {
    fn tally(&mut self, label: &str, outcome: Result<(), Failure>) {
        self.attempted += 1;
        if let Err(failure) = outcome {
            self.failed += 1;
            eprintln!("uvmbench: cell {label} failed: {failure}");
        }
    }
}

/// Run `f`, turning a panic into a [`Failure`].
fn guarded<T>(f: impl FnOnce() -> Result<T, Failure>) -> Result<T, Failure> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        Err(format!("panicked: {msg}"))
    })
}

fn digest<T: Serialize>(value: &T) -> u64 {
    digest_value(&value.to_value())
}

fn trial_label(i: usize) -> String {
    format!("trial-{i}")
}

/// Generates a pass's cells.
pub type Generate<'a> = &'a dyn Fn() -> CellSet;

/// An untraced pass through the public entry points. Set-up covers cell
/// generation and each system's assembly (`UvmSystem::new`), which
/// happens just before the system runs.
pub fn untraced(generate: Generate, expected: &mut Expected) -> Pass {
    let mut pass = Pass::default();
    let t = Instant::now();
    let set = generate();
    pass.setup = t.elapsed();
    match set {
        CellSet::Runs { workloads, cells } => {
            for (i, cell) in cells.into_iter().enumerate() {
                let t = Instant::now();
                let system = UvmSystem::new(cell.config);
                pass.setup += t.elapsed();
                let t = Instant::now();
                let result = guarded(|| Ok(system.run(&workloads[cell.workload])));
                pass.cells.push(t.elapsed());
                pass.faults += expected.faults(i);
                let outcome = result.and_then(|r| expected.check(i, digest(&r)));
                pass.tally(&cell.label, outcome);
            }
        }
        CellSet::Trials(scenarios) => {
            for (i, s) in scenarios.iter().enumerate() {
                // `run_trial` assembles the scenario's workload and system
                // itself; assembling them here measures that set-up.
                let t = Instant::now();
                black_box((s.workload.build(), UvmSystem::new(s.config())));
                pass.setup += t.elapsed();
                let t = Instant::now();
                let verdict = guarded(|| Ok(chaos::run_trial(s)));
                pass.cells.push(t.elapsed());
                pass.faults += expected.faults(i);
                let outcome = verdict.and_then(|v| match v {
                    TrialVerdict::Pass => expected.check(i, digest(&v)),
                    other => Err(format!("chaos verdict {other:?}")),
                });
                pass.tally(&trial_label(i), outcome);
            }
        }
    }
    pass.wall = pass.cells.iter().sum();
    pass
}

/// A stepped pass: the same cells driven call by call, under the
/// host-clock tracer when `traced`. Records each cell's simulated faults
/// in `expected`.
pub fn stepped(generate: Generate, traced: bool, expected: &mut Expected) -> Pass {
    let mut pass = Pass::default();
    let t = Instant::now();
    let set = generate();
    pass.layers.build = t.elapsed();
    let probe = Rc::new(RefCell::new(Probe::default()));
    for i in 0..set.len() {
        if traced {
            uvm_core::trace::install(Box::new(HostClockTracer(Rc::clone(&probe))));
        }
        let t = Instant::now();
        let (label, run) = match &set {
            CellSet::Runs { workloads, cells } => {
                let c = &cells[i];
                let run = guarded(|| {
                    stepped_run(&workloads[c.workload], &c.config, &probe, &mut pass.layers)
                });
                (c.label.clone(), run)
            }
            CellSet::Trials(scenarios) => {
                let run = guarded(|| stepped_trial(&scenarios[i], &probe, &mut pass.layers));
                (trial_label(i), run)
            }
        };
        pass.wall += t.elapsed();
        if traced {
            uvm_core::trace::uninstall();
        }
        let p = std::mem::take(&mut *probe.borrow_mut());
        for (acc, ns) in pass.layers.stage_ns.iter_mut().zip(p.stage_ns) {
            *acc += ns;
        }
        pass.layers.fault_events += p.fault_events;

        let outcome = run.and_then(|(digest, counts, check)| {
            pass.wall -= check;
            pass.faults += counts.faults;
            pass.layers.counts += counts;
            expected.record_faults(i, counts.faults);
            expected.check(i, digest)
        });
        pass.tally(&label, outcome);
    }
    pass
}

/// One `advance_batch` call, split at the batch's open and close.
fn step(
    run: &mut RunInProgress,
    w: &Workload,
    probe: &RefCell<Probe>,
    l: &mut Layers,
) -> Result<Progress, UvmError> {
    let t0 = Instant::now();
    let progress = run.advance_batch(w);
    let t1 = Instant::now();
    l.batch_ns.push((t1 - t0).as_nanos() as u64);
    match probe.borrow_mut().take_batch() {
        (Some(open), close) => {
            let close = close.unwrap_or(t1);
            l.event_loop += open - t0;
            l.service += close - open;
            l.service_ns.push((close - open).as_nanos() as u64);
            l.audit += t1 - close;
        }
        (None, _) => l.event_loop += t1 - t0,
    }
    progress
}

/// What a stepped cell returns: its output digest, its simulated-work
/// counts, and the host time spent on output checks (excluded from the
/// pass wall time).
type Stepped = (u64, Counts, Duration);

/// The calls `UvmSystem::run` makes, one at a time.
fn stepped_run(
    w: &Workload,
    config: &SystemConfig,
    probe: &RefCell<Probe>,
    l: &mut Layers,
) -> Result<Stepped, Failure> {
    let t = Instant::now();
    black_box((digest(config), digest(w)));
    l.run_key += t.elapsed();

    let err = |e: UvmError| format!("error: {e}");
    let t = Instant::now();
    let mut run = UvmSystem::new(config.clone())
        .start(w, &RunHints::default())
        .map_err(err)?;
    l.start += t.elapsed();

    while step(&mut run, w, probe, l).map_err(err)? != Progress::Finished {}

    let t = Instant::now();
    let violations = audit::violations(run.driver(), run.gpu(), run.host());
    let check = t.elapsed();
    if !violations.is_empty() {
        let all: Vec<String> = violations.iter().map(ToString::to_string).collect();
        return Err(format!("audit violations: {}", all.join("; ")));
    }
    let result = run.into_result(w);
    let t = Instant::now();
    let d = digest(&result);
    Ok((d, Counts::of(&result), check + t.elapsed()))
}

/// What one execution of a chaos scenario produced (as in `chaos`).
struct Exec {
    digests: SubsystemDigests,
    records_json: String,
    batches: u64,
    violations: Vec<String>,
    counts: Counts,
}

fn invalid(detail: String) -> UvmError {
    UvmError::SnapshotInvalid { detail }
}

/// The calls one `chaos::run_trial` execution makes, one at a time:
/// start, advance, and at each kill point snapshot, JSON round trip and
/// restore.
fn execute(
    s: &Scenario,
    kills: &[u64],
    probe: &RefCell<Probe>,
    l: &mut Layers,
) -> Result<Exec, UvmError> {
    let t = Instant::now();
    let workload = s.workload.build();
    l.build += t.elapsed();

    let t = Instant::now();
    let mut run = UvmSystem::new(s.config()).start(&workload, &RunHints::default())?;
    l.start += t.elapsed();

    let mut pending: BTreeSet<u64> = kills.iter().copied().collect();
    loop {
        match step(&mut run, &workload, probe, l)? {
            Progress::Finished => break,
            Progress::Batch(n) => {
                if n > MAX_BATCHES {
                    return Err(invalid(format!(
                        "hang guard: exceeded {MAX_BATCHES} batches"
                    )));
                }
                if pending.remove(&n) {
                    let t0 = Instant::now();
                    let snap = run.snapshot(&workload, 0);
                    let t1 = Instant::now();
                    let json = serde_json::to_string(&snap)
                        .map_err(|e| invalid(format!("snapshot serialization failed: {e}")))?;
                    let t2 = Instant::now();
                    drop(run);
                    let t3 = Instant::now();
                    let back: SystemSnapshot = serde_json::from_str(&json)
                        .map_err(|e| invalid(format!("snapshot re-parse failed: {e}")))?;
                    let t4 = Instant::now();
                    run = RunInProgress::restore(&back, &workload)?;
                    let t5 = Instant::now();
                    for (acc, d) in l
                        .kill_ns
                        .iter_mut()
                        .zip([t1 - t0, t2 - t1, t4 - t3, t5 - t4])
                    {
                        acc.push(d.as_nanos() as u64);
                    }
                    l.snapshot_bytes.push(json.len() as u64);
                }
            }
        }
    }
    let digests = run.subsystem_digests();
    let violations = audit::violations(run.driver(), run.gpu(), run.host())
        .iter()
        .map(ToString::to_string)
        .collect();
    let batches = run.batches();
    let result = run.into_result(&workload);
    let records_json = serde_json::to_string(&result.records)
        .map_err(|e| invalid(format!("record serialization failed: {e}")))?;
    Ok(Exec {
        digests,
        records_json,
        batches,
        violations,
        counts: Counts::of(&result),
    })
}

/// The verdict `chaos::run_trial` gives, reached through the calls it
/// makes. The output digest is the verdict's; the trial fails unless the
/// verdict is `Pass` and equals `run_trial`'s.
fn stepped_trial(s: &Scenario, probe: &RefCell<Probe>, l: &mut Layers) -> Result<Stepped, Failure> {
    let reference = execute(s, &[], probe, l);
    let torture = execute(s, &s.kill_batches, probe, l);
    let mut counts = Counts::default();
    for exec in [&reference, &torture].into_iter().flatten() {
        counts += exec.counts;
    }
    let verdict = verdict(reference, torture);
    let t = Instant::now();
    if verdict != TrialVerdict::Pass {
        return Err(format!("chaos verdict {verdict:?}"));
    }
    Ok((digest(&verdict), counts, t.elapsed()))
}

/// `chaos::run_trial`'s comparison of the reference and torture runs.
fn verdict(reference: Result<Exec, UvmError>, torture: Result<Exec, UvmError>) -> TrialVerdict {
    match (reference, torture) {
        (Ok(a), Ok(b)) => {
            if !a.violations.is_empty() || !b.violations.is_empty() {
                let all: Vec<String> = a.violations.iter().chain(&b.violations).cloned().collect();
                return TrialVerdict::AuditFailure(all.join("; "));
            }
            if a.digests != b.digests {
                return TrialVerdict::Divergence(format!(
                    "final state digests disagree in [{}] after {} batches",
                    a.digests.diff(&b.digests).join(", "),
                    b.batches
                ));
            }
            if a.records_json != b.records_json {
                return TrialVerdict::Divergence(format!(
                    "batch-record streams differ ({} vs {} batches)",
                    a.batches, b.batches
                ));
            }
            TrialVerdict::Pass
        }
        (Err(e @ UvmError::InvariantViolation { .. }), _)
        | (_, Err(e @ UvmError::InvariantViolation { .. })) => {
            TrialVerdict::AuditFailure(e.to_string())
        }
        (Err(ea), Err(eb)) if ea == eb => TrialVerdict::Pass,
        (Err(ea), Err(eb)) => TrialVerdict::Divergence(format!(
            "reference failed with `{ea}` but torture failed with `{eb}`"
        )),
        (Ok(_), Err(e)) => {
            TrialVerdict::Divergence(format!("reference completed but torture failed: {e}"))
        }
        (Err(e), Ok(_)) => {
            TrialVerdict::Divergence(format!("torture completed but reference failed: {e}"))
        }
    }
}
