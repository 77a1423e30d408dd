//! Deterministic chaos engine: seeded scenario fuzzing of the servicing
//! stack under torture-mode execution.
//!
//! Each trial composes a [`Scenario`] — workload × policy stack × fault
//! plan × device-memory size × kill/restore points — from a deterministic
//! per-trial RNG stream, then executes it twice:
//!
//! 1. **Reference**: one uninterrupted run from [`UvmSystem::start`] to
//!    completion.
//! 2. **Torture**: the same scenario, but at every fuzzer-chosen batch
//!    boundary the run is snapshotted, serialized to JSON, dropped, parsed
//!    back, and restored — the in-memory equivalent of a kill + resume.
//!
//! The two runs must agree **bit-for-bit**: identical per-subsystem state
//! digests at completion and byte-identical serialized batch records. Any
//! disagreement is a digest divergence. After both runs the full
//! cross-layer auditor ([`uvm_driver::audit`]) must report zero
//! violations (scenarios also run with in-band auditing enabled, so a
//! violation mid-run surfaces immediately). A failing trial is shrunk to
//! a minimal reproducer and can be written to / replayed from a serde
//! repro file (`paper chaos --repro <file>`).
//!
//! Trials are fully independent (each builds its own system from its own
//! seeds and never consults the process-global [`crate::runctl`] state),
//! so the harness fans them across the `--jobs` worker pool; the report
//! is byte-identical for any jobs width.

use std::collections::BTreeSet;
use std::path::Path;

use serde::{Deserialize, Serialize};
use uvm_driver::backend::BackendKind;
use uvm_driver::clients::{FairnessPolicy, TenancyConfig};
use uvm_driver::engine::{EvictionPolicyKind, PrefetchPolicyKind};
use uvm_driver::policy::DriverPolicy;
use uvm_sim::error::UvmError;
use uvm_sim::inject::{FaultPlan, InjectionPoint, PointPlan};
use uvm_sim::rng::DetRng;
use uvm_sim::time::SimTime;
use uvm_workloads::cpu_init::CpuInitPolicy;
use uvm_workloads::random::{self, RandomParams};
use uvm_workloads::stream::{self, StreamParams};
use uvm_workloads::vecadd::{self, VecAddParams};
use uvm_workloads::workload::Workload;

use crate::config::SystemConfig;
use crate::parallel;
use crate::snapshot::{run_key, SubsystemDigests, SystemSnapshot};
use crate::system::{Progress, RunHints, RunInProgress, UvmSystem};

const MB: u64 = 1024 * 1024;

/// Hang guard: no generated scenario legitimately services this many
/// batches; exceeding it fails the trial instead of spinning forever.
const MAX_BATCHES: u64 = 50_000;

/// Upper bound on shrink attempts per failing trial (each attempt re-runs
/// the trial, so this caps shrink cost).
const MAX_SHRINK_STEPS: usize = 48;

/// The workload half of a scenario: small, fully parameterized builders
/// over the `uvm-workloads` generators, chosen so every variant completes
/// in milliseconds while still exercising migration, duplication,
/// oversubscription, and (for `Random`) irregular access.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// The BabelStream-style triad (regular, 3 arrays).
    Stream {
        /// Number of warps.
        warps: u32,
        /// Pages per vector per warp.
        pages_per_warp: u64,
        /// CPU-init threads (0 = single-threaded init).
        striped_threads: u32,
    },
    /// Uniform-random single-page accesses (irregular).
    Random {
        /// Number of warps.
        warps: u32,
        /// Accesses per warp.
        accesses_per_warp: u32,
        /// Footprint in pages.
        footprint_pages: u64,
        /// Access-pattern seed.
        seed: u64,
    },
    /// The paper's Listing-1 vector addition (tiny, first-batch shape).
    VecAdd {
        /// Number of warps.
        warps: u32,
        /// Statements per thread.
        statements: u32,
    },
    /// Two or three clients co-scheduled through the tenancy layer: a
    /// regular stream client plus an irregular random client (plus an
    /// optional weight-2 vecadd client), admitted under a fuzzed fairness
    /// policy. Exercises per-client attribution, admission throttling,
    /// and the tenancy audit invariant under kill/restore.
    MultiTenant {
        /// Stream-client warps.
        warps: u32,
        /// Pages per vector per warp for the stream client.
        pages_per_warp: u64,
        /// Random-client footprint in pages.
        footprint_pages: u64,
        /// Random-client access-pattern seed.
        pattern_seed: u64,
        /// Whether the third (weight-2 vecadd) client is present.
        three: bool,
        /// Fairness policy installed in the client ledger.
        fairness: FairnessPolicy,
    },
}

impl WorkloadSpec {
    /// Materialize the workload.
    pub fn build(&self) -> Workload {
        match *self {
            WorkloadSpec::Stream { warps, pages_per_warp, striped_threads } => {
                stream::build(StreamParams {
                    warps,
                    pages_per_warp,
                    iters: 1,
                    warps_per_page: 1,
                    cpu_init: Some(if striped_threads > 1 {
                        CpuInitPolicy::Striped { threads: striped_threads }
                    } else {
                        CpuInitPolicy::SingleThread
                    }),
                })
            }
            WorkloadSpec::Random { warps, accesses_per_warp, footprint_pages, seed } => {
                random::build(RandomParams {
                    warps,
                    accesses_per_warp,
                    footprint_pages,
                    seed,
                    cpu_init: Some(CpuInitPolicy::SingleThread),
                })
            }
            WorkloadSpec::VecAdd { warps, statements } => vecadd::build(VecAddParams {
                warps,
                statements,
                coalesced: false,
                cpu_init: Some(CpuInitPolicy::SingleThread),
            }),
            WorkloadSpec::MultiTenant { .. } => self.multi_tenant_parts().0,
        }
    }

    /// The tenancy configuration this workload runs under:
    /// [`TenancyConfig::none`] for single-tenant specs, the composed
    /// client table for [`WorkloadSpec::MultiTenant`].
    pub fn tenancy(&self) -> TenancyConfig {
        match self {
            WorkloadSpec::MultiTenant { .. } => self.multi_tenant_parts().1,
            _ => TenancyConfig::none(),
        }
    }

    /// Compose the multi-tenant variant's clients. One function builds
    /// both the shared workload and the client table so the two can never
    /// drift apart.
    fn multi_tenant_parts(&self) -> (Workload, TenancyConfig) {
        let WorkloadSpec::MultiTenant {
            warps,
            pages_per_warp,
            footprint_pages,
            pattern_seed,
            three,
            fairness,
        } = *self
        else {
            unreachable!("multi_tenant_parts on a single-tenant spec");
        };
        let mut specs = vec![
            crate::tenancy::ClientSpec::new(
                "stream",
                stream::build(StreamParams {
                    warps,
                    pages_per_warp,
                    iters: 1,
                    warps_per_page: 1,
                    cpu_init: Some(CpuInitPolicy::SingleThread),
                }),
            ),
            crate::tenancy::ClientSpec::new(
                "random",
                random::build(RandomParams {
                    warps: 24,
                    accesses_per_warp: 24,
                    footprint_pages,
                    seed: pattern_seed,
                    cpu_init: Some(CpuInitPolicy::SingleThread),
                }),
            ),
        ];
        if three {
            specs.push(
                crate::tenancy::ClientSpec::new(
                    "vecadd",
                    vecadd::build(VecAddParams {
                        warps: 4,
                        statements: 3,
                        coalesced: false,
                        cpu_init: Some(CpuInitPolicy::SingleThread),
                    }),
                )
                .with_weight(2),
            );
        }
        crate::tenancy::compose(&specs, crate::tenancy::InterleaveMode::Coschedule, fairness)
    }
}

/// One fully-specified chaos trial. Serializable so failing scenarios can
/// be committed as repro files and replayed byte-identically forever.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// System seed (drives service jitter and every injector stream).
    pub seed: u64,
    /// The workload under test.
    pub workload: WorkloadSpec,
    /// Device memory in MiB (the oversubscription knob).
    pub memory_mb: u64,
    /// The composed driver policy stack (always audited).
    pub policy: DriverPolicy,
    /// The fault-injection plan (transient points + sustained domains).
    pub plan: FaultPlan,
    /// Batch numbers (1-based) where the torture run kills itself and
    /// restores from a JSON-round-tripped snapshot.
    pub kill_batches: Vec<u64>,
    /// The servicing backend under test (weighted toward the stock
    /// CPU-driven pipeline; the draw sits last so pre-backend scenario
    /// prefixes are unchanged).
    pub backend: BackendKind,
}

impl Scenario {
    /// Generate trial `index` of a chaos campaign. Deterministic: the
    /// scenario is a pure function of `(campaign_seed, index)`.
    pub fn generate(campaign_seed: u64, index: u64) -> Scenario {
        // Independent, well-spread per-trial stream (FNV over both parts).
        let mut rng = DetRng::new(run_key(index, campaign_seed, 0xC4A05));

        let workload = match rng.below(4) {
            0 => WorkloadSpec::Stream {
                warps: 16 + rng.below(33) as u32,
                pages_per_warp: 8 + rng.below(17),
                striped_threads: if rng.chance(0.5) { 8 } else { 0 },
            },
            1 => WorkloadSpec::Random {
                warps: 24 + rng.below(41) as u32,
                accesses_per_warp: 16 + rng.below(25) as u32,
                footprint_pages: 2048 + rng.below(2049),
                seed: rng.below(1 << 31),
            },
            2 => WorkloadSpec::VecAdd {
                warps: 1 + rng.below(8) as u32,
                statements: 2 + rng.below(4) as u32,
            },
            _ => WorkloadSpec::MultiTenant {
                warps: 8 + rng.below(17) as u32,
                pages_per_warp: 6 + rng.below(11),
                footprint_pages: 1024 + rng.below(1025),
                pattern_seed: rng.below(1 << 31),
                three: rng.chance(0.5),
                fairness: match rng.below(4) {
                    0 => FairnessPolicy::None,
                    1 => FairnessPolicy::RoundRobin,
                    2 => FairnessPolicy::FaultQuota(8 + rng.below(57) as u32),
                    _ => FairnessPolicy::WeightedShare,
                },
            },
        };

        // Memory sizes chosen so some scenarios oversubscribe (stream and
        // random footprints reach ~16-24 MiB) and some do not.
        let memory_mb = [16u64, 24, 32, 64][rng.below(4) as usize];

        let base = if rng.chance(0.5) {
            DriverPolicy::with_prefetch()
        } else {
            DriverPolicy::default()
        };
        let prefetcher = [
            PrefetchPolicyKind::None,
            PrefetchPolicyKind::TreeDensity,
            PrefetchPolicyKind::SequentialStride,
        ][rng.below(3) as usize];
        let evictor = [
            EvictionPolicyKind::Lru,
            EvictionPolicyKind::Random,
            EvictionPolicyKind::Lfu,
        ][rng.below(3) as usize];
        let policy = base
            .prefetcher(prefetcher)
            .evictor(evictor)
            .batch_limit([64usize, 256][rng.below(2) as usize])
            .dedup(rng.chance(0.9))
            .retries(1 + rng.below(3) as u32)
            .pressure_reserve(2 + rng.below(9))
            .degraded_escalation([0u64, 2, 6][rng.below(3) as usize])
            .audited(true);

        // Transient points fire per-operation; keep probabilities low so
        // recovery (retry/degrade) stays exercised without pushing any
        // path into unrecoverable territory on every trial.
        let mut plan = FaultPlan::none();
        for point in InjectionPoint::TRANSIENT {
            if rng.chance(0.45) {
                plan.point_mut(point).probability = 0.01 + rng.unit() * 0.05;
            }
        }
        // Sustained domains are consulted once per batch, so slightly
        // higher rates still mean a handful of regimes per run.
        if rng.chance(0.5) {
            *plan.point_mut(InjectionPoint::DeviceMemoryPressure) = if rng.chance(0.7) {
                PointPlan::with_probability(0.05 + rng.unit() * 0.15)
            } else {
                PointPlan::scheduled(SimTime(rng.below(4_000_000)), 1 + rng.below(4) as u32)
            };
        }
        if rng.chance(0.4) {
            *plan.point_mut(InjectionPoint::GpuReset) = if rng.chance(0.7) {
                PointPlan::with_probability(0.02 + rng.unit() * 0.08)
            } else {
                PointPlan::scheduled(SimTime(rng.below(4_000_000)), 1)
            };
        }

        // Kill/restore points: up to four distinct early-to-mid batch
        // boundaries (batches beyond the run's actual length simply never
        // trigger).
        let mut kill_batches: BTreeSet<u64> = BTreeSet::new();
        for _ in 0..rng.below(5) {
            kill_batches.insert(1 + rng.below(30));
        }

        // Servicing architecture, weighted toward stock: half the trials
        // keep the CPU-driven pipeline, the rest split across the
        // GPU-driven and multi-GPU peer backends.
        let backend = match rng.below(8) {
            0..=3 => BackendKind::CpuDriver,
            4 | 5 => BackendKind::GpuDriven,
            6 => BackendKind::MultiGpuPeer2,
            _ => BackendKind::MultiGpuPeer4,
        };

        Scenario {
            seed: campaign_seed ^ (0x5EED << 16) ^ index,
            workload,
            memory_mb,
            policy,
            plan,
            kill_batches: kill_batches.into_iter().collect(),
            backend,
        }
    }

    /// The assembled system config for this scenario.
    pub fn config(&self) -> SystemConfig {
        SystemConfig::test_small(self.memory_mb * MB)
            .with_seed(self.seed)
            .with_policy(self.policy.clone())
            .with_fault_plan(self.plan.clone())
            .with_tenancy(self.workload.tenancy())
            .with_backend(self.backend)
    }
}

/// What one scenario execution (reference or torture) produced when it
/// completed: the final per-subsystem state digests and the serialized
/// batch-record stream. Two executions of the same scenario must agree on
/// both, byte for byte.
#[derive(Debug, PartialEq)]
struct ExecOutcome {
    digests: SubsystemDigests,
    records_json: String,
    batches: u64,
    audit_violations: Vec<String>,
}

/// Verdict of one chaos trial.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TrialVerdict {
    /// Reference and torture agreed bit-for-bit and the auditor was clean.
    /// (A deterministic *recoverable-path exhaustion* — both runs failing
    /// with the identical typed error — also passes: chaos verifies
    /// bit-identity of behavior, including failure behavior.)
    Pass,
    /// The torture run's final state or record stream differed from the
    /// reference.
    Divergence(String),
    /// The cross-layer auditor reported violations (in-band or post-run).
    AuditFailure(String),
    /// The run failed in a way that prevented comparison (e.g. the
    /// batch-cap hang guard).
    RunError(String),
}

impl TrialVerdict {
    /// Whether this verdict fails the trial.
    pub fn is_failure(&self) -> bool {
        !matches!(self, TrialVerdict::Pass)
    }
}

/// Execute one scenario with the given kill/restore points and collect the
/// comparison artifacts.
fn execute(scenario: &Scenario, kills: &[u64]) -> Result<ExecOutcome, UvmError> {
    let workload = scenario.workload.build();
    let system = UvmSystem::new(scenario.config());
    let mut pending: BTreeSet<u64> = kills.iter().copied().collect();
    let mut run = system.start(&workload, &RunHints::default())?;
    loop {
        match run.advance_batch(&workload)? {
            Progress::Finished => break,
            Progress::Batch(n) => {
                if n > MAX_BATCHES {
                    return Err(UvmError::SnapshotInvalid {
                        detail: format!("hang guard: exceeded {MAX_BATCHES} batches"),
                    });
                }
                if pending.remove(&n) {
                    // Kill + resume, in memory: serialize the checkpoint
                    // to JSON, drop the live run, parse the bytes back,
                    // and restore. This exercises the exact code path a
                    // killed harness process takes on --resume.
                    let snap = run.snapshot(&workload, 0);
                    let json =
                        serde_json::to_string(&snap).map_err(|e| UvmError::SnapshotInvalid {
                            detail: format!("snapshot serialization failed: {e}"),
                        })?;
                    drop(run);
                    let back: SystemSnapshot =
                        serde_json::from_str(&json).map_err(|e| UvmError::SnapshotInvalid {
                            detail: format!("snapshot re-parse failed: {e}"),
                        })?;
                    run = RunInProgress::restore(&back, &workload)?;
                }
            }
        }
    }
    let digests = run.subsystem_digests();
    let audit_violations: Vec<String> =
        uvm_driver::audit::violations(run.driver(), run.gpu(), run.host())
            .iter()
            .map(ToString::to_string)
            .collect();
    let batches = run.batches();
    let result = run.into_result(&workload);
    let records_json =
        serde_json::to_string(&result.records).map_err(|e| UvmError::SnapshotInvalid {
            detail: format!("record serialization failed: {e}"),
        })?;
    Ok(ExecOutcome { digests, records_json, batches, audit_violations })
}

/// Run one trial: clean reference vs torture-mode execution, digest and
/// record comparison, and a full audit pass.
pub fn run_trial(scenario: &Scenario) -> TrialVerdict {
    let reference = execute(scenario, &[]);
    let torture = execute(scenario, &scenario.kill_batches);
    match (reference, torture) {
        (Ok(a), Ok(b)) => {
            if !a.audit_violations.is_empty() || !b.audit_violations.is_empty() {
                let all = a.audit_violations.iter().chain(&b.audit_violations);
                return TrialVerdict::AuditFailure(
                    all.cloned().collect::<Vec<_>>().join("; "),
                );
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
        // An invariant violation anywhere is an audit failure (the in-band
        // auditor converts violations into typed errors mid-run).
        (Err(e @ UvmError::InvariantViolation { .. }), _)
        | (_, Err(e @ UvmError::InvariantViolation { .. })) => {
            TrialVerdict::AuditFailure(e.to_string())
        }
        (Err(ea), Err(eb)) => {
            if ea == eb {
                // Both runs exhausted the same recovery path identically:
                // deterministic failure behavior is a pass.
                TrialVerdict::Pass
            } else {
                TrialVerdict::Divergence(format!(
                    "reference failed with `{ea}` but torture failed with `{eb}`"
                ))
            }
        }
        (Ok(_), Err(e)) => {
            TrialVerdict::Divergence(format!("reference completed but torture failed: {e}"))
        }
        (Err(e), Ok(_)) => {
            TrialVerdict::Divergence(format!("torture completed but reference failed: {e}"))
        }
    }
}

/// Greedily shrink a failing scenario: repeatedly try removing one source
/// of complexity (a kill point, an injection point, a non-stock policy
/// choice) and keep any reduction that still fails. The result is the
/// minimal scenario this procedure can reach, suitable for a repro file.
pub fn shrink(scenario: &Scenario) -> Scenario {
    let mut current = scenario.clone();
    let mut budget = MAX_SHRINK_STEPS;
    loop {
        let mut reduced = false;
        for candidate in reductions(&current) {
            if budget == 0 {
                return current;
            }
            budget -= 1;
            if run_trial(&candidate).is_failure() {
                current = candidate;
                reduced = true;
                break;
            }
        }
        if !reduced {
            return current;
        }
    }
}

/// All one-step reductions of a scenario, simplest-removal first.
fn reductions(s: &Scenario) -> Vec<Scenario> {
    let mut out = Vec::new();
    for i in 0..s.kill_batches.len() {
        let mut c = s.clone();
        c.kill_batches.remove(i);
        out.push(c);
    }
    for point in InjectionPoint::ALL {
        if s.plan.point(point).is_enabled() {
            let mut c = s.clone();
            *c.plan.point_mut(point) = PointPlan::default();
            out.push(c);
        }
    }
    let stock = DriverPolicy::default().audited(true);
    if s.policy.prefetch_enabled {
        let mut c = s.clone();
        c.policy.prefetch_enabled = false;
        out.push(c);
    }
    if s.policy.prefetch_policy != stock.prefetch_policy {
        let mut c = s.clone();
        c.policy.prefetch_policy = stock.prefetch_policy;
        out.push(c);
    }
    if s.policy.eviction_policy != stock.eviction_policy {
        let mut c = s.clone();
        c.policy.eviction_policy = stock.eviction_policy;
        out.push(c);
    }
    if s.policy.batch_limit != stock.batch_limit {
        let mut c = s.clone();
        c.policy.batch_limit = stock.batch_limit;
        out.push(c);
    }
    if s.backend != BackendKind::CpuDriver {
        let mut c = s.clone();
        c.backend = BackendKind::CpuDriver;
        out.push(c);
    }
    out
}

/// One failing trial of a campaign, with its shrunk reproducer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrialFailure {
    /// Trial index within the campaign.
    pub trial: u64,
    /// The verdict of the original (unshrunk) scenario.
    pub verdict: TrialVerdict,
    /// The shrunk minimal scenario (still failing).
    pub scenario: Scenario,
}

/// Result of a chaos campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosReport {
    /// Trials executed.
    pub trials: u64,
    /// Campaign seed.
    pub seed: u64,
    /// Trials whose torture run diverged from the reference.
    pub divergences: u64,
    /// Trials with cross-layer audit violations.
    pub audit_failures: u64,
    /// Trials that failed without a comparison (hang guard etc.).
    pub errors: u64,
    /// Every failing trial, shrunk.
    pub failures: Vec<TrialFailure>,
}

impl ChaosReport {
    /// Whether the campaign was fully clean.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Text report. The final line always carries the
    /// `"N divergences, M audit failures"` phrase CI greps for.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.failures {
            let what = match &f.verdict {
                TrialVerdict::Divergence(d) => format!("divergence: {d}"),
                TrialVerdict::AuditFailure(d) => format!("audit failure: {d}"),
                TrialVerdict::RunError(d) => format!("error: {d}"),
                TrialVerdict::Pass => "pass (?)".into(),
            };
            out.push_str(&format!("trial {:>4}  FAIL  {what}\n", f.trial));
        }
        out.push_str(&format!(
            "{} trials (seed {:#x}): {} divergences, {} audit failures, {} errors\n",
            self.trials, self.seed, self.divergences, self.audit_failures, self.errors
        ));
        out
    }
}

/// Run a chaos campaign: `trials` scenarios generated from `seed`,
/// executed across the configured `--jobs` worker pool (trials are
/// independent; results are reported in trial order, so the report is
/// byte-identical for any jobs width). Failing scenarios are shrunk.
pub fn run_campaign(trials: u64, seed: u64) -> ChaosReport {
    let verdicts = parallel::map_indexed(trials as usize, |i| {
        let scenario = Scenario::generate(seed, i as u64);
        let verdict = run_trial(&scenario);
        (verdict, scenario)
    });
    let mut report = ChaosReport {
        trials,
        seed,
        divergences: 0,
        audit_failures: 0,
        errors: 0,
        failures: Vec::new(),
    };
    for (i, (verdict, scenario)) in verdicts.into_iter().enumerate() {
        if !verdict.is_failure() {
            continue;
        }
        match &verdict {
            TrialVerdict::Divergence(_) => report.divergences += 1,
            TrialVerdict::AuditFailure(_) => report.audit_failures += 1,
            TrialVerdict::RunError(_) => report.errors += 1,
            TrialVerdict::Pass => {}
        }
        report.failures.push(TrialFailure {
            trial: i as u64,
            verdict,
            scenario: shrink(&scenario),
        });
    }
    report
}

/// A committed reproducer: one scenario plus the human context of what it
/// guards. Replayable via `paper chaos --repro <file>` and the
/// `chaos_repros` integration test.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReproFile {
    /// What this scenario reproduces / guards against.
    pub description: String,
    /// The scenario itself.
    pub scenario: Scenario,
}

impl ReproFile {
    /// Load a repro file.
    pub fn load(path: &Path) -> Result<ReproFile, UvmError> {
        let text = std::fs::read_to_string(path).map_err(|e| UvmError::SnapshotInvalid {
            detail: format!("cannot read {}: {e}", path.display()),
        })?;
        serde_json::from_str(&text).map_err(|e| UvmError::SnapshotInvalid {
            detail: format!("cannot parse {}: {e}", path.display()),
        })
    }

    /// Write a repro file (pretty-printed for reviewable diffs).
    pub fn save(&self, path: &Path) -> Result<(), UvmError> {
        let json = serde_json::to_string_pretty(self).map_err(|e| UvmError::SnapshotInvalid {
            detail: format!("cannot serialize repro: {e}"),
        })?;
        std::fs::write(path, json + "\n").map_err(|e| UvmError::SnapshotInvalid {
            detail: format!("cannot write {}: {e}", path.display()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_deterministic_per_seed_and_index() {
        let a = Scenario::generate(7, 3);
        let b = Scenario::generate(7, 3);
        assert_eq!(a, b);
        assert_ne!(a, Scenario::generate(7, 4), "different index, different scenario");
        assert_ne!(a, Scenario::generate(8, 3), "different seed, different scenario");
    }

    #[test]
    fn scenario_round_trips_serde() {
        let s = Scenario::generate(42, 0);
        let json = serde_json::to_string(&s).expect("scenario serializes");
        let back: Scenario = serde_json::from_str(&json).expect("scenario parses");
        assert_eq!(s, back);
    }

    #[test]
    fn clean_trial_passes_with_and_without_kills() {
        // A quiet scenario (no injection) with kill points: torture-mode
        // snapshot/kill/restore must be invisible in the final state.
        let scenario = Scenario {
            seed: 0x5C21,
            workload: WorkloadSpec::Stream {
                warps: 16,
                pages_per_warp: 8,
                striped_threads: 0,
            },
            memory_mb: 16,
            policy: DriverPolicy::default().audited(true),
            plan: FaultPlan::none(),
            kill_batches: vec![1, 3],
            backend: BackendKind::CpuDriver,
        };
        assert_eq!(run_trial(&scenario), TrialVerdict::Pass);
    }

    #[test]
    fn injected_trial_with_sustained_domains_passes() {
        // Pressure + reset + transient faults + kill/restore, all at once:
        // the full failure model must still be bit-identical under torture.
        let plan = FaultPlan::uniform(0.03)
            .with(InjectionPoint::DeviceMemoryPressure, PointPlan::with_probability(0.2))
            .with(InjectionPoint::GpuReset, PointPlan::with_probability(0.1));
        let scenario = Scenario {
            seed: 0x5C21,
            workload: WorkloadSpec::Stream {
                warps: 24,
                pages_per_warp: 12,
                striped_threads: 8,
            },
            memory_mb: 16,
            policy: DriverPolicy::default().retries(2).pressure_reserve(4).audited(true),
            plan,
            kill_batches: vec![2, 5, 9],
            backend: BackendKind::MultiGpuPeer2,
        };
        assert_eq!(run_trial(&scenario), TrialVerdict::Pass);
    }

    #[test]
    fn multi_tenant_trial_with_injection_and_kills_passes() {
        // Three co-scheduled clients under a throttling fairness policy,
        // transient injection, and kill/restore: attribution, admission
        // drops, and the tenancy audit invariant must all survive the
        // snapshot round trips bit-identically.
        let scenario = Scenario {
            seed: 0x5C21,
            workload: WorkloadSpec::MultiTenant {
                warps: 12,
                pages_per_warp: 8,
                footprint_pages: 1024,
                pattern_seed: 17,
                three: true,
                fairness: FairnessPolicy::FaultQuota(16),
            },
            memory_mb: 16,
            policy: DriverPolicy::default().audited(true),
            plan: FaultPlan::uniform(0.02),
            kill_batches: vec![2, 6],
            backend: BackendKind::GpuDriven,
        };
        assert_eq!(run_trial(&scenario), TrialVerdict::Pass);
    }

    #[test]
    fn small_campaign_is_clean_and_deterministic() {
        let a = run_campaign(4, 0);
        assert!(a.clean(), "seed-0 campaign must be clean: {}", a.render());
        assert_eq!(a.trials, 4);
        let b = run_campaign(4, 0);
        assert_eq!(a.render(), b.render(), "campaign report must be reproducible");
        assert!(a.render().contains("0 divergences, 0 audit failures"));
    }

    #[test]
    fn shrink_reduces_a_failing_scenario() {
        // A scenario that "fails" deterministically: the hang guard cannot
        // be hit cheaply, so instead verify the shrinker against a real
        // verdict by giving `run_trial` a scenario whose torture path we
        // sabotage via an absurd kill list is not possible from here.
        // What IS checkable: shrinking a passing scenario is the identity
        // (no reduction may "fix" a pass into a failure).
        let s = Scenario::generate(0, 1);
        if run_trial(&s).is_failure() {
            // If generation ever produces a failing trial, the campaign
            // test above fails loudly; don't double-report here.
            return;
        }
        // Reductions of a passing scenario all pass (shrink is only ever
        // invoked on failures, but its step set must not invent them).
        for c in reductions(&s).into_iter().take(4) {
            assert!(!run_trial(&c).is_failure());
        }
    }

    #[test]
    fn repro_file_round_trips() {
        let repro = ReproFile {
            description: "test".into(),
            scenario: Scenario::generate(1, 2),
        };
        let dir = std::env::temp_dir().join("uvm-chaos-test");
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("repro.json");
        repro.save(&path).expect("save repro");
        let back = ReproFile::load(&path).expect("load repro");
        assert_eq!(back.scenario, repro.scenario);
        assert_eq!(back.description, "test");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn repro_load_rejects_deep_nesting() {
        let dir = std::env::temp_dir().join("uvm-chaos-test");
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("nested.json");
        std::fs::write(&path, "[".repeat(1_000_000)).expect("write repro");
        let err = ReproFile::load(&path);
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, Err(UvmError::SnapshotInvalid { .. })), "{err:?}");
    }
}
