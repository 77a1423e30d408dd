//! The run context: the worker budget, the checkpoint/resume policy and
//! the deterministic path of every system run, passed explicitly from the
//! harness entry point into every experiment.
//!
//! A run's path is the experiment id ([`RunCtx::experiment`]), then the
//! index of each [`RunCtx::map`] item it runs under, then its sequence
//! number among its ctx's runs; no thread schedule or `--jobs` width
//! changes it. A checkpoint records a [`run_key`] over the path's digest
//! and the run's workload and config digests. Resuming re-executes the
//! harness from the start: runs replay deterministically in full, and the
//! run whose key matches the pending snapshot restores mid-flight, so the
//! output is byte-identical to an uninterrupted execution. The digests are
//! computed only when a checkpoint or resume policy reads the key.
//!
//! Every ctx derived from a root shares its policy: the resume snapshot is
//! taken by exactly one run, and checkpoint writes are serialised through
//! the root, because [`SystemSnapshot::save`] writes through one shared
//! `.tmp` sibling. The root records whose checkpoint the file holds, so a
//! finished run removes the file only when it holds its own checkpoint.

use std::cell::Cell;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use uvm_sim::error::UvmError;
use uvm_workloads::workload::Workload;

use crate::config::SystemConfig;
use crate::parallel;
use crate::snapshot::{run_key, SystemSnapshot};
use crate::system::{RunHints, RunInProgress, RunResult, UvmSystem};

/// Checkpoint/resume policy, set from CLI flags.
#[derive(Debug, Clone, Default)]
pub struct RunCtl {
    /// Write a checkpoint every N serviced batches (latest overwrites
    /// earlier ones). `None` disables auto-checkpointing.
    pub checkpoint_every: Option<u64>,
    /// Where checkpoints are written. Defaults to `uvm-ckpt.json` in the
    /// working directory.
    pub checkpoint_path: Option<PathBuf>,
    /// Resume from this checkpoint file (loaded eagerly so a bad file
    /// fails fast, before any simulation runs).
    pub resume_from: Option<PathBuf>,
    /// Exit the process (status 0) immediately after the first checkpoint
    /// is written. Simulates a mid-run kill for resume testing; the
    /// partial output up to that point has already been printed.
    pub halt_after_checkpoint: bool,
}

/// What a root ctx shares with every ctx derived from it.
#[derive(Debug, Default)]
struct Root {
    ctl: RunCtl,
    /// Where checkpoints are written.
    path: PathBuf,
    /// The pending resume snapshot, taken by the run whose key matches.
    resume: Mutex<Option<SystemSnapshot>>,
    /// Key of the run whose checkpoint the file holds; locked for each
    /// whole write, which serialises concurrent runs' writes.
    file: Mutex<Option<u64>>,
}

/// Lock a root field. A poisoned lock is recovered rather than propagated:
/// both fields change only by whole assignments, so a panic in another
/// thread cannot leave one torn.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The context every system run executes under: a worker budget for
/// [`Self::map`], its root's checkpoint/resume policy, and its place in
/// the run path (see the [module docs](self)). A ctx is used by one
/// thread at a time; [`Self::map`] hands each item a ctx of its own.
#[derive(Debug)]
pub struct RunCtx {
    jobs: usize,
    /// Digest of the path from the root to this ctx.
    path: u64,
    /// Runs started under this ctx so far (the next run's sequence number).
    runs: Cell<u64>,
    root: Arc<Root>,
}

impl RunCtx {
    /// A policy-free ctx whose [`Self::map`] fans out across `jobs`
    /// workers (clamped to at least 1).
    pub fn new(jobs: usize) -> Self {
        Self::root(jobs, Root::default())
    }

    /// A root ctx under checkpoint/resume policy `ctl`. When
    /// `resume_from` is set, the snapshot is loaded and validated here; an
    /// unreadable or unparsable file is an immediate error.
    pub fn with_policy(jobs: usize, ctl: RunCtl) -> Result<Self, UvmError> {
        let resume = ctl.resume_from.as_deref().map(SystemSnapshot::load).transpose()?;
        let path = ctl.checkpoint_path.clone().unwrap_or_else(|| "uvm-ckpt.json".into());
        Ok(Self::root(jobs, Root { ctl, path, resume: Mutex::new(resume), file: Mutex::default() }))
    }

    fn root(jobs: usize, root: Root) -> Self {
        RunCtx { jobs: jobs.max(1), path: 0, runs: Cell::new(0), root: Arc::new(root) }
    }

    fn child(&self, jobs: usize, path: u64) -> Self {
        RunCtx { jobs, path, runs: Cell::new(0), root: Arc::clone(&self.root) }
    }

    /// The worker budget of [`Self::map`].
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The ctx experiment `id` runs under: this ctx's budget and policy,
    /// with a run path that starts at the id, whichever map item or
    /// thread runs the experiment.
    pub fn experiment(&self, id: &str) -> Self {
        self.child(self.jobs, serde::digest(id))
    }

    /// Apply `f` to every item, with a child ctx whose path extends this
    /// one by the item's index, fanning out across the worker budget; the
    /// results come back **in submission order**, so they are identical
    /// for any budget. When the items fan out, each child has budget 1 (no
    /// nested fan-out); a map that runs inline passes its budget down.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(&RunCtx, T) -> R + Sync,
    {
        let workers = self.jobs.min(items.len()).max(1);
        let jobs = if workers > 1 { 1 } else { self.jobs };
        let items = (0u64..)
            .zip(items)
            .map(|(i, item)| (self.child(jobs, serde::digest(&(self.path, i))), item))
            .collect();
        parallel::map(workers, items, |(ctx, item)| f(&ctx, item))
    }

    /// Run `workload` to completion on a fresh system built from `config`.
    ///
    /// # Panics
    ///
    /// Same contract as [`UvmSystem::run`].
    pub fn run(&self, config: SystemConfig, workload: &Workload) -> RunResult {
        self.try_run(config, workload, &RunHints::default())
            .unwrap_or_else(|e| panic!("UVM servicing pipeline failed unrecoverably: {e}"))
    }

    /// Like [`Self::run`], after applying `hints`; an unrecoverable
    /// pipeline failure returns the typed [`UvmError`] instead of
    /// panicking.
    ///
    /// This is the run loop every checkpointed run takes: when
    /// auto-checkpointing is configured the run's state is written out
    /// every N batches, and when the pending resume snapshot's key matches
    /// this run it restores from it instead of starting fresh — producing
    /// output byte-identical to the uninterrupted run.
    pub fn try_run(
        &self,
        config: SystemConfig,
        workload: &Workload,
        hints: &RunHints,
    ) -> Result<RunResult, UvmError> {
        let mut session = self.begin_run(|| (serde::digest(workload), serde::digest(&config)));
        let run = match session.resume.take() {
            Some(snap) => RunInProgress::restore(&snap, workload)?,
            None => UvmSystem::new(config).start(workload, hints)?,
        };
        let result = run.run_to_end(workload, |n, run| {
            if let Some(key) = session.checkpoint_due(n) {
                session.write_checkpoint(&run.snapshot(workload, key));
            }
        })?;
        session.finish();
        Ok(result)
    }

    /// Report a checkpoint request that never took effect, once every run
    /// has finished: a resume snapshot that no run's key matched, or
    /// `halt_after_checkpoint` with no checkpoint ever due (a kill/resume
    /// check on such an invocation would pass vacuously).
    pub fn finish(&self) -> Result<(), String> {
        let ctl = &self.root.ctl;
        if let (Some(snap), Some(path)) = (&*lock(&self.root.resume), &ctl.resume_from) {
            let (path, key) = (path.display(), snap.run_key);
            return Err(format!("resume snapshot {path} (run key {key:#018x}) matched no run"));
        }
        if ctl.halt_after_checkpoint {
            return Err("halt after checkpoint requested, but no checkpoint fell due".into());
        }
        Ok(())
    }

    /// Register the start of a system run and capture the policy that
    /// applies to it. Claims the run's sequence number (completing its
    /// path) and, if the pending resume snapshot's key matches this run,
    /// takes it. `digests` yields the run's `(workload, config)` digests;
    /// it is called only when the policy reads the key.
    pub(crate) fn begin_run(&self, digests: impl FnOnce() -> (u64, u64)) -> RunSession<'_> {
        let seq = self.runs.replace(self.runs.get() + 1);
        let root = &*self.root;
        let every = root.ctl.checkpoint_every.filter(|&n| n > 0);
        let key = (every.is_some() || lock(&root.resume).is_some()).then(|| {
            let (workload_digest, config_digest) = digests();
            run_key(serde::digest(&(self.path, seq)), workload_digest, config_digest)
        });
        let resume = key.and_then(|key| lock(&root.resume).take_if(|s| s.run_key == key));
        RunSession { root, key, every, resume, wrote_checkpoint: false }
    }
}

/// One run's view of its root's policy, handed out by
/// [`RunCtx::begin_run`].
#[derive(Debug)]
pub(crate) struct RunSession<'a> {
    root: &'a Root,
    /// The run key; `None` when the policy never reads it.
    key: Option<u64>,
    every: Option<u64>,
    /// The resume snapshot, if one matched this run.
    pub(crate) resume: Option<SystemSnapshot>,
    wrote_checkpoint: bool,
}

impl RunSession<'_> {
    /// If a checkpoint is due after serviced batch `n` (1-based), the run
    /// key to store into it.
    pub(crate) fn checkpoint_due(&self, n: u64) -> Option<u64> {
        self.every.filter(|e| n % e == 0).and(self.key)
    }

    /// Write `snap` to the checkpoint path (atomically, overwriting the
    /// previous checkpoint) and honor `halt_after_checkpoint`.
    pub(crate) fn write_checkpoint(&mut self, snap: &SystemSnapshot) {
        let path = &self.root.path;
        let mut file = lock(&self.root.file);
        if let Err(e) = snap.save(path) {
            eprintln!("warning: failed to write checkpoint {}: {e}", path.display());
            return;
        }
        *file = Some(snap.run_key);
        self.wrote_checkpoint = true;
        if self.root.ctl.halt_after_checkpoint {
            // Still holding the file lock, so no other run's write is torn.
            let (path, batches) = (path.display(), snap.batches);
            eprintln!("checkpoint written to {path} after batch {batches}; halting as requested");
            std::process::exit(0);
        }
    }

    /// The run completed: a checkpoint of it is now stale (resuming from
    /// it would redo finished work), so remove the file if it still holds
    /// this run's checkpoint rather than a later one of another run.
    pub(crate) fn finish(self) {
        let mut file = lock(&self.root.file);
        if self.wrote_checkpoint && *file == self.key {
            std::fs::remove_file(&self.root.path).ok();
            *file = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::Progress;
    use uvm_driver::policy::DriverPolicy;
    use uvm_workloads::cpu_init::CpuInitPolicy;
    use uvm_workloads::stream::{self, StreamParams};

    const MB: u64 = 1024 * 1024;

    fn workload(warps: u32) -> Workload {
        stream::build(StreamParams {
            warps,
            pages_per_warp: 8,
            iters: 1,
            warps_per_page: 4,
            cpu_init: Some(CpuInitPolicy::SingleThread),
        })
    }

    fn config() -> SystemConfig {
        SystemConfig::test_small(2 * MB).with_policy(DriverPolicy::with_prefetch())
    }

    fn json(r: &RunResult) -> String {
        serde_json::to_string(r).expect("results serialize")
    }

    /// A checkpoint file path unique to this test and process.
    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("runctl-{name}-{}.json", std::process::id()))
    }

    /// `w`'s uninterrupted result, plus its state after batch 3 keyed `key`.
    fn stepped(w: &Workload, key: u64) -> (String, SystemSnapshot) {
        let mut run = UvmSystem::new(config()).start(w, &RunHints::default()).expect("starts");
        let mut snap = None;
        while let Progress::Batch(n) = run.advance_batch(w).expect("batch services") {
            if n == 3 {
                snap = Some(run.snapshot(w, key));
            }
        }
        (json(&run.into_result(w)), snap.expect("the run services at least three batches"))
    }

    fn resume_from(path: &std::path::Path) -> RunCtx {
        let ctl = RunCtl { resume_from: Some(path.into()), ..RunCtl::default() };
        RunCtx::with_policy(4, ctl).expect("checkpoint loads")
    }

    #[test]
    fn run_paths_are_distinct_and_keys_differ() {
        let policy = |jobs| {
            let ctl = RunCtl { checkpoint_every: Some(1), ..RunCtl::default() };
            RunCtx::with_policy(jobs, ctl).expect("no resume file to load")
        };
        let key = |c: &RunCtx| c.begin_run(|| (1, 2)).key.expect("a policy reads the key");
        let ctx = policy(4);
        let fig3 = ctx.experiment("fig3");
        let mut keys = vec![key(&fig3), key(&fig3), key(&ctx.experiment("fig5"))];
        keys.extend(fig3.map(vec![(), ()], |c, ()| key(c)));
        let mut distinct = keys.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), keys.len(), "same inputs, different path, same key");
        // The path, and so the key, does not depend on the budget.
        assert_eq!(key(&policy(1).experiment("fig3")), keys[0]);
    }

    #[test]
    fn unconfigured_session_never_checkpoints() {
        let ctx = RunCtx::new(1);
        let s = ctx.begin_run(|| (0, 0));
        assert_eq!(s.checkpoint_due(1), None);
        assert_eq!(s.checkpoint_due(50), None);
        s.finish();
        assert_eq!(ctx.finish(), Ok(()));
    }

    #[test]
    fn unconfigured_session_never_computes_the_digests() {
        let ctx = RunCtx::new(1);
        let s = ctx.begin_run(|| panic!("the run key was computed without a policy"));
        assert_eq!(s.key, None);
        s.finish();
    }

    #[test]
    fn matching_run_consumes_the_resume_snapshot_and_replays_bit_identically() {
        let w = workload(32);
        // Keyed as the first run of experiment "resume": the path digest is
        // over the experiment id's digest and the run's sequence number.
        let path_digest = serde::digest(&(serde::digest("resume"), 0u64));
        let key = run_key(path_digest, serde::digest(&w), serde::digest(&config()));
        let (uninterrupted, snap) = stepped(&w, key);
        let file = scratch("consume");
        snap.save(&file).expect("checkpoint saves");
        let ctx = resume_from(&file);
        std::fs::remove_file(&file).ok();

        let resumed = ctx.experiment("resume").run(config(), &w);
        assert!(lock(&ctx.root.resume).is_none(), "the run did not take its snapshot");
        assert_eq!(json(&resumed), uninterrupted);
        assert_eq!(ctx.finish(), Ok(()));
    }

    #[test]
    fn mismatched_snapshot_stays_pending_and_is_reported() {
        let w = workload(32);
        let (uninterrupted, snap) = stepped(&w, 0xDEAD_BEEF);
        let file = scratch("mismatch");
        snap.save(&file).expect("checkpoint saves");
        let ctx = resume_from(&file);
        std::fs::remove_file(&file).ok();

        assert_eq!(json(&ctx.experiment("resume").run(config(), &w)), uninterrupted);
        let err = ctx.finish().expect_err("an unconsumed snapshot is an error");
        assert!(err.contains(&file.display().to_string()), "{err}");
        assert!(err.contains("0x00000000deadbeef"), "{err}");
    }

    #[test]
    fn checkpointed_runs_at_four_workers_resume_from_any_checkpoint() {
        let ws: Vec<Workload> = [16, 24, 32, 40].into_iter().map(workload).collect();
        let run_all = |ctx: &RunCtx| ctx.map(ws.iter().collect(), |c, w| json(&c.run(config(), w)));
        let plain = run_all(&RunCtx::new(4));

        // Checkpointing at four workers changes no output, and every run
        // removes its checkpoint once it finishes.
        let file = scratch("four");
        let ctl = RunCtl {
            checkpoint_every: Some(2),
            checkpoint_path: Some(file.clone()),
            ..RunCtl::default()
        };
        let ctx = RunCtx::with_policy(4, ctl.clone()).expect("no resume file to load");
        assert_eq!(run_all(&ctx), plain);
        assert!(!file.exists(), "a finished invocation left its checkpoint behind");

        // Whichever run's checkpoint the file held when the process was
        // killed, resuming at four workers reproduces every output.
        let keys = RunCtx::with_policy(4, ctl).expect("no resume file to load").map(
            ws.iter().collect(),
            |c, w| c.begin_run(|| (serde::digest(w), serde::digest(&config()))).key,
        );
        for (w, key) in ws.iter().zip(keys) {
            let (_, snap) = stepped(w, key.expect("a checkpoint policy reads the key"));
            snap.save(&file).expect("checkpoint saves");
            let ctx = resume_from(&file);
            assert_eq!(run_all(&ctx), plain);
            assert_eq!(ctx.finish(), Ok(()), "no run took the snapshot");
        }
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn finished_run_never_deletes_another_runs_checkpoint() {
        let w = workload(16);
        let file = scratch("owner");
        let ctl = RunCtl {
            checkpoint_every: Some(1),
            checkpoint_path: Some(file.clone()),
            ..RunCtl::default()
        };
        let ctx = RunCtx::with_policy(1, ctl).expect("no resume file to load");
        let digests = || (serde::digest(&w), serde::digest(&config()));
        let mut a = ctx.begin_run(digests);
        let mut b = ctx.begin_run(digests);
        let (_, snap_a) = stepped(&w, a.key.expect("keyed"));
        let (_, snap_b) = stepped(&w, b.key.expect("keyed"));
        a.write_checkpoint(&snap_a);
        b.write_checkpoint(&snap_b);
        a.finish();
        let held = SystemSnapshot::load(&file).expect("b's checkpoint survives a's finish");
        assert_eq!(held.run_key, snap_b.run_key);
        b.finish();
        assert!(!file.exists(), "b removes its own checkpoint");
    }
}
