//! Process-global checkpoint/resume policy for the experiment harness.
//!
//! The harness runs experiments as a deterministic sequence of system runs.
//! This module lets the binary entry point declare, once, how those runs
//! should checkpoint and resume; the run loop in
//! [`UvmSystem::try_run_with_hints`](crate::system::UvmSystem::try_run_with_hints)
//! consults the policy transparently, so every experiment gains
//! `--checkpoint-every` / `--resume` support without touching experiment
//! code.
//!
//! ## Resume model
//!
//! A checkpoint records a [`run_key`] — the run's
//! ordinal within the process plus digests of its workload and config.
//! Resuming re-executes the harness *from the start*: runs before the
//! checkpointed one replay deterministically in full (producing identical
//! output, since the simulator is deterministic), and when a run's key
//! matches the pending snapshot, that run restores mid-flight instead of
//! starting fresh. The overall output is therefore byte-identical to the
//! uninterrupted execution.
//!
//! Every run claims its ordinal, but only a checkpoint or resume policy
//! reads the key, so the workload and config digests are computed only
//! when `checkpoint_every` is set or a resume snapshot is pending. A run
//! under the default policy pays nothing for its key.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use uvm_sim::error::UvmError;

use crate::snapshot::{run_key, SystemSnapshot};

/// Checkpoint/resume policy, set once per process from CLI flags.
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

#[derive(Debug, Default)]
struct CtlState {
    ctl: RunCtl,
    /// The pending resume snapshot; taken (once) by the run whose key
    /// matches.
    resume: Option<SystemSnapshot>,
}

static CTL: OnceLock<Mutex<CtlState>> = OnceLock::new();
static ORDINAL: AtomicU64 = AtomicU64::new(0);

/// Lock the policy state. A poisoned lock is recovered rather than
/// propagated: the state is a plain policy value mutated only by whole
/// assignments, so a panic in another thread cannot leave it torn.
fn state() -> MutexGuard<'static, CtlState> {
    CTL.get_or_init(|| Mutex::new(CtlState::default()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Install the process-wide policy. Call once, before any experiment runs.
/// When `resume_from` is set, the snapshot is loaded and validated here;
/// an unreadable or unparsable file is an immediate error.
pub fn configure(ctl: RunCtl) -> Result<(), UvmError> {
    let resume = match &ctl.resume_from {
        Some(path) => Some(SystemSnapshot::load(path)?),
        None => None,
    };
    let mut s = state();
    s.ctl = ctl;
    s.resume = resume;
    Ok(())
}

/// Whether a resume snapshot is still waiting for the run whose key
/// matches it (false once that run has taken it, or if none was loaded).
pub fn resume_pending() -> bool {
    state().resume.is_some()
}

/// One run's view of the policy, handed out by `begin_run`.
#[derive(Debug)]
pub struct RunSession {
    /// This run's ordinal (tests check that sessions claim distinct ones).
    #[cfg(test)]
    ordinal: u64,
    /// The run key; `None` when the policy never reads it.
    key: Option<u64>,
    every: Option<u64>,
    path: PathBuf,
    halt: bool,
    resume: Option<SystemSnapshot>,
    wrote_checkpoint: bool,
}

/// Register the start of a system run and capture the policy that applies
/// to it. Claims the next run ordinal (the deterministic re-execution
/// order is what makes resume land on the right run) and, if the pending
/// resume snapshot's key matches this run, takes it. `digests` yields the
/// run's `(workload, config)` digests; it is called only when the policy
/// reads the key.
pub(crate) fn begin_run(digests: impl FnOnce() -> (u64, u64)) -> RunSession {
    let ordinal = ORDINAL.fetch_add(1, Ordering::SeqCst);
    let mut s = state();
    let every = s.ctl.checkpoint_every.filter(|&n| n > 0);
    let key = (every.is_some() || s.resume.is_some()).then(|| {
        let (workload_digest, config_digest) = digests();
        run_key(ordinal, workload_digest, config_digest)
    });
    let resume = match (&s.resume, key) {
        (Some(snap), Some(key)) if snap.run_key == key => s.resume.take(),
        _ => None,
    };
    RunSession {
        #[cfg(test)]
        ordinal,
        key,
        every,
        path: s
            .ctl
            .checkpoint_path
            .clone()
            .unwrap_or_else(|| PathBuf::from("uvm-ckpt.json")),
        halt: s.ctl.halt_after_checkpoint,
        resume,
        wrote_checkpoint: false,
    }
}

impl RunSession {
    /// Take the resume snapshot, if one matched this run.
    pub(crate) fn take_resume(&mut self) -> Option<SystemSnapshot> {
        self.resume.take()
    }

    /// If a checkpoint is due after serviced batch `n` (1-based), the run
    /// key to store into it.
    pub(crate) fn checkpoint_due(&self, n: u64) -> Option<u64> {
        self.every.filter(|e| n % e == 0).and(self.key)
    }

    /// Write `snap` to the checkpoint path (atomically, overwriting the
    /// previous checkpoint) and honor `halt_after_checkpoint`.
    pub(crate) fn write_checkpoint(&mut self, snap: &SystemSnapshot) {
        if let Err(e) = snap.save(&self.path) {
            eprintln!(
                "warning: failed to write checkpoint {}: {e}",
                self.path.display()
            );
            return;
        }
        self.wrote_checkpoint = true;
        if self.halt {
            eprintln!(
                "checkpoint written to {} after batch {}; halting as requested",
                self.path.display(),
                snap.batches
            );
            std::process::exit(0);
        }
    }

    /// The run completed: a checkpoint it wrote is now stale (resuming
    /// from it would redo finished work), so remove it.
    pub(crate) fn finish(self) {
        if self.wrote_checkpoint {
            std::fs::remove_file(&self.path).ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: the global ordinal is shared across the whole test process, so
    // these tests assert relative behavior only and never assume a
    // specific ordinal value.

    #[test]
    fn ordinals_are_distinct_and_keys_differ() {
        let a = begin_run(|| (1, 2));
        let b = begin_run(|| (1, 2));
        assert_ne!(a.ordinal, b.ordinal);
        assert_ne!(
            run_key(a.ordinal, 1, 2),
            run_key(b.ordinal, 1, 2),
            "same inputs, different ordinal"
        );
    }

    #[test]
    fn unconfigured_session_never_checkpoints() {
        let s = begin_run(|| (0, 0));
        assert_eq!(s.checkpoint_due(1), None);
        assert_eq!(s.checkpoint_due(50), None);
        s.finish();
    }

    #[test]
    fn unconfigured_session_never_computes_the_digests() {
        let s = begin_run(|| panic!("the run key was computed without a policy"));
        assert_eq!(s.key, None);
        s.finish();
    }
}
