//! Versioned whole-system checkpoints.
//!
//! A [`SystemSnapshot`] is the captured state of a paused
//! [`RunInProgress`](crate::system::RunInProgress), held as typed values:
//! the system config, the three subsystem models (GPU, driver, host OS),
//! and the run-loop state (event queue, virtual clock, worker state,
//! kernel progress), plus a format version, the digest of the workload it
//! was taken against, and FNV-1a digests of the four state values.
//!
//! ## Format and versioning
//!
//! The on-disk encoding is JSON (via the vendored `serde_json` shim). The
//! shape of the document is defined entirely by the `Serialize` derives of
//! the subsystem types; [`SNAPSHOT_VERSION`] must be bumped whenever any
//! of those shapes change. [`SystemSnapshot::load`] and
//! [`RunInProgress::restore`](crate::system::RunInProgress::restore)
//! reject a version mismatch outright — replaying a snapshot through
//! changed code would not crash, it would *silently diverge*, which is
//! worse.
//!
//! The stored [`SubsystemDigests`] serve two purposes: restore recomputes
//! them over the decoded state as an integrity check (a truncated or
//! hand-edited file fails closed), and the divergence detector
//! ([`crate::divergence`]) compares them per batch across two runs.

use std::fs;
use std::path::Path;

use serde::{Deserialize, Serialize};
use uvm_driver::service::UvmDriver;
use uvm_gpu::device::Gpu;
use uvm_hostos::host::HostMemory;
use uvm_sim::error::UvmError;
pub use uvm_sim::snapshot::SNAPSHOT_VERSION;
use uvm_trace::TraceState;

use crate::config::SystemConfig;
use crate::system::RunState;

/// FNV-1a digests of the four serialized state values of a run. Two runs in
/// bit-identical states have equal digests in every field; the first field
/// that disagrees names the subsystem that diverged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubsystemDigests {
    /// GPU state: μTLBs, GMMU, fault buffer, warp scoreboards, page map.
    pub gpu: u64,
    /// Driver state: VA space, eviction LRU, DMA space, RNG, injectors,
    /// batch log.
    pub driver: u64,
    /// Host-OS state: page tables, reverse map, NUMA accounting.
    pub host: u64,
    /// Run-loop state: event queue, virtual clock, worker, kernel spans.
    pub run: u64,
}

impl SubsystemDigests {
    /// Digest the four state values, streamed from the values themselves.
    pub fn of(gpu: &Gpu, driver: &UvmDriver, host: &HostMemory, run: &RunState) -> Self {
        SubsystemDigests {
            gpu: serde::digest(gpu),
            driver: serde::digest(driver),
            host: serde::digest(host),
            run: serde::digest(run),
        }
    }

    /// Names of the subsystems whose digests differ between `self` and
    /// `other`, in fixed order. Empty exactly when the states are
    /// identical.
    pub fn diff(&self, other: &SubsystemDigests) -> Vec<&'static str> {
        let mut out = Vec::new();
        if self.gpu != other.gpu {
            out.push("gpu");
        }
        if self.driver != other.driver {
            out.push("driver");
        }
        if self.host != other.host {
            out.push("host");
        }
        if self.run != other.run {
            out.push("run");
        }
        out
    }
}

/// A complete, versioned checkpoint of a mid-flight system run.
///
/// Produced by [`RunInProgress::snapshot`](crate::system::RunInProgress::snapshot)
/// at a batch boundary; consumed by
/// [`RunInProgress::restore`](crate::system::RunInProgress::restore).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SystemSnapshot {
    /// Snapshot format version ([`SNAPSHOT_VERSION`] at capture time).
    pub version: u32,
    /// Identity of the run within its harness process (see [`run_key`]);
    /// 0 for standalone snapshots.
    pub run_key: u64,
    /// Batches serviced when the snapshot was taken.
    pub batches: u64,
    /// Name of the workload the snapshot was taken against (diagnostic
    /// only — the digest is what restore validates).
    pub workload_name: String,
    /// Digest of the serialized workload; restore refuses any other.
    pub workload_digest: u64,
    /// The run's system configuration.
    pub config: SystemConfig,
    /// GPU state.
    pub gpu: Gpu,
    /// Driver state.
    pub driver: UvmDriver,
    /// Host-OS state.
    pub host: HostMemory,
    /// Run-loop state.
    pub run: RunState,
    /// Digests of the four state values, for integrity checking and
    /// divergence comparison.
    pub digests: SubsystemDigests,
    /// Ring-tracer state when the run was captured with a ring tracer
    /// installed; `None` otherwise (and in snapshots written before
    /// tracing existed, which lack the field). Deliberately excluded from
    /// the subsystem digests: the tracer observes the simulation without
    /// being part of its state, so traced and untraced checkpoints of the
    /// same run remain digest-identical.
    pub trace: Option<TraceState>,
}

/// The one field every snapshot version shares.
#[derive(Deserialize)]
struct Version {
    version: u32,
}

/// Reject a snapshot of another format version.
pub(crate) fn check_version(version: u32) -> Result<(), UvmError> {
    if version == SNAPSHOT_VERSION {
        return Ok(());
    }
    Err(UvmError::SnapshotInvalid {
        detail: format!("format version {version} (this build reads version {SNAPSHOT_VERSION})"),
    })
}

impl SystemSnapshot {
    /// Write the snapshot to `path` as JSON, atomically: the bytes land in
    /// a `.tmp` sibling first and are renamed into place, so a crash
    /// mid-write never leaves a torn checkpoint where a good one stood.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        self.save_with(path, |p, bytes| fs::write(p, bytes))
    }

    /// [`Self::save`] with a pluggable byte sink for the tmp-file write.
    /// The crash-consistency tests inject partial writes and I/O errors
    /// here; the rename only happens after the sink reports success, so a
    /// failed (even torn) tmp write leaves any previous checkpoint at
    /// `path` untouched.
    pub fn save_with<W>(&self, path: &Path, write_tmp: W) -> std::io::Result<()>
    where
        W: FnOnce(&Path, &[u8]) -> std::io::Result<()>,
    {
        let json = serde_json::to_string(self).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("snapshot serialization failed: {e}"),
            )
        })?;
        let tmp = path.with_extension("tmp");
        write_tmp(&tmp, json.as_bytes())?;
        fs::rename(&tmp, path)
    }

    /// Read a snapshot back from `path`. I/O, parse and version failures
    /// surface as [`UvmError::SnapshotInvalid`]; integrity is *not*
    /// checked here (it is checked by restore). The version is checked
    /// before the rest is decoded, because a file of another version
    /// usually has another shape too.
    pub fn load(path: &Path) -> Result<Self, UvmError> {
        let invalid = |e: &dyn std::fmt::Display| UvmError::SnapshotInvalid {
            detail: format!("cannot parse {}: {e}", path.display()),
        };
        let text = fs::read_to_string(path).map_err(|e| UvmError::SnapshotInvalid {
            detail: format!("cannot read {}: {e}", path.display()),
        })?;
        let tree = serde_json::parse(&text).map_err(|e| invalid(&e))?;
        check_version(Version::from_value(&tree).map_err(|e| invalid(&e))?.version)?;
        Self::from_value(&tree).map_err(|e| invalid(&e))
    }

    /// Verify that the stored digests match the state they describe.
    /// A mismatch means the file was truncated, edited, or corrupted.
    pub fn verify_integrity(&self) -> Result<(), UvmError> {
        let actual = SubsystemDigests::of(&self.gpu, &self.driver, &self.host, &self.run);
        if actual != self.digests {
            return Err(UvmError::SnapshotInvalid {
                detail: format!(
                    "integrity check failed: stored digests disagree with the state in [{}]",
                    self.digests.diff(&actual).join(", ")
                ),
            });
        }
        Ok(())
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// The identity of one system run within a harness process: FNV-1a over
/// the run's ordinal (how many runs the process started before it), the
/// workload digest, and the config digest.
///
/// Because the harness is deterministic, re-executing it reproduces the
/// same sequence of run keys; a resume replays runs until the key stored
/// in the checkpoint comes up, then restores mid-run.
pub fn run_key(ordinal: u64, workload_digest: u64, config_digest: u64) -> u64 {
    let mut h = FNV_OFFSET;
    for word in [ordinal, workload_digest, config_digest] {
        for b in word.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_diff_names_disagreeing_subsystems() {
        let a = SubsystemDigests { gpu: 1, driver: 2, host: 3, run: 4 };
        assert!(a.diff(&a).is_empty());
        let b = SubsystemDigests { gpu: 1, driver: 9, host: 3, run: 8 };
        assert_eq!(a.diff(&b), vec!["driver", "run"]);
    }

    #[test]
    fn run_key_separates_ordinal_workload_and_config() {
        let base = run_key(0, 10, 20);
        assert_ne!(base, run_key(1, 10, 20));
        assert_ne!(base, run_key(0, 11, 20));
        assert_ne!(base, run_key(0, 10, 21));
        assert_eq!(base, run_key(0, 10, 20));
    }

    /// A real snapshot, taken after three batches of a small stream run.
    fn real_snapshot() -> SystemSnapshot {
        use crate::system::{RunHints, UvmSystem};
        use uvm_workloads::stream::{self, StreamParams};
        let w = stream::build(StreamParams {
            warps: 8,
            pages_per_warp: 4,
            iters: 1,
            warps_per_page: 1,
            cpu_init: None,
        });
        let mut run = UvmSystem::new(SystemConfig::test_small(4 << 20))
            .start(&w, &RunHints::default())
            .expect("run starts");
        for _ in 0..3 {
            run.advance_batch(&w).expect("batch services");
        }
        run.snapshot(&w, 7)
    }

    /// `snap`'s JSON with its one occurrence of `from` replaced by `to`.
    fn tamper(snap: &SystemSnapshot, from: &str, to: &str) -> String {
        let json = serde_json::to_string(snap).expect("snapshot encodes");
        assert_eq!(json.matches(from).count(), 1, "`{from}` must occur once");
        json.replacen(from, to, 1)
    }

    #[test]
    fn save_and_load_round_trip() {
        let snap = real_snapshot();
        let dir = std::env::temp_dir().join("uvm-snap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        snap.save(&path).unwrap();
        let back = SystemSnapshot::load(&path).unwrap();
        assert_eq!(back.run_key, 7);
        assert_eq!(back.digests, snap.digests);
        back.verify_integrity().unwrap();
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&snap).unwrap()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn integrity_failure_names_the_subsystem() {
        let snap = real_snapshot();
        // Edit one counter in the driver's JSON: the file still decodes,
        // but the decoded driver no longer digests as stored.
        let json = tamper(&snap, "\"batch_seq\":", "\"batch_seq\":9");
        let edited: SystemSnapshot = serde_json::from_str(&json).expect("edited snapshot decodes");
        let err = edited.verify_integrity().unwrap_err();
        assert!(matches!(err, UvmError::SnapshotInvalid { .. }));
        assert!(err.to_string().contains("[driver]"), "got: {err}");
    }

    #[test]
    fn load_reports_a_version_mismatch_before_the_shape() {
        let snap = real_snapshot();
        let dir = std::env::temp_dir().join("uvm-snap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("old-version.json");
        // Another version, and a shape this build cannot decode.
        let json = tamper(&snap, &format!("\"version\":{SNAPSHOT_VERSION},"), "\"version\":0,");
        let json = json.replacen("\"writeback_pages\":", "\"writeback_v3\":", 1);
        std::fs::write(&path, json).unwrap();
        let err = SystemSnapshot::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.to_string().contains("format version 0"), "got: {err}");
    }

    #[test]
    fn torn_tmp_write_preserves_previous_checkpoint() {
        // The crash-consistency contract: an I/O failure partway through
        // the tmp-file write (a full disk, a kill) must leave the previous
        // checkpoint loadable — the rename into place never happens.
        let real = real_snapshot();
        let mk = |batches: u64| SystemSnapshot { batches, ..real.clone() };
        let dir = std::env::temp_dir().join("uvm-snap-crash-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");

        mk(10).save(&path).unwrap();

        // The next save dies mid-write: half the bytes land, then Err.
        let err = mk(20)
            .save_with(&path, |tmp, bytes| {
                std::fs::write(tmp, &bytes[..bytes.len() / 2])?;
                Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "disk full (injected)",
                ))
            })
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WriteZero);

        // The previous checkpoint is intact and loadable; the torn bytes
        // only ever existed in the tmp sibling.
        let back = SystemSnapshot::load(&path).unwrap();
        assert_eq!(back.batches, 10, "torn write must not clobber the old checkpoint");
        back.verify_integrity().unwrap();

        // A subsequent healthy save still goes through cleanly.
        mk(30).save(&path).unwrap();
        assert_eq!(SystemSnapshot::load(&path).unwrap().batches, 30);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(path.with_extension("tmp")).ok();
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = std::env::temp_dir().join("uvm-snap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.json");
        std::fs::write(&path, "{not json").unwrap();
        assert!(matches!(
            SystemSnapshot::load(&path),
            Err(UvmError::SnapshotInvalid { .. })
        ));
        assert!(matches!(
            SystemSnapshot::load(&dir.join("does-not-exist.json")),
            Err(UvmError::SnapshotInvalid { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_deep_nesting_without_overflowing_the_stack() {
        let dir = std::env::temp_dir().join("uvm-snap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("nested.json");
        std::fs::write(&path, "[".repeat(1_000_000)).unwrap();
        let err = SystemSnapshot::load(&path);
        std::fs::remove_file(&path).ok();
        match err {
            Err(UvmError::SnapshotInvalid { detail }) => {
                assert!(detail.contains("recursion limit"), "{detail}");
            }
            other => panic!("expected SnapshotInvalid, got {other:?}"),
        }
    }
}
