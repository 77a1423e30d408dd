//! Versioned whole-system checkpoints.
//!
//! A [`SystemSnapshot`] is the serialized form of a paused
//! [`RunInProgress`](crate::system::RunInProgress): one [`Value`] tree per
//! subsystem (GPU, driver, host OS) plus the run-loop state (event queue,
//! virtual clock, worker state, kernel progress), a format version, the
//! digest of the workload it was taken against, and FNV-1a digests of each
//! state tree.
//!
//! ## Format and versioning
//!
//! The on-disk encoding is JSON (via the vendored `serde_json` shim). The
//! shape of the tree is defined entirely by the `Serialize` derives of the
//! subsystem types; [`SNAPSHOT_VERSION`] must be bumped whenever any of
//! those shapes change, and
//! [`RunInProgress::restore`](crate::system::RunInProgress::restore)
//! rejects a version mismatch outright — replaying a snapshot through
//! changed code would not crash, it would *silently diverge*, which is
//! worse.
//!
//! The stored [`SubsystemDigests`] serve two purposes: restore recomputes
//! them over the embedded trees as an integrity check (a truncated or
//! hand-edited file fails closed), and the divergence detector
//! ([`crate::divergence`]) compares them per batch across two runs.

use std::fs;
use std::path::Path;

use serde::{Deserialize, Serialize, Value};
use uvm_sim::error::UvmError;
use uvm_sim::snapshot::digest_value;
pub use uvm_sim::snapshot::SNAPSHOT_VERSION;

/// FNV-1a digests of the four serialized state trees of a run. Two runs in
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
    /// Serialized [`SystemConfig`](crate::config::SystemConfig).
    pub config: Value,
    /// Serialized GPU state.
    pub gpu: Value,
    /// Serialized driver state.
    pub driver: Value,
    /// Serialized host-OS state.
    pub host: Value,
    /// Serialized run-loop state.
    pub run: Value,
    /// Digests of the four state trees, for integrity checking and
    /// divergence comparison.
    pub digests: SubsystemDigests,
    /// Serialized tracer state ([`uvm_trace::TraceState`]) when the run
    /// was captured with a ring tracer installed; `Null` otherwise (and
    /// in snapshots written before tracing existed, which deserialize the
    /// missing field as `Null`). Deliberately excluded from the
    /// subsystem digests: the tracer observes the simulation without
    /// being part of its state, so traced and untraced checkpoints of
    /// the same run remain digest-identical.
    pub trace: Value,
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

    /// Read a snapshot back from `path`. I/O and parse failures surface as
    /// [`UvmError::SnapshotInvalid`]; integrity is *not* checked here (it
    /// is checked by restore).
    pub fn load(path: &Path) -> Result<Self, UvmError> {
        let text = fs::read_to_string(path).map_err(|e| UvmError::SnapshotInvalid {
            detail: format!("cannot read {}: {e}", path.display()),
        })?;
        serde_json::from_str(&text).map_err(|e| UvmError::SnapshotInvalid {
            detail: format!("cannot parse {}: {e}", path.display()),
        })
    }

    /// Verify that the stored digests match the state trees they describe.
    /// A mismatch means the file was truncated, edited, or corrupted.
    pub fn verify_integrity(&self) -> Result<(), UvmError> {
        let actual = SubsystemDigests {
            gpu: digest_value(&self.gpu),
            driver: digest_value(&self.driver),
            host: digest_value(&self.host),
            run: digest_value(&self.run),
        };
        if actual != self.digests {
            return Err(UvmError::SnapshotInvalid {
                detail: format!(
                    "integrity check failed: stored digests disagree with state trees \
                     in [{}]",
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

    #[test]
    fn save_and_load_round_trip() {
        let snap = SystemSnapshot {
            version: SNAPSHOT_VERSION,
            run_key: 7,
            batches: 3,
            workload_name: "t".into(),
            workload_digest: 11,
            config: Value::Null,
            gpu: Value::NumU(1),
            driver: Value::NumU(2),
            host: Value::NumU(3),
            run: Value::NumU(4),
            digests: SubsystemDigests {
                gpu: digest_value(&Value::NumU(1)),
                driver: digest_value(&Value::NumU(2)),
                host: digest_value(&Value::NumU(3)),
                run: digest_value(&Value::NumU(4)),
            },
            trace: Value::Null,
        };
        let dir = std::env::temp_dir().join("uvm-snap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        snap.save(&path).unwrap();
        let back = SystemSnapshot::load(&path).unwrap();
        assert_eq!(back.run_key, 7);
        back.verify_integrity().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn integrity_failure_names_the_subsystem() {
        let mut snap = SystemSnapshot {
            version: SNAPSHOT_VERSION,
            run_key: 0,
            batches: 0,
            workload_name: "t".into(),
            workload_digest: 0,
            config: Value::Null,
            gpu: Value::NumU(1),
            driver: Value::NumU(2),
            host: Value::NumU(3),
            run: Value::NumU(4),
            digests: SubsystemDigests {
                gpu: digest_value(&Value::NumU(1)),
                driver: digest_value(&Value::NumU(2)),
                host: digest_value(&Value::NumU(3)),
                run: digest_value(&Value::NumU(4)),
            },
            trace: Value::Null,
        };
        snap.driver = Value::NumU(99);
        let err = snap.verify_integrity().unwrap_err();
        assert!(err.to_string().contains("driver"), "got: {err}");
    }

    #[test]
    fn torn_tmp_write_preserves_previous_checkpoint() {
        // The crash-consistency contract: an I/O failure partway through
        // the tmp-file write (a full disk, a kill) must leave the previous
        // checkpoint loadable — the rename into place never happens.
        let mk = |batches: u64| SystemSnapshot {
            version: SNAPSHOT_VERSION,
            run_key: 1,
            batches,
            workload_name: "t".into(),
            workload_digest: 5,
            config: Value::Null,
            gpu: Value::NumU(batches),
            driver: Value::NumU(2),
            host: Value::NumU(3),
            run: Value::NumU(4),
            digests: SubsystemDigests {
                gpu: digest_value(&Value::NumU(batches)),
                driver: digest_value(&Value::NumU(2)),
                host: digest_value(&Value::NumU(3)),
                run: digest_value(&Value::NumU(4)),
            },
            trace: Value::Null,
        };
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
