//! Replay every committed chaos reproducer in `tests/repros/`.
//!
//! Each file is a shrunk [`uvm_core::chaos::Scenario`] that once exposed a
//! real bug (its `description` says which). Replaying them here pins the
//! fixes: a regression flips the trial verdict (or panics outright), and
//! this test names the offending file.
//!
//! To add one: run `paper chaos` until a trial fails — the harness writes
//! the shrunk scenario as `chaos-repro-<trial>.json` — then commit it here
//! with a description of the root cause once fixed.

use std::path::PathBuf;

use uvm_core::chaos::{run_trial, ReproFile, TrialVerdict};

fn repro_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/repros")
}

#[test]
fn committed_repros_all_pass() {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(repro_dir())
        .expect("tests/repros must exist")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no committed repro files found");
    for path in paths {
        let repro = ReproFile::load(&path)
            .unwrap_or_else(|e| panic!("cannot load {}: {e}", path.display()));
        let verdict = run_trial(&repro.scenario);
        assert_eq!(
            verdict,
            TrialVerdict::Pass,
            "repro {} regressed ({})",
            path.display(),
            repro.description
        );
    }
}

/// Pins the pretty JSON writer: re-saving a committed repro through
/// `ReproFile::save` reproduces the committed bytes exactly.
#[test]
fn committed_repro_resaves_byte_identically() {
    let path = repro_dir().join("overflow-storm-stranded-warp.json");
    let committed = std::fs::read_to_string(&path).expect("committed repro is readable");
    let repro = ReproFile::load(&path).expect("committed repro loads");
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("resaved-repro-{}.json", std::process::id()));
    repro.save(&out).expect("repro saves");
    let resaved = std::fs::read_to_string(&out).expect("re-saved repro is readable");
    std::fs::remove_file(&out).ok();
    assert!(resaved == committed, "ReproFile::save changed the bytes of {}", path.display());
}
