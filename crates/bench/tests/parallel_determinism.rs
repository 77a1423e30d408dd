//! The tentpole determinism guarantee: fanning experiments across the
//! worker pool must not change a single byte of rendered output or JSON
//! relative to a serial run — also when the runs checkpoint, or resume
//! from a checkpoint written by a killed `--jobs 4` invocation. CI
//! additionally diffs the full release binary's stdout at `--jobs 4` vs
//! `--jobs 1`; these tests pin the same properties at debug scale on a
//! fast experiment subset.

use std::path::PathBuf;
use std::process::Command;

use uvm_bench::{experiments, run_experiments};
use uvm_core::{RunCtl, RunCtx};

/// Cheap-but-representative subset: single-sim figures plus one
/// multi-sim grid (fig9's batch-limit sweep uses intra-experiment
/// fan-out, exercising nested-inline execution under the pool).
const SUBSET: &[&str] = &["fig1", "fig3", "fig5", "fig9", "ext-inject"];

/// `(id, rendered text, JSON)` of each experiment.
type Rendered = Vec<(String, String, String)>;

/// Each experiment in `ids`, run under `ctx`.
fn render(ctx: &RunCtx, ids: &[&str]) -> Rendered {
    let all = experiments();
    let selected: Vec<_> = all.iter().filter(|e| ids.contains(&e.id)).collect();
    assert_eq!(selected.len(), ids.len(), "registry lost a subset id");
    run_experiments(ctx, selected)
        .into_iter()
        .map(|o| {
            let json = serde_json::to_string_pretty(&o.value).expect("serializable");
            (o.id.to_string(), o.text, json)
        })
        .collect()
}

fn assert_identical(serial: &Rendered, other: &Rendered, how: &str) {
    assert_eq!(serial.len(), other.len());
    for ((id_s, text_s, json_s), (id_p, text_p, json_p)) in serial.iter().zip(other) {
        assert_eq!(id_s, id_p, "experiment order changed {how}");
        assert_eq!(text_s, text_p, "{id_s}: rendered text diverged {how}");
        assert_eq!(json_s, json_p, "{id_s}: JSON dump diverged {how}");
    }
}

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}-{}.json", std::process::id()))
}

#[test]
fn four_workers_render_byte_identical_output() {
    let serial = render(&RunCtx::new(1), SUBSET);
    assert_identical(&serial, &render(&RunCtx::new(4), SUBSET), "under --jobs 4");
}

#[test]
fn checkpointed_and_resumed_runs_at_four_workers_match_serial() {
    const IDS: &[&str] = &["fig3", "fig9"];
    let serial = render(&RunCtx::new(1), IDS);

    // Kill a `--jobs 4` fig9 right after its first checkpoint (whichever
    // grid cell wrote it).
    let killed = scratch("ckpt-killed");
    let status = Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(["fig9", "--jobs", "4", "--checkpoint-every", "2", "--halt-after-checkpoint"])
        .arg("--checkpoint-file")
        .arg(&killed)
        .output()
        .expect("paper runs")
        .status;
    assert!(status.success(), "the halted invocation exits 0: {status}");

    // Resume it at four workers, checkpointing again as it goes (every
    // fig9 cell passes batch 64): the output is the serial output, the
    // snapshot is taken, and every finished run removes its own checkpoint.
    let every = scratch("ckpt-every");
    let ctl = RunCtl {
        checkpoint_every: Some(64),
        checkpoint_path: Some(every.clone()),
        resume_from: Some(killed.clone()),
        ..RunCtl::default()
    };
    let ctx = RunCtx::with_policy(4, ctl).expect("the checkpoint loads");
    assert_identical(&serial, &render(&ctx, IDS), "checkpointed and resumed at --jobs 4");
    assert_eq!(ctx.finish(), Ok(()), "no run took the resume snapshot");
    assert!(!every.exists(), "a finished run left its checkpoint behind");
    std::fs::remove_file(&killed).ok();
}
