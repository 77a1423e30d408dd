//! The `paper` binary rejects a zero count with exit status 2 instead of
//! running nothing and reporting success: `chaos --trials 0` would print
//! a clean "0 divergences" summary, and `--checkpoint-every 0` would never
//! checkpoint. It likewise rejects checkpoint flags on the verbs that never
//! configure run control (`chaos`, `bench`, `diverge`), which would
//! otherwise ignore them, and checkpoint requests that cannot take effect:
//! `--checkpoint-file` or `--halt-after-checkpoint` without
//! `--checkpoint-every` (status 2), a halting run in which no checkpoint
//! fell due, and a resume snapshot that no run takes (status 1).

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .output()
        .expect("paper binary runs")
}

fn exit_code(args: &[&str]) -> Option<i32> {
    run(args).status.code()
}

#[test]
fn zero_counts_exit_with_status_2() {
    for args in [
        ["chaos", "--trials", "0"],
        ["fig3", "--checkpoint-every", "0"],
        ["list", "--jobs", "0"],
    ] {
        assert_eq!(exit_code(&args), Some(2), "paper {}", args.join(" "));
    }
    // A positive count parses and the verb runs.
    assert_eq!(
        exit_code(&["list", "--trials", "1", "--checkpoint-every", "1"]),
        Some(0)
    );
}

#[test]
fn checkpoint_flags_on_verbs_without_run_control_exit_with_status_2() {
    for verb in ["chaos", "bench", "diverge"] {
        for flag in [
            &["--checkpoint-every", "1"][..],
            &["--checkpoint-file", "unused.json"],
            &["--resume", "unused.json"],
            &["--halt-after-checkpoint"],
        ] {
            let args: Vec<&str> = std::iter::once(verb).chain(flag.iter().copied()).collect();
            assert_eq!(exit_code(&args), Some(2), "paper {}", args.join(" "));
        }
    }
}

#[test]
fn checkpoint_file_and_halt_without_an_interval_exit_with_status_2() {
    for flag in [&["--checkpoint-file", "unused.json"][..], &["--halt-after-checkpoint"]] {
        let args: Vec<&str> = std::iter::once("fig5").chain(flag.iter().copied()).collect();
        assert_eq!(exit_code(&args), Some(2), "paper {}", args.join(" "));
    }
}

#[test]
fn checkpoint_requests_that_never_take_effect_exit_with_status_1() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let file = dir.join(format!("never-{}.json", std::process::id()));
    let file = file.to_str().expect("a UTF-8 temp path");

    // fig5 services a single batch, so no checkpoint every 2 batches is due.
    let halt = ["fig5", "--checkpoint-every", "2", "--checkpoint-file", file];
    assert_eq!(exit_code(&[&halt[..], &["--halt-after-checkpoint"]].concat()), Some(1));

    // A fig3 checkpoint matches no run of fig5.
    let kill = ["fig3", "--checkpoint-every", "2", "--checkpoint-file", file];
    assert_eq!(exit_code(&[&kill[..], &["--halt-after-checkpoint"]].concat()), Some(0));
    let out = run(&["fig5", "--resume", file]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(file) && stderr.contains("run key 0x"), "{stderr}");
    std::fs::remove_file(file).ok();
}
