//! The `paper` binary rejects a zero count with exit status 2 instead of
//! running nothing and reporting success: `chaos --trials 0` would print
//! a clean "0 divergences" summary, and `--checkpoint-every 0` would never
//! checkpoint. It likewise rejects checkpoint flags on the verbs that never
//! configure run control (`chaos`, `bench`, `diverge`), which would
//! otherwise ignore them.

use std::process::Command;

fn exit_code(args: &[&str]) -> Option<i32> {
    let out = Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .output()
        .expect("paper binary runs");
    out.status.code()
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
