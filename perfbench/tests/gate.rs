//! The correctness gate, end to end: a run whose reference answer was
//! deliberately corrupted must report `ok_frac < 1` and fail.

use std::process::{Command, Output};

fn run(extra: &[&str]) -> Output {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(extra.join("_"));
    std::fs::create_dir_all(&dir).expect("working directory");
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "align_ragged",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .args(extra)
        .current_dir(&dir)
        .output()
        .expect("benchmark runs")
}

/// `ok_frac` and `correct` from the last line of standard output.
fn verdict(out: &Output) -> (f64, bool) {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!(
            "no result line; stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    let ok_frac = last
        .split("\"ok_frac\": {\"value\": ")
        .nth(1)
        .and_then(|s| s.split(',').next())
        .and_then(|v| v.parse().ok())
        .expect("ok_frac in the result");
    (ok_frac, last.starts_with("{\"correct\": true"))
}

#[test]
fn corrupted_reference_drives_ok_frac_below_one_and_fails_the_command() {
    let out = run(&["--corrupt-reference"]);
    let (ok_frac, correct) = verdict(&out);
    assert!(ok_frac < 1.0, "ok_frac {ok_frac}");
    assert!(!correct);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn intact_reference_passes() {
    let out = run(&[]);
    let (ok_frac, correct) = verdict(&out);
    assert_eq!(ok_frac, 1.0);
    assert!(correct);
    assert!(out.status.success());
}
