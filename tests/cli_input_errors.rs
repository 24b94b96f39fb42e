//! Bad `synran run` / `synran batch` inputs end in a structured error:
//! exit code 1, an `error:` line on stderr naming the offending flag,
//! nothing on stdout, and never a panic.

use std::process::{Command, Output};

fn synran(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_synran"))
        .args(args)
        .output()
        .expect("spawn synran")
}

fn assert_rejected(args: &[&str], needle: &str) {
    let out = synran(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
}

#[test]
fn batch_with_zero_runs_is_rejected() {
    assert_rejected(&["batch", "--n", "8", "--runs", "0"], "--runs");
}

#[test]
fn more_ones_than_processes_is_rejected() {
    assert_rejected(
        &["run", "--n", "5", "--ones", "9"],
        "--ones 9 exceeds --n 5",
    );
    assert_rejected(
        &["batch", "--n", "5", "--ones", "6", "--runs", "2"],
        "--ones 6 exceeds --n 5",
    );
}

#[test]
fn boundary_values_are_accepted() {
    for args in [
        &["run", "--n", "5", "--ones", "5"][..],
        &[
            "batch",
            "--n",
            "5",
            "--ones",
            "0",
            "--runs",
            "1",
            "--threads",
            "1",
        ][..],
    ] {
        let out = synran(args);
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
