//! Bad `synran run` / `synran batch` / `synran campaign` inputs end in a
//! structured error: exit code 1, an `error:` line on stderr naming the
//! offending flag or value, nothing on stdout, and never a panic. A
//! reader that closes stdout early (`synran … | head -1`) ends the run
//! quietly with exit 0.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn synran(args: &[&str]) -> Output {
    synran_in(Path::new("."), args)
}

fn synran_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_synran"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn synran")
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("synran-cli-errors-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn assert_rejected(args: &[&str], needle: &str) {
    assert_rejected_in(Path::new("."), args, needle);
}

fn assert_rejected_in(dir: &Path, args: &[&str], needle: &str) {
    let out = synran_in(dir, args);
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

#[test]
fn campaign_sizes_below_two_are_a_spec_error() {
    let dir = tmpdir("n1");
    for experiment in ["e3", "e4", "e7"] {
        for n in [0, 1] {
            let spec = format!("{experiment}n{n}.campaign");
            std::fs::write(
                dir.join(&spec),
                format!(
                    "campaign = {experiment}n{n}\nexperiment = {experiment}\nsweep n = 8,{n}\n"
                ),
            )
            .unwrap();
            assert_rejected_in(
                &dir,
                &["campaign", "run", &spec],
                &format!("spec error: experiment {experiment} needs every n >= 2, got n = {n}"),
            );
        }
    }
    assert!(!dir.join("results").exists(), "rejected before any journal");
}

#[test]
fn campaign_rejects_unknown_commands_and_options() {
    let dir = tmpdir("options");
    std::fs::write(dir.join("grid.campaign"), "campaign = grid\nn = 8\n").unwrap();
    for option in ["--procs", "--workers", "--token"] {
        assert_rejected_in(
            &dir,
            &["campaign", "run", "grid.campaign", option, "2"],
            &format!("unknown campaign option {option}"),
        );
    }
    assert_rejected_in(
        &dir,
        &["campaign", "agent", "--listen", "127.0.0.1:0"],
        "unknown campaign command \"agent\"",
    );
    assert!(!dir.join("results").exists(), "rejected before any journal");
}

#[test]
fn closed_stdout_is_a_quiet_exit() {
    for args in [&["run", "--n", "64", "--trace"][..], &["list"][..]] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_synran"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn synran");
        // Close the read end before the child writes its first line.
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("wait synran");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_ne!(out.status.code(), Some(101), "{args:?}: {stderr}");
        assert!(out.status.success(), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
