//! End-to-end checks of the benchmark command: its oracles can fail, its
//! traced and untraced runs agree, and a run leaves the repository as it
//! found it.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`;
//! a debug build makes each workload pass several times slower.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::SystemTime;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

struct Outcome {
    code: Option<i32>,
    stdout: String,
    stderr: String,
    pid: u32,
}

impl Outcome {
    fn result_line(&self) -> &str {
        self.stdout.lines().last().unwrap_or("")
    }

    /// The whole-number field `key` of the result line.
    fn field(&self, key: &str) -> u64 {
        let line = self.result_line();
        let at = line
            .find(&format!("\"{key}\": "))
            .unwrap_or_else(|| panic!("no {key} in {line}"));
        line[at + key.len() + 4..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .expect("a whole number")
    }

    fn digest(&self) -> &str {
        self.stdout
            .lines()
            .find_map(|l| l.strip_prefix("digest "))
            .expect("a digest line")
    }
}

fn bench(args: &[&str]) -> Outcome {
    let child = Command::new(env!("CARGO_BIN_EXE_synran-perfbench"))
        .args(args)
        .args(["--seconds", "0"])
        .current_dir(repo_root())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("the benchmark binary starts");
    let pid = child.id();
    let out = child.wait_with_output().expect("the benchmark exits");
    Outcome {
        code: out.status.code(),
        stdout: String::from_utf8(out.stdout).expect("utf-8 stdout"),
        stderr: String::from_utf8(out.stderr).expect("utf-8 stderr"),
        pid,
    }
}

fn assert_fails_named(out: &Outcome) {
    assert_eq!(out.code, Some(1), "stderr: {}", out.stderr);
    assert!(out.result_line().contains("\"correct\": false"));
    assert!(out.field("failed") > 0, "{}", out.result_line());
    assert!(out.stderr.contains("FAILED "), "{}", out.stderr);
}

#[test]
fn corrupted_journal_line_fails_the_run() {
    let out = bench(&["--workload", "lower_bound", "--seed", "3"]);
    assert_eq!(out.code, Some(0), "stderr: {}", out.stderr);
    assert_eq!(out.field("failed"), 0);
    let out = bench(&[
        "--workload",
        "lower_bound",
        "--seed",
        "3",
        "--negative-control",
        "journal",
    ]);
    assert_fails_named(&out);
    assert!(out.stderr.contains("committed journal"), "{}", out.stderr);
}

#[test]
fn perturbed_closed_form_fails_the_run() {
    let out = bench(&[
        "--workload",
        "coin_control",
        "--negative-control",
        "closed_form",
    ]);
    assert_fails_named(&out);
    assert!(out.stderr.contains("closed form"), "{}", out.stderr);
}

#[test]
fn tracing_does_not_change_results() {
    for workload in ["coin_control", "lower_bound", "campaign_sweep"] {
        let plain = bench(&["--workload", workload]);
        let traced = bench(&["--workload", workload, "--trace", "1"]);
        for out in [&plain, &traced] {
            assert_eq!(out.code, Some(0), "{workload}: {}", out.stderr);
            assert_eq!(out.field("failed"), 0);
        }
        assert_eq!(plain.digest(), traced.digest(), "{workload}");
        assert!(traced.result_line().contains("\"trace.overhead_frac\""));
    }
}

#[test]
fn a_seed_outside_the_journals_still_passes() {
    let out = bench(&["--workload", "campaign_sweep", "--seed", "11"]);
    assert_eq!(out.code, Some(0), "stderr: {}", out.stderr);
    assert_eq!(out.field("failed"), 0);
}

/// `(size, modified time)` of every file under `dir`, skipping build
/// output, git metadata and the benchmark's own work directory.
fn snapshot(dir: &Path, root: &Path, files: &mut BTreeMap<PathBuf, (u64, SystemTime)>) {
    for entry in std::fs::read_dir(dir).expect("readable directory") {
        let entry = entry.expect("readable entry");
        let path = entry.path();
        let rel = path
            .strip_prefix(root)
            .expect("under the root")
            .to_path_buf();
        let name = entry.file_name();
        if name == ".git"
            || name == "target"
            || name == ".bench_build"
            || rel == Path::new("perfbench/.work")
        {
            continue;
        }
        let meta = entry.metadata().expect("readable metadata");
        if meta.is_dir() {
            snapshot(&path, root, files);
        } else {
            files.insert(rel, (meta.len(), meta.modified().expect("mtime")));
        }
    }
}

#[test]
fn a_run_leaves_the_tree_unchanged() {
    let root = repo_root();
    let mut before = BTreeMap::new();
    snapshot(&root, &root, &mut before);
    let out = bench(&["--workload", "campaign_sweep", "--trace", "1"]);
    assert_eq!(out.code, Some(0), "stderr: {}", out.stderr);
    let mut after = BTreeMap::new();
    snapshot(&root, &root, &mut after);
    assert_eq!(before, after);
    let work = root.join("perfbench/.work").join(out.pid.to_string());
    assert!(!work.exists(), "{} was left behind", work.display());
}
