//! A knob value an experiment binary cannot parse ends the run with an
//! `error: --<key> expects …` line and exit status 1, never a panic.

use std::process::Command;

#[test]
fn unparseable_knobs_exit_1_with_an_error_line() {
    for (args, needle) in [
        (
            &["--threads", "abc"][..],
            "error: --threads expects an integer, got \"abc\"",
        ),
        (
            &["--runs", "-1"][..],
            "error: --runs expects an integer, got \"-1\"",
        ),
        (
            &["--seed", "1e3"][..],
            "error: --seed expects an integer, got \"1e3\"",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_e3_lower_bound"))
            .args(args)
            .args(["--fast", "--telemetry", "off"])
            .current_dir(std::env::temp_dir())
            .output()
            .expect("spawn e3_lower_bound");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with(needle), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
}
