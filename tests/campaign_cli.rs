//! `synran campaign run --results-dir X` keeps every artifact under `X`:
//! the journal and the preset's telemetry artifact alike, and nothing in
//! the working directory's own `results/`.

use std::process::Command;

#[test]
fn results_dir_takes_the_telemetry_artifact() {
    let dir = std::env::temp_dir().join(format!("synran-campaign-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("mini.campaign"),
        "campaign = mini\nexperiment = e4\nruns = 2\nseed = 4\nsweep n = 8,12\n",
    )
    .unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_synran"))
        .args([
            "campaign",
            "run",
            "mini.campaign",
            "--results-dir",
            "elsewhere",
        ])
        .current_dir(&dir)
        .output()
        .expect("spawn synran");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("elsewhere/mini.journal.jsonl").is_file());
    assert!(dir
        .join("elsewhere/e4_synran_upper.telemetry.jsonl")
        .is_file());
    assert!(!dir.join("results").exists(), "wrote outside --results-dir");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("telemetry: elsewhere/e4_synran_upper.telemetry.jsonl"),
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
