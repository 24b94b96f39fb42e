//! The acceptance pin for the E3 campaign: the spec-driven path
//! (`experiment = e3`, what `synran campaign run campaigns/e3.campaign`
//! executes) and the params-driven path (what the `e3_lower_bound` binary
//! executes) render byte-identical output, at different thread counts and
//! telemetry modes. Combined with the presets being the binaries' only
//! code path, this is the "campaign reproduces the binary's table
//! byte-for-byte" guarantee.

use synran_lab::presets::{self, e3::E3Params};
use synran_lab::{CampaignSpec, Engine};
use synran_sim::{Telemetry, TelemetryMode};

#[test]
fn spec_path_and_binary_path_render_identical_bytes() {
    let spec = CampaignSpec::parse(
        "campaign = e3-mini\nexperiment = e3\nruns = 2\nsamples = 1\nseed = 3\n\
         telemetry = counters\nsweep n = 8,10\n",
        "e3-mini",
    )
    .unwrap();
    let params = E3Params {
        sizes: vec![8, 10],
        runs: 2,
        samples: 1,
        seed: 3,
    };

    // Both paths write their telemetry artifact into the same scratch
    // results directory, so the rendered `telemetry:` lines agree.
    let results_dir =
        std::env::temp_dir().join(format!("synran-lab-e3-parity-{}", std::process::id()));

    // The campaign path: serial, counters-mode telemetry (as the shipped
    // spec asks for).
    let mut via_spec = Vec::new();
    let mut spec_engine = Engine::new(1, Telemetry::new(TelemetryMode::Counters));
    presets::run_campaign(&spec, &mut spec_engine, &results_dir, &mut via_spec).unwrap();
    assert!(results_dir.join("e3_lower_bound.telemetry.jsonl").exists());

    // The binary path: explicit params, eight worker threads, telemetry
    // off — none of which may change a byte of the rendered tables.
    let mut via_params = Vec::new();
    let mut bin_engine = Engine::new(8, Telemetry::off());
    presets::e3::run(&params, &mut bin_engine, &results_dir, &mut via_params).unwrap();

    assert_eq!(
        String::from_utf8(via_spec).unwrap(),
        String::from_utf8(via_params).unwrap()
    );
    assert_eq!(spec_engine.executed(), bin_engine.executed());

    let _ = std::fs::remove_dir_all(&results_dir);
}
