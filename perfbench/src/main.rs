//! The synran benchmark: three workloads, each checked against oracles,
//! timed end to end and (with `--trace 1`) layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <coin_control|lower_bound|campaign_sweep> \
//!     [--seed N] [--seconds S] [--trace 0|1] \
//!     [--negative-control journal|closed_form]
//! ```
//!
//! Run it from the repository root: it reads `campaigns/` and `results/`
//! there and writes only under `perfbench/.work/`, which it removes again.
//! A run repeats the workload's fixed work (a pass) until `--seconds` have
//! passed and times each item at its fastest over the passes. The last
//! line of standard output is one JSON object; the exit code is 0 only if
//! every output matched its oracle.

mod campaign_sweep;
mod coin_control;
mod consensus;
mod lower_bound;
mod trace;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use synran_lab::fnv1a64;

use campaign_sweep::CampaignSweep;
use coin_control::CoinControl;
use lower_bound::LowerBound;
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// A deliberately wrong reference, to show that the checks can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NegativeControl {
    /// One committed journal result is altered after loading.
    Journal,
    /// One closed-form majority count is off by one.
    ClosedForm,
}

/// What one pass over a workload's fixed work produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Per-item times in milliseconds.
    items_ms: Vec<f64>,
    /// Bytes of every item's output, in order; equal across passes.
    digest: Vec<u8>,
    /// One line per failed item.
    failures: Vec<String>,
    wall_s: f64,
}

impl Pass {
    fn item(&mut self, started: Instant) {
        self.items_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }

    fn fail(&mut self, why: String) {
        self.failures.push(why);
    }
}

enum Workload {
    CoinControl(CoinControl),
    LowerBound(LowerBound),
    CampaignSweep(CampaignSweep),
}

impl Workload {
    fn setup(args: &Args, root: &Path, work: &Path) -> Result<Workload, String> {
        let seed = args.seed;
        let negative = args.negative;
        Ok(match args.workload.as_str() {
            "coin_control" => Workload::CoinControl(CoinControl::setup(seed, negative)),
            "lower_bound" => Workload::LowerBound(LowerBound::setup(root, seed, negative)?),
            "campaign_sweep" => {
                std::fs::create_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;
                Workload::CampaignSweep(CampaignSweep::setup(root, work, seed, negative)?)
            }
            other => return Err(format!("unknown workload {other:?}")),
        })
    }

    /// Cells whose results are checked against a committed journal.
    fn journaled(&self) -> usize {
        match self {
            Workload::CoinControl(_) => 0,
            Workload::LowerBound(w) => w.journaled(),
            Workload::CampaignSweep(w) => w.journaled(),
        }
    }

    fn pass(&self, traced: bool) -> (Pass, Tracer) {
        let mut tr = Tracer::new(traced);
        let started = Instant::now();
        let mut pass = match self {
            Workload::CoinControl(w) => w.pass(&mut tr),
            Workload::LowerBound(w) => w.pass(&mut tr),
            Workload::CampaignSweep(w) => w.pass(&mut tr),
        };
        pass.wall_s = started.elapsed().as_secs_f64();
        (pass, tr)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    negative: Option<NegativeControl>,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = 10;
        let mut trace = false;
        let mut negative = None;
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or(format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value}: {e}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = number()?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    }
                }
                "--negative-control" => {
                    negative = Some(match value.as_str() {
                        "journal" => NegativeControl::Journal,
                        "closed_form" => NegativeControl::ClosedForm,
                        _ => return Err(format!("unknown negative control {value:?}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        // Default seeds: E1's seed, and the shipped E3 and E4 campaign seeds.
        let default_seed = match workload.as_str() {
            "lower_bound" => 3,
            "campaign_sweep" => 4,
            _ => 1,
        };
        Ok(Args {
            seed: seed.unwrap_or(default_seed),
            workload,
            seconds,
            trace,
            negative,
        })
    }
}

fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linearly interpolated quantile `q` of `values`.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    #[allow(clippy::cast_precision_loss)]
    let pos = q * (sorted.len() - 1) as f64;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    #[allow(clippy::cast_precision_loss)]
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// The highest whole percentile with at least ten of `items` beyond it.
fn tail_percentile(items: usize) -> u32 {
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let p = (100.0 * (1.0 - 10.0 / items as f64)).floor().max(50.0) as u32;
    p
}

/// Peak resident memory of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Every per-layer metric of one traced pass, as `(name, unit, value)`.
#[allow(clippy::cast_precision_loss)]
fn layer_metrics(tr: &Tracer) -> Vec<(&'static str, &'static str, f64)> {
    let calls = |name| tr.calls(name) as f64;
    let busy_s = |name| tr.busy_ns(name) as f64 * 1e-9;
    let counter = |name| tr.counter(name) as f64;
    let intervene_us: Vec<f64> = tr
        .durations("adversary.intervene")
        .iter()
        .map(|&ns| ns as f64 * 1e-3)
        .collect();
    let sim_busy_s = busy_s("sim.phase_a") + busy_s("sim.deliver");
    // Shares are of the hand-stepped runs' time, which on campaign_sweep
    // excludes the engine's own execution of the same cells.
    let run_s = busy_s("core.run");
    vec![
        ("coin.exact.calls", "count", calls("coin.exact")),
        ("coin.exact.busy_s", "s", busy_s("coin.exact")),
        (
            "coin.exact.ns_per_input",
            "ns",
            ratio(busy_s("coin.exact") * 1e9, counter("coin.exact.inputs")),
        ),
        ("coin.control.calls", "count", calls("coin.control")),
        ("coin.control.busy_s", "s", busy_s("coin.control")),
        (
            "coin.control.searches",
            "count",
            counter("coin.control.searches"),
        ),
        (
            "coin.control.forced_frac",
            "ratio",
            ratio(
                counter("coin.control.forced"),
                counter("coin.control.searches"),
            ),
        ),
        (
            "adversary.intervene.calls",
            "count",
            calls("adversary.intervene"),
        ),
        (
            "adversary.intervene.busy_s",
            "s",
            busy_s("adversary.intervene"),
        ),
        (
            "adversary.intervene.us_p50",
            "us",
            if intervene_us.is_empty() {
                0.0
            } else {
                median(&intervene_us)
            },
        ),
        (
            "adversary.intervene.share",
            "ratio",
            ratio(busy_s("adversary.intervene"), run_s),
        ),
        ("adversary.kills", "count", counter("adversary.kills")),
        (
            "adversary.kill_calls_frac",
            "ratio",
            ratio(
                counter("adversary.kill_calls"),
                calls("adversary.intervene"),
            ),
        ),
        ("sim.phase_a.calls", "count", calls("sim.phase_a")),
        ("sim.phase_a.busy_s", "s", busy_s("sim.phase_a")),
        ("sim.deliver.calls", "count", calls("sim.deliver")),
        ("sim.deliver.busy_s", "s", busy_s("sim.deliver")),
        ("sim.rounds", "count", counter("sim.rounds")),
        (
            "sim.ns_per_process_round",
            "ns",
            ratio(sim_busy_s * 1e9, counter("sim.process_rounds")),
        ),
        ("sim.share", "ratio", ratio(sim_busy_s, run_s)),
        ("core.runs", "count", counter("core.runs")),
        (
            "core.rounds_per_run",
            "rounds",
            ratio(counter("core.rounds"), counter("core.runs")),
        ),
        ("core.violations", "count", counter("core.violations")),
        ("core.timeouts", "count", counter("core.timeouts")),
        ("core.evaluate.busy_s", "s", busy_s("core.evaluate")),
        ("lab.cells", "count", counter("lab.cells")),
        ("lab.executed", "count", counter("lab.executed")),
        ("lab.cache_hits", "count", counter("lab.cache_hits")),
        ("lab.run_cells.busy_s", "s", busy_s("lab.run_cells")),
        ("lab.journal_bytes", "bytes", counter("lab.journal_bytes")),
        (
            "lab.overhead_s",
            "s",
            if tr.calls("lab.run_cells") == 0 {
                0.0
            } else {
                busy_s("lab.run_cells") - busy_s("core.run")
            },
        ),
    ]
}

fn json_metrics(metrics: &[(&str, &str, f64)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            assert!(value.is_finite(), "{name} is not a finite number");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".");
    let work = root
        .join("perfbench/.work")
        .join(std::process::id().to_string());
    let outcome = run(&args, &root, &work, process_start);
    // Only the campaign journal lives here; the work directory is this
    // process's alone.
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(root.join("perfbench/.work"));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs the benchmark; `Ok(correct)` once the result line is printed.
fn run(args: &Args, root: &Path, work: &Path, process_start: Instant) -> Result<bool, String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut workload = None;
    for rep in 0..SETUP_REPS {
        let started = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        workload = Some(Workload::setup(args, root, work)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let workload = workload.expect("at least one set-up");

    // Untraced passes, or (traced) alternating untraced/traced pairs,
    // until the time is up; at least one of each.
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    while plain.is_empty() || Instant::now() < deadline {
        if !args.trace {
            plain.push(workload.pass(false).0);
            continue;
        }
        let pair_index = traced.len();
        if pair_index % 2 == 1 {
            traced.push(workload.pass(true));
        }
        plain.push(workload.pass(false).0);
        if pair_index % 2 == 0 {
            traced.push(workload.pass(true));
        }
    }

    let all: Vec<&Pass> = plain.iter().chain(traced.iter().map(|(p, _)| p)).collect();
    let attempted: usize = all.iter().map(|p| p.items_ms.len()).sum();
    let failed: usize = all.iter().map(|p| p.failures.len()).sum();
    let failures: BTreeSet<&String> = all.iter().flat_map(|p| &p.failures).collect();
    for why in &failures {
        eprintln!("FAILED {why}");
    }
    let digests: BTreeSet<u64> = all.iter().map(|p| fnv1a64(&p.digest)).collect();
    if digests.len() > 1 {
        eprintln!(
            "FAILED passes disagree: {} distinct output digests",
            digests.len()
        );
    }
    let correct = failed == 0 && digests.len() == 1;

    // Every pass repeats the same items, and contention from other tenants
    // of the host only ever adds time; on the reference runner it moves a
    // fixed 50 ms loop between 40 and 155 ms from one second to the next.
    // So each item's time is its minimum over this run's passes, and the
    // end-to-end timings are taken over those minima: `wall_s` is their
    // sum, the percentiles are across items.
    let per_pass = plain[0].items_ms.len();
    let tail = tail_percentile(per_pass);
    let walls: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
    let items: Vec<f64> = (0..per_pass)
        .map(|i| {
            plain
                .iter()
                .filter_map(|p| p.items_ms.get(i).copied())
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    #[allow(clippy::cast_precision_loss)]
    let fail_frac = failed as f64 / attempted.max(1) as f64;
    println!(
        "workload {} seed {} threads 1 (available_parallelism {})",
        args.workload,
        args.seed,
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
    );
    println!(
        "passes {} untraced, {} traced; {per_pass} items per pass; item_ms_tail = p{tail}",
        plain.len(),
        traced.len()
    );
    let show = |walls: &[f64]| -> String { walls.iter().map(|w| format!(" {w:.4}")).collect() };
    println!("untraced pass wall_s:{}", show(&walls));
    if args.trace {
        let traced_walls: Vec<f64> = traced.iter().map(|(p, _)| p.wall_s).collect();
        println!("traced pass wall_s:{}", show(&traced_walls));
    }
    println!(
        "digest {:016x}",
        digests.iter().next().expect("one pass ran")
    );
    println!("fail_frac {fail_frac} ({failed} of {attempted} items)");
    println!(
        "cells checked against committed journals: {}",
        workload.journaled()
    );

    let metrics = if args.trace {
        let (fastest, tr) = traced
            .iter()
            .min_by(|a, b| a.0.wall_s.total_cmp(&b.0.wall_s))
            .expect("one traced pass ran");
        let mut metrics = layer_metrics(tr);
        metrics.push((
            "trace.overhead_frac",
            "ratio",
            fastest.wall_s / min(&walls) - 1.0,
        ));
        eprintln!("span                      calls      total_s       self_s");
        for (name, calls, total, own) in tr.self_times() {
            #[allow(clippy::cast_precision_loss)]
            let (total, own) = (total as f64 * 1e-9, own as f64 * 1e-9);
            eprintln!("{name:<24} {calls:>7} {total:>12.6} {own:>12.6}");
        }
        metrics
    } else {
        vec![
            ("wall_s", "s", items.iter().sum::<f64>() / 1e3),
            ("item_ms_p50", "ms", median(&items)),
            (
                "item_ms_tail",
                "ms",
                quantile(&items, f64::from(tail) / 100.0),
            ),
            ("setup_s", "s", median(&setups)),
            ("peak_rss_mb", "MiB", peak_rss_mb()?),
        ]
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&metrics)
    );
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn tail_percentile_leaves_ten_items_beyond() {
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(704), 98);
        assert_eq!(tail_percentile(15), 50);
    }

    #[test]
    fn args_reject_bad_input() {
        let parse = |v: &[&str]| Args::parse(v.iter().map(ToString::to_string));
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload"]).is_err());
        assert!(parse(&["--workload", "x", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "x", "--bogus", "1"]).is_err());
        let args = parse(&["--workload", "lower_bound"]).unwrap();
        assert_eq!((args.seed, args.seconds, args.trace), (3, 10, false));
    }
}
