//! E8 — Lemma 4.6 / Theorem 2 accounting: stalling SynRan costs the
//! adversary ~`√(p·log p)/16` kills per 3-round block.
//!
//! The harness runs SynRan against the coin-band balancer with tracing on,
//! reconstructs the alive-population timeline from the kill log, groups
//! rounds into blocks of three (the unit of Lemma 4.6's argument), and
//! compares the adversary's spend per block with the `√(p·ln p)` law as
//! the population halves — plus an ablation of the balancer's per-round
//! cap, which should reduce both spend *and* stalling power together.

use std::path::Path;

use synran_adversary::Balancer;
use synran_analysis::{fmt_f64, Accumulator, Table};
use synran_bench::{banner, results_telemetry_path, section, write_telemetry_jsonl, Args};
use synran_core::{check_consensus_with, ln_clamped, SynRan};
use synran_sim::{Bit, SimConfig, SimRng, Telemetry, TelemetryMode};

/// Per-block observations: population at block start, kills in the block.
fn blocks_of_one_run(
    n: usize,
    seed: u64,
    cap: Option<usize>,
    telemetry: &Telemetry,
) -> (Vec<(usize, usize)>, u32) {
    let inputs: Vec<Bit> = (0..n).map(|i| Bit::from(i < n / 2)).collect();
    let mut adversary = match cap {
        Some(c) => Balancer::with_cap(c),
        None => Balancer::unbounded(),
    };
    let verdict = check_consensus_with(
        &SynRan::new(),
        &inputs,
        SimConfig::new(n)
            .faults(n - 1)
            .seed(seed)
            .max_rounds(200_000),
        &mut adversary,
        telemetry,
    )
    .expect("engine error");
    assert!(verdict.is_correct(), "{:?}", verdict.violations());
    let rounds = verdict.rounds();
    // kills per round, dense.
    let mut per_round = vec![0usize; rounds as usize + 1];
    for &(round, k) in verdict.report().metrics().kills_per_round() {
        per_round[round.index() as usize - 1] += k;
    }
    let mut blocks = Vec::new();
    let mut population = n;
    let mut i = 0usize;
    while i < per_round.len() {
        let kills: usize = per_round[i..(i + 3).min(per_round.len())].iter().sum();
        blocks.push((population, kills));
        population -= kills;
        i += 3;
    }
    (blocks, rounds)
}

fn law(p: usize) -> f64 {
    ((p as f64) * ln_clamped(p)).sqrt()
}

fn main() {
    let args = Args::from_env();
    let runs = args.get_usize("runs", 25);
    let n = args.get_usize("n", 128);
    let seed = args.get_u64("seed", 8);

    banner(
        "E8 stalling-cost accounting (Lemma 4.6 / Theorem 2)",
        "the adversary must spend ~√(p·log p)/16 kills per 3-round block to stall SynRan",
    );
    println!("n = {n}, t = n − 1, {runs} runs, even-split inputs, balancer adversary");
    // One counters-mode hub across the whole experiment; exported to
    // results/e8_budget_ablation.telemetry.jsonl at the end. Observe-only:
    // the tables are identical with or without it.
    let telemetry = Telemetry::new(TelemetryMode::Counters);

    section("spend per 3-round block vs √(p·ln p), by population band");
    // Aggregate block spends into population bands [n/2^k, n/2^{k+1}).
    let bands = 5usize;
    let mut band_spend: Vec<Accumulator> = vec![Accumulator::new(); bands];
    let mut total_rounds = Accumulator::new();
    let mut total_kills = Accumulator::new();
    for r in 0..runs {
        let run_seed = SimRng::new(seed).derive(r as u64).next_u64();
        let (blocks, rounds) = blocks_of_one_run(n, run_seed, None, &telemetry);
        total_rounds.push(f64::from(rounds));
        total_kills.push(blocks.iter().map(|&(_, k)| k as f64).sum());
        for (p, kills) in blocks {
            if p == 0 {
                continue;
            }
            // band 0: p in (n/2, n]; band 1: (n/4, n/2]; ...
            let mut band = 0usize;
            let mut bound = n / 2;
            while p <= bound && band + 1 < bands {
                band += 1;
                bound /= 2;
            }
            band_spend[band].push(kills as f64);
        }
    }
    let mut table = Table::new([
        "population band",
        "blocks observed",
        "mean kills/block",
        "√(p·ln p) at band top",
        "ratio",
    ]);
    let mut top = n;
    for acc in band_spend.iter().take(bands) {
        if acc.count() > 0 {
            let predicted = law(top);
            table.row([
                format!("({}, {}]", top / 2, top),
                acc.count().to_string(),
                fmt_f64(acc.mean(), 1),
                fmt_f64(predicted, 1),
                fmt_f64(acc.mean() / predicted, 2),
            ]);
        }
        top /= 2;
    }
    print!("{table}");
    println!(
        "\nmean run: {} rounds, {} kills — expected: the ratio column is a modest constant,",
        fmt_f64(total_rounds.mean(), 1),
        fmt_f64(total_kills.mean(), 0),
    );
    println!("stable across bands, i.e. spend/block tracks √(p·ln p) as p halves (Lemma 4.6).");

    section("ablation: capping the balancer's per-round spend");
    let mut ablation = Table::new(["per-round cap", "mean rounds", "mean kills"]);
    for cap in [
        None,
        Some(law(n).ceil() as usize),
        Some((law(n) / 4.0).ceil() as usize),
        Some(1),
    ] {
        let mut rounds_acc = Accumulator::new();
        let mut kills_acc = Accumulator::new();
        for r in 0..runs {
            let run_seed = SimRng::new(seed ^ 0xAB).derive(r as u64).next_u64();
            let (blocks, rounds) = blocks_of_one_run(n, run_seed, cap, &telemetry);
            rounds_acc.push(f64::from(rounds));
            kills_acc.push(blocks.iter().map(|&(_, k)| k as f64).sum());
        }
        ablation.row([
            cap.map_or("unbounded".to_string(), |c| c.to_string()),
            fmt_f64(rounds_acc.mean(), 1),
            fmt_f64(kills_acc.mean(), 0),
        ]);
    }
    print!("{ablation}");
    println!("\nexpected: caps below ~√(n·ln n) starve the split move and stalling collapses —");
    println!("the same threshold the paper's lower-bound adversary needs per round.");

    // Telemetry artifact: the experiment-wide counters plus per-round
    // kill-budget accounting from one representative unbounded run.
    let rep_seed = SimRng::new(seed).derive(0).next_u64();
    let rep_inputs: Vec<Bit> = (0..n).map(|i| Bit::from(i < n / 2)).collect();
    let rep_verdict = check_consensus_with(
        &SynRan::new(),
        &rep_inputs,
        SimConfig::new(n)
            .faults(n - 1)
            .seed(rep_seed)
            .max_rounds(200_000),
        &mut Balancer::unbounded(),
        &telemetry,
    )
    .expect("engine error");
    let path = results_telemetry_path(Path::new("results"), "e8_budget_ablation");
    write_telemetry_jsonl(
        &path,
        &[
            ("experiment", "e8_budget_ablation".to_string()),
            ("adversary", "balancer".to_string()),
            ("n", n.to_string()),
            ("t", (n - 1).to_string()),
            ("seed", seed.to_string()),
            ("runs", runs.to_string()),
        ],
        &telemetry,
        rep_verdict.report().metrics().kills_per_round(),
        n,
    )
    .expect("write telemetry jsonl");
    println!("\ntelemetry: {}", path.display());
}
