//! Records the serial-vs-parallel baseline in `BENCH_parallel.json`.
//!
//! For each system size the binary times `estimate_valency` and
//! `run_batch` at `threads = 1` and `threads = max(2, cores)`, asserts
//! that threads ∈ {1, 2, 8} all produce byte-identical results, and
//! writes the wall times plus the measured speedup to a hand-rolled JSON
//! file at the repo root (or `--out <path>`).
//!
//! The acceptance criterion — at least 2x speedup at n = 256 — applies on
//! machines with at least 4 cores; the JSON records the core count the
//! numbers were taken on so single-core CI runs are interpretable.
//!
//! ```text
//! cargo run --release -p synran-bench --bin bench_parallel
//! ```
//!
//! `--smoke` shrinks every knob for CI: same rows, same identity
//! assertions (that is the point), a fraction of the wall time.

use std::path::Path;
use std::time::Instant;

use synran_adversary::{estimate_valency, Balancer, ProbeSet};
use synran_bench::{results_telemetry_path, write_telemetry_jsonl, Args};
use synran_core::{run_batch, run_batch_with, ConsensusProtocol, InputAssignment, SynRan};
use synran_sim::{parallel, Bit, SimConfig, Telemetry, TelemetryMode, World};

/// Thread counts every row's results are verified byte-identical at
/// (serial golden first; the machine clamp may collapse 8 to fewer
/// workers, which the determinism contract makes unobservable).
const VERIFY_THREADS: [usize; 3] = [1, 2, 8];

/// One serial-vs-parallel comparison row.
struct Row {
    group: &'static str,
    n: usize,
    serial_ms: f64,
    parallel_ms: f64,
    identical: bool,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.serial_ms / self.parallel_ms.max(1e-9)
    }
}

/// Best-of-`reps` wall time in milliseconds (after one warm-up call).
fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f());
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn valency_row(n: usize, threads: usize, samples: usize, horizon: u32, reps: usize) -> Row {
    let build = |threads: usize| {
        let protocol = SynRan::new();
        let mut world = World::new(
            SimConfig::new(n)
                .faults(n / 2)
                .seed(4)
                .max_rounds(10_000)
                .threads(threads),
            |pid| protocol.spawn(pid, n, Bit::from(pid.index() < n / 2)),
        )
        .expect("valid config");
        world.phase_a().expect("phase A");
        world
    };
    let serial = build(1);
    let par = build(threads);
    let probes = ProbeSet::synran(n / 2);
    let golden = format!(
        "{:?}",
        estimate_valency(&serial, &probes, samples, horizon, 5).expect("estimate")
    );
    let identical = VERIFY_THREADS.iter().all(|&t| {
        let est = estimate_valency(&build(t), &probes, samples, horizon, 5).expect("estimate");
        format!("{est:?}") == golden
    });
    assert!(identical, "parallel valency estimate diverged at n={n}");
    Row {
        group: "valency_estimate",
        n,
        serial_ms: time_ms(reps, || {
            estimate_valency(&serial, &probes, samples, horizon, 5).expect("estimate")
        }),
        parallel_ms: time_ms(reps, || {
            estimate_valency(&par, &probes, samples, horizon, 5).expect("estimate")
        }),
        identical,
    }
}

fn batch_row(n: usize, threads: usize, runs: usize, reps: usize) -> Row {
    let protocol = SynRan::new();
    let cfg = |threads: usize| {
        SimConfig::new(n)
            .faults(n - 1)
            .max_rounds(100_000)
            .threads(threads)
    };
    let go = |threads: usize| {
        run_batch(
            &protocol,
            InputAssignment::Split { ones: n / 2 },
            &cfg(threads),
            runs,
            9,
            |_| Balancer::unbounded(),
        )
        .expect("batch")
    };
    let golden = format!("{:?}", go(1));
    let identical = VERIFY_THREADS
        .iter()
        .all(|&t| format!("{:?}", go(t)) == golden);
    assert!(identical, "parallel batch outcome diverged at n={n}");
    Row {
        group: "seed_batch",
        n,
        serial_ms: time_ms(reps, || go(1)),
        parallel_ms: time_ms(reps, || go(threads)),
        identical,
    }
}

/// Measures a fan-out of exactly [`parallel::MIN_CHUNK`] small worlds —
/// below the spawn threshold, so `par_map` runs inline at any thread
/// count and a tiny batch pays no thread spawn overhead
/// (`speedup` ≈ 1.0 instead of the pre-threshold small-n penalty).
fn tiny_batch_row(n: usize, threads: usize, reps: usize) -> Row {
    let total = parallel::MIN_CHUNK;
    let work = |i: usize| {
        let protocol = SynRan::new();
        let mut world = World::new(
            SimConfig::new(n)
                .faults(n / 2)
                .seed(100 + i as u64)
                .max_rounds(10_000),
            |pid| protocol.spawn(pid, n, Bit::from(pid.index() < n / 2)),
        )
        .expect("valid config");
        let report = world.run(&mut synran_sim::Passive).expect("run");
        format!("{report:?}")
    };
    let go = |threads: usize| parallel::par_map(threads, total, work);
    let golden = go(1);
    let identical = VERIFY_THREADS.iter().all(|&t| go(t) == golden);
    assert!(identical, "tiny batch diverged at n={n}");
    Row {
        group: "tiny_batch",
        n,
        serial_ms: time_ms(reps, || go(1)),
        parallel_ms: time_ms(reps, || go(threads)),
        identical,
    }
}

/// One spans-mode pass — a valency estimate plus a seed batch at the given
/// thread count — returning the hub with the phase breakdown. Run outside
/// the timed loops: telemetry is observe-only, but the breakdown should
/// describe an instrumented run, not perturb the timed ones.
fn instrumented_pass(
    n: usize,
    threads: usize,
    samples: usize,
    horizon: u32,
    runs: usize,
) -> Telemetry {
    let telemetry = Telemetry::new(TelemetryMode::Spans);
    let protocol = SynRan::new();
    let mut world = World::new(
        SimConfig::new(n)
            .faults(n / 2)
            .seed(4)
            .max_rounds(10_000)
            .threads(threads),
        |pid| protocol.spawn(pid, n, Bit::from(pid.index() < n / 2)),
    )
    .expect("valid config");
    world.set_telemetry(telemetry.clone());
    world.phase_a().expect("phase A");
    let probes = ProbeSet::synran(n / 2);
    estimate_valency(&world, &probes, samples, horizon, 5).expect("estimate");
    run_batch_with(
        &protocol,
        InputAssignment::Split { ones: n / 2 },
        &SimConfig::new(n)
            .faults(n - 1)
            .max_rounds(100_000)
            .threads(threads),
        runs,
        9,
        &telemetry,
        |_| Balancer::unbounded(),
    )
    .expect("batch");
    telemetry
}

/// Span totals of a hub as a JSON array (name order).
fn span_totals_json(telemetry: &Telemetry) -> String {
    let items: Vec<String> = telemetry
        .snapshot()
        .span_totals()
        .iter()
        .map(|(name, count, total_ns)| {
            format!("{{\"name\": \"{name}\", \"count\": {count}, \"total_ns\": {total_ns}}}")
        })
        .collect();
    format!("[{}]", items.join(", "))
}

/// Counters of a hub as a JSON object (name order).
fn counters_json(telemetry: &Telemetry) -> String {
    let items: Vec<String> = telemetry
        .snapshot()
        .counters
        .iter()
        .map(|(name, value)| format!("\"{name}\": {value}"))
        .collect();
    format!("{{{}}}", items.join(", "))
}

fn main() {
    let args = Args::from_env();
    let smoke = args.flag("smoke");
    let reps = args.get_usize("reps", if smoke { 1 } else { 3 });
    let samples = args.get_usize("samples", if smoke { 2 } else { 4 });
    let horizon =
        u32::try_from(args.get_usize("horizon", if smoke { 20 } else { 40 })).expect("horizon");
    let runs = args.get_usize("runs", if smoke { 6 } else { 16 });
    let sizes: [usize; 2] = if smoke { [16, 48] } else { [64, 256] };
    let cores = parallel::resolve_threads(parallel::AUTO_THREADS);
    // `Args::threads` applies the oversubscription clamp; the bench floors
    // at 2 so the parallel column exercises the fan-out even on one core.
    let threads = args.threads().max(2);
    let out = std::env::args()
        .skip(1)
        .collect::<Vec<_>>()
        .windows(2)
        .find(|w| w[0] == "--out")
        .map_or_else(|| "BENCH_parallel.json".to_string(), |w| w[1].clone());

    println!("bench_parallel: cores={cores} threads={threads} reps={reps} smoke={smoke}");
    let mut rows = Vec::new();
    for n in sizes {
        let v = valency_row(n, threads, samples, horizon, reps);
        println!(
            "valency_estimate n={n}: serial {:.2} ms, {threads}-thread {:.2} ms ({:.2}x)",
            v.serial_ms,
            v.parallel_ms,
            v.speedup()
        );
        rows.push(v);
        let s = batch_row(n, threads, runs, reps);
        println!(
            "seed_batch       n={n}: serial {:.2} ms, {threads}-thread {:.2} ms ({:.2}x)",
            s.serial_ms,
            s.parallel_ms,
            s.speedup()
        );
        rows.push(s);
    }
    let tiny = tiny_batch_row(sizes[0], threads, reps);
    println!(
        "tiny_batch       n={}: serial {:.2} ms, {threads}-thread {:.2} ms ({:.2}x, inline below MIN_CHUNK)",
        sizes[0],
        tiny.serial_ms,
        tiny.parallel_ms,
        tiny.speedup()
    );
    rows.push(tiny);

    // Spans-mode instrumentation pass (not timed): the serial-vs-parallel
    // phase breakdown recorded under the versioned "telemetry" key.
    let telemetry_n = sizes[0];
    let serial_hub = instrumented_pass(telemetry_n, 1, samples, horizon, runs);
    let parallel_hub = instrumented_pass(telemetry_n, threads, samples, horizon, runs);
    let telemetry_block = format!(
        "  \"telemetry\": {{\n    \"version\": 1,\n    \"mode\": \"spans\",\n    \
         \"n\": {telemetry_n},\n    \"serial_spans\": {},\n    \"parallel_spans\": {}\n  }},\n",
        span_totals_json(&serial_hub),
        span_totals_json(&parallel_hub)
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"bench_parallel\",\n");
    json.push_str(&format!("  \"cores\": {cores},\n"));
    json.push_str(&format!("  \"threads_parallel\": {threads},\n"));
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(
        "  \"note\": \"speedup target (>=2x at n=256) applies on machines with >=4 cores; \
         results at threads 1/2/8 are byte-identical by construction\",\n",
    );
    json.push_str(&telemetry_block);
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"group\": \"{}\", \"n\": {}, \"serial_ms\": {:.3}, \
             \"parallel_ms\": {:.3}, \"speedup\": {:.3}, \"identical\": {}}}{}\n",
            r.group,
            r.n,
            r.serial_ms,
            r.parallel_ms,
            r.speedup(),
            r.identical,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, json).expect("write baseline");
    println!("wrote {out}");

    // The same instrumented run, recorded as its own artifact.
    let mut summary = String::new();
    summary.push_str("{\n");
    summary.push_str("  \"bench\": \"bench_parallel\",\n");
    summary.push_str("  \"version\": 1,\n");
    summary.push_str(&format!("  \"cores\": {cores},\n"));
    summary.push_str(&format!("  \"threads_parallel\": {threads},\n"));
    summary.push_str(&format!("  \"n\": {telemetry_n},\n"));
    summary.push_str(&format!(
        "  \"serial\": {{\"counters\": {}, \"spans\": {}}},\n",
        counters_json(&serial_hub),
        span_totals_json(&serial_hub)
    ));
    summary.push_str(&format!(
        "  \"parallel\": {{\"counters\": {}, \"spans\": {}}}\n",
        counters_json(&parallel_hub),
        span_totals_json(&parallel_hub)
    ));
    summary.push_str("}\n");
    std::fs::write("BENCH_telemetry.json", summary).expect("write telemetry summary");
    println!("wrote BENCH_telemetry.json");

    // Per-round kill-budget accounting from one representative balancer
    // run, emitted next to the experiment results.
    let protocol = SynRan::new();
    let kill_hub = Telemetry::new(TelemetryMode::Counters);
    let mut world = World::new(
        SimConfig::new(telemetry_n)
            .faults(telemetry_n - 1)
            .seed(9)
            .max_rounds(100_000),
        |pid| protocol.spawn(pid, telemetry_n, Bit::from(pid.index() < telemetry_n / 2)),
    )
    .expect("valid config");
    world.set_telemetry(kill_hub.clone());
    let report = world.run(&mut Balancer::unbounded()).expect("run");
    let jsonl_path = results_telemetry_path(Path::new("results"), "bench_parallel");
    write_telemetry_jsonl(
        &jsonl_path,
        &[
            ("experiment", "bench_parallel".to_string()),
            ("adversary", "balancer".to_string()),
            ("n", telemetry_n.to_string()),
            ("t", (telemetry_n - 1).to_string()),
            ("seed", "9".to_string()),
        ],
        &kill_hub,
        report.metrics().kills_per_round(),
        telemetry_n,
    )
    .expect("write telemetry jsonl");
    println!("wrote {}", jsonl_path.display());
}
