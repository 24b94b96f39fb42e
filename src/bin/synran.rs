//! The `synran` command-line tool: run protocols against adversaries
//! without writing code.
//!
//! ```text
//! synran run   --protocol synran --adversary balancer --n 64 --t 63 --seed 7
//! synran batch --protocol leader --adversary oblivious --n 65 --t 32 --runs 25
//! synran campaign run campaigns/e3.campaign
//! synran list
//! ```

use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

use synran::adversary::{
    Balancer, LeaderHunter, LowerBoundAdversary, MessageWalker, Oblivious, PreferenceKiller,
    RandomKiller, Storm,
};
use synran::core::{
    check_consensus_with, run_batch_with, ConsensusProtocol, FloodingConsensus, InputAssignment,
    LeaderConsensus, SynRan,
};
use synran::lab::{
    agent_main, fleet_sidecar_path, load_cache, presets, scan_fleet_sidecar, scan_journal,
    AgentConfig, CampaignSpec, CellCache, CellRunner, Engine, Fleet, FleetConfig, Journal, Report,
    ReportFormat, StderrProgress,
};
use synran::sim::{
    Adversary, Bit, JsonlSink, Passive, Process, SimConfig, SimRng, Telemetry, TelemetryEvent,
    TelemetryMode, TelemetrySink,
};

const USAGE: &str = "\
synran — randomized synchronous consensus vs adaptive fail-stop adversaries
(Bar-Joseph & Ben-Or, PODC 1998)

USAGE:
  synran run   [OPTIONS]    run one execution and print its verdict
  synran batch [OPTIONS]    run many seeded executions and print statistics
  synran campaign run <spec>     run a declarative campaign (journalled,
                 resumable; cached cells are skipped automatically)
  synran campaign resume <spec>  alias of run — resuming is the default
  synran campaign status <spec>  show percent-complete and journal health,
                 no execution
  synran campaign list           list the specs under campaigns/
  synran campaign agent --listen <addr>  serve campaign cells to remote
                 supervisors over TCP (long-lived; pair with
                 `campaign run --workers host:port,...`)
  synran report [OPTIONS] <file>...  render telemetry/journal JSONL artifacts
                 as deterministic tables, JSON, or folded stacks
  synran list               list protocols, adversaries, and experiments

CAMPAIGN OPTIONS:
  --threads <int>      worker threads (0 = all cores; results identical
                       for every value)                      (default 0)
  --procs <int>        worker *processes* (campaign run only). The
                       supervisor leases cells to N subprocesses with
                       heartbeats and crash-tolerant retry; journal and
                       stdout are byte-identical for every value
                       (default 1 = in-process engine)
  --workers <list>     comma-separated worker slots (campaign run only):
                       TCP agent addresses and local pipe slots, e.g.
                       10.0.0.2:7070,local:2. Overrides --procs; remote
                       disconnects retry like worker crashes; journal and
                       stdout stay byte-identical to the engine
  --token <secret>     shared handshake secret for TCP workers
                       (default $SYNRAN_FLEET_TOKEN, else empty)
  --results-dir <dir>  journal directory                     (default results)
  --fresh              truncate the journal first (campaign run only)
  --import <path>      merge another campaign's journal as a read-only
                       result cache (cross-campaign dedup)
  --progress <int>     heartbeat to stderr every N completed cells
                       (observe-only; results identical with it on or off)
  --dir <dir>          directory scanned by campaign list    (default campaigns)

AGENT OPTIONS:
  --listen <addr>      bind address, e.g. 127.0.0.1:7070 (port 0 picks an
                       ephemeral port)                      (required)
  --token <secret>     secret supervisors must present
                       (default $SYNRAN_FLEET_TOKEN, else empty)
  --threads <int>      capability advertised in the handshake (0 = all cores)
  --port-file <path>   atomically write the bound address to <path> —
                       ephemeral-port discovery for scripts
  --once               exit after serving one supervisor connection

REPORT OPTIONS:
  --format table | json | folded   rendering                 (default table)
                 folded emits `a;b;c self_ns` stack lines for flamegraph
                 tooling (spans-mode telemetry only)
  --check        verify stream integrity instead of rendering: exit nonzero
                 on malformed or truncated lines
  Files ending in .journal.jsonl parse as campaign journals; everything
  else parses as telemetry JSONL. Output is a pure function of the input
  bytes — byte-identical on every re-run at any thread count.

OPTIONS:
  --protocol  synran | symmetric | flooding | leader        (default synran)
  --adversary passive | random | storm | oblivious | kill-ones | kill-zeros
              | balancer | lower-bound | walker | hunter    (default passive)
  --n    <int>   system size                                (default 32)
  --t    <int>   fault budget                               (default n-1; leader: (n-1)/2)
  --ones <int>   processes with input 1                     (default n/2)
  --seed <int>   master seed                                (default 1)
  --runs <int>   batch size (batch only)                    (default 20)
  --threads <int> worker threads for batches (0 = all cores, 1 = serial;
                 results are identical for every value)     (default 0)
  --trace        print the event trace (run only)
  --telemetry off | counters | spans                        (default off;
                 counters if --telemetry-out is given)
  --telemetry-out <path>  write the run's telemetry as JSONL (one event per
                 line). Telemetry is observe-only: results are identical
                 with it on or off.

Adversary/protocol compatibility: balancer, lower-bound, walker, kill-*
attack the SynRan family; hunter attacks leader; the rest attack anything.";

type Parsed = (Vec<String>, HashMap<String, String>, Vec<String>);

/// Splits an argument list into positionals (command words, spec paths),
/// `--key value` pairs, and bare `--flag`s.
fn parse(args: &[String]) -> Parsed {
    let mut positionals = Vec::new();
    let mut values = HashMap::new();
    let mut flags = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(key) = a.strip_prefix("--") {
            match it.peek() {
                Some(v) if !v.starts_with("--") => {
                    values.insert(key.to_string(), it.next().expect("peeked").clone());
                }
                _ => flags.push(key.to_string()),
            }
        } else {
            positionals.push(a.clone());
        }
    }
    (positionals, values, flags)
}

#[derive(Debug)]
struct Opts {
    protocol: String,
    adversary: String,
    n: usize,
    t: usize,
    ones: usize,
    seed: u64,
    runs: usize,
    threads: usize,
    trace: bool,
    telemetry: TelemetryMode,
    telemetry_out: Option<String>,
}

impl Opts {
    fn from(values: &HashMap<String, String>, flags: &[String]) -> Result<Opts, String> {
        let get_usize = |k: &str, d: usize| -> Result<usize, String> {
            values.get(k).map_or(Ok(d), |v| {
                v.parse().map_err(|_| format!("--{k}: not an integer: {v}"))
            })
        };
        let protocol = values
            .get("protocol")
            .cloned()
            .unwrap_or_else(|| "synran".into());
        let n = get_usize("n", 32)?;
        let telemetry_out = values.get("telemetry-out").cloned();
        // An output path without an explicit mode means "record counters".
        let default_mode = if telemetry_out.is_some() {
            TelemetryMode::Counters
        } else {
            TelemetryMode::Off
        };
        let telemetry = values.get("telemetry").map_or(Ok(default_mode), |v| {
            v.parse().map_err(|e| format!("--telemetry: {e}"))
        })?;
        let default_t = if protocol == "leader" {
            (n.saturating_sub(1)) / 2
        } else {
            n.saturating_sub(1)
        };
        let ones = get_usize("ones", n / 2)?;
        if ones > n {
            return Err(format!("--ones {ones} exceeds --n {n}"));
        }
        let runs = get_usize("runs", 20)?;
        if runs == 0 {
            return Err("--runs must be at least 1".into());
        }
        Ok(Opts {
            adversary: values
                .get("adversary")
                .cloned()
                .unwrap_or_else(|| "passive".into()),
            t: get_usize("t", default_t)?,
            ones,
            seed: values.get("seed").map_or(Ok(1), |v| {
                v.parse()
                    .map_err(|_| format!("--seed: not an integer: {v}"))
            })?,
            runs,
            threads: get_usize("threads", 0)?,
            trace: flags.iter().any(|f| f == "trace"),
            telemetry,
            telemetry_out,
            protocol,
            n,
        })
    }

    fn inputs(&self) -> Vec<Bit> {
        (0..self.n).map(|i| Bit::from(i < self.ones)).collect()
    }

    fn config(&self) -> SimConfig {
        SimConfig::new(self.n)
            .faults(self.t)
            .seed(self.seed)
            .max_rounds(500_000)
            .trace(self.trace)
            .threads(self.threads)
    }
}

/// A boxed adversary that can be built on batch worker threads.
type BoxedAdv<P> = Box<dyn Adversary<P> + Send>;

/// Builds the adversary for a SynRan-family run.
fn synran_adversary(
    name: &str,
    opts: &Opts,
    seed: u64,
) -> Result<BoxedAdv<synran::core::SynRanProcess>, String> {
    let rate = (opts.n as f64).sqrt().ceil() as usize;
    Ok(match name {
        "passive" => Box::new(Passive),
        "random" => Box::new(RandomKiller::new(rate, seed)),
        "storm" => Box::new(Storm::new(seed)),
        "oblivious" => Box::new(Oblivious::new(opts.n, rate, 500, seed)),
        "kill-ones" => Box::new(PreferenceKiller::new(Bit::One, rate)),
        "kill-zeros" => Box::new(PreferenceKiller::new(Bit::Zero, rate)),
        "balancer" => Box::new(Balancer::unbounded()),
        "lower-bound" => Box::new(LowerBoundAdversary::for_system(opts.n, seed)),
        "walker" => Box::new(MessageWalker::new(rate.max(2), 3, 30, seed)),
        other => return Err(format!("adversary {other:?} cannot attack this protocol")),
    })
}

/// Builds the adversary for a protocol whose process type only generic
/// adversaries understand.
fn generic_adversary<P: Process>(
    name: &str,
    opts: &Opts,
    seed: u64,
) -> Result<BoxedAdv<P>, String> {
    let rate = (opts.n as f64).sqrt().ceil() as usize;
    Ok(match name {
        "passive" => Box::new(Passive),
        "random" => Box::new(RandomKiller::new(rate, seed)),
        "storm" => Box::new(Storm::new(seed)),
        "oblivious" => Box::new(Oblivious::new(opts.n, rate, 500, seed)),
        other => return Err(format!("adversary {other:?} cannot attack this protocol")),
    })
}

fn leader_adversary(
    name: &str,
    opts: &Opts,
    seed: u64,
) -> Result<BoxedAdv<synran::core::LeaderProcess>, String> {
    if name == "hunter" {
        return Ok(Box::new(LeaderHunter::new()));
    }
    generic_adversary(name, opts, seed)
}

fn run_once<P>(
    protocol: &P,
    opts: &Opts,
    telemetry: &Telemetry,
    mut adversary: BoxedAdv<P::Proc>,
) -> Result<(), String>
where
    P: ConsensusProtocol,
{
    let verdict = check_consensus_with(
        protocol,
        &opts.inputs(),
        opts.config(),
        &mut adversary,
        telemetry,
    )
    .map_err(|e| e.to_string())?;
    println!("protocol    : {}", protocol.name());
    println!("adversary   : {}", opts.adversary);
    println!("n / t / ones: {} / {} / {}", opts.n, opts.t, opts.ones);
    println!("rounds      : {}", verdict.rounds());
    println!("kills       : {}", verdict.report().metrics().total_kills());
    println!("decision    : {:?}", verdict.report().unanimous_decision());
    println!(
        "correct     : {} (agreement {}, validity {}, termination {})",
        verdict.is_correct(),
        verdict.agreement(),
        verdict.validity(),
        verdict.termination()
    );
    if !verdict.violations().is_empty() {
        for v in verdict.violations() {
            println!("violation   : {v}");
        }
    }
    if opts.trace {
        println!("\ntrace:");
        for e in verdict.report().trace().events() {
            println!("  {e}");
        }
    }
    Ok(())
}

fn run_batch_cmd<P, F>(
    protocol: &P,
    opts: &Opts,
    telemetry: &Telemetry,
    make: F,
) -> Result<(), String>
where
    P: ConsensusProtocol + Sync,
    F: Fn(u64) -> Result<BoxedAdv<P::Proc>, String> + Sync,
{
    // Pre-validate the adversary name once.
    make(0)?;
    let assignment = InputAssignment::Split { ones: opts.ones };
    let outcome = run_batch_with(
        protocol,
        assignment,
        &opts.config(),
        opts.runs,
        opts.seed,
        telemetry,
        |s| make(s).expect("validated above"),
    )
    .map_err(|e| e.to_string())?;
    let mean = outcome.mean_rounds();
    let kills: f64 =
        outcome.kills().iter().map(|&k| k as f64).sum::<f64>() / outcome.kills().len() as f64;
    println!("protocol  : {}", protocol.name());
    println!("adversary : {}", opts.adversary);
    println!("n / t     : {} / {}", opts.n, opts.t);
    println!("runs      : {}", opts.runs);
    println!(
        "rounds    : mean {:.1}, max {:?}",
        mean,
        outcome.max_rounds()
    );
    println!("kills     : mean {kills:.1}");
    println!(
        "correct   : {}/{} runs",
        opts.runs - outcome.incorrect().len() - outcome.timeouts(),
        opts.runs
    );
    for (seed, violations) in outcome.incorrect() {
        println!("  seed {seed}: {violations:?}");
    }
    Ok(())
}

fn dispatch(cmd: &str, opts: &Opts) -> Result<(), String> {
    let seed0 = SimRng::new(opts.seed).next_u64();
    let telemetry = Telemetry::new(opts.telemetry);
    match (cmd, opts.protocol.as_str()) {
        ("run", "synran") => run_once(
            &SynRan::new(),
            opts,
            &telemetry,
            synran_adversary(&opts.adversary, opts, seed0)?,
        ),
        ("run", "symmetric") => run_once(
            &SynRan::symmetric(),
            opts,
            &telemetry,
            synran_adversary(&opts.adversary, opts, seed0)?,
        ),
        ("run", "flooding") => run_once(
            &FloodingConsensus::for_faults(opts.t),
            opts,
            &telemetry,
            generic_adversary(&opts.adversary, opts, seed0)?,
        ),
        ("run", "leader") => run_once(
            &LeaderConsensus::for_faults(opts.t),
            opts,
            &telemetry,
            leader_adversary(&opts.adversary, opts, seed0)?,
        ),
        ("batch", "synran") => run_batch_cmd(&SynRan::new(), opts, &telemetry, |s| {
            synran_adversary(&opts.adversary, opts, s)
        }),
        ("batch", "symmetric") => run_batch_cmd(&SynRan::symmetric(), opts, &telemetry, |s| {
            synran_adversary(&opts.adversary, opts, s)
        }),
        ("batch", "flooding") => run_batch_cmd(
            &FloodingConsensus::for_faults(opts.t),
            opts,
            &telemetry,
            |s| generic_adversary(&opts.adversary, opts, s),
        ),
        ("batch", "leader") => run_batch_cmd(
            &LeaderConsensus::for_faults(opts.t),
            opts,
            &telemetry,
            |s| leader_adversary(&opts.adversary, opts, s),
        ),
        (_, p) => return Err(format!("unknown protocol {p:?} (see `synran list`)")),
    }?;
    if let Some(path) = &opts.telemetry_out {
        write_telemetry(path, cmd, opts, &telemetry)?;
        println!("telemetry   : {} ({})", path, opts.telemetry);
    }
    Ok(())
}

/// Writes the run's telemetry as JSONL: meta attribution lines first, then
/// the exported registry (counters, histograms, spans).
fn write_telemetry(
    path: &str,
    cmd: &str,
    opts: &Opts,
    telemetry: &Telemetry,
) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("--telemetry-out {path}: {e}"))?;
    let mut sink = JsonlSink::new(std::io::BufWriter::new(file));
    for (key, value) in [
        ("command", cmd.to_string()),
        ("protocol", opts.protocol.clone()),
        ("adversary", opts.adversary.clone()),
        ("n", opts.n.to_string()),
        ("t", opts.t.to_string()),
        ("seed", opts.seed.to_string()),
        ("mode", opts.telemetry.to_string()),
    ] {
        sink.emit(&TelemetryEvent::Meta {
            key: key.to_string(),
            value,
        });
    }
    telemetry.export(&mut sink);
    sink.finish()
        .map_err(|e| format!("--telemetry-out {path}: {e}"))?;
    Ok(())
}

/// `synran campaign <run|resume|status|list>` — the declarative campaign
/// engine (`synran::lab`). Rendered tables go to stdout; engine
/// bookkeeping (cache hits, journal paths) goes to stderr so campaign
/// output stays byte-identical to the experiment binaries'.
fn campaign_cmd(
    rest: &[String],
    values: &HashMap<String, String>,
    flags: &[String],
) -> Result<(), String> {
    let spec_path = rest.get(1).map(String::as_str);
    match rest.first().map(String::as_str) {
        Some(sub @ ("run" | "resume")) => campaign_run(spec_path, values, flags, sub == "run"),
        Some("status") => campaign_status(spec_path, values),
        Some("list") => campaign_list(values),
        Some("agent") => campaign_agent(values, flags),
        // Hidden: the fleet worker half of `campaign run --procs N`.
        // Supervisors spawn it; humans never type it.
        Some("worker") => {
            synran::lab::fleet::worker_main();
            Ok(())
        }
        Some(other) => Err(format!(
            "unknown campaign command {other:?} (run, resume, status, list, agent)"
        )),
        None => Err("campaign expects a command: run, resume, status, list, or agent".into()),
    }
}

fn journal_path(values: &HashMap<String, String>, campaign: &str) -> std::path::PathBuf {
    let dir = values.get("results-dir").map_or("results", String::as_str);
    Path::new(dir).join(format!("{campaign}.journal.jsonl"))
}

fn campaign_run(
    spec_path: Option<&str>,
    values: &HashMap<String, String>,
    flags: &[String],
    allow_fresh: bool,
) -> Result<(), String> {
    let path = spec_path.ok_or("campaign run expects a spec path (e.g. campaigns/e3.campaign)")?;
    let spec = CampaignSpec::parse_file(Path::new(path)).map_err(|e| e.to_string())?;
    let cells = presets::campaign_cells(&spec).map_err(|e| e.to_string())?;
    let journal_path = journal_path(values, spec.name());
    let fresh = flags.iter().any(|f| f == "fresh");
    if fresh && !allow_fresh {
        return Err("--fresh discards the journal; use `campaign run --fresh`".into());
    }
    let (mut journal, cache) = if fresh {
        let journal = Journal::create_fresh(&journal_path).map_err(|e| e.to_string())?;
        (journal, CellCache::new())
    } else {
        Journal::open(&journal_path).map_err(|e| e.to_string())?
    };
    journal
        .append_header(spec.name(), cells.len(), &spec.content_hash())
        .map_err(|e| e.to_string())?;
    let threads = values.get("threads").map_or(Ok(0), |v| {
        v.parse()
            .map_err(|_| format!("--threads: not an integer: {v}"))
    })?;
    let procs: usize = values.get("procs").map_or(Ok(1), |v| {
        v.parse()
            .map_err(|_| format!("--procs: not an integer: {v}"))
    })?;
    let telemetry = Telemetry::new(spec.telemetry_mode().map_err(|e| e.to_string())?);
    let warm = cache.len();
    let mut engine = Engine::new(threads, telemetry).with_journal(journal, cache);
    // Opt-in heartbeats to stderr (`--progress N`, or bare `--progress`
    // for every 25 cells). Observe-only: stdout and the journal are
    // byte-identical with this on or off.
    let progress_every = match values.get("progress") {
        Some(v) => Some(
            v.parse()
                .map_err(|_| format!("--progress: not an integer: {v}"))?,
        ),
        None => flags.iter().any(|f| f == "progress").then_some(25),
    };
    if let Some(every) = progress_every {
        engine = engine.with_progress(every, Box::new(StderrProgress));
    }
    if let Some(import) = values.get("import") {
        let merged = engine
            .import_cache(Path::new(import))
            .map_err(|e| e.to_string())?;
        eprintln!("imported {merged} cached cells from {import}");
    }
    if warm > 0 {
        eprintln!(
            "resuming campaign {}: {warm} journalled cells already cached",
            spec.name()
        );
    }
    // `--procs 1` (the default) is the in-process engine verbatim;
    // more than one local slot — or any `--workers` remote — wraps it in
    // the fleet supervisor. Either way the journal and stdout are
    // byte-identical — the fleet's parity contract.
    let mut fleet_cfg = FleetConfig::from_env(procs);
    if let Some(workers) = values.get("workers") {
        fleet_cfg = fleet_cfg.with_workers(workers)?;
    }
    if let Some(token) = values.get("token") {
        fleet_cfg.token = token.clone();
    }
    let mut fleet_holder;
    let runner: &mut dyn CellRunner = if fleet_cfg.engages() {
        fleet_holder = Fleet::new(engine, fleet_cfg);
        &mut fleet_holder
    } else {
        &mut engine
    };
    presets::run_campaign(&spec, runner, &mut std::io::stdout().lock())
        .map_err(|e| e.to_string())?;
    eprintln!(
        "campaign {}: {} cells executed, {} cache hits → {}",
        spec.name(),
        runner.executed(),
        runner.cache_hits(),
        journal_path.display()
    );
    Ok(())
}

/// `synran campaign agent` — a long-lived TCP worker serving cells to
/// remote supervisors (`campaign run --workers host:port,...`).
fn campaign_agent(values: &HashMap<String, String>, flags: &[String]) -> Result<(), String> {
    let listen = values
        .get("listen")
        .cloned()
        .ok_or("campaign agent expects --listen ADDR (e.g. --listen 127.0.0.1:7070)")?;
    let token = values
        .get("token")
        .cloned()
        .or_else(|| std::env::var("SYNRAN_FLEET_TOKEN").ok())
        .unwrap_or_default();
    let threads = values.get("threads").map_or(Ok(0), |v| {
        v.parse()
            .map_err(|_| format!("--threads: not an integer: {v}"))
    })?;
    agent_main(&AgentConfig {
        listen,
        token,
        threads,
        port_file: values.get("port-file").map(std::path::PathBuf::from),
        once: flags.iter().any(|f| f == "once"),
    })
}

fn campaign_status(
    spec_path: Option<&str>,
    values: &HashMap<String, String>,
) -> Result<(), String> {
    let path = spec_path.ok_or("campaign status expects a spec path")?;
    let spec = CampaignSpec::parse_file(Path::new(path)).map_err(|e| e.to_string())?;
    let cells = presets::campaign_cells(&spec).map_err(|e| e.to_string())?;
    let journal_path = journal_path(values, spec.name());
    let scan = scan_journal(&journal_path).map_err(|e| e.to_string())?;
    // A cell counts as completed only if its journalled result is
    // *complete* (the cell-schema invariant), so half-written lines
    // dropped by truncation recovery — or a corrupt-but-parseable result
    // — never inflate the percentage.
    let completed = cells
        .iter()
        .filter(|c| {
            scan.cache.get(&c.content_hash()).is_some_and(|r| {
                r.rounds.len() + r.timeouts as usize == c.runs && r.kills.len() == r.rounds.len()
            })
        })
        .count();
    #[allow(clippy::cast_precision_loss)]
    let percent = if cells.is_empty() {
        100.0
    } else {
        completed as f64 * 100.0 / cells.len() as f64
    };
    println!("campaign   : {}", spec.name());
    println!("experiment : {}", spec.experiment());
    println!("spec hash  : {}", spec.content_hash());
    println!(
        "progress   : {percent:.1}% complete ({completed}/{} cells, {} pending)",
        cells.len(),
        cells.len() - completed
    );
    let dropped = if scan.skipped > 0 {
        format!(", {} lines dropped by truncation recovery", scan.skipped)
    } else {
        String::new()
    };
    println!(
        "journal    : {} ({} entries{dropped})",
        journal_path.display(),
        scan.entries
    );
    println!("last write : {}", last_write_age(&journal_path));
    // A fleet sidecar is only left behind by an in-flight or failed
    // `--procs N` run (clean completions remove it) — surface it.
    if let Some(fleet) =
        scan_fleet_sidecar(&fleet_sidecar_path(&journal_path)).map_err(|e| e.to_string())?
    {
        println!(
            "fleet      : {} leases outstanding, {} procs, {} worker restarts, {} cells failed",
            fleet.outstanding, fleet.procs, fleet.restarts, fleet.failed
        );
        for w in &fleet.workers {
            println!(
                "  slot {:<4} : {} {} ({} connects, {} reconnects)",
                w.slot,
                w.transport,
                w.peer,
                w.connects,
                w.reconnects()
            );
        }
    }
    Ok(())
}

/// Age of the journal's last durable write (its mtime) — the campaign's
/// "last heartbeat" from the outside.
fn last_write_age(path: &Path) -> String {
    let Ok(modified) = std::fs::metadata(path).and_then(|m| m.modified()) else {
        return "never (no journal yet)".to_string();
    };
    match modified.elapsed() {
        Ok(age) => {
            let secs = age.as_secs();
            if secs >= 3600 {
                format!("{}h {}m ago", secs / 3600, (secs % 3600) / 60)
            } else if secs >= 60 {
                format!("{}m {}s ago", secs / 60, secs % 60)
            } else {
                format!("{secs}s ago")
            }
        }
        Err(_) => "in the future (clock skew)".to_string(),
    }
}

/// `synran report` — deterministic renderings of telemetry and journal
/// artifacts (`synran::lab::Report`).
fn report_cmd(
    paths: &[String],
    values: &HashMap<String, String>,
    flags: &[String],
) -> Result<(), String> {
    // The `--key value` parser is greedy, so in `report --check a.jsonl`
    // the first path lands as the flag's value — reclaim it.
    let mut paths: Vec<&String> = paths.iter().collect();
    let mut check = flags.iter().any(|f| f == "check");
    if let Some(v) = values.get("check") {
        check = true;
        paths.insert(0, v);
    }
    if paths.is_empty() {
        return Err(
            "report expects at least one JSONL artifact (results/*.telemetry.jsonl or \
             results/*.journal.jsonl)"
                .into(),
        );
    }
    let mut report = Report::new();
    for path in &paths {
        report
            .load(Path::new(path.as_str()))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    if check {
        return match report.check() {
            Ok(text) => {
                print!("{text}");
                println!("check: ok");
                Ok(())
            }
            Err(text) => Err(format!("stream integrity check failed\n{text}")),
        };
    }
    let format = values.get("format").map_or(Ok(ReportFormat::Table), |v| {
        ReportFormat::parse(v).map_err(|e| e.to_string())
    })?;
    print!("{}", report.render(format));
    Ok(())
}

fn campaign_list(values: &HashMap<String, String>) -> Result<(), String> {
    let dir = values.get("dir").map_or("campaigns", String::as_str);
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            println!("no campaign directory at {dir}/");
            return Ok(());
        }
        Err(e) => return Err(format!("{dir}: {e}")),
    };
    let mut specs: Vec<std::path::PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "campaign"))
        .collect();
    specs.sort();
    if specs.is_empty() {
        println!("no .campaign specs under {dir}/");
        return Ok(());
    }
    for path in specs {
        match CampaignSpec::parse_file(&path)
            .and_then(|spec| Ok((presets::campaign_cells(&spec)?, spec)))
        {
            Ok((cells, spec)) => {
                let cache =
                    load_cache(&journal_path(values, spec.name())).map_err(|e| e.to_string())?;
                let cached = cells
                    .iter()
                    .filter(|c| cache.contains_key(&c.content_hash()))
                    .count();
                println!(
                    "{:<16} {:<6} {:>4} cells ({cached} cached)  {}",
                    spec.name(),
                    spec.experiment(),
                    cells.len(),
                    path.display()
                );
            }
            Err(e) => println!("{:<16} INVALID: {e}", path.display()),
        }
    }
    Ok(())
}

fn list() {
    println!("protocols : synran (the paper's §4 protocol, any t < n)");
    println!("            symmetric (SynRan minus the one-sided coin rule — E5's ablation)");
    println!("            flooding (deterministic t+1-round baseline)");
    println!("            leader (CMS-style random leader, t < n/2 — E9)");
    println!();
    println!("adversaries: passive, random, storm, oblivious (pre-committed schedule),");
    println!("            kill-ones, kill-zeros, balancer (Lemma 4.6 stalling),");
    println!("            lower-bound (Theorem 1, valency-guided), walker (§3.4 message walk),");
    println!("            hunter (leader-killing, E9)");
    println!();
    println!("experiments (in crates/bench): e1_coin_control e2_blowup e3_lower_bound");
    println!("            e4_synran_upper e5_protocol_comparison e6_large_deviation");
    println!("            e7_t_sweep e8_budget_ablation e9_adaptivity e10_threshold_ablation");
    println!("            → cargo run --release -p synran-bench --bin <name>");
    println!();
    println!("campaigns : declarative sweeps under campaigns/ (E3, E4, E7 shipped)");
    println!("            → synran campaign run campaigns/e3.campaign");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (positionals, values, flags) = parse(&args);
    let Some(cmd) = positionals.first().cloned() else {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    };
    if cmd == "list" {
        list();
        return ExitCode::SUCCESS;
    }
    if cmd == "campaign" {
        return match campaign_cmd(&positionals[1..], &values, &flags) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if cmd == "report" {
        return match report_cmd(&positionals[1..], &values, &flags) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if cmd != "run" && cmd != "batch" {
        eprintln!("unknown command {cmd:?}\n\n{USAGE}");
        return ExitCode::FAILURE;
    }
    let opts = match Opts::from(&values, &flags) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match dispatch(&cmd, &opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts_from(args: &[&str]) -> Result<Opts, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let (_, values, flags) = parse(&owned);
        Opts::from(&values, &flags)
    }

    #[test]
    fn parse_splits_command_values_and_flags() {
        let args: Vec<String> = ["run", "--n", "16", "--trace", "--seed", "9"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (positionals, values, flags) = parse(&args);
        assert_eq!(positionals, vec!["run".to_string()]);
        assert_eq!(values.get("n").map(String::as_str), Some("16"));
        assert_eq!(values.get("seed").map(String::as_str), Some("9"));
        assert!(flags.contains(&"trace".to_string()));
    }

    #[test]
    fn parse_keeps_every_positional_in_order() {
        let args: Vec<String> = ["campaign", "run", "campaigns/e3.campaign", "--threads", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (positionals, values, _) = parse(&args);
        assert_eq!(
            positionals,
            vec!["campaign", "run", "campaigns/e3.campaign"]
        );
        assert_eq!(values.get("threads").map(String::as_str), Some("2"));
    }

    #[test]
    fn defaults_depend_on_protocol() {
        let o = opts_from(&["--n", "32"]).unwrap();
        assert_eq!(o.protocol, "synran");
        assert_eq!(o.t, 31, "default t = n − 1");
        assert_eq!(o.ones, 16);
        let o = opts_from(&["--protocol", "leader", "--n", "33"]).unwrap();
        assert_eq!(o.t, 16, "leader defaults to t = (n−1)/2");
    }

    #[test]
    fn bad_numbers_are_reported() {
        let err = opts_from(&["--n", "many"]).unwrap_err();
        assert!(err.contains("--n"), "{err}");
        let err = opts_from(&["--seed", "x"]).unwrap_err();
        assert!(err.contains("--seed"), "{err}");
    }

    #[test]
    fn inputs_and_config_reflect_options() {
        let o = opts_from(&["--n", "6", "--ones", "2", "--t", "3", "--trace"]).unwrap();
        let inputs = o.inputs();
        assert_eq!(inputs.iter().filter(|b| b.is_one()).count(), 2);
        assert_eq!(inputs.len(), 6);
        let cfg = o.config();
        assert_eq!(cfg.n(), 6);
        assert_eq!(cfg.t(), 3);
        assert!(cfg.trace_enabled());
    }

    #[test]
    fn telemetry_options_parse() {
        let o = opts_from(&["--n", "8"]).unwrap();
        assert_eq!(o.telemetry, TelemetryMode::Off);
        assert!(o.telemetry_out.is_none());
        let o = opts_from(&["--telemetry", "spans"]).unwrap();
        assert_eq!(o.telemetry, TelemetryMode::Spans);
        // An output path alone implies counters.
        let o = opts_from(&["--telemetry-out", "/tmp/t.jsonl"]).unwrap();
        assert_eq!(o.telemetry, TelemetryMode::Counters);
        assert_eq!(o.telemetry_out.as_deref(), Some("/tmp/t.jsonl"));
        // An explicit mode wins over the implied default.
        let o = opts_from(&["--telemetry", "off", "--telemetry-out", "x.jsonl"]).unwrap();
        assert_eq!(o.telemetry, TelemetryMode::Off);
        let err = opts_from(&["--telemetry", "verbose"]).unwrap_err();
        assert!(err.contains("--telemetry"), "{err}");
    }

    #[test]
    fn adversary_protocol_compatibility_is_enforced() {
        let o = opts_from(&["--adversary", "balancer"]).unwrap();
        assert!(synran_adversary_builds(&o));
        assert!(
            generic_adversary::<synran::core::LeaderProcess>("balancer", &o, 1).is_err(),
            "balancer must not attack generic protocols"
        );
        assert!(leader_adversary("hunter", &o, 1).is_ok());
        assert!(leader_adversary("walker", &o, 1).is_err());
    }

    fn synran_adversary_builds(o: &Opts) -> bool {
        synran_adversary(&o.adversary, o, 1).is_ok()
    }
}
