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
use std::io::{self, Write};
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
    load_cache, presets, scan_journal, CampaignSpec, CellCache, Engine, Journal, LabError, Report,
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
  synran report [OPTIONS] <file>...  render telemetry/journal JSONL artifacts
                 as deterministic tables, JSON, or folded stacks
  synran list               list protocols, adversaries, and experiments

CAMPAIGN OPTIONS:
  --threads <int>      worker threads (0 = all cores; results identical
                       for every value)                      (default 0)
  --results-dir <dir>  journal and telemetry-artifact directory
                       (default results)
  --fresh              truncate the journal first (campaign run only)
  --import <path>      merge another campaign's journal as a read-only
                       result cache (cross-campaign dedup)
  --progress <int>     heartbeat to stderr every N completed cells
                       (observe-only; results identical with it on or off)
  --dir <dir>          directory scanned by campaign list    (default campaigns)

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

/// Why a command stopped early.
enum Failure {
    /// A user-facing message: printed as `error: …`, exit 1.
    Msg(String),
    /// Writing stdout failed. A closed pipe (`synran … | head`) is a quiet
    /// exit 0; anything else is reported like [`Failure::Msg`].
    Stdout(io::Error),
}

impl From<String> for Failure {
    fn from(msg: String) -> Failure {
        Failure::Msg(msg)
    }
}

impl From<&str> for Failure {
    fn from(msg: &str) -> Failure {
        Failure::Msg(msg.to_string())
    }
}

/// Every command writes stdout through `out`; file I/O errors are mapped
/// to messages where they occur, so an `io::Error` reaching `?` is a
/// stdout failure.
impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Failure {
        Failure::Stdout(e)
    }
}

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
    out: &mut dyn Write,
    protocol: &P,
    opts: &Opts,
    telemetry: &Telemetry,
    mut adversary: BoxedAdv<P::Proc>,
) -> Result<(), Failure>
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
    writeln!(out, "protocol    : {}", protocol.name())?;
    writeln!(out, "adversary   : {}", opts.adversary)?;
    writeln!(out, "n / t / ones: {} / {} / {}", opts.n, opts.t, opts.ones)?;
    writeln!(out, "rounds      : {}", verdict.rounds())?;
    writeln!(
        out,
        "kills       : {}",
        verdict.report().metrics().total_kills()
    )?;
    writeln!(
        out,
        "decision    : {:?}",
        verdict.report().unanimous_decision()
    )?;
    writeln!(
        out,
        "correct     : {} (agreement {}, validity {}, termination {})",
        verdict.is_correct(),
        verdict.agreement(),
        verdict.validity(),
        verdict.termination()
    )?;
    if !verdict.violations().is_empty() {
        for v in verdict.violations() {
            writeln!(out, "violation   : {v}")?;
        }
    }
    if opts.trace {
        writeln!(out, "\ntrace:")?;
        for e in verdict.report().trace().events() {
            writeln!(out, "  {e}")?;
        }
    }
    Ok(())
}

fn run_batch_cmd<P, F>(
    out: &mut dyn Write,
    protocol: &P,
    opts: &Opts,
    telemetry: &Telemetry,
    make: F,
) -> Result<(), Failure>
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
    writeln!(out, "protocol  : {}", protocol.name())?;
    writeln!(out, "adversary : {}", opts.adversary)?;
    writeln!(out, "n / t     : {} / {}", opts.n, opts.t)?;
    writeln!(out, "runs      : {}", opts.runs)?;
    writeln!(
        out,
        "rounds    : mean {:.1}, max {:?}",
        mean,
        outcome.max_rounds()
    )?;
    writeln!(out, "kills     : mean {kills:.1}")?;
    writeln!(
        out,
        "correct   : {}/{} runs",
        opts.runs - outcome.incorrect().len() - outcome.timeouts(),
        opts.runs
    )?;
    for (seed, violations) in outcome.incorrect() {
        writeln!(out, "  seed {seed}: {violations:?}")?;
    }
    Ok(())
}

fn dispatch(out: &mut dyn Write, cmd: &str, opts: &Opts) -> Result<(), Failure> {
    let seed0 = SimRng::new(opts.seed).next_u64();
    let telemetry = Telemetry::new(opts.telemetry);
    match (cmd, opts.protocol.as_str()) {
        ("run", "synran") => run_once(
            out,
            &SynRan::new(),
            opts,
            &telemetry,
            synran_adversary(&opts.adversary, opts, seed0)?,
        ),
        ("run", "symmetric") => run_once(
            out,
            &SynRan::symmetric(),
            opts,
            &telemetry,
            synran_adversary(&opts.adversary, opts, seed0)?,
        ),
        ("run", "flooding") => run_once(
            out,
            &FloodingConsensus::for_faults(opts.t),
            opts,
            &telemetry,
            generic_adversary(&opts.adversary, opts, seed0)?,
        ),
        ("run", "leader") => run_once(
            out,
            &LeaderConsensus::for_faults(opts.t),
            opts,
            &telemetry,
            leader_adversary(&opts.adversary, opts, seed0)?,
        ),
        ("batch", "synran") => run_batch_cmd(out, &SynRan::new(), opts, &telemetry, |s| {
            synran_adversary(&opts.adversary, opts, s)
        }),
        ("batch", "symmetric") => run_batch_cmd(out, &SynRan::symmetric(), opts, &telemetry, |s| {
            synran_adversary(&opts.adversary, opts, s)
        }),
        ("batch", "flooding") => run_batch_cmd(
            out,
            &FloodingConsensus::for_faults(opts.t),
            opts,
            &telemetry,
            |s| generic_adversary(&opts.adversary, opts, s),
        ),
        ("batch", "leader") => run_batch_cmd(
            out,
            &LeaderConsensus::for_faults(opts.t),
            opts,
            &telemetry,
            |s| leader_adversary(&opts.adversary, opts, s),
        ),
        (_, p) => return Err(format!("unknown protocol {p:?} (see `synran list`)").into()),
    }?;
    if let Some(path) = &opts.telemetry_out {
        write_telemetry(path, cmd, opts, &telemetry)?;
        writeln!(out, "telemetry   : {} ({})", path, opts.telemetry)?;
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
    out: &mut dyn Write,
    rest: &[String],
    values: &HashMap<String, String>,
    flags: &[String],
) -> Result<(), Failure> {
    let command = match rest.first().map(String::as_str) {
        Some(command @ ("run" | "resume" | "status" | "list")) => command,
        Some(other) => {
            return Err(
                format!("unknown campaign command {other:?} (run, resume, status, list)").into(),
            )
        }
        None => return Err("campaign expects a command: run, resume, status, or list".into()),
    };
    if let Some(key) = values
        .keys()
        .chain(flags)
        .filter(|key| !CAMPAIGN_OPTIONS.contains(&key.as_str()))
        .min()
    {
        return Err(format!("unknown campaign option --{key}").into());
    }
    let spec_path = rest.get(1).map(String::as_str);
    match command {
        "run" | "resume" => campaign_run(out, spec_path, values, flags, command == "run"),
        "status" => campaign_status(out, spec_path, values),
        _ => campaign_list(out, values),
    }
}

/// Every option a `campaign` subcommand reads (see USAGE).
const CAMPAIGN_OPTIONS: [&str; 6] = [
    "threads",
    "results-dir",
    "fresh",
    "import",
    "progress",
    "dir",
];

fn results_dir(values: &HashMap<String, String>) -> &Path {
    Path::new(values.get("results-dir").map_or("results", String::as_str))
}

fn journal_path(values: &HashMap<String, String>, campaign: &str) -> std::path::PathBuf {
    results_dir(values).join(format!("{campaign}.journal.jsonl"))
}

fn campaign_run(
    out: &mut dyn Write,
    spec_path: Option<&str>,
    values: &HashMap<String, String>,
    flags: &[String],
    allow_fresh: bool,
) -> Result<(), Failure> {
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
    presets::run_campaign(&spec, &mut engine, results_dir(values), out).map_err(|e| match e {
        LabError::Io(e) if e.kind() == io::ErrorKind::BrokenPipe => Failure::Stdout(e),
        e => Failure::Msg(e.to_string()),
    })?;
    eprintln!(
        "campaign {}: {} cells executed, {} cache hits → {}",
        spec.name(),
        engine.executed(),
        engine.cache_hits(),
        journal_path.display()
    );
    Ok(())
}

fn campaign_status(
    out: &mut dyn Write,
    spec_path: Option<&str>,
    values: &HashMap<String, String>,
) -> Result<(), Failure> {
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
    writeln!(out, "campaign   : {}", spec.name())?;
    writeln!(out, "experiment : {}", spec.experiment())?;
    writeln!(out, "spec hash  : {}", spec.content_hash())?;
    writeln!(
        out,
        "progress   : {percent:.1}% complete ({completed}/{} cells, {} pending)",
        cells.len(),
        cells.len() - completed
    )?;
    let dropped = if scan.skipped > 0 {
        format!(", {} lines dropped by truncation recovery", scan.skipped)
    } else {
        String::new()
    };
    writeln!(
        out,
        "journal    : {} ({} entries{dropped})",
        journal_path.display(),
        scan.entries
    )?;
    writeln!(out, "last write : {}", last_write_age(&journal_path))?;
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
    out: &mut dyn Write,
    paths: &[String],
    values: &HashMap<String, String>,
    flags: &[String],
) -> Result<(), Failure> {
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
                write!(out, "{text}")?;
                writeln!(out, "check: ok")?;
                Ok(())
            }
            Err(text) => Err(format!("stream integrity check failed\n{text}").into()),
        };
    }
    if let Some(name) = report.unrecognized() {
        return Err(format!(
            "{name}: no telemetry events (expected a *.telemetry.jsonl or *.journal.jsonl artifact)"
        )
        .into());
    }
    let format = values.get("format").map_or(Ok(ReportFormat::Table), |v| {
        ReportFormat::parse(v).map_err(|e| e.to_string())
    })?;
    write!(out, "{}", report.render(format))?;
    Ok(())
}

fn campaign_list(out: &mut dyn Write, values: &HashMap<String, String>) -> Result<(), Failure> {
    let dir = values.get("dir").map_or("campaigns", String::as_str);
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            writeln!(out, "no campaign directory at {dir}/")?;
            return Ok(());
        }
        Err(e) => return Err(format!("{dir}: {e}").into()),
    };
    let mut specs: Vec<std::path::PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "campaign"))
        .collect();
    specs.sort();
    if specs.is_empty() {
        writeln!(out, "no .campaign specs under {dir}/")?;
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
                writeln!(
                    out,
                    "{:<16} {:<6} {:>4} cells ({cached} cached)  {}",
                    spec.name(),
                    spec.experiment(),
                    cells.len(),
                    path.display()
                )?;
            }
            Err(e) => writeln!(out, "{:<16} INVALID: {e}", path.display())?,
        }
    }
    Ok(())
}

fn list(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "protocols : synran (the paper's §4 protocol, any t < n)"
    )?;
    writeln!(
        out,
        "            symmetric (SynRan minus the one-sided coin rule — E5's ablation)"
    )?;
    writeln!(
        out,
        "            flooding (deterministic t+1-round baseline)"
    )?;
    writeln!(
        out,
        "            leader (CMS-style random leader, t < n/2 — E9)"
    )?;
    writeln!(out)?;
    writeln!(
        out,
        "adversaries: passive, random, storm, oblivious (pre-committed schedule),"
    )?;
    writeln!(
        out,
        "            kill-ones, kill-zeros, balancer (Lemma 4.6 stalling),"
    )?;
    writeln!(
        out,
        "            lower-bound (Theorem 1, valency-guided), walker (§3.4 message walk),"
    )?;
    writeln!(out, "            hunter (leader-killing, E9)")?;
    writeln!(out)?;
    writeln!(
        out,
        "experiments (in crates/bench): e1_coin_control e2_blowup e3_lower_bound"
    )?;
    writeln!(
        out,
        "            e4_synran_upper e5_protocol_comparison e6_large_deviation"
    )?;
    writeln!(
        out,
        "            e7_t_sweep e8_budget_ablation e9_adaptivity e10_threshold_ablation"
    )?;
    writeln!(
        out,
        "            → cargo run --release -p synran-bench --bin <name>"
    )?;
    writeln!(out)?;
    writeln!(
        out,
        "campaigns : declarative sweeps under campaigns/ (E3, E4, E7 shipped)"
    )?;
    writeln!(
        out,
        "            → synran campaign run campaigns/e3.campaign"
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (positionals, values, flags) = parse(&args);
    let mut out = io::stdout().lock();
    let result = match positionals.first().map(String::as_str) {
        None => writeln!(out, "{USAGE}").map_err(Failure::from),
        Some("list") => list(&mut out).map_err(Failure::from),
        Some("campaign") => campaign_cmd(&mut out, &positionals[1..], &values, &flags),
        Some("report") => report_cmd(&mut out, &positionals[1..], &values, &flags),
        Some(cmd @ ("run" | "batch")) => match Opts::from(&values, &flags) {
            Ok(opts) => dispatch(&mut out, cmd, &opts),
            Err(e) => {
                eprintln!("error: {e}\n\n{USAGE}");
                return ExitCode::FAILURE;
            }
        },
        Some(cmd) => {
            eprintln!("unknown command {cmd:?}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match result.and_then(|()| out.flush().map_err(Failure::from)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Stdout(e)) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(Failure::Stdout(e)) => {
            eprintln!("error: stdout: {e}");
            ExitCode::FAILURE
        }
        Err(Failure::Msg(e)) => {
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
