//! One consensus run of a campaign cell, executed either through
//! `check_consensus_with` or stepped by hand with every layer call timed.
//!
//! The per-run seed, input split and adversary construction repeat what
//! `synran_core::run_batch_with` and the lab registry do for a `synran`
//! cell; the committed-journal checks and the traced-versus-engine
//! comparison catch any drift between the two.

use std::path::Path;

use synran_adversary::{Balancer, LowerBoundAdversary, PreferenceKiller, RandomKiller, Storm};
use synran_core::{
    check_consensus_with, evaluate, ConsensusProtocol, InputAssignment, SynRan, SynRanProcess,
};
use synran_lab::{load_cache, CampaignSpec, Cell, CellCache, CellResult};
use synran_sim::{Adversary, Bit, Passive, SimConfig, SimError, SimRng, Telemetry, World};

use crate::trace::Tracer;

/// What one run produced, as compared against the oracles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    pub rounds: u32,
    pub kills: u64,
    pub correct: bool,
}

/// How a run ended: with a verdict, or past the round limit.
pub type RunResult = Result<Outcome, SimError>;

/// The inputs of run `index` of `cell`.
pub struct Run {
    pub inputs: Vec<Bit>,
    pub cfg: SimConfig,
    pub seed: u64,
}

impl Run {
    pub fn of(cell: &Cell, index: usize) -> Run {
        let seed = SimRng::new(cell.seed).derive(index as u64).next_u64();
        let mut input_rng = SimRng::new(seed).derive(0xD1CE);
        let inputs = InputAssignment::Split { ones: cell.ones }.materialize(cell.n, &mut input_rng);
        let cfg = SimConfig::new(cell.n)
            .faults(cell.t)
            .max_rounds(cell.max_rounds)
            .threads(1)
            .seed(seed);
        Run { inputs, cfg, seed }
    }

    fn adversary(&self, cell: &Cell) -> Box<dyn Adversary<SynRanProcess>> {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let rate = if cell.rate == 0 {
            (cell.n as f64).sqrt().ceil() as usize
        } else {
            cell.rate
        };
        match cell.adversary.as_str() {
            "passive" => Box::new(Passive),
            "random" => Box::new(RandomKiller::new(rate, self.seed)),
            "storm" => Box::new(Storm::new(self.seed)),
            "kill-ones" => Box::new(PreferenceKiller::new(Bit::One, rate)),
            "balancer" if cell.cap == 0 => Box::new(Balancer::unbounded()),
            "balancer" => Box::new(Balancer::with_cap(cell.cap)),
            "lower-bound" if cell.cap == 0 && cell.samples == 0 && cell.horizon == 0 => {
                Box::new(LowerBoundAdversary::for_system(cell.n, self.seed))
            }
            "lower-bound" => Box::new(LowerBoundAdversary::with_params(
                cell.cap,
                cell.samples.max(1),
                cell.horizon.max(1),
                self.seed,
            )),
            other => panic!("the benchmark builds no {other:?} cells"),
        }
    }

    fn world(&self) -> Result<World<SynRanProcess>, SimError> {
        let n = self.inputs.len();
        let protocol = SynRan::new();
        World::new(self.cfg.clone(), |pid| {
            protocol.spawn(pid, n, self.inputs[pid.index()])
        })
    }

    /// Runs through `check_consensus_with` with telemetry off.
    pub fn plain(&self, cell: &Cell) -> RunResult {
        let mut adversary = self.adversary(cell);
        let verdict = check_consensus_with(
            &SynRan::new(),
            &self.inputs,
            self.cfg.clone(),
            &mut adversary,
            &Telemetry::off(),
        )?;
        Ok(Outcome {
            rounds: verdict.rounds(),
            kills: verdict.report().metrics().total_kills() as u64,
            correct: verdict.is_correct(),
        })
    }

    /// Steps the world by hand through the loop `World::drive` runs, timing
    /// each `phase_a`, `intervene` and `deliver` call, then times
    /// `evaluate`.
    pub fn stepped(&self, cell: &Cell, tr: &mut Tracer) -> RunResult {
        tr.enter("core.run");
        let result = self.step_all(cell, tr);
        tr.exit();
        result
    }

    fn step_all(&self, cell: &Cell, tr: &mut Tracer) -> RunResult {
        let mut adversary = self.adversary(cell);
        let n = cell.n;
        let mut world = self.world()?;
        while !world.finished() {
            let limit = world.config().max_rounds_value();
            if world.round().index() > limit {
                tr.add("core.timeouts", 1);
                return Err(SimError::MaxRoundsExceeded { limit });
            }
            if !world.awaiting_delivery() {
                tr.enter("sim.phase_a");
                let sent = world.phase_a();
                tr.exit();
                sent?;
            }
            tr.enter("adversary.intervene");
            let intervention = adversary.intervene(&world);
            tr.exit();
            let kills = intervention.kills().len() as u64;
            tr.add("adversary.kills", kills);
            tr.add("adversary.kill_calls", u64::from(kills > 0));
            tr.enter("sim.deliver");
            let delivered = world.deliver(intervention);
            tr.exit();
            delivered?;
            tr.add("sim.rounds", 1);
            tr.add("sim.process_rounds", n as u64);
        }
        tr.enter("core.evaluate");
        let verdict = evaluate(&self.inputs, world.into_report());
        tr.exit();
        tr.add("core.runs", 1);
        tr.add("core.rounds", u64::from(verdict.rounds()));
        tr.add("core.violations", u64::from(!verdict.is_correct()));
        Ok(Outcome {
            rounds: verdict.rounds(),
            kills: verdict.report().metrics().total_kills() as u64,
            correct: verdict.is_correct(),
        })
    }
}

/// Checks one run's result; `reference` is its `(rounds, kills)` in a
/// committed journal, when the cell has one. Returns why it failed.
pub fn check(result: &RunResult, reference: Option<(u32, u64)>) -> Option<String> {
    match result {
        Err(e) => Some(format!("run error: {e}")),
        Ok(o) if !o.correct => Some("consensus violated".to_string()),
        Ok(o) => match reference {
            Some((rounds, kills)) if (rounds, kills) != (o.rounds, o.kills) => Some(format!(
                "rounds/kills {}/{} but the committed journal has {rounds}/{kills}",
                o.rounds, o.kills
            )),
            _ => None,
        },
    }
}

/// Appends a run's result to a digest buffer.
pub fn digest_into(buf: &mut Vec<u8>, result: &RunResult) {
    match result {
        Ok(o) => {
            buf.extend_from_slice(&o.rounds.to_le_bytes());
            buf.extend_from_slice(&o.kills.to_le_bytes());
            buf.push(u8::from(o.correct));
        }
        Err(e) => buf.extend_from_slice(e.to_string().as_bytes()),
    }
}

/// Pairs each cell with its result in the committed journals under
/// `results/`, when it has one. With `corrupt`, the first such result
/// gets one extra round in its first run, as a corrupted journal line.
pub fn with_references(
    root: &Path,
    journals: &[&str],
    cells: Vec<Cell>,
    corrupt: bool,
) -> Result<Vec<(Cell, Option<CellResult>)>, String> {
    let mut cache = CellCache::new();
    for name in journals {
        let path = root.join("results").join(format!("{name}.journal.jsonl"));
        let loaded = load_cache(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        if loaded.is_empty() {
            return Err(format!("{}: no cells", path.display()));
        }
        cache.extend(loaded);
    }
    let mut paired: Vec<(Cell, Option<CellResult>)> = cells
        .into_iter()
        .map(|cell| {
            let reference = cache.get(&cell.content_hash()).cloned();
            (cell, reference)
        })
        .collect();
    if corrupt {
        let first = paired
            .iter_mut()
            .find_map(|(_, r)| r.as_mut())
            .ok_or("the corrupted-journal control needs a seed whose cells are journaled")?;
        first.rounds[0] += 1;
    }
    Ok(paired)
}

/// Builds (and drops) the world of the first run of `cell`, so that set-up
/// includes the first world allocation.
pub fn first_world(cell: &Cell) -> Result<(), String> {
    Run::of(cell, 0)
        .world()
        .map(drop)
        .map_err(|e| e.to_string())
}

/// Parses `campaigns/<name>.campaign`.
pub fn campaign(root: &Path, name: &str) -> Result<CampaignSpec, String> {
    let path = root.join("campaigns").join(format!("{name}.campaign"));
    CampaignSpec::parse_file(&path).map_err(|e| format!("{}: {e}", path.display()))
}

/// The base seed of replica `r`: the workload seed itself for replica 0,
/// so that the shipped seed reproduces the committed journal cells.
pub fn replica_seed(seed: u64, r: u64) -> u64 {
    if r == 0 {
        seed
    } else {
        SimRng::new(seed).derive(r).next_u64()
    }
}
