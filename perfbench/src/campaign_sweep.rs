//! `campaign_sweep`: the shipped E4 and E7 campaigns through
//! `synran_lab::Engine`, journaling into a fresh file every pass.
//!
//! A few long runs at large `n` (32–1024) under cheap adversaries, so the
//! simulator's stepping and bit-plane delivery do most of the work and the
//! lab layer hashes and journals every cell.

use std::path::{Path, PathBuf};
use std::time::Instant;

use synran_lab::presets::{e4::E4Params, e7::E7Params};
use synran_lab::{Cell, CellCache, CellResult, Engine, Journal};
use synran_sim::Telemetry;

use crate::consensus::{campaign, first_world, replica_seed, with_references, Run};
use crate::trace::Tracer;
use crate::{NegativeControl, Pass};

/// Copies of the E4 + E7 cell lists per pass, each at its own base seed.
const REPLICAS: u64 = 2;
/// E7's shipped seed minus E4's, so that the workload's default seed (4)
/// runs both campaigns at their shipped seeds (4 and 7).
const E7_SEED_OFFSET: u64 = 3;

pub struct CampaignSweep {
    cells: Vec<(Cell, Option<CellResult>)>,
    journal: PathBuf,
}

impl CampaignSweep {
    pub fn setup(
        root: &Path,
        work: &Path,
        seed: u64,
        negative: Option<NegativeControl>,
    ) -> Result<CampaignSweep, String> {
        let mut e4 = E4Params::from_spec(&campaign(root, "e4")?).map_err(|e| e.to_string())?;
        let mut e7 = E7Params::from_spec(&campaign(root, "e7")?).map_err(|e| e.to_string())?;
        let mut cells = Vec::new();
        for r in 0..REPLICAS {
            e4.seed = replica_seed(seed, r);
            e7.seed = e4.seed.wrapping_add(E7_SEED_OFFSET);
            cells.extend(e4.cells());
            cells.extend(e7.cells());
        }
        let corrupt = negative == Some(NegativeControl::Journal);
        let cells = with_references(root, &["e4", "e7"], cells, corrupt)?;
        first_world(&cells[0].0)?;
        Ok(CampaignSweep {
            cells,
            journal: work.join("campaign_sweep.journal.jsonl"),
        })
    }

    /// Cells whose results are checked against a committed journal.
    pub fn journaled(&self) -> usize {
        self.cells.iter().filter(|(_, r)| r.is_some()).count()
    }

    /// Every cell through `Engine::run_cells`, one cell per call, with a
    /// fresh journal and an empty cache. When traced, each cell's runs are
    /// then replayed by hand, and must match what the engine returned.
    pub fn pass(&self, tr: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        let journal = match Journal::create_fresh(&self.journal) {
            Ok(journal) => journal,
            Err(e) => {
                pass.fail(format!("campaign_sweep journal: {e}"));
                return pass;
            }
        };
        let mut engine = Engine::new(1, Telemetry::off()).with_journal(journal, CellCache::new());
        for (cell, reference) in &self.cells {
            let started = Instant::now();
            tr.enter("lab.run_cells");
            let result = engine.run_cells(std::slice::from_ref(cell));
            tr.exit();
            pass.item(started);
            let name = format!(
                "campaign_sweep {} n={} t={} seed={}",
                cell.adversary, cell.n, cell.t, cell.seed
            );
            let result = match result {
                Ok(mut results) => results.remove(0),
                Err(e) => {
                    pass.fail(format!("{name}: {e}"));
                    continue;
                }
            };
            for (&rounds, &kills) in result.rounds.iter().zip(&result.kills) {
                pass.digest.extend_from_slice(&rounds.to_le_bytes());
                pass.digest.extend_from_slice(&kills.to_le_bytes());
            }
            let why = engine_problem(&result, reference.as_ref())
                .or_else(|| replay_problem(cell, &result, tr));
            if let Some(why) = why {
                pass.fail(format!("{name}: {why}"));
            }
        }
        tr.add("lab.cells", self.cells.len() as u64);
        tr.add("lab.executed", engine.executed() as u64);
        tr.add("lab.cache_hits", engine.cache_hits() as u64);
        drop(engine);
        match std::fs::metadata(&self.journal) {
            Ok(meta) => tr.add("lab.journal_bytes", meta.len()),
            Err(e) => pass.fail(format!("campaign_sweep journal: {e}")),
        }
        pass
    }
}

/// Why a cell's engine result is wrong, if it is: a timeout, a consensus
/// violation, or a mismatch with its committed journal line.
fn engine_problem(result: &CellResult, reference: Option<&CellResult>) -> Option<String> {
    if result.timeouts > 0 || result.violations > 0 {
        return Some(format!(
            "{} timeouts, {} violations",
            result.timeouts, result.violations
        ));
    }
    match reference {
        Some(r) if (&r.rounds, &r.kills) != (&result.rounds, &result.kills) => {
            Some("rounds/kills differ from the committed journal".to_string())
        }
        _ => None,
    }
}

/// When tracing, steps every run of `cell` by hand; says which run, if
/// any, disagrees with the engine's result.
fn replay_problem(cell: &Cell, result: &CellResult, tr: &mut Tracer) -> Option<String> {
    if !tr.on() {
        return None;
    }
    let mut mismatch = None;
    tr.enter("replay");
    for i in 0..cell.runs {
        let agrees = match Run::of(cell, i).stepped(cell, tr) {
            Ok(o) => o.correct && (o.rounds, o.kills) == (result.rounds[i], result.kills[i]),
            Err(_) => false,
        };
        if !agrees && mismatch.is_none() {
            mismatch = Some(format!(
                "the traced replay of run {i} disagrees with the engine"
            ));
        }
    }
    tr.exit();
    mismatch
}
