//! `lower_bound`: SynRan against the valency-guided `LowerBoundAdversary`
//! on the geometry of `campaigns/e3.campaign` (Theorem 1, E3).
//!
//! Many short runs at small `n`, each spending nearly all its time in the
//! adversary's bounded valency forks.

use std::path::Path;
use std::time::Instant;

use synran_lab::presets::e3::E3Params;
use synran_lab::{Cell, CellResult};

use crate::consensus::{
    campaign, check, digest_into, first_world, replica_seed, with_references, Run,
};
use crate::trace::Tracer;
use crate::{NegativeControl, Pass};

/// Copies of the E3 cell list per pass, each at its own base seed.
const REPLICAS: u64 = 8;

pub struct LowerBound {
    cells: Vec<(Cell, Option<CellResult>)>,
}

impl LowerBound {
    pub fn setup(
        root: &Path,
        seed: u64,
        negative: Option<NegativeControl>,
    ) -> Result<LowerBound, String> {
        let mut params = E3Params::from_spec(&campaign(root, "e3")?).map_err(|e| e.to_string())?;
        let mut cells = Vec::new();
        for r in 0..REPLICAS {
            params.seed = replica_seed(seed, r);
            cells.extend(params.cells());
        }
        let corrupt = negative == Some(NegativeControl::Journal);
        let cells = with_references(root, &["e3"], cells, corrupt)?;
        first_world(&cells[0].0)?;
        Ok(LowerBound { cells })
    }

    /// Cells whose results are checked against a committed journal.
    pub fn journaled(&self) -> usize {
        self.cells.iter().filter(|(_, r)| r.is_some()).count()
    }

    /// Every run of every cell: through `check_consensus_with` untraced,
    /// stepped by hand when traced.
    pub fn pass(&self, tr: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        for (cell, reference) in &self.cells {
            for i in 0..cell.runs {
                let started = Instant::now();
                let run = Run::of(cell, i);
                let result = if tr.on() {
                    run.stepped(cell, tr)
                } else {
                    run.plain(cell)
                };
                pass.item(started);
                digest_into(&mut pass.digest, &result);
                // A journaled cell always lists every run; a missing one
                // reads as a mismatch.
                let expected = reference.as_ref().map(|r| {
                    let rounds = r.rounds.get(i).copied().unwrap_or(u32::MAX);
                    (rounds, r.kills.get(i).copied().unwrap_or(u64::MAX))
                });
                if let Some(why) = check(&result, expected) {
                    pass.fail(format!(
                        "lower_bound {} n={} t={} seed={} run {i}: {why}",
                        cell.adversary, cell.n, cell.t, cell.seed
                    ));
                }
            }
        }
        pass
    }
}
