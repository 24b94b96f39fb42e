//! `coin_control`: E1's coin layer (§2, Corollary 2.2).
//!
//! The exhaustive `exact_uncontrollable` table on 0-default majority, then
//! greedy `estimate_control` over E1's five games at E1's sizes. Only the
//! `coin` crate does work here.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use synran_coin::{
    bias_radius, estimate_control, exact_uncontrollable, with_hidden, CoinGame, GreedyHider,
    HideSearch, MajorityGame, OneSidedGame, Outcome, ParityGame, RecursiveMajorityGame,
    SearchOutcome, TribesGame, Value,
};
use synran_sim::SimRng;

use crate::trace::Tracer;
use crate::{NegativeControl, Pass};

/// Players in the exact table. E1 itself uses 16 (about 76 s); 12 keeps
/// the same exhaustive path at a size a run can repeat.
pub const EXACT_N: usize = 12;
/// Hide budgets of the exact table, as in E1 (`n` stands for all players).
const EXACT_TS: [usize; 6] = [0, 1, 2, 4, 8, EXACT_N];
/// E1's system sizes for the greedy sweep.
const SIZES: [usize; 4] = [64, 256, 1024, 4096];
/// E1's hide budgets as multiples of `h = 4√(n·ln n)`.
const BUDGETS: [f64; 5] = [0.0, 0.25, 0.5, 1.0, 2.0];
/// Sampled input vectors per `estimate_control` call (E1 uses 300).
const SAMPLES: usize = 40;

pub struct CoinControl {
    seed: u64,
    /// `(t, v, 2^n · Pr(U^v))` from the closed form.
    closed_form: Vec<(usize, usize, u64)>,
}

/// `(t, v, 2^n · Pr(U^v))` for 0-default majority on `n` players.
///
/// Majority outputs 1 iff 2·ones > n, and hiding only removes ones. So
/// U^1 is every input with 2·ones ≤ n, and U^0 every input with more than
/// ⌊n/2⌋ + t ones; each is counted with integer binomials.
fn closed_form(n: usize, ts: &[usize]) -> Vec<(usize, usize, u64)> {
    let mut row = vec![1u64];
    for _ in 0..n {
        let mut next = vec![1u64; row.len() + 1];
        for k in 1..row.len() {
            next[k] = row[k - 1] + row[k];
        }
        row = next;
    }
    let mut table = Vec::new();
    for &t in ts {
        for v in 0..2 {
            let count = (0..=n)
                .filter(|&k| if v == 1 { 2 * k <= n } else { k > n / 2 + t })
                .map(|k| row[k])
                .sum();
            table.push((t, v, count));
        }
    }
    table
}

impl CoinControl {
    pub fn setup(seed: u64, negative: Option<NegativeControl>) -> CoinControl {
        let mut closed_form = closed_form(EXACT_N, &EXACT_TS);
        if negative == Some(NegativeControl::ClosedForm) {
            closed_form[0].2 += 1;
        }
        CoinControl { seed, closed_form }
    }

    pub fn pass(&self, tr: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        let game = MajorityGame::new(EXACT_N);
        for &(t, v, count) in &self.closed_form {
            let started = Instant::now();
            tr.enter("coin.exact");
            let p = exact_uncontrollable(&game, t, Outcome(v));
            tr.exit();
            pass.item(started);
            tr.add("coin.exact.inputs", 1 << EXACT_N);
            pass.digest.extend_from_slice(&p.to_bits().to_le_bytes());
            #[allow(clippy::cast_precision_loss)]
            let expected = count as f64 / (1u64 << EXACT_N) as f64;
            if p != expected {
                pass.fail(format!(
                    "exact majority-0 n={EXACT_N} t={t} v={v}: {p} but the closed form gives {expected}"
                ));
            }
        }
        for n in SIZES {
            self.sweep(&MajorityGame::new(n), 0, &mut pass, tr);
            self.sweep(&ParityGame::new(n), 1, &mut pass, tr);
            self.sweep(&OneSidedGame::new(n), 2, &mut pass, tr);
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let width = ((n as f64).log2().round() as usize).max(1);
            self.sweep(&TribesGame::new(n / width, width), 3, &mut pass, tr);
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let depth = ((n as f64).ln() / 3f64.ln()).round().max(1.0) as u32;
            self.sweep(&RecursiveMajorityGame::new(depth), 4, &mut pass, tr);
        }
        pass
    }

    /// One game at every hide budget, seeded as E1 seeds it.
    fn sweep<G: CoinGame>(&self, game: &G, tag: u64, pass: &mut Pass, tr: &mut Tracer) {
        let players = game.players();
        let h = bias_radius(players);
        for c in BUDGETS {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let t = ((c * h).round() as usize).min(players);
            let mut rng = SimRng::new(self.seed ^ tag).derive(t as u64);
            let searcher = Recorder::default();
            let started = Instant::now();
            tr.enter("coin.control");
            let est = estimate_control(game, &searcher, t, SAMPLES, &mut rng);
            tr.exit();
            pass.item(started);
            tr.add("coin.control.searches", searcher.searches.get());
            let forced = searcher.forced.into_inner();
            tr.add("coin.control.forced", forced.len() as u64);
            for fraction in est.forcible_fractions() {
                pass.digest
                    .extend_from_slice(&fraction.to_bits().to_le_bytes());
            }
            for (values, set, target) in &forced {
                pass.digest
                    .extend_from_slice(&(set.len() as u64).to_le_bytes());
                if set.len() > t || game.outcome(&with_hidden(values, set)) != *target {
                    pass.fail(format!(
                        "{} n={players} t={t}: a {}-hide set does not force outcome {}",
                        game.name(),
                        set.len(),
                        target.0
                    ));
                    break;
                }
            }
        }
    }
}

/// A searched input vector, the hide set found for it and its target.
type Forced = (Vec<Value>, Vec<usize>, Outcome);

/// `GreedyHider`, keeping every forcing set it returns so that each can be
/// re-checked with `with_hidden` once the timed call is over.
#[derive(Default)]
struct Recorder {
    searches: Cell<u64>,
    forced: RefCell<Vec<Forced>>,
}

impl HideSearch for Recorder {
    fn force<G: CoinGame + ?Sized>(
        &self,
        game: &G,
        values: &[Value],
        t: usize,
        target: Outcome,
    ) -> SearchOutcome {
        let outcome = GreedyHider.force(game, values, t, target);
        self.searches.set(self.searches.get() + 1);
        if let SearchOutcome::Forced(set) = &outcome {
            self.forced
                .borrow_mut()
                .push((values.to_vec(), set.clone(), target));
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_matches_exhaustive_enumeration() {
        let n = 7;
        let ts: Vec<usize> = (0..=n).collect();
        for (t, v, count) in closed_form(n, &ts) {
            let exact = exact_uncontrollable(&MajorityGame::new(n), t, Outcome(v));
            #[allow(clippy::cast_precision_loss)]
            let closed = count as f64 / (1u64 << n) as f64;
            assert_eq!(exact, closed, "t={t} v={v}");
        }
    }
}
