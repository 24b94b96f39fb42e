//! Oracle for `SynRanProcess`'s three-count history window.
//!
//! The process remembers only `N^{r−1}`, `N^{r−2}` and `N^{r−3}`. The
//! reference below keeps the protocol's *whole* message-count history in a
//! `Vec`, with the paper's `N^{−1} = N^{0} = n` convention and earlier
//! rounds clamped to `n`, and re-derives every step from it. Over
//! fixed-seed random system sizes and non-increasing count sequences, the
//! process must predict the same [`PredictedStep`] and report the same
//! `last_n` as the reference in every round, from round 1 on.

use synran_core::{
    deterministic_threshold, CoinRule, PredictedStep, StageKind, SynRanMsg, SynRanProcess, ValueSet,
};
use synran_sim::{Bit, Context, Inbox, Process, ProcessId, Round, SimRng};

/// SynRan's WHILE-loop body over an unbounded count history.
struct Reference {
    n: usize,
    /// `hist[j]` is `N^{j−1}`.
    hist: Vec<usize>,
}

impl Reference {
    fn new(n: usize) -> Reference {
        Reference {
            n,
            hist: vec![n, n],
        }
    }

    fn last_n(&self) -> usize {
        *self.hist.last().expect("history starts non-empty")
    }

    /// `N^j`, clamped to `n` before round −1.
    fn n_at(&self, j: i64) -> usize {
        if j < -1 {
            self.n
        } else {
            self.hist[(j + 1) as usize]
        }
    }

    /// The step `p` must take on receiving `(n_r, o_r, z_r)` in round `r`.
    fn predict(&self, p: &SynRanProcess, n_r: usize, o_r: usize, z_r: usize) -> PredictedStep {
        let r = self.hist.len() as i64 - 1;
        if (n_r as f64) < deterministic_threshold(self.n) {
            return PredictedStep::Handover;
        }
        let th = p.thresholds();
        if p.tentatively_decided() {
            let diff = self.n_at(r - 3).saturating_sub(n_r) as u64;
            if 20 * diff <= u64::from(th.stability()) * self.n_at(r - 2) as u64 {
                return PredictedStep::Stop(p.preference());
            }
        }
        let base = self.n_at(r - 1) as u64;
        let o = 20 * o_r as u64;
        let propose = |value, decided| PredictedStep::Propose { value, decided };
        if o > u64::from(th.decide_one()) * base {
            propose(Bit::One, true)
        } else if o > u64::from(th.propose_one()) * base
            || (p.rule() == CoinRule::OneSided && z_r == 0)
        {
            propose(Bit::One, false)
        } else if o < u64::from(th.decide_zero()) * base {
            propose(Bit::Zero, true)
        } else if o < u64::from(th.propose_zero()) * base {
            propose(Bit::Zero, false)
        } else {
            PredictedStep::FlipCoin
        }
    }
}

/// An inbox of `ones` Pref(1), `zeros` Pref(0) and `known` Known messages.
fn inbox_with(ones: usize, zeros: usize, known: usize) -> Inbox<SynRanMsg> {
    let prefs = std::iter::repeat_n(SynRanMsg::Pref(Bit::One), ones)
        .chain(std::iter::repeat_n(SynRanMsg::Pref(Bit::Zero), zeros))
        .chain(std::iter::repeat_n(
            SynRanMsg::Known(ValueSet::single(Bit::One)),
            known,
        ));
    prefs
        .enumerate()
        .map(|(i, msg)| (ProcessId::new(i), msg))
        .collect()
}

/// The next round's `(ones, zeros, known)` out of `n_r` messages, drawn
/// from a few regimes so every threshold branch — and the stability rule,
/// which needs tentative decisions — is reached often.
fn split(gen: &mut SimRng, n_r: usize) -> (usize, usize, usize) {
    let known = if gen.index(8) == 0 {
        gen.index(n_r.min(3) + 1)
    } else {
        0
    };
    let prefs = n_r - known;
    let ones = match gen.index(5) {
        0 => prefs,
        1 => 0,
        2 => prefs - gen.index(prefs / 5 + 1),
        3 => gen.index(prefs / 5 + 1),
        _ => gen.index(prefs + 1),
    };
    (ones, prefs - ones, known)
}

#[test]
fn window_matches_full_history_reference() {
    let mut gen = SimRng::new(0x3C0_0A7);
    let mut stops_by_round = [0usize; 5];
    let mut steps = 0usize;
    for case in 0..400 {
        let n = 1 + gen.index(1024);
        let rule = if gen.bit().is_one() {
            CoinRule::OneSided
        } else {
            CoinRule::Symmetric
        };
        let mut p = SynRanProcess::new(n, gen.bit(), rule);
        let mut reference = Reference::new(n);
        assert_eq!(
            p.last_n(),
            reference.last_n(),
            "case {case}: before round 1"
        );

        let mut n_r = n;
        for round in 1..=12usize {
            // Non-increasing counts: mostly stable, sometimes a small or
            // large drop.
            n_r -= match gen.index(4) {
                0 | 1 => 0,
                2 => gen.index(n_r / 20 + 1),
                _ => gen.index(n_r / 4 + 1),
            };
            let (ones, zeros, known) = split(&mut gen, n_r);
            let expected = reference.predict(&p, n_r, ones, zeros);
            assert_eq!(
                p.predict(n_r, ones, zeros),
                Some(expected),
                "case {case} (n = {n}), round {round}"
            );
            steps += 1;

            let mut rng = SimRng::new(gen.next_u64());
            let mut ctx = Context::new(ProcessId::new(0), n, Round::FIRST, &mut rng);
            p.receive(&mut ctx, &inbox_with(ones, zeros, known));
            reference.hist.push(n_r);
            assert_eq!(
                p.last_n(),
                reference.last_n(),
                "case {case} (n = {n}), after round {round}"
            );

            if let PredictedStep::Stop(_) = expected {
                stops_by_round[round.min(4)] += 1;
            }
            if p.decision().is_some() || p.stage() != StageKind::Probabilistic {
                break;
            }
        }
    }
    // Coverage: stops in rounds 2 and 3 read the clamped `N^{−1}` and
    // `N^{0}`; later ones read real counts only.
    assert!(steps > 1_000, "only {steps} steps compared");
    for round in 2..=4 {
        assert!(
            stops_by_round[round] > 0,
            "no stop in round {round}: {stops_by_round:?}"
        );
    }
}
