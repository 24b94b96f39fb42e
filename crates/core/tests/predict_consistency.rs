//! Property test: `SynRanProcess::predict` is exactly the transition
//! `receive` applies — the contract the exact valency evaluator and the
//! full-information adversaries rely on.
//!
//! Cases are drawn from a fixed-seed [`SimRng`] rather than a
//! property-testing framework, so every CI run checks the same inputs and
//! failures reproduce by case index.

use synran_core::{CoinRule, PredictedStep, StageKind, SynRanMsg, SynRanProcess, ValueSet};
use synran_sim::{Bit, Context, Inbox, Process, ProcessId, Round, SimRng};

/// Builds an inbox with exactly `ones` Pref(1), `zeros` Pref(0), and
/// `known` Known messages.
fn inbox_with(ones: usize, zeros: usize, known: usize) -> Inbox<SynRanMsg> {
    let mut msgs = Vec::new();
    let mut sender = 0usize;
    for _ in 0..ones {
        msgs.push((ProcessId::new(sender), SynRanMsg::Pref(Bit::One)));
        sender += 1;
    }
    for _ in 0..zeros {
        msgs.push((ProcessId::new(sender), SynRanMsg::Pref(Bit::Zero)));
        sender += 1;
    }
    for _ in 0..known {
        msgs.push((
            ProcessId::new(sender),
            SynRanMsg::Known(ValueSet::single(Bit::One)),
        ));
        sender += 1;
    }
    Inbox::from_messages(msgs)
}

fn drive(process: &mut SynRanProcess, inbox: &Inbox<SynRanMsg>, seed: u64) {
    let mut rng = SimRng::new(seed);
    let mut ctx = Context::new(
        ProcessId::new(0),
        process_n(process),
        Round::FIRST,
        &mut rng,
    );
    process.receive(&mut ctx, inbox);
}

fn process_n(_p: &SynRanProcess) -> usize {
    // n is only used for the context; the value does not affect receive.
    64
}

#[test]
fn predict_matches_receive() {
    let mut gen = SimRng::new(0x92ED1C7);
    let mut tested = 0usize;
    for case in 0..256 {
        let n = 2 + gen.index(38);
        let input = gen.bit();
        let rule = if gen.bit().is_one() {
            CoinRule::OneSided
        } else {
            CoinRule::Symmetric
        };
        let history: Vec<(usize, usize, usize)> = (0..gen.index(5))
            .map(|_| (gen.index(40), gen.index(40), gen.index(4)))
            .collect();
        let ones = gen.index(40);
        let zeros = gen.index(40);
        let known = gen.index(4);
        let seed = gen.next_u64();

        let mut p = SynRanProcess::new(n, input, rule);
        // Random warm-up rounds (stop early if the process leaves the
        // probabilistic stage).
        for (i, &(o, z, k)) in history.iter().enumerate() {
            if p.stage() != StageKind::Probabilistic || p.decision().is_some() {
                break;
            }
            drive(&mut p, &inbox_with(o, z, k), seed.wrapping_add(i as u64));
        }
        if p.stage() != StageKind::Probabilistic || p.decision().is_some() {
            continue; // the former prop_assume
        }
        tested += 1;

        let n_r = ones + zeros + known;
        let predicted = p.predict(n_r, ones, zeros).expect("probabilistic stage");
        let before = p;
        drive(&mut p, &inbox_with(ones, zeros, known), seed ^ 0xABCD);

        match predicted {
            PredictedStep::Handover => {
                assert_eq!(p.stage(), StageKind::Delay, "case {case}");
                assert_eq!(
                    p.preference(),
                    before.preference(),
                    "case {case}: b frozen at handover"
                );
            }
            PredictedStep::Stop(v) => {
                assert_eq!(p.decision(), Some(v), "case {case}");
                assert!(p.halted(), "case {case}");
            }
            PredictedStep::Propose { value, decided } => {
                assert_eq!(p.stage(), StageKind::Probabilistic, "case {case}");
                assert_eq!(p.preference(), value, "case {case}");
                assert_eq!(p.tentatively_decided(), decided, "case {case}");
                assert_eq!(p.decision(), None, "case {case}");
            }
            PredictedStep::FlipCoin => {
                assert_eq!(p.stage(), StageKind::Probabilistic, "case {case}");
                assert!(!p.tentatively_decided(), "case {case}");
                assert_eq!(p.decision(), None, "case {case}");
                // The coin is the only nondeterminism: same seed, same bit.
                let mut q = before;
                drive(&mut q, &inbox_with(ones, zeros, known), seed ^ 0xABCD);
                assert_eq!(q.preference(), p.preference(), "case {case}");
            }
        }
        // The message-count history advanced exactly once.
        assert_eq!(p.last_n(), n_r, "case {case}");
    }
    assert!(tested >= 64, "too few cases survived warm-up: {tested}");
}

/// The one-sided rule is the only difference between the variants:
/// with zeros visible, both rules predict identically.
#[test]
fn variants_agree_when_zeros_visible() {
    let mut gen = SimRng::new(0xA62EE);
    for case in 0..256 {
        let n = 2 + gen.index(38);
        let ones = gen.index(40);
        let zeros = 1 + gen.index(39); // at least one zero
        let input = gen.bit();
        let a = SynRanProcess::new(n, input, CoinRule::OneSided);
        let b = SynRanProcess::new(n, input, CoinRule::Symmetric);
        let n_r = ones + zeros;
        assert_eq!(
            a.predict(n_r, ones, zeros),
            b.predict(n_r, ones, zeros),
            "case {case}"
        );
    }
}
