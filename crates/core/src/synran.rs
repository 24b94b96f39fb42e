//! The paper's protocol: `SynRan` (§4), plus its symmetric-coin ablation.
//!
//! SynRan is a Ben-Or-style randomized synchronous consensus protocol,
//! hardened against the *adaptive* fail-stop adversary by a one-side-biased
//! coin rule. Per round each process broadcasts its preference `b_i`
//! (including to itself) and classifies the replies against the **previous**
//! round's message count `N^{r−1}`:
//!
//! ```text
//! O^r > 7·N^{r−1}/10   →  b = 1, decided = true
//! O^r > 6·N^{r−1}/10   →  b = 1
//! Z^r = 0              →  b = 1          (the one-side-biased coin)
//! O^r < 4·N^{r−1}/10   →  b = 0, decided = true
//! O^r < 5·N^{r−1}/10   →  b = 0
//! otherwise            →  b = fair coin
//! ```
//!
//! A process that holds `decided` checks the *stability* rule
//! `N^{r−3} − N^r ≤ N^{r−2}/10` — "few processes died recently" — and only
//! then irrevocably stops (Lemma 4.2 turns that into global agreement:
//! stalling it costs the adversary a tenth of the survivors every four
//! rounds). When fewer than `√(n/log n)` messages arrive, the process
//! sends one more plain round and switches to deterministic flooding for
//! the remaining (by then tiny) population (Lemma 4.3).
//!
//! The expected round count under **any** fail-stop `t`-adversary is
//! `O(t/√(n·log n))` for `t = Ω(n)` (Theorem 2), and
//! `Θ(t/√(n·log(2+t/√n)))` over the whole range `t < n` (Theorem 3) —
//! matching the paper's lower bound.

use synran_sim::{Bit, Context, Inbox, PlaneMsg, Process, ProcessId, SendPattern};

use crate::math::{deterministic_stage_rounds, deterministic_threshold};
use crate::{ConsensusProtocol, FloodingCore, ValueSet};

/// Which final-else coin rule the protocol uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoinRule {
    /// The paper's rule: `Z^r = 0 → b = 1` before falling through to a
    /// fair coin. Biasing this collective coin toward 0 is impossible
    /// (hides cannot create a zero), so the adversary must spend failures.
    OneSided,
    /// Ablation: the `Z^r = 0` branch removed, leaving Ben-Or's plain fair
    /// coin. Used by experiment E5 to isolate the design choice.
    Symmetric,
}

/// The protocol's threshold constants, as twentieths of the comparison
/// base `N^{r−1}` (resp. `N^{r−2}` for the stability rule).
///
/// The paper's values are `{14, 12, 10, 8}/20` (= 7/10, 6/10, 5/10, 4/10)
/// with a stability margin of `2/20` (= 1/10). They are not arbitrary:
/// Lemma 4.2's agreement argument needs
/// `decide_one − propose_one ≥ stability` (a decider's evidence must
/// survive the deaths the stability rule tolerates, so every other process
/// still crosses the propose line). Experiment E10 demonstrates that
/// narrowing that gap below the stability margin lets an adversary break
/// Agreement outright.
///
/// # Examples
///
/// ```
/// use synran_core::Thresholds;
///
/// let paper = Thresholds::paper();
/// assert_eq!(paper.decide_one(), 14);
/// assert!(paper.respects_lemma_4_2());
/// let narrowed = Thresholds::new(13, 12, 10, 8, 2);
/// assert!(!narrowed.respects_lemma_4_2()); // gap 1 < stability 2
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Thresholds {
    decide_one: u32,
    propose_one: u32,
    propose_zero: u32,
    decide_zero: u32,
    stability: u32,
}

impl Thresholds {
    /// The paper's constants: decide-1 at 7/10, propose-1 at 6/10,
    /// propose-0 at 5/10, decide-0 at 4/10, stability margin 1/10.
    #[must_use]
    pub const fn paper() -> Thresholds {
        Thresholds {
            decide_one: 14,
            propose_one: 12,
            propose_zero: 10,
            decide_zero: 8,
            stability: 2,
        }
    }

    /// Custom constants, in twentieths.
    ///
    /// # Panics
    ///
    /// Panics unless `decide_one ≥ propose_one ≥ propose_zero ≥
    /// decide_zero` and all lie in `1..=20` — orderings the protocol's
    /// branch structure requires. (It deliberately does **not** require
    /// [`respects_lemma_4_2`](Self::respects_lemma_4_2): building unsafe
    /// variants is E10's whole point.)
    #[must_use]
    pub fn new(
        decide_one: u32,
        propose_one: u32,
        propose_zero: u32,
        decide_zero: u32,
        stability: u32,
    ) -> Thresholds {
        assert!(
            decide_one >= propose_one && propose_one >= propose_zero && propose_zero >= decide_zero,
            "thresholds must be ordered decide_one ≥ propose_one ≥ propose_zero ≥ decide_zero"
        );
        assert!(
            (1..=20).contains(&decide_zero) && decide_one <= 20,
            "thresholds are twentieths in 1..=20"
        );
        Thresholds {
            decide_one,
            propose_one,
            propose_zero,
            decide_zero,
            stability,
        }
    }

    /// Decide-1 numerator (per 20).
    #[must_use]
    pub fn decide_one(&self) -> u32 {
        self.decide_one
    }

    /// Propose-1 numerator (per 20).
    #[must_use]
    pub fn propose_one(&self) -> u32 {
        self.propose_one
    }

    /// Propose-0 numerator (per 20).
    #[must_use]
    pub fn propose_zero(&self) -> u32 {
        self.propose_zero
    }

    /// Decide-0 numerator (per 20).
    #[must_use]
    pub fn decide_zero(&self) -> u32 {
        self.decide_zero
    }

    /// Stability-margin numerator (per 20).
    #[must_use]
    pub fn stability(&self) -> u32 {
        self.stability
    }

    /// Whether these constants satisfy the margin Lemma 4.2's proof
    /// needs on *both* sides:
    /// `decide_one − propose_one ≥ stability` and
    /// `propose_zero − decide_zero ≥ stability`.
    #[must_use]
    pub fn respects_lemma_4_2(&self) -> bool {
        self.decide_one - self.propose_one >= self.stability
            && self.propose_zero - self.decide_zero >= self.stability
    }
}

impl Default for Thresholds {
    fn default() -> Thresholds {
        Thresholds::paper()
    }
}

/// The SynRan protocol configuration.
///
/// # Examples
///
/// ```
/// use synran_core::{ConsensusProtocol, SynRan};
/// use synran_sim::{Bit, Passive, ProcessId, SimConfig, World};
///
/// let protocol = SynRan::new();
/// let n = 16;
/// let mut world = World::new(SimConfig::new(n).seed(3), |pid| {
///     protocol.spawn(pid, n, Bit::from(pid.index() % 2 == 0))
/// })?;
/// let report = world.run(&mut Passive)?;
/// assert!(report.unanimous_decision().is_some());
/// # Ok::<(), synran_sim::SimError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynRan {
    rule: CoinRule,
    thresholds: Thresholds,
}

impl SynRan {
    /// The paper's protocol, with the one-side-biased coin.
    #[must_use]
    pub fn new() -> SynRan {
        SynRan {
            rule: CoinRule::OneSided,
            thresholds: Thresholds::paper(),
        }
    }

    /// The symmetric-coin ablation (plain Ben-Or coin).
    #[must_use]
    pub fn symmetric() -> SynRan {
        SynRan {
            rule: CoinRule::Symmetric,
            thresholds: Thresholds::paper(),
        }
    }

    /// The paper's coin rule with custom threshold constants — the knob
    /// experiment E10 turns to show the paper's margins are tight.
    #[must_use]
    pub fn with_thresholds(thresholds: Thresholds) -> SynRan {
        SynRan {
            rule: CoinRule::OneSided,
            thresholds,
        }
    }

    /// The coin rule in use.
    #[must_use]
    pub fn rule(&self) -> CoinRule {
        self.rule
    }

    /// The threshold constants in use.
    #[must_use]
    pub fn thresholds(&self) -> Thresholds {
        self.thresholds
    }
}

impl Default for SynRan {
    fn default() -> SynRan {
        SynRan::new()
    }
}

impl ConsensusProtocol for SynRan {
    type Proc = SynRanProcess;

    fn spawn(&self, _pid: ProcessId, n: usize, input: Bit) -> SynRanProcess {
        SynRanProcess::with_thresholds(n, input, self.rule, self.thresholds)
    }

    fn name(&self) -> &str {
        match (self.rule, self.thresholds == Thresholds::paper()) {
            (CoinRule::OneSided, true) => "synran",
            (CoinRule::OneSided, false) => "synran-custom",
            (CoinRule::Symmetric, _) => "synran-sym",
        }
    }
}

/// Messages SynRan exchanges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SynRanMsg {
    /// Probabilistic stage (and the handover delay round): the sender's
    /// current preference `b`.
    Pref(Bit),
    /// Deterministic stage: the sender's flooding set.
    Known(ValueSet),
}

impl PlaneMsg for SynRanMsg {
    /// `Pref(b)` packs to `b`, so probabilistic-stage rounds — the
    /// dominant, every-round broadcast of preferences — ride the engine's
    /// bit-plane fast path. `Known(S)` never packs: any round carrying a
    /// flooding set takes the scalar pair path.
    fn pack(&self) -> Option<Bit> {
        match self {
            SynRanMsg::Pref(b) => Some(*b),
            SynRanMsg::Known(_) => None,
        }
    }

    fn unpack(bit: Bit) -> Option<SynRanMsg> {
        Some(SynRanMsg::Pref(bit))
    }
}

/// The action a SynRan process will take on receiving given counts — the
/// paper's WHILE-loop body as data. See [`SynRanProcess::predict`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictedStep {
    /// `N^r < √(n/log n)`: switch to the handover delay round.
    Handover,
    /// The stability rule fired: STOP, deciding the contained value.
    Stop(Bit),
    /// A threshold branch: set `b` to `value` (and the tentative `decided`
    /// flag accordingly).
    Propose {
        /// The new preference.
        value: Bit,
        /// Whether the tentative `decided` flag is set.
        decided: bool,
    },
    /// The final ELSE: flip a fair coin.
    FlipCoin,
}

/// Which stage of the protocol a process is in — exposed so
/// full-information adversaries and experiments can inspect executions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// The randomized threshold/coin stage.
    Probabilistic,
    /// The one-round handover delay before deterministic flooding.
    Delay,
    /// Deterministic flooding among the survivors.
    Deterministic,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Probabilistic,
    Delay,
    Deterministic(FloodingCore),
}

/// One participant in SynRan.
///
/// All state is observable (it must be — the adversary has full
/// information): [`preference`](Self::preference),
/// [`tentatively_decided`](Self::tentatively_decided),
/// [`stage`](Self::stage), and [`last_n`](Self::last_n).
///
/// The process owns no heap memory — it is `Copy` — so forking a world of
/// them is a plain memory copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynRanProcess {
    n: usize,
    rule: CoinRule,
    thresholds: Thresholds,
    b: Bit,
    decided: bool,
    decision: Option<Bit>,
    /// The last three message counts, newest first: `[N^{r−1}, N^{r−2},
    /// N^{r−3}]` while round `r` is being received — all the rules ever
    /// read. Starting at `[n, n, n]` gives the paper's `N^{−1} = N^{0} = n`
    /// convention and clamps earlier counts to `n`.
    recent: [usize; 3],
    stage: Stage,
}

impl SynRanProcess {
    /// Creates a process with the given input in a system of `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn new(n: usize, input: Bit, rule: CoinRule) -> SynRanProcess {
        SynRanProcess::with_thresholds(n, input, rule, Thresholds::paper())
    }

    /// Creates a process with custom threshold constants (see
    /// [`Thresholds`]).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn with_thresholds(
        n: usize,
        input: Bit,
        rule: CoinRule,
        thresholds: Thresholds,
    ) -> SynRanProcess {
        assert!(n > 0, "SynRan needs at least one process");
        SynRanProcess {
            n,
            rule,
            thresholds,
            b: input,
            decided: false,
            decision: None,
            recent: [n; 3],
            stage: Stage::Probabilistic,
        }
    }

    /// The current preference `b_i`.
    #[must_use]
    pub fn preference(&self) -> Bit {
        self.b
    }

    /// Which coin rule this process runs (the adversary has full
    /// information, including the protocol variant).
    #[must_use]
    pub fn rule(&self) -> CoinRule {
        self.rule
    }

    /// The threshold constants this process compares against (full
    /// information again — boundary attacks aim exactly at these).
    #[must_use]
    pub fn thresholds(&self) -> Thresholds {
        self.thresholds
    }

    /// The paper's (revocable) `decided` flag — *not* the irrevocable
    /// decision, which is [`Process::decision`].
    #[must_use]
    pub fn tentatively_decided(&self) -> bool {
        self.decided
    }

    /// Which stage the process is in.
    #[must_use]
    pub fn stage(&self) -> StageKind {
        match self.stage {
            Stage::Probabilistic => StageKind::Probabilistic,
            Stage::Delay => StageKind::Delay,
            Stage::Deterministic(_) => StageKind::Deterministic,
        }
    }

    /// The most recent round's message count `N^r` (equals `n` before the
    /// first round completes).
    #[must_use]
    pub fn last_n(&self) -> usize {
        self.recent[0]
    }

    /// Predicts what this process will do when it receives a
    /// probabilistic-stage round with `n_r` messages, `o_r` ones, and
    /// `z_r` zeros — without mutating anything.
    ///
    /// This is the paper's WHILE-loop body as a pure function of the
    /// counts; [`Process::receive`] applies exactly this prediction. It
    /// exists so full-information adversaries (which see everything) and
    /// the exact valency evaluator can enumerate transitions — in
    /// particular, [`PredictedStep::FlipCoin`] identifies precisely the
    /// processes whose next state is random.
    ///
    /// Returns `None` if the process is not in the probabilistic stage.
    #[must_use]
    pub fn predict(&self, n_r: usize, o_r: usize, z_r: usize) -> Option<PredictedStep> {
        if !matches!(self.stage, Stage::Probabilistic) {
            return None;
        }
        let [n_r1, n_r2, n_r3] = self.recent;
        if (n_r as f64) < deterministic_threshold(self.n) {
            return Some(PredictedStep::Handover);
        }
        let th = &self.thresholds;
        if self.decided {
            let diff = n_r3.saturating_sub(n_r);
            // The paper's 10·diff ≤ N^{r−2}, generalised to the margin
            // constant: 20·diff ≤ stability·N^{r−2}.
            if 20 * diff as u64 <= u64::from(th.stability) * n_r2 as u64 {
                return Some(PredictedStep::Stop(self.b));
            }
        }
        let base = n_r1 as u64;
        let o = 20 * o_r as u64;
        // The propose-1 branch and the one-sided Z = 0 branch produce the
        // same step by design — they are distinct lines of the paper's
        // listing.
        #[allow(clippy::if_same_then_else)]
        Some(if o > u64::from(th.decide_one) * base {
            PredictedStep::Propose {
                value: Bit::One,
                decided: true,
            }
        } else if o > u64::from(th.propose_one) * base {
            PredictedStep::Propose {
                value: Bit::One,
                decided: false,
            }
        } else if self.rule == CoinRule::OneSided && z_r == 0 {
            PredictedStep::Propose {
                value: Bit::One,
                decided: false,
            }
        } else if o < u64::from(th.decide_zero) * base {
            PredictedStep::Propose {
                value: Bit::Zero,
                decided: true,
            }
        } else if o < u64::from(th.propose_zero) * base {
            PredictedStep::Propose {
                value: Bit::Zero,
                decided: false,
            }
        } else {
            PredictedStep::FlipCoin
        })
    }

    /// Handles one probabilistic-stage inbox (the body of the paper's
    /// WHILE loop), by applying [`predict`](Self::predict).
    fn probabilistic_step(&mut self, ctx: &mut Context<'_>, inbox: &Inbox<SynRanMsg>) {
        let n_r = inbox.len();
        // Pref(b) packs to b, so the round tally is exactly (Z^r, O^r):
        // on a plane-backed inbox both are popcounts. Known messages mean
        // their senders already reached the deterministic stage; they
        // count toward N (they are messages) but carry no single
        // preference — and they never pack, so the tally skips them.
        let (z_r, o_r) = inbox.tally();
        let step = self
            .predict(n_r, o_r, z_r)
            .expect("probabilistic_step runs only in the probabilistic stage");
        self.recent = [n_r, self.recent[0], self.recent[1]];
        match step {
            PredictedStep::Handover => self.stage = Stage::Delay,
            PredictedStep::Stop(value) => self.decision = Some(value),
            PredictedStep::Propose { value, decided } => {
                self.b = value;
                self.decided = decided;
            }
            PredictedStep::FlipCoin => {
                self.decided = false;
                self.b = ctx.rng().bit();
            }
        }
    }

    /// Ends the handover delay round: seed the flooding set with our own
    /// preference plus everything heard during the delay (harmless — every
    /// received value is a genuine proposal — and it absorbs the one-round
    /// skew between processes entering the stage).
    fn delay_step(&mut self, inbox: &Inbox<SynRanMsg>) {
        let mut known = ValueSet::single(self.b);
        // Preferences heard during the delay arrive as packed bits — the
        // tally says which values occurred without decoding any message.
        let (zeros, ones) = inbox.tally();
        if zeros > 0 {
            known.insert(Bit::Zero);
        }
        if ones > 0 {
            known.insert(Bit::One);
        }
        // Known(S) sets never pack; only those need a real decode walk.
        for (_, msg) in inbox.unpackable() {
            if let SynRanMsg::Known(set) = msg {
                known.union_with(*set);
            }
        }
        self.stage =
            Stage::Deterministic(FloodingCore::new(known, deterministic_stage_rounds(self.n)));
    }
}

impl Process for SynRanProcess {
    type Msg = SynRanMsg;

    fn send(&mut self, _ctx: &mut Context<'_>) -> SendPattern<SynRanMsg> {
        match &self.stage {
            Stage::Probabilistic | Stage::Delay => SendPattern::Broadcast(SynRanMsg::Pref(self.b)),
            Stage::Deterministic(core) => SendPattern::Broadcast(SynRanMsg::Known(core.outgoing())),
        }
    }

    fn receive(&mut self, ctx: &mut Context<'_>, inbox: &Inbox<SynRanMsg>) {
        match &mut self.stage {
            Stage::Probabilistic => self.probabilistic_step(ctx, inbox),
            Stage::Delay => self.delay_step(inbox),
            Stage::Deterministic(core) => {
                core.absorb(inbox.messages().map(|m| match m {
                    SynRanMsg::Pref(bit) => ValueSet::single(bit),
                    SynRanMsg::Known(set) => set,
                }));
                if core.done() {
                    self.decision = core.decide();
                }
            }
        }
    }

    fn decision(&self) -> Option<Bit> {
        self.decision
    }

    fn halted(&self) -> bool {
        self.decision.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synran_sim::{
        Adversary, Intervention, Passive, ProcessId, RunReport, SimConfig, SimError, World,
    };

    fn run_synran(
        protocol: SynRan,
        n: usize,
        t: usize,
        inputs: impl Fn(usize) -> Bit,
        adversary: &mut impl Adversary<SynRanProcess>,
        seed: u64,
    ) -> Result<RunReport, SimError> {
        let mut world = World::new(SimConfig::new(n).faults(t).seed(seed), |pid| {
            protocol.spawn(pid, n, inputs(pid.index()))
        })?;
        world.run(adversary)
    }

    #[test]
    fn unanimous_one_decides_in_two_rounds() {
        // Round 1: everyone sees n ones → decide 1. Round 2: stability
        // holds trivially → STOP.
        let report = run_synran(SynRan::new(), 9, 0, |_| Bit::One, &mut Passive, 1).unwrap();
        assert_eq!(report.unanimous_decision(), Some(Bit::One));
        assert_eq!(report.rounds(), 2);
    }

    #[test]
    fn unanimous_zero_decides_in_two_rounds() {
        let report = run_synran(SynRan::new(), 9, 0, |_| Bit::Zero, &mut Passive, 1).unwrap();
        assert_eq!(report.unanimous_decision(), Some(Bit::Zero));
        assert_eq!(report.rounds(), 2);
    }

    #[test]
    fn split_inputs_reach_agreement_fault_free() {
        for seed in 0..20 {
            let report = run_synran(
                SynRan::new(),
                21,
                0,
                |i| Bit::from(i % 2 == 0),
                &mut Passive,
                seed,
            )
            .unwrap();
            assert!(
                report.unanimous_decision().is_some(),
                "seed {seed}: no agreement"
            );
        }
    }

    #[test]
    fn symmetric_variant_reaches_agreement_fault_free() {
        for seed in 0..20 {
            let report = run_synran(
                SynRan::symmetric(),
                21,
                0,
                |i| Bit::from(i % 3 == 0),
                &mut Passive,
                seed,
            )
            .unwrap();
            assert!(report.unanimous_decision().is_some());
        }
    }

    #[test]
    fn massive_first_round_kill_triggers_deterministic_stage() {
        // Kill all but 2 of 16 in round 1: survivors see N < √(n/ln n) and
        // hand over to flooding.
        struct FirstRoundMassacre;
        impl Adversary<SynRanProcess> for FirstRoundMassacre {
            fn intervene(&mut self, world: &World<SynRanProcess>) -> Intervention {
                if world.round().index() == 1 {
                    let victims: Vec<ProcessId> = world.alive_ids().skip(2).collect();
                    Intervention::kill_all_silent(victims)
                } else {
                    Intervention::none()
                }
            }
        }
        let report = run_synran(
            SynRan::new(),
            16,
            14,
            |i| Bit::from(i % 2 == 0),
            &mut FirstRoundMassacre,
            7,
        )
        .unwrap();
        assert!(report.unanimous_decision().is_some());
        assert_eq!(report.failed_count(), 14);
    }

    #[test]
    fn validity_holds_under_random_kills() {
        struct RandomKiller;
        impl Adversary<SynRanProcess> for RandomKiller {
            fn intervene(&mut self, world: &World<SynRanProcess>) -> Intervention {
                // Deterministically kill one process per round while budget
                // remains.
                if world.budget().remaining() > 0 {
                    match world.alive_ids().last() {
                        Some(v) => Intervention::kill_all_silent([v]),
                        None => Intervention::none(),
                    }
                } else {
                    Intervention::none()
                }
            }
        }
        for v in [Bit::Zero, Bit::One] {
            let report = run_synran(SynRan::new(), 12, 6, |_| v, &mut RandomKiller, 11).unwrap();
            assert_eq!(report.unanimous_decision(), Some(v), "validity violated");
        }
    }

    #[test]
    fn process_accessors_reflect_state() {
        let mut p = SynRanProcess::new(8, Bit::One, CoinRule::OneSided);
        assert_eq!(p.preference(), Bit::One);
        assert!(!p.tentatively_decided());
        assert_eq!(p.stage(), StageKind::Probabilistic);
        assert_eq!(p.last_n(), 8);
        assert_eq!(p.decision(), None);
        assert!(!p.halted());
        // Hand-drive one round with an all-ones inbox.
        let mut rng = synran_sim::SimRng::new(0);
        let mut ctx = Context::new(ProcessId::new(0), 8, synran_sim::Round::FIRST, &mut rng);
        let out = p.send(&mut ctx);
        assert_eq!(out, SendPattern::Broadcast(SynRanMsg::Pref(Bit::One)));
        let inbox: Inbox<SynRanMsg> = ProcessId::all(8)
            .map(|pid| (pid, SynRanMsg::Pref(Bit::One)))
            .collect();
        p.receive(&mut ctx, &inbox);
        assert!(p.tentatively_decided());
        assert_eq!(p.last_n(), 8);
        assert_eq!(p.decision(), None, "tentative ≠ irrevocable");
    }

    #[test]
    fn one_sided_rule_fires_on_all_ones_minority() {
        // N^r = 4 of base 8 ones: 10·4 !> 6·8, but Z = 0 → propose 1 under
        // the paper's rule.
        let mut p = SynRanProcess::new(8, Bit::One, CoinRule::OneSided);
        let mut rng = synran_sim::SimRng::new(0);
        let mut ctx = Context::new(ProcessId::new(0), 8, synran_sim::Round::FIRST, &mut rng);
        let inbox: Inbox<SynRanMsg> = ProcessId::all(4)
            .map(|pid| (pid, SynRanMsg::Pref(Bit::One)))
            .collect();
        p.receive(&mut ctx, &inbox);
        assert_eq!(p.preference(), Bit::One);
        assert!(!p.tentatively_decided());
        // The count 4 is below √(64/ln 8)? √(8/2.08) ≈ 1.96 — no, 4 ≥ 1.96,
        // so we stay probabilistic.
        assert_eq!(p.stage(), StageKind::Probabilistic);
    }

    #[test]
    fn stop_requires_stability() {
        // A process that tentatively decided must NOT stop if a tenth of
        // the population vanished since.
        let mut p = SynRanProcess::new(100, Bit::One, CoinRule::OneSided);
        let mut rng = synran_sim::SimRng::new(0);
        let mut ctx = Context::new(ProcessId::new(0), 100, synran_sim::Round::FIRST, &mut rng);
        // Round 1: 100 ones → decide 1 tentatively.
        let inbox: Inbox<SynRanMsg> = ProcessId::all(100)
            .map(|pid| (pid, SynRanMsg::Pref(Bit::One)))
            .collect();
        p.receive(&mut ctx, &inbox);
        assert!(p.tentatively_decided());
        // Round 2: only 80 messages arrive — diff = N^{-1} − N^2 = 20 > N^0/10.
        let inbox: Inbox<SynRanMsg> = ProcessId::all(80)
            .map(|pid| (pid, SynRanMsg::Pref(Bit::One)))
            .collect();
        p.receive(&mut ctx, &inbox);
        assert_eq!(p.decision(), None, "must not stop while unstable");
        // It re-decided 1 tentatively (80 ones > 7·100/10 fails: 800 > 700 ✓)
        assert!(p.tentatively_decided());
        // Round 3: stable 80 again — diff = N^0 − N^3 = 100−80 = 20 > N^1/10=10.
        let inbox: Inbox<SynRanMsg> = ProcessId::all(80)
            .map(|pid| (pid, SynRanMsg::Pref(Bit::One)))
            .collect();
        p.receive(&mut ctx, &inbox);
        assert_eq!(p.decision(), None);
        // Round 4: diff = N^1 − N^4 = 100−80 = 20 > N^2/10 = 8 — still no.
        // Round 5: diff = N^2 − N^5 = 80−80 = 0 ≤ N^3/10 — STOP.
        for expect_stop in [false, true] {
            let inbox: Inbox<SynRanMsg> = ProcessId::all(80)
                .map(|pid| (pid, SynRanMsg::Pref(Bit::One)))
                .collect();
            p.receive(&mut ctx, &inbox);
            assert_eq!(p.decision().is_some(), expect_stop);
        }
        assert_eq!(p.decision(), Some(Bit::One));
        assert!(p.halted());
    }

    #[test]
    fn protocol_names_distinguish_variants() {
        assert_eq!(SynRan::new().name(), "synran");
        assert_eq!(SynRan::symmetric().name(), "synran-sym");
        assert_eq!(SynRan::default().rule(), CoinRule::OneSided);
        assert_eq!(SynRan::symmetric().rule(), CoinRule::Symmetric);
    }

    #[test]
    fn single_process_system_decides_own_input() {
        let report = run_synran(SynRan::new(), 1, 0, |_| Bit::One, &mut Passive, 0).unwrap();
        assert_eq!(report.unanimous_decision(), Some(Bit::One));
    }
}
