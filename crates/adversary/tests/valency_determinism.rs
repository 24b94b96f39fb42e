//! Golden-value determinism for [`estimate_valency`]: fixed fixtures must
//! reproduce recorded estimates **bit for bit** — every per-probe
//! `Pr[decide 1]` as its `f64::to_bits` pattern, plus the undecided count
//! — at every thread count. The fixtures cover a split, a mostly-ones and
//! a unanimous starting state, a horizon too short for any fork to decide,
//! and a world whose own `max_rounds` cap is tighter than the horizon.

use synran_adversary::{estimate_valency, ProbeSet};
use synran_core::{ConsensusProtocol, SynRan, SynRanProcess};
use synran_sim::{Bit, SimConfig, World};

/// A SynRan world with `ones` leading 1-inputs, `t` fault budget, and a
/// configurable worker-thread count — the same fixture family the in-crate
/// valency tests use.
fn world_with(
    n: usize,
    t: usize,
    ones: usize,
    seed: u64,
    threads: usize,
    max_rounds: u32,
) -> World<SynRanProcess> {
    World::new(
        SimConfig::new(n)
            .faults(t)
            .seed(seed)
            .max_rounds(max_rounds)
            .threads(threads),
        |pid| SynRan::new().spawn(pid, n, Bit::from(pid.index() < ones)),
    )
    .expect("valid config")
}

/// One recorded estimate: the world, the estimator's arguments, and the
/// expected `(probe name, p1 bits)` rows plus undecided count.
struct Golden {
    name: &'static str,
    n: usize,
    t: usize,
    ones: usize,
    world_seed: u64,
    max_rounds: u32,
    kills_per_probe: usize,
    samples: usize,
    horizon: u32,
    seed: u64,
    per_probe: [(&'static str, u64); 4],
    undecided: usize,
}

const ZERO: u64 = 0x0000_0000_0000_0000;
const ONE_FIFTH: u64 = 0x3fc9_9999_9999_999a;
const HALF: u64 = 0x3fe0_0000_0000_0000;
const ONE: u64 = 0x3ff0_0000_0000_0000;

const GOLDEN: [Golden; 5] = [
    Golden {
        name: "split",
        n: 16,
        t: 8,
        ones: 8,
        world_seed: 7,
        max_rounds: 5_000,
        kills_per_probe: 3,
        samples: 5,
        horizon: 60,
        seed: 9,
        per_probe: [
            ("passive", ZERO),
            ("kill-ones", ZERO),
            ("kill-zeros", ONE_FIFTH),
            ("balancer", ZERO),
        ],
        undecided: 0,
    },
    Golden {
        name: "mostly-ones",
        n: 16,
        t: 8,
        ones: 14,
        world_seed: 21,
        max_rounds: 5_000,
        kills_per_probe: 3,
        samples: 5,
        horizon: 60,
        seed: 9,
        per_probe: [
            ("passive", ONE),
            ("kill-ones", ONE),
            ("kill-zeros", ONE),
            ("balancer", ONE),
        ],
        undecided: 0,
    },
    Golden {
        name: "unanimous",
        n: 16,
        t: 8,
        ones: 16,
        world_seed: 3,
        max_rounds: 5_000,
        kills_per_probe: 3,
        samples: 5,
        horizon: 60,
        seed: 9,
        per_probe: [
            ("passive", ONE),
            ("kill-ones", ONE),
            ("kill-zeros", ONE),
            ("balancer", ONE),
        ],
        undecided: 0,
    },
    // A 2-round look-ahead is far too short for SynRan to decide from a
    // split state: almost every fork hits the horizon and scores ½.
    Golden {
        name: "horizon-starved",
        n: 12,
        t: 6,
        ones: 6,
        world_seed: 5,
        max_rounds: 5_000,
        kills_per_probe: 2,
        samples: 4,
        horizon: 2,
        seed: 17,
        per_probe: [
            ("passive", HALF),
            ("kill-ones", HALF),
            ("kill-zeros", HALF),
            ("balancer", HALF),
        ],
        undecided: 14,
    },
    // The world's own 3-round cap is tighter than the 60-round horizon:
    // bounded forks clamp to it and score ½ when it bites.
    Golden {
        name: "max-rounds-capped",
        n: 12,
        t: 6,
        ones: 6,
        world_seed: 5,
        max_rounds: 3,
        kills_per_probe: 2,
        samples: 4,
        horizon: 60,
        seed: 17,
        per_probe: [
            ("passive", HALF),
            ("kill-ones", HALF),
            ("kill-zeros", HALF),
            ("balancer", HALF),
        ],
        undecided: 14,
    },
];

#[test]
fn estimates_reproduce_the_recorded_values_at_every_thread_count() {
    for g in &GOLDEN {
        let probes = ProbeSet::synran(g.kills_per_probe);
        for threads in [1usize, 2, 8] {
            let world = world_with(g.n, g.t, g.ones, g.world_seed, threads, g.max_rounds);
            let est = estimate_valency(&world, &probes, g.samples, g.horizon, g.seed).unwrap();
            let got: Vec<(&str, u64)> = est
                .per_probe()
                .iter()
                .map(|(name, p1)| (&**name, p1.to_bits()))
                .collect();
            assert_eq!(got, g.per_probe, "{} at threads = {threads}", g.name);
            assert_eq!(
                est.undecided(),
                g.undecided,
                "{} at threads = {threads}",
                g.name
            );
            assert_eq!(est.samples_per_probe(), g.samples);
        }
    }
}

#[test]
#[should_panic(expected = "at least one probe")]
fn estimate_rejects_empty_probe_set() {
    let world = world_with(8, 4, 4, 1, 1, 5_000);
    let probes: ProbeSet<SynRanProcess> = ProbeSet::new();
    let _ = estimate_valency(&world, &probes, 4, 30, 1);
}

#[test]
#[should_panic(expected = "at least one sample")]
fn estimate_rejects_zero_samples() {
    let world = world_with(8, 4, 4, 1, 1, 5_000);
    let probes = ProbeSet::synran(2);
    let _ = estimate_valency(&world, &probes, 0, 30, 1);
}
