//! Copy-on-write snapshot forks are observationally equivalent to
//! deep-clone (`World::fork`) forks — including when they inherit another
//! fork's recycled scratch buffers.

use synran_sim::testing::{CountDown, Echo};
use synran_sim::{Bit, Intervention, Passive, SimConfig, World};

/// Builds a world paused mid-round (between Phase A and delivery), the
/// state valency estimation snapshots.
fn paused_world(n: usize, seed: u64) -> World<CountDown> {
    let mut world = World::new(SimConfig::new(n).seed(seed).max_rounds(500), |_| {
        CountDown::new(6, Bit::One)
    })
    .expect("config");
    // Advance a couple of full rounds so metrics, statuses, and scratch
    // buffers all carry history, then pause after Phase A.
    for _ in 0..2 {
        world.phase_a().expect("phase A");
        world.deliver(Intervention::none()).expect("deliver");
    }
    world.phase_a().expect("phase A");
    assert!(world.awaiting_delivery());
    world
}

/// Snapshot forks are byte-identical to deep-clone (`World::fork`) oracle
/// forks: same seed, same adversary, same report — bit for bit.
#[test]
fn snapshot_forks_match_deep_clone_oracle() {
    let world = paused_world(16, 77);
    let snapshot = world.snapshot();
    for seed in [1u64, 42, 0xDEAD_BEEF, u64::MAX] {
        let mut oracle = world.fork(seed);
        let mut fork = snapshot.fork(seed);
        let oracle_report = oracle.run(&mut Passive).expect("oracle run");
        let fork_report = fork.run(&mut Passive).expect("fork run");
        assert_eq!(
            format!("{fork_report:?}"),
            format!("{oracle_report:?}"),
            "seed={seed}: snapshot fork must equal the deep-clone fork"
        );
    }
}

/// A fork that inherits a *recycled* scratch computes the same execution
/// as one with a fresh scratch: retire a fork, then check the next fork
/// (which takes the warmed buffers) still matches the oracle.
#[test]
fn recycled_scratch_forks_stay_equivalent() {
    let world = paused_world(12, 5);
    let snapshot = world.snapshot();
    assert_eq!(snapshot.pooled_scratches(), 0);

    // Warm the pool: drive one fork to completion and retire it.
    let mut warm = snapshot.fork(999);
    warm.drive(&mut Passive).expect("drive");
    let _ = warm.into_report();
    assert_eq!(
        snapshot.pooled_scratches(),
        1,
        "into_report returns the scratch to the snapshot"
    );

    // The next fork takes the recycled scratch…
    let mut recycled = snapshot.fork(31337);
    assert_eq!(
        snapshot.pooled_scratches(),
        0,
        "fork took the pooled scratch"
    );
    let recycled_report = recycled.run(&mut Passive).expect("run");

    // …and must match a deep-clone oracle fork of the same seed exactly.
    let mut oracle = world.fork(31337);
    let oracle_report = oracle.run(&mut Passive).expect("oracle run");
    assert_eq!(
        format!("{recycled_report:?}"),
        format!("{oracle_report:?}"),
        "a warmed scratch must be observationally identical to a fresh one"
    );
}

/// `World::retire` recycles the scratch on abandoned forks (the
/// estimator's horizon-exceeded path) just like `into_report` does.
#[test]
fn retire_recycles_scratch_without_a_report() {
    let world = paused_world(8, 21);
    let snapshot = world.snapshot_bounded(50);
    let fork = snapshot.fork(7);
    fork.retire();
    assert_eq!(snapshot.pooled_scratches(), 1);
    // A second retired fork re-uses the same buffers: the pool does not
    // grow beyond what runs concurrently.
    let fork = snapshot.fork(8);
    assert_eq!(snapshot.pooled_scratches(), 0);
    fork.retire();
    assert_eq!(snapshot.pooled_scratches(), 1);
}

/// `snapshot_bounded` caps fork exploration exactly like `fork_bounded`.
#[test]
fn snapshot_bounded_matches_fork_bounded_horizon() {
    let world = paused_world(8, 3);
    // Echo-style quick decisions would finish before any horizon binds,
    // so use a world whose processes take many rounds.
    let mut never = World::new(SimConfig::new(8).seed(3).max_rounds(10_000), |pid| {
        Echo::new(Bit::from(pid.index() % 2 == 0))
    })
    .expect("config");
    never.phase_a().expect("phase A");
    drop(world);

    let snapshot = never.snapshot_bounded(0);
    let mut snap_fork = snapshot.fork(1);
    let mut oracle = never.fork_bounded(1, 0);
    let snap_err = snap_fork.drive(&mut Passive);
    let oracle_err = oracle.drive(&mut Passive);
    assert_eq!(
        format!("{snap_err:?}"),
        format!("{oracle_err:?}"),
        "horizon behaviour must match fork_bounded"
    );
}
