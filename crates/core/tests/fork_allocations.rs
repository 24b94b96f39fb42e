//! Verifies that `SynRanProcess` owns no heap memory: forking a
//! `World<SynRanProcess>` costs the same number of allocations at every
//! system size, and probabilistic-stage rounds on a fork allocate nothing
//! once its round scratch is warm.
//!
//! Mirrors `crates/sim/tests/deliver_allocations.rs`: a counting
//! `#[global_allocator]` with a per-thread counter, so the test harness's
//! own threads cannot perturb the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use synran_core::{ConsensusProtocol, StageKind, SynRan, SynRanProcess};
use synran_sim::{Bit, Intervention, Process, SimConfig, World};

thread_local! {
    /// Allocations + reallocations made by *this* thread.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // try_with: TLS may be unavailable during thread teardown.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Counts every allocation and reallocation the current thread routes
/// through the global allocator.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A SynRan world whose first two rounds are deterministic: with 13/20 of
/// the inputs at 1, round 1 proposes 1 everywhere without deciding (6/10 <
/// 13/20 ≤ 7/10), and round 2's unanimous ones decide 1 tentatively. No
/// coin is flipped and no process stops before round 3.
fn world(n: usize) -> World<SynRanProcess> {
    let ones = (13 * n).div_ceil(20);
    World::new(SimConfig::new(n).seed(5).threads(1), |pid| {
        SynRan::new().spawn(pid, n, Bit::from(pid.index() < ones))
    })
    .expect("valid config")
}

fn round(world: &mut World<SynRanProcess>) {
    world.phase_a().expect("phase A");
    world.deliver(Intervention::none()).expect("deliver");
}

fn assert_still_probabilistic(world: &World<SynRanProcess>, label: &str) {
    for (pid, p, _) in world.processes() {
        assert_eq!(p.stage(), StageKind::Probabilistic, "{label}: {pid:?}");
        assert!(!p.halted(), "{label}: {pid:?} stopped");
        assert_eq!(p.last_n(), world.n(), "{label}: {pid:?} missed messages");
    }
}

/// Allocations made by `World::fork` and `WorldSnapshot::fork` of a world
/// that has run two rounds (so each process has a count history).
fn fork_allocs(n: usize) -> (u64, u64) {
    let mut parent = world(n);
    round(&mut parent);
    round(&mut parent);
    assert_still_probabilistic(&parent, "parent");
    let snapshot = parent.snapshot();

    let before = thread_allocs();
    let fork = parent.fork(1);
    let world_fork = thread_allocs() - before;

    let before = thread_allocs();
    let cut = snapshot.fork(1);
    let snapshot_fork = thread_allocs() - before;

    drop((fork, cut));
    (world_fork, snapshot_fork)
}

#[test]
fn forking_allocates_the_same_at_every_system_size() {
    let small = fork_allocs(16);
    let large = fork_allocs(256);
    assert_eq!(
        small, large,
        "(World::fork, WorldSnapshot::fork) allocations grew with n: \
         n = 16 {small:?}, n = 256 {large:?}"
    );
}

/// Allocations made by the first two rounds of a fork whose round scratch
/// was warmed by an earlier fork of the same snapshot.
fn warm_fork_round_allocs(n: usize) -> u64 {
    let snapshot = world(n).snapshot();
    let mut warm_up = snapshot.fork(2);
    round(&mut warm_up);
    round(&mut warm_up);
    warm_up.retire();

    let mut fork = snapshot.fork(3);
    let before = thread_allocs();
    round(&mut fork);
    round(&mut fork);
    let allocs = thread_allocs() - before;
    assert_still_probabilistic(&fork, &format!("fork at n = {n}"));
    allocs
}

#[test]
fn probabilistic_rounds_on_a_fork_allocate_nothing() {
    for n in [16, 256] {
        assert_eq!(
            warm_fork_round_allocs(n),
            0,
            "two probabilistic-stage rounds of a warm fork allocated at n = {n}"
        );
    }
}
