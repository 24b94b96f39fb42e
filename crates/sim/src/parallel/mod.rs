//! Deterministic parallel fan-out for fork evaluation and seed batches.
//!
//! The valency estimator and the batch runner both evaluate many
//! *independent* continuations of a seeded computation: every unit of work
//! is a pure function of its index (the fork seed is derived from the index
//! through [`SimRng::derive`](crate::SimRng::derive), never from shared
//! state). That makes the fan-out embarrassingly parallel **and** lets us
//! promise something stronger than most thread pools do:
//!
//! > **Determinism contract.** For a pure `f`, `par_map(threads, total, f)`
//! > returns exactly `(0..total).map(f).collect()` — bit for bit — for
//! > *every* `threads` value. Worker count changes wall-clock time, never
//! > results.
//!
//! The contract holds because results are written into the output slot of
//! their *index*, not in completion order, and because nothing about the
//! work depends on which worker runs it. Reductions over the results must
//! preserve this: callers fold the returned `Vec` left-to-right (floating
//! point addition is not associative, so summing in completion order would
//! break replay determinism).
//!
//! # Scoped fan-out
//!
//! Every fan-out splits `0..total` into `workers` contiguous index chunks
//! of `ceil(total / workers)` and runs them on [`std::thread::scope`]:
//! the caller runs chunk 0 itself, chunks `1..workers` each get a scoped
//! thread, and the helpers are joined in chunk order. The split is a pure
//! function of `(total, threads)`, so chunk boundaries (and therefore
//! results and per-worker telemetry attribution) never depend on
//! scheduling: chunk `w` runs indices `[w·chunk, min((w+1)·chunk, total))`
//! and its results land at those indices. If chunks panic, the one with
//! the lowest index is re-raised after every helper has been joined.
//!
//! A fan-out started from inside a running chunk (a batch of worlds whose
//! adversary estimates valency, say) runs inline on that chunk's thread
//! instead of spawning again, so nesting never multiplies the thread
//! count past the outer fan-out's `workers`.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::OnceLock;

use crate::{Process, Telemetry, World};

/// Sentinel for "use all available parallelism" in thread-count knobs.
pub const AUTO_THREADS: usize = 0;

/// Minimum work units per spawned worker.
///
/// Spawning and joining a scoped thread costs more than evaluating a
/// handful of small forks, so tiny fan-outs (the `n = 64` regime,
/// estimator probes with few samples) would run *slower* parallel than
/// serial. Capping workers at `ceil(total / MIN_CHUNK)` makes small
/// batches collapse toward the inline path while leaving large batches'
/// chunking unchanged — and the worker count stays a pure function of
/// `(total, threads)`, preserving the determinism contract.
pub const MIN_CHUNK: usize = 4;

/// This machine's available parallelism, probed once per process.
fn machine_parallelism() -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    *AVAILABLE.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Resolves a requested thread count: [`AUTO_THREADS`] (`0`) becomes the
/// machine's available parallelism, and explicit requests are clamped to
/// it — oversubscribing a fan-out of CPU-bound chunks only adds context
/// switches, never throughput. The clamp floor is 2 so that explicitly
/// requesting parallelism keeps the parallel path (and its tests)
/// exercised even on single-core machines; the determinism contract makes
/// the floor observationally free.
///
/// # Examples
///
/// ```
/// use synran_sim::parallel::resolve_threads;
/// assert_eq!(resolve_threads(1), 1);
/// assert!(resolve_threads(0) >= 1);
/// // Oversubscription clamps to the machine, never below 2.
/// let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
/// assert_eq!(resolve_threads(1_000_000), cores.max(2));
/// ```
#[must_use]
pub fn resolve_threads(requested: usize) -> usize {
    let available = machine_parallelism();
    if requested == AUTO_THREADS {
        available
    } else {
        requested.min(available.max(2))
    }
}

thread_local! {
    /// Set while this thread runs a chunk of a multi-worker fan-out; a
    /// fan-out started under it runs inline.
    static IN_FAN_OUT: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with [`IN_FAN_OUT`] set, restoring the previous value after.
fn in_fan_out<R>(f: impl FnOnce() -> R) -> R {
    let outer = IN_FAN_OUT.replace(true);
    let result = f();
    IN_FAN_OUT.set(outer);
    result
}

/// Maps `f` over `0..total` on up to `threads` scoped threads.
///
/// Results are identical to the serial `(0..total).map(f)` regardless of
/// `threads` (see the module docs for the contract). `threads <= 1` runs
/// inline without spawning.
///
/// # Panics
///
/// Propagates a panic from `f` (the fan-out joins all chunks first).
pub fn par_map<T, F>(threads: usize, total: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_in(&Telemetry::off(), threads, total, f)
}

/// [`par_map`] with telemetry: the fan-out is wrapped in a
/// `parallel.par_map` span, each chunk records a `parallel.worker` span
/// attributed to its chunk index, and the `parallel.tasks` counter
/// accumulates `total`.
///
/// Telemetry is observe-only — results are identical to [`par_map`] (and
/// to the serial map) for every `telemetry` handle and thread count.
///
/// # Panics
///
/// Propagates the panic of the lowest panicking chunk, after every chunk
/// has been joined.
pub fn par_map_in<T, F>(telemetry: &Telemetry, threads: usize, total: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let _span = telemetry.span("parallel.par_map");
    telemetry.incr("parallel.tasks", total as u64);
    let workers = resolve_threads(threads).min(total.div_ceil(MIN_CHUNK));
    if workers <= 1 || IN_FAN_OUT.get() {
        let _worker = telemetry.worker_span("parallel.worker", 0);
        return (0..total).map(f).collect();
    }
    let chunk = total.div_ceil(workers);
    let run_chunk = |w: usize| -> Vec<T> {
        #[allow(clippy::cast_possible_truncation)]
        let _worker = telemetry.worker_span("parallel.worker", w as u32);
        (w * chunk..total.min((w + 1) * chunk)).map(&f).collect()
    };
    let run_chunk = &run_chunk;
    std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers)
            .map(|w| s.spawn(move || in_fan_out(|| run_chunk(w))))
            .collect();
        let first = in_fan_out(|| panic::catch_unwind(AssertUnwindSafe(|| run_chunk(0))));
        let mut out = Vec::with_capacity(total);
        let mut panicked = None;
        for result in std::iter::once(first).chain(helpers.into_iter().map(|h| h.join())) {
            match result {
                Ok(values) => out.extend(values),
                Err(payload) => {
                    panicked.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panicked {
            panic::resume_unwind(payload);
        }
        out
    })
}

/// Like [`par_map`] for fallible work: maps `f` over `0..total`, returning
/// the error of the **lowest failing index** (not the first to fail in wall
/// time) so error propagation is as deterministic as the results.
///
/// All indices are evaluated even when one fails — the work units are
/// independent, and aborting early would make the set of side effects (none
/// for pure `f`, but wall time and logs for instrumented ones) depend on
/// scheduling.
///
/// # Errors
///
/// Returns the error produced at the smallest index for which `f` failed.
pub fn try_par_map<T, E, F>(threads: usize, total: usize, f: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    try_par_map_in(&Telemetry::off(), threads, total, f)
}

/// [`try_par_map`] with telemetry, instrumented like [`par_map_in`].
///
/// # Errors
///
/// Returns the error produced at the smallest index for which `f` failed.
pub fn try_par_map_in<T, E, F>(
    telemetry: &Telemetry,
    threads: usize,
    total: usize,
    f: F,
) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let mut out = Vec::with_capacity(total);
    for result in par_map_in(telemetry, threads, total, f) {
        out.push(result?);
    }
    Ok(out)
}

/// Forks `world` once per seed and evaluates each fork in a fan-out.
///
/// The canonical fork-evaluation primitive behind valency estimation. The
/// paused `world` is condensed once into a copy-on-write
/// [`WorldSnapshot`](crate::WorldSnapshot) (bounded at `horizon` rounds
/// past the pause point), every worker forks the snapshot with `seeds[i]`
/// — sharing the config and recycling round scratch through the
/// snapshot's pool instead of deep-cloning per fork — and `eval` consumes
/// the fork. Per the [module contract](self), results are identical for
/// every `threads` value.
///
/// # Errors
///
/// Returns the error of the lowest failing index.
pub fn fork_eval<P, T, E, F>(
    world: &World<P>,
    threads: usize,
    seeds: &[u64],
    horizon: u32,
    eval: F,
) -> Result<Vec<T>, E>
where
    P: Process + Clone + Send + Sync,
    P::Msg: Send + Sync,
    T: Send,
    E: Send,
    F: Fn(usize, World<P>) -> Result<T, E> + Sync,
{
    // Worker attribution comes from the parent world's handle; the forks
    // themselves are detached (see `World::fork`).
    let snapshot = world.snapshot_bounded(horizon);
    try_par_map_in(world.telemetry(), threads, seeds.len(), |i| {
        eval(i, snapshot.fork(seeds[i]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::Echo;
    use crate::{Bit, Passive, SimConfig};

    #[test]
    fn par_map_matches_serial_for_any_thread_count() {
        let serial: Vec<u64> = (0..97).map(|i| (i as u64).wrapping_mul(0x9E37)).collect();
        for threads in [1, 2, 3, 8, 64, 97, 200] {
            let parallel = par_map(threads, 97, |i| (i as u64).wrapping_mul(0x9E37));
            assert_eq!(parallel, serial, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_handles_degenerate_sizes() {
        assert_eq!(par_map(8, 0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map(8, 1, |i| i), vec![0]);
        assert_eq!(par_map(0, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn try_par_map_reports_lowest_failing_index() {
        for threads in [1, 2, 8] {
            let r: Result<Vec<usize>, usize> =
                try_par_map(threads, 10, |i| if i % 3 == 2 { Err(i) } else { Ok(i) });
            assert_eq!(r, Err(2), "threads = {threads}");
        }
        let ok: Result<Vec<usize>, usize> = try_par_map(4, 5, Ok);
        assert_eq!(ok, Ok(vec![0, 1, 2, 3, 4]));
    }

    #[test]
    fn par_map_in_is_observe_only_and_attributes_workers() {
        use crate::telemetry::{Telemetry, TelemetryMode};
        let serial: Vec<u64> = (0..40).map(|i| (i as u64) * 3).collect();
        let telemetry = Telemetry::new(TelemetryMode::Spans);
        let instrumented = par_map_in(&telemetry, 4, 40, |i| (i as u64) * 3);
        assert_eq!(instrumented, serial);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("parallel.tasks"), Some(40));
        // Worker spans are attributed to chunk indices, one span per
        // chunk, whatever thread ran it. The chunk count follows the
        // resolve/clamp formula, so compute it rather than hard-coding.
        let expected = resolve_threads(4).min(40usize.div_ceil(MIN_CHUNK));
        let want: Vec<u32> = (0..expected as u32).collect();
        assert_eq!(
            worker_spans(&telemetry),
            want,
            "one span per chunk, chunk-indexed"
        );
        assert!(snap.spans.iter().any(|s| s.name == "parallel.par_map"));
    }

    /// Worker-span chunk indices recorded on `telemetry`, sorted.
    fn worker_spans(telemetry: &Telemetry) -> Vec<u32> {
        let mut workers: Vec<u32> = telemetry
            .snapshot()
            .spans
            .iter()
            .filter(|s| s.name == "parallel.worker")
            .filter_map(|s| s.worker)
            .collect();
        workers.sort_unstable();
        workers
    }

    #[test]
    fn nested_fan_out_runs_inline_and_stays_deterministic() {
        use crate::telemetry::TelemetryMode;
        // Each outer work item fans out again: the inner fan-outs run
        // inline on the outer chunk's thread (one worker-0 span each) with
        // results identical to the serial nested map.
        let inner = Telemetry::new(TelemetryMode::Spans);
        let out = par_map(2, 8, |i| par_map_in(&inner, 2, 8, move |j| i * 8 + j));
        let want: Vec<Vec<usize>> = (0..8)
            .map(|i| (0..8).map(|j| i * 8 + j).collect())
            .collect();
        assert_eq!(out, want);
        assert_eq!(
            worker_spans(&inner),
            vec![0; 8],
            "one inline span per inner fan-out"
        );
        // The flag is scoped to the fan-out: afterwards the caller's own
        // fan-outs split into chunks again.
        let top = Telemetry::new(TelemetryMode::Spans);
        assert_eq!(par_map_in(&top, 2, 8, |i| i), (0..8).collect::<Vec<_>>());
        assert_eq!(worker_spans(&top), vec![0, 1]);
    }

    #[test]
    fn lowest_chunk_panic_propagates_and_next_call_works() {
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            par_map(2, 16, |i| {
                assert!(i != 3 && i != 12, "boom at {i}");
                i
            })
        }));
        let payload = result.expect_err("panic must propagate to the caller");
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert_eq!(message, "boom at 3", "chunk 0's panic wins over chunk 1's");
        // Nothing is left wedged: the next fan-out (at top level again)
        // splits and returns correct results.
        let telemetry = Telemetry::new(crate::telemetry::TelemetryMode::Spans);
        let out = par_map_in(&telemetry, 2, 16, |i| i);
        assert_eq!(out, (0..16).collect::<Vec<_>>());
        assert_eq!(worker_spans(&telemetry), vec![0, 1]);
    }

    #[test]
    fn tiny_batches_collapse_to_one_worker() {
        use crate::telemetry::{Telemetry, TelemetryMode};
        // total ≤ MIN_CHUNK: any thread count runs inline (one worker span,
        // worker 0) and results still match serial.
        for threads in [2, 8, 64] {
            let telemetry = Telemetry::new(TelemetryMode::Spans);
            let out = par_map_in(&telemetry, threads, MIN_CHUNK, |i| i * 7);
            assert_eq!(out, vec![0, 7, 14, 21], "threads = {threads}");
            assert_eq!(
                worker_spans(&telemetry),
                vec![0],
                "threads = {threads}: expected inline run"
            );
        }
        // Just past the threshold: exactly two workers, same results.
        let telemetry = Telemetry::new(TelemetryMode::Spans);
        let out = par_map_in(&telemetry, 64, MIN_CHUNK + 1, |i| i * 7);
        assert_eq!(out, (0..=MIN_CHUNK).map(|i| i * 7).collect::<Vec<_>>());
        assert_eq!(worker_spans(&telemetry), vec![0, 1]);
    }

    #[test]
    fn resolve_threads_contract() {
        let available = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        assert_eq!(resolve_threads(1), 1);
        assert!(resolve_threads(AUTO_THREADS) >= 1);
        assert_eq!(resolve_threads(AUTO_THREADS), available);
        // Explicit requests never exceed the machine (floor 2), and small
        // requests pass through untouched.
        assert_eq!(resolve_threads(usize::MAX), available.max(2));
        assert_eq!(resolve_threads(2), 2);
        assert!(resolve_threads(7) <= 7);
        assert!(resolve_threads(7) <= available.max(2));
    }

    #[test]
    fn fork_eval_is_thread_count_invariant() {
        let world = World::new(SimConfig::new(6).seed(11), |pid| {
            Echo::new(Bit::from(pid.index() % 2 == 0))
        })
        .unwrap();
        let seeds: Vec<u64> = (0..13).map(|i| 1000 + i).collect();
        let run = |threads: usize| -> Vec<Vec<Option<Bit>>> {
            fork_eval(&world, threads, &seeds, 50, |_, mut fork| {
                fork.drive(&mut Passive)?;
                Ok::<_, crate::SimError>(fork.into_report().decisions().to_vec())
            })
            .unwrap()
        };
        let baseline = run(1);
        for threads in [2, 5, 13] {
            assert_eq!(run(threads), baseline, "threads = {threads}");
        }
    }
}
