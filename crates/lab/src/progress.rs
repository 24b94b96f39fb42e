//! Opt-in live progress for campaign runs.
//!
//! The engine's wave fold is deterministic and serial; a [`ProgressSink`]
//! hooks into it to emit a [`Heartbeat`] every N completed cells. The
//! hook is strictly **observe-only**: heartbeats go to stderr (or a test
//! buffer), never into results, journals, or stdout, and attaching one
//! cannot change a single byte of campaign output — pinned by
//! `progress_is_observe_only` in the engine tests.

/// One progress sample, emitted from the engine's serial fold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Heartbeat {
    /// Cells resolved so far in this run (executed + cache hits).
    pub done: usize,
    /// Cells in the run.
    pub total: usize,
    /// Cache misses executed so far in this run.
    pub executed: usize,
    /// Cells answered from the cache so far in this run.
    pub cache_hits: usize,
    /// Resolution rate since the run started, cells per second.
    pub cells_per_sec: f64,
    /// Naive remaining-time estimate, seconds (`0.0` when done or when
    /// the rate is still unmeasurable).
    pub eta_secs: f64,
}

impl Heartbeat {
    /// Percent complete, `0.0..=100.0` (100 for an empty run).
    #[must_use]
    pub fn percent(&self) -> f64 {
        if self.total == 0 {
            return 100.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.done as f64 * 100.0 / self.total as f64
        }
    }

    /// The standard one-line rendering used by [`StderrProgress`].
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "[{:5.1}%] {}/{} cells ({} run, {} cached) | {:.1} cells/s | eta {:.0}s",
            self.percent(),
            self.done,
            self.total,
            self.executed,
            self.cache_hits,
            self.cells_per_sec,
            self.eta_secs,
        )
    }
}

/// Where heartbeats go. `Debug` is required so an engine holding a boxed
/// sink stays debuggable.
pub trait ProgressSink: std::fmt::Debug {
    /// Receives one heartbeat.
    fn heartbeat(&mut self, beat: &Heartbeat);
}

/// The production sink: one [`Heartbeat::render`] line per heartbeat on
/// stderr, leaving stdout (tables, reports) untouched.
#[derive(Debug, Default, Clone, Copy)]
pub struct StderrProgress;

impl ProgressSink for StderrProgress {
    fn heartbeat(&mut self, beat: &Heartbeat) {
        eprintln!("{}", beat.render());
    }
}

/// A sink that keeps every heartbeat in memory (tests).
#[derive(Debug, Default)]
pub struct MemoryProgress {
    /// Heartbeats in emission order.
    pub beats: Vec<Heartbeat>,
}

impl ProgressSink for MemoryProgress {
    fn heartbeat(&mut self, beat: &Heartbeat) {
        self.beats.push(*beat);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_and_render() {
        let beat = Heartbeat {
            done: 3,
            total: 12,
            executed: 2,
            cache_hits: 1,
            cells_per_sec: 150.0,
            eta_secs: 0.06,
        };
        assert!((beat.percent() - 25.0).abs() < 1e-9);
        let line = beat.render();
        assert!(line.contains("3/12 cells"));
        assert!(line.contains("2 run, 1 cached"));

        let empty = Heartbeat {
            done: 0,
            total: 0,
            executed: 0,
            cache_hits: 0,
            cells_per_sec: 0.0,
            eta_secs: 0.0,
        };
        assert!((empty.percent() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn memory_sink_records() {
        let mut sink = MemoryProgress::default();
        let beat = Heartbeat {
            done: 1,
            total: 2,
            executed: 1,
            cache_hits: 0,
            cells_per_sec: 1.0,
            eta_secs: 1.0,
        };
        sink.heartbeat(&beat);
        assert_eq!(sink.beats.len(), 1);
        assert_eq!(sink.beats[0].done, 1);
    }
}
