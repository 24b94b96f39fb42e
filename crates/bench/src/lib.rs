//! # synran-bench — experiment harnesses and performance benches
//!
//! One binary per experiment in DESIGN.md's index (E1–E10), each printing
//! the table EXPERIMENTS.md records, plus the in-tree performance benches
//! in `benches/perf.rs` guarding the simulator's speed. This library holds
//! the tiny bits they share: a no-dependency `--key value` argument parser,
//! output helpers, and the [`harness`] timing loop the benches run on.
//! The telemetry-artifact helpers live in [`synran_lab::artifact`] (the
//! campaign presets need them below this crate) and are re-exported here
//! so the binaries keep one import path.
//!
//! Run an experiment with, e.g.:
//!
//! ```text
//! cargo run --release -p synran-bench --bin e4_synran_upper -- --runs 50
//! ```
//!
//! E3, E4, and E7 are thin wrappers over the campaign presets in
//! `synran-lab` — the same tables are reproducible from the specs in
//! `campaigns/` via `synran campaign run`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::str::FromStr;

pub use synran_lab::artifact::{results_telemetry_path, write_telemetry_jsonl};

pub mod gate;
pub mod harness;

/// A minimal `--key value` command-line parser (plus bare `--flag`s).
///
/// The experiment binaries take a handful of numeric knobs; this avoids a
/// CLI dependency. Values may be negative (`--bias -1`): anything that is
/// not itself a `--key` counts as the preceding key's value. A key given
/// twice keeps the last value.
///
/// # Examples
///
/// ```
/// use synran_bench::Args;
///
/// let args = Args::parse(["--runs", "50", "--fast"].map(String::from));
/// assert_eq!(args.get_usize("runs", 10), 50);
/// assert_eq!(args.get_usize("seeds", 7), 7);
/// assert!(args.flag("fast"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses an explicit argument list (without the program name).
    #[must_use]
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Args {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                match iter.peek() {
                    Some(v) if !v.starts_with("--") => {
                        values.insert(key.to_string(), iter.next().expect("peeked"));
                    }
                    _ => flags.push(key.to_string()),
                }
            }
        }
        Args { values, flags }
    }

    /// Parses the process's actual command line.
    #[must_use]
    pub fn from_env() -> Args {
        Args::parse(std::env::args().skip(1))
    }

    /// Parses knob `key` as `T` (`what` names the expected shape in the
    /// error), or returns `default` when the knob is absent.
    fn parsed<T: FromStr>(&self, key: &str, default: T, what: &str) -> Result<T, String> {
        self.values.get(key).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("--{key} expects {what}, got {v:?}"))
        })
    }

    /// [`Args::parsed`], ending the process with an `error:` line on
    /// stderr and exit status 1 when the value does not parse.
    fn parsed_or_exit<T: FromStr>(&self, key: &str, default: T, what: &str) -> T {
        self.parsed(key, default, what).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1)
        })
    }

    /// A `usize` knob with a default. A value that does not parse ends
    /// the process with `error: --<key> expects an integer, …` and exit
    /// status 1.
    #[must_use]
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.parsed_or_exit(key, default, "an integer")
    }

    /// A `u64` knob with a default; a bad value exits like
    /// [`Args::get_usize`].
    #[must_use]
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.parsed_or_exit(key, default, "an integer")
    }

    /// An `i64` knob with a default (negative values welcome: `--bias -2`);
    /// a bad value exits like [`Args::get_usize`].
    #[must_use]
    pub fn get_i64(&self, key: &str, default: i64) -> i64 {
        self.parsed_or_exit(key, default, "an integer")
    }

    /// An `f64` knob with a default; a bad value exits like
    /// [`Args::get_usize`] (`expects a number`).
    #[must_use]
    pub fn get_f64(&self, key: &str, default: f64) -> f64 {
        self.parsed_or_exit(key, default, "a number")
    }

    /// The raw string value of a knob, if present.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Whether a bare `--flag` was passed.
    #[must_use]
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// The `--threads` knob, resolved through the simulator's clamp:
    /// `0` (or absent) means "all available cores", and explicit requests
    /// are capped at the machine's available parallelism (floor 2), so
    /// `--threads 100000` oversubscription cannot start more workers than
    /// the machine can run.
    #[must_use]
    pub fn threads(&self) -> usize {
        synran_sim::parallel::resolve_threads(
            self.get_usize("threads", synran_sim::parallel::AUTO_THREADS),
        )
    }
}

/// Prints an experiment banner with its DESIGN.md id and the claim under
/// test.
pub fn banner(id: &str, claim: &str) {
    println!("=== {id} ===");
    println!("claim: {claim}");
    println!();
}

/// Prints a named section divider.
pub fn section(title: &str) {
    println!();
    println!("--- {title} ---");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pairs_and_flags() {
        let a = Args::parse(["--n", "64", "--verbose", "--seed", "9"].map(String::from));
        assert_eq!(a.get_usize("n", 0), 64);
        assert_eq!(a.get_u64("seed", 0), 9);
        assert!(a.flag("verbose"));
        assert!(!a.flag("quiet"));
    }

    #[test]
    fn defaults_apply() {
        let a = Args::parse(std::iter::empty());
        assert_eq!(a.get_usize("n", 42), 42);
        assert_eq!(a.get_f64("x", 1.5), 1.5);
        assert_eq!(a.get_i64("bias", -7), -7);
        assert_eq!(a.get("anything"), None);
    }

    #[test]
    fn trailing_flag() {
        let a = Args::parse(["--x", "1", "--fast"].map(String::from));
        assert!(a.flag("fast"));
        assert_eq!(a.get_usize("x", 0), 1);
    }

    #[test]
    fn negative_values_are_values_not_flags() {
        let a = Args::parse(["--bias", "-3", "--scale", "-0.5", "--fast"].map(String::from));
        assert_eq!(a.get_i64("bias", 0), -3);
        assert!((a.get_f64("scale", 0.0) - -0.5).abs() < f64::EPSILON);
        assert!(a.flag("fast"));
        assert!(!a.flag("bias"), "-3 consumed as a value, not a flag");
    }

    #[test]
    fn repeated_keys_last_wins() {
        let a = Args::parse(["--runs", "5", "--runs", "9"].map(String::from));
        assert_eq!(a.get_usize("runs", 0), 9);
    }

    #[test]
    fn trailing_bare_flag_with_no_value_is_a_flag() {
        let a = Args::parse(["--fast"].map(String::from));
        assert!(a.flag("fast"));
        assert_eq!(a.get("fast"), None, "no value attached");
    }

    #[test]
    fn flag_followed_by_key_stays_a_flag() {
        let a = Args::parse(["--fast", "--runs", "3"].map(String::from));
        assert!(a.flag("fast"));
        assert_eq!(a.get_usize("runs", 0), 3);
    }

    #[test]
    fn bad_values_are_errors_naming_the_key() {
        let a = Args::parse(["--n", "abc", "--bias", "1.5", "--x", "y"].map(String::from));
        assert_eq!(
            a.parsed::<usize>("n", 0, "an integer"),
            Err("--n expects an integer, got \"abc\"".to_string())
        );
        assert!(a
            .parsed::<i64>("bias", 0, "an integer")
            .unwrap_err()
            .starts_with("--bias expects an integer"));
        assert!(a
            .parsed::<f64>("x", 0.0, "a number")
            .unwrap_err()
            .starts_with("--x expects a number"));
        assert_eq!(a.parsed("absent", 7usize, "an integer"), Ok(7));
    }

    #[test]
    fn threads_zero_resolves_to_available_parallelism() {
        let available = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let a = Args::parse(["--threads", "0"].map(String::from));
        assert_eq!(a.threads(), available, "--threads 0 means auto");
        let absent = Args::parse(std::iter::empty());
        assert_eq!(absent.threads(), available, "absent knob means auto too");
    }

    #[test]
    fn threads_oversubscription_is_clamped_to_the_machine() {
        let available = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let a = Args::parse(["--threads", "100000"].map(String::from));
        assert_eq!(
            a.threads(),
            available.max(2),
            "oversubscription clamps to available cores (floor 2)"
        );
        assert!(a.threads() <= available.max(2));
    }

    #[test]
    fn small_explicit_thread_requests_pass_through() {
        let one = Args::parse(["--threads", "1"].map(String::from));
        assert_eq!(one.threads(), 1, "serial stays serial");
        let two = Args::parse(["--threads", "2"].map(String::from));
        assert_eq!(two.threads(), 2, "within the clamp floor");
    }
}
