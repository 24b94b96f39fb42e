#!/usr/bin/env bash
# Perf-regression gate over the committed BENCH_*.json baselines.
#
#   ./scripts/bench_gate.sh --smoke    no fresh benchmark: self-compare the
#                                      committed baselines (must pass), then
#                                      compare against a synthetically
#                                      regressed copy (must fail) — proves
#                                      the gate has teeth without timing
#                                      flakiness (this is what tier1 runs)
#
# The fresh-run full mode moved to scripts/nightly.sh, which re-runs
# bench_parallel and bench_lab and gates them against their baselines.
#
# Tolerance comes from BENCH_GATE_MAX_REGRESS (percent, default 25): a
# time-like metric (any *_ms / *_ns) more than that far above its baseline
# fails the gate, as does a baseline `true` boolean (identical) turning
# false or a metric disappearing.
set -euo pipefail
cd "$(dirname "$0")/.."

max_regress="${BENCH_GATE_MAX_REGRESS:-25}"
gate="./target/release/bench_gate"
if [ ! -x "$gate" ]; then
    cargo build --release -q -p synran-bench --bin bench_gate
fi

scratch="$(mktemp -d /tmp/synran-bench-gate.XXXXXX)"
trap 'rm -rf "$scratch"' EXIT

if [ "${1:-}" = "--smoke" ]; then
    # Positive control: every committed baseline must pass against itself.
    for baseline in BENCH_*.json; do
        [ -e "$baseline" ] || { echo "no BENCH_*.json baselines found"; exit 1; }
        "$gate" compare "$baseline" "$baseline" --max-regress "$max_regress" >/dev/null \
            || { echo "gate smoke FAILED: $baseline does not pass against itself"; exit 1; }
    done
    # Negative control: a 1.5x-slower copy must fail.
    "$gate" scale BENCH_parallel.json "$scratch/regressed.json" 1.5 >/dev/null
    if "$gate" compare BENCH_parallel.json "$scratch/regressed.json" \
        --max-regress "$max_regress" >/dev/null 2>&1; then
        echo "gate smoke FAILED: synthetic 1.5x regression was not detected"
        exit 1
    fi
    echo "bench gate smoke OK: baselines self-pass, synthetic regression detected"
    exit 0
fi

echo "bench_gate.sh now only runs --smoke; the fresh-run mode moved to ./scripts/nightly.sh" >&2
exit 2
