#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass before merging.
#
#   ./scripts/tier1.sh
#
# Runs the release build, the full test suite, clippy with warnings
# denied, and the formatting check, stopping at the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier1: cargo build --release =="
cargo build --release --workspace

echo "== tier1: cargo test =="
cargo test -q --workspace

echo "== tier1: cargo clippy (-D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier1: cargo fmt --check =="
cargo fmt --all -- --check

echo "== tier1: telemetry smoke test =="
# A spans-mode CLI run must produce a parseable JSONL file containing at
# least one span and one counter event (the layer's end-to-end contract).
telemetry_out="$(mktemp /tmp/synran-telemetry.XXXXXX.jsonl)"
trap 'rm -f "$telemetry_out"' EXIT
./target/release/synran run --protocol synran --n 16 --seed 7 \
    --telemetry spans --telemetry-out "$telemetry_out" >/dev/null
if command -v python3 >/dev/null 2>&1; then
    python3 - "$telemetry_out" <<'EOF'
import json, sys
events = [json.loads(line) for line in open(sys.argv[1])]
kinds = {e["type"] for e in events}
assert "span" in kinds, f"no span events in {kinds}"
assert "counter" in kinds, f"no counter events in {kinds}"
print(f"telemetry JSONL OK: {len(events)} events, kinds {sorted(kinds)}")
EOF
else
    grep -q '"type":"span"' "$telemetry_out" || { echo "no span events"; exit 1; }
    grep -q '"type":"counter"' "$telemetry_out" || { echo "no counter events"; exit 1; }
    echo "telemetry JSONL OK: $(wc -l < "$telemetry_out") events (grep check)"
fi

echo "== tier1: report smoke test =="
# `synran report --check` must accept the artifact the previous step just
# produced (exit 0), render a non-empty folded stack file from it, and
# reject a truncated copy (exit nonzero) — the observability layer's
# end-to-end contract.
./target/release/synran report --check "$telemetry_out" >/dev/null \
    || { echo "report --check rejected a healthy artifact"; exit 1; }
folded_lines="$(./target/release/synran report --format folded "$telemetry_out" | wc -l)"
[ "$folded_lines" -gt 0 ] || { echo "report produced an empty folded stack"; exit 1; }
head -c -20 "$telemetry_out" > "$telemetry_out.cut"
if ./target/release/synran report --check "$telemetry_out.cut" >/dev/null 2>&1; then
    echo "report --check accepted a truncated artifact"
    rm -f "$telemetry_out.cut"
    exit 1
fi
rm -f "$telemetry_out.cut"
echo "report smoke OK: healthy artifact passes --check ($folded_lines folded stacks), truncated copy rejected"

echo "== tier1: bench gate smoke test =="
# The perf-regression gate must pass every committed BENCH_*.json baseline
# against itself and detect a synthetic 1.5x slowdown (see
# scripts/bench_gate.sh for the full fresh-run mode).
./scripts/bench_gate.sh --smoke

echo "== tier1: bit-plane delivery smoke test =="
# The plane fast path must beat the scalar pair path and stay
# byte-identical to the scalarized oracle at threads 1, 2, and 8 (the
# binary asserts both and exits non-zero on divergence).
plane_out="$(mktemp /tmp/synran-bench-plane.XXXXXX.json)"
trap 'rm -f "$telemetry_out" "$plane_out"' EXIT
./target/release/bench_plane --smoke --out "$plane_out" >/dev/null
grep -q '"identical": true' "$plane_out" \
    || { echo "plane/scalar differential failed"; exit 1; }
echo "bit-plane smoke OK: plane path identical to scalar oracle"

echo "== tier1: parallel fan-out smoke test =="
# The scoped-thread fan-out must stay byte-identical to serial at
# threads 1, 2, and 8 on every row (valency estimation, seed batches,
# tiny batches); the binary asserts it and exits non-zero on violation.
# Run in a scratch dir so the smoke artifacts never clobber the repo
# baselines.
parallel_dir="$(mktemp -d /tmp/synran-bench-parallel.XXXXXX)"
trap 'rm -f "$telemetry_out" "$plane_out"; rm -rf "$parallel_dir"' EXIT
(cd "$parallel_dir" && "$OLDPWD/target/release/bench_parallel" --smoke --out parallel.json >/dev/null)
rows="$(grep -c '"group"' "$parallel_dir/parallel.json")"
matches="$(grep -c '"identical": true' "$parallel_dir/parallel.json")"
[ "$rows" -gt 0 ] && [ "$rows" -eq "$matches" ] \
    || { echo "parallel differential failed: $matches/$rows rows identical"; exit 1; }
echo "parallel smoke OK: $rows/$rows rows identical at threads {1,2,8}"

echo "== tier1: campaign smoke test =="
# End-to-end contract of the campaign engine: run a small grid campaign,
# simulate a crash by truncating the journal mid-file, resume at a
# different thread count, and require byte-identical rendered output.
campaign_dir="$(mktemp -d /tmp/synran-campaign.XXXXXX)"
trap 'rm -f "$telemetry_out" "$plane_out"; rm -rf "$parallel_dir" "$campaign_dir"' EXIT
cat > "$campaign_dir/smoke.campaign" <<'EOF'
campaign  = smoke
adversary = balancer
runs      = 3
seed      = 5
sweep n   = 8,10
sweep t   = half,max
EOF
(cd "$campaign_dir" && "$OLDPWD/target/release/synran" campaign run smoke.campaign \
    --threads 1 > serial.txt 2>/dev/null)
journal="$campaign_dir/results/smoke.journal.jsonl"
[ -s "$journal" ] || { echo "campaign journal missing"; exit 1; }
# Keep the header plus two cell lines, cutting the last kept line in half
# (a kill mid-append), then resume on all cores.
head -n 3 "$journal" | head -c -40 > "$journal.cut" && mv "$journal.cut" "$journal"
(cd "$campaign_dir" && "$OLDPWD/target/release/synran" campaign resume smoke.campaign \
    --threads 0 > resumed.txt 2>/dev/null)
diff "$campaign_dir/serial.txt" "$campaign_dir/resumed.txt" \
    || { echo "resumed campaign output diverged"; exit 1; }
# Capture status rather than piping it: grep -q closes the pipe early,
# which under pipefail turns the writer's SIGPIPE into a failure.
status_out="$("./target/release/synran" campaign status "$campaign_dir/smoke.campaign" \
    --results-dir "$campaign_dir/results")"
grep -q "0 pending" <<< "$status_out" \
    || { echo "campaign status shows pending cells after resume"; exit 1; }
echo "campaign resume OK: serial and resumed output byte-identical"

echo "== tier1: committed journals regenerate =="
# Every shipped campaign must regenerate its committed journal byte for
# byte. `--results-dir` takes the telemetry artifact as well as the
# journal, so a run from a scratch working directory must leave nothing
# in that directory's own ./results.
journal_dir="$(mktemp -d /tmp/synran-journals.XXXXXX)"
trap 'rm -f "$telemetry_out" "$plane_out"; rm -rf "$parallel_dir" "$campaign_dir" "$journal_dir"' EXIT
synran_bin="$PWD/target/release/synran"
for name in e3 e4 e6 e7; do
    (cd "$journal_dir" && "$synran_bin" campaign run "$OLDPWD/campaigns/$name.campaign" \
        --fresh --results-dir fresh >/dev/null 2>&1)
    cmp "$journal_dir/fresh/$name.journal.jsonl" "results/$name.journal.jsonl" \
        || { echo "$name journal no longer matches results/$name.journal.jsonl"; exit 1; }
done
[ ! -e "$journal_dir/results" ] \
    || { echo "a campaign wrote outside its --results-dir"; exit 1; }
echo "journal regeneration OK: e3, e4, e6, e7 byte-identical to results/"

echo "== tier1: OK =="
