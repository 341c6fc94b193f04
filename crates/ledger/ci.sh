#!/usr/bin/env bash
# Seconds-long check of the benchmark itself, for a later PR to wire into
# .github/workflows/ci.yml (this PR may not touch that file):
#
#   1. the crate's own tests — oracle catches dropped/duplicated
#      deliveries, quantile helpers, every emitted name == every name
#      declared in BENCHMARK.json, same seed => same digests and counts;
#   2. the offline shims' own tests (only when building against them);
#   3. a smoke run (scale 0.01) of all four workloads, untraced and
#      traced, which must report failed == 0;
#   4. `ledger compare` of the smoke result with itself (must be all ok).
#
# LEDGER_CARGO_CONFIG selects the dependency source: the default builds
# against the in-tree shims (no network needed); set it to the empty
# string where crates.io is reachable.
set -euo pipefail
cd "$(dirname "$0")/../.."

config="${LEDGER_CARGO_CONFIG-crates/ledger/offline/config.toml}"
cargo_cmd=(cargo)
if [ -n "$config" ]; then
    cargo_cmd+=(--config "$config")
fi

"${cargo_cmd[@]}" test -p subsum-ledger

if [ -n "$config" ]; then
    for shim in rand bytes crossbeam; do
        (cd "crates/ledger/offline/$shim" && cargo test --offline --quiet)
    done
fi

ledger=("${cargo_cmd[@]}" run --release --quiet -p subsum-ledger --bin ledger --)
"${ledger[@]}" --workload all --smoke --trace 0 --out crates/ledger/out/smoke-untraced.json
"${ledger[@]}" --workload all --smoke --trace 1 --out crates/ledger/out/smoke-traced.json
"${ledger[@]}" compare crates/ledger/out/smoke-untraced.json crates/ledger/out/smoke-untraced.json
echo "ledger ci: ok"
