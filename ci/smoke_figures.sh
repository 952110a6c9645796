#!/usr/bin/env bash
# Registry-wide figure smoke, shared by .github/workflows/ci.yml and
# ci/run_ci.sh so the two paths cannot diverge: enumerate the figure
# registry, assert the expected entry count, reproduce every figure at
# --smoke on 4 threads and again on 1 thread, and require each CSV
# artifact to be bit-identical across the two runs (the sweep runner's
# determinism contract).
#
# usage: smoke_figures.sh <leakyhammer-binary> <output-dir>
#   EXPECTED_FIGURES   override the asserted registry size (default 28)
set -euo pipefail

BIN="${1:?usage: smoke_figures.sh <leakyhammer-binary> <output-dir>}"
OUT="${2:?usage: smoke_figures.sh <leakyhammer-binary> <output-dir>}"
EXPECTED_FIGURES="${EXPECTED_FIGURES:-28}"

mapfile -t figures < <("$BIN" list --names)
echo "figure registry: ${#figures[@]} entries"
if [ "${#figures[@]}" -ne "$EXPECTED_FIGURES" ]; then
    echo "error: expected $EXPECTED_FIGURES registered figures, found" \
         "${#figures[@]} (update EXPECTED_FIGURES when adding one)" >&2
    exit 1
fi

# Fresh output dirs: a stale CSV from a renamed figure would otherwise
# trip the artifact-count check below with a misleading message.
rm -rf "$OUT/parallel" "$OUT/serial"
mkdir -p "$OUT/parallel" "$OUT/serial"
for figure in "${figures[@]}"; do
    "$BIN" repro --fig "$figure" --smoke --threads 4 \
        --out "$OUT/parallel"
    "$BIN" repro --fig "$figure" --smoke --threads 1 \
        --out "$OUT/serial" > /dev/null
done

csvs=("$OUT"/parallel/*.csv)
if [ "${#csvs[@]}" -ne "$EXPECTED_FIGURES" ]; then
    echo "error: expected $EXPECTED_FIGURES CSV artifacts, found" \
         "${#csvs[@]}" >&2
    exit 1
fi
for csv in "${csvs[@]}"; do
    cmp "$csv" "$OUT/serial/$(basename "$csv")"
done
echo "all ${#figures[@]} figure CSVs bit-identical across thread counts"
