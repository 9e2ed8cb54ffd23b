#!/usr/bin/env bash
# Golden-output check: run every figure, table and ablation bench at
# --scale=0.5 --jobs=4 with one shared capture directory and compare
# each stdout byte for byte with tests/golden/scale0.5/<bench>.txt.
# The goldens pin the study's results, so a refactor that must not
# change them is checked against recorded outputs rather than against
# another path through the same code.  Each bench's wall time goes to
# stderr.
#
# Usage: scripts/check_goldens.sh [--record] [build-dir]
#   --record  rewrite the golden files instead of comparing
set -euo pipefail

cd "$(dirname "$0")/.."
record=0
if [ "${1:-}" = "--record" ]; then
    record=1
    shift
fi
prefix="${1:-build}"
golden=tests/golden/scale0.5
benches=(table1_workloads fig2_shared_hits fig3_sharer_histogram
         fig4_rw_sharing fig5_policy_comparison fig6_sharing_awareness
         fig7_oracle fig8_predictors ablation_capacity
         ablation_oracle_variant ablation_predictor_size
         ablation_prefetch ablation_protection ablation_threads
         ablation_window)

workdir="$(mktemp -d)"
trap 'rm -rf "${workdir}"' EXIT
mkdir -p "${golden}"
failed=0
for bench in "${benches[@]}"; do
    start=$(date +%s%N)
    "${prefix}/bench/${bench}" --scale=0.5 --jobs=4 \
        --capture-dir="${workdir}/captures" > "${workdir}/${bench}.txt"
    ms=$(( ($(date +%s%N) - start) / 1000000 ))
    printf '%-26s %4d.%02d s\n' "${bench}" $(( ms / 1000 )) \
        $(( ms % 1000 / 10 )) >&2
    if [ "${record}" = 1 ]; then
        cp "${workdir}/${bench}.txt" "${golden}/${bench}.txt"
    elif ! cmp -s "${golden}/${bench}.txt" "${workdir}/${bench}.txt"; then
        echo "FATAL: ${bench} differs from ${golden}/${bench}.txt" >&2
        diff "${golden}/${bench}.txt" "${workdir}/${bench}.txt" >&2 || true
        failed=1
    fi
done
[ "${failed}" = 0 ] || exit 1
if [ "${record}" = 1 ]; then
    echo "recorded ${#benches[@]} goldens in ${golden}"
else
    echo "all ${#benches[@]} bench outputs match ${golden}"
fi
