#!/usr/bin/env bash
# Tier-1 verification: the standard build + full test suite, the
# scale-0.5 golden outputs of every study bench, a ThreadSanitizer +
# CASIM_PARANOID build running the parallel-runner and
# capture-cache tests to catch data races and tag-store inconsistencies,
# a cold-then-warm capture-cache replay whose outputs must match byte
# for byte, and machine-readable result emission (--stats-out /
# --format=json) validated against docs/stats_schema.md with the JSON
# tables cross-checked cell-exact against the text output.
#
# Usage: scripts/tier1.sh [build-dir-prefix]
set -euo pipefail

cd "$(dirname "$0")/.."
prefix="${1:-build}"

echo "== tier-1: standard build + ctest =="
cmake -B "${prefix}" -S . >/dev/null
cmake --build "${prefix}" -j
ctest --test-dir "${prefix}" --output-on-failure -j

echo "== tier-1: scale-0.5 golden outputs, byte for byte =="
scripts/check_goldens.sh "${prefix}"

echo "== tier-1: TSan + paranoid build, parallel/capture tests =="
cmake -B "${prefix}-tsan" -S . -DCASIM_SANITIZE=thread \
      -DCASIM_PARANOID=ON >/dev/null
cmake --build "${prefix}-tsan" -j --target casim_tests
# Under CASIM_PARANOID every lookup of the Cache/StreamSim/ShardedSim
# replay tests re-runs the scalar kernels behind the vector ones in
# Cache::findWay / LruBase::victim; Simd* checks the kernels
# directly.  Cache/StreamSim/Experiment/HierarchySim/LeanReplay run
# the paranoid tag-store checks (pad lanes, empty ways, dirty within
# valid) with and without StreamSim's residency record.
# PolicyDispatch replays every policy through the statically
# dispatched loop and through virtual calls with the same checks on.
# FilterReference replays the mask-based sharing-aware filter beside a
# byte-array reference copy, ReferenceResidency checks the reported
# residencies against an independent LRU model, ReferenceInsertion
# checks DIP/TADIP-F's stamps (and the SIMD argmin under them) against
# an explicit recency list, ReferenceLabel checks the label planes and
# the scan oracle (over the paranoid-checked grouping) against a
# labeler that reads only the raw stream, LeanTraining checks
# predictor training from them, and TagRange checks the 32-bit
# block-number rule of the tag store.
# Request/Queue/Daemon cover the experiment-service paths (queue
# batching, daemon connection threads over socketpairs); the death
# tests are excluded because fork-style death tests are unreliable
# under TSan.
"${prefix}-tsan"/tests/casim_tests \
    --gtest_filter='ParallelRunner.*:CaptureCache.*:CaptureBundle.*:LabelPlane*.*:Cache.*:CacheGeometry.*:StreamSim*.*:Experiment.*:HierarchySim.*:LeanReplay.*:PolicyDispatch.*:FilterReference.*:ReferenceResidency.*:ReferenceInsertion.*:ReferenceLabel.*:LeanTraining.*:TagRange.*:ShardedSim.*:StatMerge.*:Simd*.*:Request.*:Queue.*:Daemon.*-Request.RequireValidIsFatalWithTheValidateMessage:Queue.InvalidRequestIsFatalWithTheFieldName:Daemon.DecodeResponseDocumentIsFatalOnErrorReply'

echo "== tier-1: cold vs warm capture cache, byte-identical output =="
capdir="$(mktemp -d)"
trap 'rm -rf "${capdir}"' EXIT
bench="${prefix}/bench/fig6_sharing_awareness"
"${bench}" --scale=0.05 --capture-dir="${capdir}/cache" \
    > "${capdir}/cold.txt"
"${bench}" --scale=0.05 --capture-dir="${capdir}/cache" \
    > "${capdir}/warm.txt"
if ! cmp -s "${capdir}/cold.txt" "${capdir}/warm.txt"; then
    echo "FATAL: warm capture-cache output differs from cold" >&2
    diff "${capdir}/cold.txt" "${capdir}/warm.txt" >&2 || true
    exit 1
fi
echo "cold/warm outputs identical"

echo "== tier-1: oracle label planes match the per-fill scan =="
# The precomputed label planes must be a pure lookup-table rewrite of
# the scan oracle: fig7's text output has to be byte-identical with the
# planes disabled (CASIM_NO_LABEL_PLANES forces the old scan path).  The
# planes sweep a transient per-block grouping; the scan looks blocks up
# in the retained slices through the block table.  ReferenceLabel.*
# checks both against a labeler that never builds an index.
fig7="${prefix}/bench/fig7_oracle"
"${fig7}" --scale=0.05 --capture-dir="${capdir}/cache" \
    > "${capdir}/fig7_plane.txt"
CASIM_NO_LABEL_PLANES=1 "${fig7}" --scale=0.05 \
    --capture-dir="${capdir}/cache" > "${capdir}/fig7_scan.txt"
if ! cmp -s "${capdir}/fig7_plane.txt" "${capdir}/fig7_scan.txt"; then
    echo "FATAL: label-plane fig7 output differs from scan oracle" >&2
    diff "${capdir}/fig7_plane.txt" "${capdir}/fig7_scan.txt" >&2 || true
    exit 1
fi
echo "plane/scan fig7 outputs identical"

echo "== tier-1: mmap'd trace substrate, zero-deserialization warm start =="
# The CCAP v4 substrate: a cold fig7 run persists v4 bundles, and the
# warm repeat must (a) be byte-identical, (b) perform zero bundle
# deserialization (everything arrives through mmap), and (c) match a
# CASIM_NO_MMAP=1 run, which reads the bundles into memory, byte for
# byte.  The capture
# caches above ran at scale 0.05; this block re-runs fig7 at scale 0.2
# so the substrate is exercised on the full acceptance workload.
subdir="${capdir}/substrate-cache"
fig7_sub() { "${fig7}" --scale=0.2 --capture-dir="${subdir}" "$@"; }
fig7_sub --stats-out="${capdir}/sub_cold.json" > "${capdir}/sub_cold.txt"
fig7_sub --stats-out="${capdir}/sub_warm.json" > "${capdir}/sub_warm.txt"
CASIM_NO_MMAP=1 "${fig7}" --scale=0.2 --capture-dir="${subdir}" \
    --stats-out="${capdir}/sub_nommap.json" > "${capdir}/sub_nommap.txt"
for variant in warm nommap; do
    if ! cmp -s "${capdir}/sub_cold.txt" "${capdir}/sub_${variant}.txt"
    then
        echo "FATAL: ${variant} substrate fig7 differs from cold" >&2
        diff "${capdir}/sub_cold.txt" "${capdir}/sub_${variant}.txt" \
            >&2 || true
        exit 1
    fi
done
stat_counter() {
    python3 -c "import json, sys
doc = json.load(open(sys.argv[1]))
name = sys.argv[2]
print(doc['stats'][name.split('.')[0]][name]['value'])" "$1" "$2"
}
warm_maps=$(stat_counter "${capdir}/sub_warm.json" \
    capture_cache.mmap_maps)
warm_bytes=$(stat_counter "${capdir}/sub_warm.json" \
    capture_cache.bytes_mapped)
warm_deser=$(stat_counter "${capdir}/sub_warm.json" \
    capture_cache.deserialized)
if [ "${CASIM_NO_MMAP:-}" = "" ]; then
    if [ "${warm_maps}" -lt 1 ] || [ "${warm_bytes}" -le 0 ] ||
       [ "${warm_deser}" -ne 0 ]; then
        echo "FATAL: warm start was not zero-deserialization" \
            "(mmap_maps=${warm_maps} bytes_mapped=${warm_bytes}" \
            "deserialized=${warm_deser})" >&2
        exit 1
    fi
else
    # The no-mmap CI job: every warm load must read its bundle in
    # instead of mapping it.
    if [ "${warm_maps}" -ne 0 ] || [ "${warm_deser}" -lt 1 ]; then
        echo "FATAL: CASIM_NO_MMAP warm start still mapped bundles" \
            "(mmap_maps=${warm_maps} deserialized=${warm_deser})" >&2
        exit 1
    fi
fi
nommap_deser=$(stat_counter "${capdir}/sub_nommap.json" \
    capture_cache.deserialized)
if [ "${nommap_deser}" -lt 1 ]; then
    echo "FATAL: CASIM_NO_MMAP run did not take the fallback path" >&2
    exit 1
fi
echo "warm start: ${warm_maps} bundles mapped (${warm_bytes} bytes)," \
    "zero deserialization"

echo "== tier-1: out-of-core replay stays under the RSS budget =="
# A trace 4x the RSS budget must replay with flat memory through the
# mapped view's streaming pager; warm_start_bench --replay fails on a
# budget violation by itself.
wsb="${prefix}/bench/warm_start_bench"
"${wsb}" --write --out="${capdir}/oocore.ccap" --mb=128
"${wsb}" --replay --in="${capdir}/oocore.ccap" --budget-mb=32 \
    | tee "${capdir}/oocore.json"
echo "out-of-core replay within budget"

echo "== tier-1: example_trace_tool round trip through a bundle file =="
# capture -> info -> replay through one saved .llc bundle; info and
# replay must read the same with the bundle mapped and read in, and a
# truncated file must fail with a one-line diagnostic, not a crash.
tool="${prefix}/examples/example_trace_tool"
llc="${capdir}/canneal.llc"
"${tool}" capture --workload=canneal --out="${llc}" --scale=0.05 \
    > "${capdir}/tool_capture.txt"
"${tool}" info --in="${llc}" > "${capdir}/tool_info_default.txt"
"${tool}" replay --in="${llc}" --policy=lru \
    > "${capdir}/tool_replay_default.txt"
CASIM_NO_MMAP=1 "${tool}" info --in="${llc}" \
    > "${capdir}/tool_info_nommap.txt"
CASIM_NO_MMAP=1 "${tool}" replay --in="${llc}" --policy=lru \
    > "${capdir}/tool_replay_nommap.txt"
for mode in info replay; do
    if ! cmp -s "${capdir}/tool_${mode}_default.txt" \
            "${capdir}/tool_${mode}_nommap.txt"; then
        echo "FATAL: trace tool ${mode} differs under CASIM_NO_MMAP" >&2
        diff "${capdir}/tool_${mode}_default.txt" \
            "${capdir}/tool_${mode}_nommap.txt" >&2 || true
        exit 1
    fi
done
head -c $(( $(wc -c < "${llc}") / 2 )) "${llc}" > "${capdir}/cut.llc"
if "${tool}" info --in="${capdir}/cut.llc" > /dev/null \
        2> "${capdir}/tool_cut.err"; then
    echo "FATAL: trace tool accepted a truncated bundle" >&2
    exit 1
fi
if [ "$(wc -l < "${capdir}/tool_cut.err")" -ne 1 ]; then
    echo "FATAL: truncated bundle did not give a one-line diagnostic" >&2
    cat "${capdir}/tool_cut.err" >&2
    exit 1
fi
echo "trace tool: info/replay identical mapped and read in;" \
    "truncated file rejected: $(cat "${capdir}/tool_cut.err")"

echo "== tier-1: SIMD is invisible in the output =="
# The vector tag scan is a pure performance change: fig5 must be
# byte-identical with it forced off.
fig5="${prefix}/bench/fig5_policy_comparison"
"${fig5}" --scale=0.05 --jobs=2 --capture-dir="${capdir}/cache" \
    > "${capdir}/fig5_default.txt"
CASIM_NO_SIMD=1 "${fig5}" --scale=0.05 --jobs=2 \
    --capture-dir="${capdir}/cache" > "${capdir}/fig5_scalar.txt"
if ! cmp -s "${capdir}/fig5_default.txt" "${capdir}/fig5_scalar.txt"; then
    echo "FATAL: scalar fig5 output differs from default" >&2
    diff "${capdir}/fig5_default.txt" "${capdir}/fig5_scalar.txt" >&2 || true
    exit 1
fi
echo "scalar fig5 output identical"

echo "== tier-1: JSON result documents match text tables =="
for fig in fig5_policy_comparison fig7_oracle; do
    "${prefix}/bench/${fig}" --scale=0.05 --jobs=2 \
        --capture-dir="${capdir}/cache" \
        --stats-out="${capdir}/${fig}.json" > "${capdir}/${fig}.txt"
    python3 scripts/check_stats_json.py "${capdir}/${fig}.json" \
        --text="${capdir}/${fig}.txt"
done

echo "== tier-1: --shards never changes a bench's output =="
# fig5 at --shards=8 must match the serial run produced by the JSON
# check above exactly.  Its cells run as tasks of the bench's runner,
# so they replay unsharded (sharded_replay.inline_serial); the casimd
# section below sends single cells, which do reach the sharded engine.
"${prefix}/bench/fig5_policy_comparison" --scale=0.05 --jobs=2 \
    --shards=8 --capture-dir="${capdir}/cache" \
    > "${capdir}/fig5_sharded.txt"
if ! cmp -s "${capdir}/fig5_policy_comparison.txt" \
        "${capdir}/fig5_sharded.txt"; then
    echo "FATAL: sharded fig5 output differs from serial" >&2
    diff "${capdir}/fig5_policy_comparison.txt" \
        "${capdir}/fig5_sharded.txt" >&2 || true
    exit 1
fi
echo "--shards=8/serial fig5 outputs identical"

echo "== tier-1: --format=json emits a valid document on stdout =="
"${prefix}/bench/fig5_policy_comparison" --scale=0.05 --jobs=2 \
    --capture-dir="${capdir}/cache" --format=json \
    > "${capdir}/fig5_stdout.json"
python3 scripts/check_stats_json.py "${capdir}/fig5_stdout.json"

echo "== tier-1: casimd daemon matches direct execution byte for byte =="
# A resident casimd serves the same figure benches through --daemon:
# the text output must match the direct runs above exactly, and a warm
# repeat request must be served entirely from the resident capture
# store — zero capture-bundle deserialization, asserted through the
# capture_cache / label_plane counters in the stats op.
sock="${capdir}/casimd.sock"
"${prefix}/src/casimd" --socket="${sock}" \
    --capture-dir="${capdir}/daemon-cache" --jobs=2 \
    --stats-out="${capdir}/casimd_stats.json" &
daemon_pid=$!
for _ in $(seq 1 100); do
    [ -S "${sock}" ] && break
    sleep 0.1
done
[ -S "${sock}" ] || { echo "FATAL: casimd did not listen" >&2; exit 1; }
python3 scripts/casimd_query.py "${sock}" ping >/dev/null

"${prefix}/bench/fig5_policy_comparison" --scale=0.05 --jobs=2 \
    --daemon="${sock}" > "${capdir}/fig5_daemon.txt"
if ! cmp -s "${capdir}/fig5_policy_comparison.txt" \
        "${capdir}/fig5_daemon.txt"; then
    echo "FATAL: fig5 through casimd differs from direct run" >&2
    diff "${capdir}/fig5_policy_comparison.txt" \
        "${capdir}/fig5_daemon.txt" >&2 || true
    exit 1
fi
"${prefix}/bench/fig7_oracle" --scale=0.05 --daemon="${sock}" \
    > "${capdir}/fig7_daemon.txt"
if ! cmp -s "${capdir}/fig7_plane.txt" "${capdir}/fig7_daemon.txt"; then
    echo "FATAL: fig7 through casimd differs from direct run" >&2
    diff "${capdir}/fig7_plane.txt" "${capdir}/fig7_daemon.txt" >&2 \
        || true
    exit 1
fi
echo "fig5/fig7 through casimd identical to direct runs"

counter() { python3 scripts/casimd_query.py "${sock}" counter "$1"; }
deser_before=$(( $(counter capture_cache.hits) \
    + $(counter capture_cache.cold_misses) \
    + $(counter capture_cache.stale_misses) \
    + $(counter capture_cache.corrupt_misses) ))
memo_before=$(counter capture_cache.memo_hits)
plane_builds_before=$(counter label_plane.builds)
plane_memo_before=$(counter label_plane.memo_hits)

"${prefix}/bench/fig7_oracle" --scale=0.05 --daemon="${sock}" \
    > "${capdir}/fig7_daemon_warm.txt"
cmp "${capdir}/fig7_daemon.txt" "${capdir}/fig7_daemon_warm.txt"

deser_after=$(( $(counter capture_cache.hits) \
    + $(counter capture_cache.cold_misses) \
    + $(counter capture_cache.stale_misses) \
    + $(counter capture_cache.corrupt_misses) ))
memo_after=$(counter capture_cache.memo_hits)
plane_builds_after=$(counter label_plane.builds)
plane_memo_after=$(counter label_plane.memo_hits)
if [ "${deser_after}" -ne "${deser_before}" ]; then
    echo "FATAL: warm casimd request deserialized capture bundles" \
        "(${deser_before} -> ${deser_after})" >&2
    exit 1
fi
if [ "${memo_after}" -le "${memo_before}" ]; then
    echo "FATAL: warm casimd request missed the resident captures" >&2
    exit 1
fi
if [ "${plane_builds_after}" -ne "${plane_builds_before}" ] ||
   [ "${plane_memo_after}" -le "${plane_memo_before}" ]; then
    echo "FATAL: warm casimd request rebuilt oracle label planes" \
        "(builds ${plane_builds_before} -> ${plane_builds_after})" >&2
    exit 1
fi
echo "warm casimd request: zero capture deserialization," \
    "memoized label planes"

echo "== tier-1: casimd protocol v2 hello and server-side sweep =="
if ! python3 scripts/casimd_query.py "${sock}" hello \
    | grep -q '\["protocol", "2"\]'; then
    echo "FATAL: casimd hello did not negotiate protocol 2" >&2
    exit 1
fi
sweep_base='{"workload": "canneal", "config": {"threads": 4, "scale": 0.05}}'
sweep_lines=$(python3 scripts/casimd_query.py "${sock}" sweep \
    "${sweep_base}" --policies=lru,srrip | wc -l)
if [ "${sweep_lines}" -ne 3 ]; then
    echo "FATAL: sweep over 2 policies returned ${sweep_lines} lines" \
        "(want header + 2 cells)" >&2
    exit 1
fi
echo "hello negotiated v2; sweep expanded 2 cells"

echo "== tier-1: single casimd cells shard, byte-identical to serial =="
# A single-cell experiment request runs on its connection thread, not
# in a runner task, so at shards=8 its replay fans out on the daemon's
# 2-job pool.  Each per-set-state policy's response must match the
# unsharded one byte for byte, and the sharded engine must have run.
cell_fmt='{"op": "experiment", "request": {"workload": "canneal",'
cell_fmt+=' "policy": "%s", "shards": %s,'
cell_fmt+=' "config": {"threads": 4, "scale": 0.05}}}'
replays_before=$(counter sharded_replay.replays)
for policy in lru srrip nru opt; do
    for shards in 0 8; do
        python3 scripts/casimd_query.py "${sock}" raw \
            "$(printf "${cell_fmt}" "${policy}" "${shards}")" \
            > "${capdir}/cell_${policy}_${shards}.json"
    done
    if grep -q '"error"' "${capdir}/cell_${policy}_0.json" ||
       ! cmp -s "${capdir}/cell_${policy}_0.json" \
            "${capdir}/cell_${policy}_8.json"; then
        echo "FATAL: ${policy} cell at shards=8 differs from serial" >&2
        diff "${capdir}/cell_${policy}_0.json" \
            "${capdir}/cell_${policy}_8.json" >&2 || true
        exit 1
    fi
done
replays_after=$(counter sharded_replay.replays)
if [ "${replays_after}" -ne $(( replays_before + 4 )) ]; then
    echo "FATAL: single cells did not shard" \
        "(sharded_replay.replays ${replays_before} -> ${replays_after})" >&2
    exit 1
fi
echo "lru/srrip/nru/opt cells: shards=8 identical to serial," \
    "4 sharded replays"

echo "== tier-1: concurrent casimd clients, leased captures =="
# Three clients (two fig5, one fig7) hammer one casimd at once: every
# output must still match its direct run byte for byte, the batches
# must actually have overlapped in the queue (concurrent_batches), and
# each capture identity must have been warmed exactly once over the
# daemon's whole life — the lease guarantee: lease_warms equals the
# resident entries as long as nothing was evicted.
"${prefix}/bench/fig5_policy_comparison" --scale=0.05 --jobs=2 \
    --daemon="${sock}" > "${capdir}/fig5_conc_a.txt" &
conc_a=$!
"${prefix}/bench/fig5_policy_comparison" --scale=0.05 --jobs=2 \
    --daemon="${sock}" > "${capdir}/fig5_conc_b.txt" &
conc_b=$!
"${prefix}/bench/fig7_oracle" --scale=0.05 --daemon="${sock}" \
    > "${capdir}/fig7_conc.txt" &
conc_c=$!
wait "${conc_a}" "${conc_b}" "${conc_c}"
cmp "${capdir}/fig5_policy_comparison.txt" "${capdir}/fig5_conc_a.txt"
cmp "${capdir}/fig5_policy_comparison.txt" "${capdir}/fig5_conc_b.txt"
cmp "${capdir}/fig7_plane.txt" "${capdir}/fig7_conc.txt"
concurrent=$(counter queue.concurrent_batches)
lease_warms=$(counter queue.lease_warms)
entries=$(counter resident_store.entries)
evictions=$(counter resident_store.evictions)
if [ "${concurrent}" -le 1 ]; then
    echo "FATAL: concurrent clients never overlapped in the queue" \
        "(queue.concurrent_batches=${concurrent})" >&2
    exit 1
fi
if [ "${evictions}" -ne 0 ] || [ "${lease_warms}" -ne "${entries}" ]
then
    echo "FATAL: capture identities were not warmed exactly once" \
        "(lease_warms=${lease_warms} entries=${entries}" \
        "evictions=${evictions})" >&2
    exit 1
fi
echo "3 concurrent clients byte-identical to direct runs:" \
    "concurrent_batches=${concurrent}," \
    "lease_waits=$(counter queue.lease_waits)," \
    "one warm per identity (${lease_warms})"

kill -TERM "${daemon_pid}"
if ! wait "${daemon_pid}"; then
    echo "FATAL: casimd did not exit cleanly on SIGTERM" >&2
    exit 1
fi
python3 scripts/check_stats_json.py "${capdir}/casimd_stats.json"
echo "casimd drained and flushed stats on SIGTERM"

echo "== tier-1: throughput-bench smoke run =="
# Keeps the microbench binaries and the bench_throughput harness from
# silently bit-rotting; writes its JSON to a temp file, never to
# BENCH_replay.json.
scripts/bench_throughput.sh --smoke "${prefix}"

echo "tier-1 OK"
