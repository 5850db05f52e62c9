#!/usr/bin/env bash
# Perf smoke: the two regressions this repo has actually shipped, turned
# into cheap CI assertions.
#
#   1. The parallel path must be *faster* than the baseline it replaced:
#      epoch/hogbatch_2threads < epoch/hogwild_2threads.
#   2. SIMD must never lose to scalar on the wire codec: every `wire/*`
#      bench's scalar/simd speedup must be >= GW2V_WIRE_MIN_SPEEDUP.
#      Both backends bottom out in the same memcpy on the SoA layout, so
#      healthy runs sit at 1.0–1.7x with a few percent of run-to-run
#      jitter; the default floor of 0.9 tolerates that jitter while
#      still catching a real kernel regression (the interleaved-layout
#      bug this guards against measured 0.64x).
#   3. The compressed codecs must actually pay for themselves: every
#      `wire/delta_*` and `wire/quant_*` bench must hit
#      GW2V_QUANT_MIN_SPEEDUP (default 1.0) vs forced-scalar — these
#      kernels do real arithmetic (bit-compare scatter, u8 quantize),
#      so SIMD losing to scalar means the dispatch table regressed.
#      Healthy runs: delta ~1.1x, quant encode ~8x.
#   4. Compressed payloads must stay ordered on a repeat-heavy Naive
#      workload: delta < classic total bytes, pinned by the
#      `conformance_naive_wire_bytes_ordering` test.
#
# Parses the vendored criterion stub's output:
#   BENCH_RESULT\t<group>/<id>\t<ns_per_iter>\t<iters>
set -euo pipefail

cd "$(dirname "$0")/.."

MIN_SPEEDUP="${GW2V_WIRE_MIN_SPEEDUP:-0.9}"
QUANT_MIN_SPEEDUP="${GW2V_QUANT_MIN_SPEEDUP:-1.0}"

echo "building benches (release)..." >&2
cargo build --release --benches -q

bench() { # $1 = bench name, $2 = GW2V_FORCE_SCALAR value
    GW2V_FORCE_SCALAR="$2" cargo bench -q -p gw2v-bench --bench "$1" 2>/dev/null |
        grep -a $'^BENCH_RESULT\t'
}

echo "running epoch benches (dispatched)..." >&2
EPOCH="$(bench epoch_end_to_end 0)"
HB="$(awk -F'\t' '$2 == "epoch/hogbatch_2threads" { print $3 }' <<<"$EPOCH")"
HW="$(awk -F'\t' '$2 == "epoch/hogwild_2threads" { print $3 }' <<<"$EPOCH")"
awk -v hb="$HB" -v hw="$HW" 'BEGIN {
    if (hb + 0 <= 0 || hw + 0 <= 0) {
        print "FAIL: missing epoch/hogbatch_2threads or epoch/hogwild_2threads"
        exit 1
    }
    printf "epoch/hogbatch_2threads %.1f ms vs epoch/hogwild_2threads %.1f ms (%.2fx)\n", \
        hb / 1e6, hw / 1e6, hw / hb
    if (hb >= hw) {
        print "FAIL: hogbatch_2threads is not faster than hogwild_2threads"
        exit 1
    }
}'

echo "running wire benches (dispatched + forced-scalar)..." >&2
SIMD_TSV="$(mktemp)"
SCALAR_TSV="$(mktemp)"
trap 'rm -f "$SIMD_TSV" "$SCALAR_TSV"' EXIT
bench sync_plans 0 | awk -F'\t' '$2 ~ /^wire\// { print $2 "\t" $3 }' >"$SIMD_TSV"
bench sync_plans 1 | awk -F'\t' '$2 ~ /^wire\// { print $2 "\t" $3 }' >"$SCALAR_TSV"

awk -F'\t' -v min="$MIN_SPEEDUP" -v qmin="$QUANT_MIN_SPEEDUP" '
    FNR == 1 { file++ }
    file == 1 { simd[$1] = $2; order[++n] = $1 }
    file == 2 { scalar[$1] = $2 }
    END {
        if (n == 0) { print "FAIL: no wire/* benches found"; exit 1 }
        seen_compressed = 0
        bad = 0
        for (i = 1; i <= n; i++) {
            id = order[i]
            floor = min
            if (id ~ /^wire\/(delta|quant)_/) { floor = qmin; seen_compressed++ }
            sp = (simd[id] > 0) ? scalar[id] / simd[id] : 0
            verdict = (sp >= floor) ? "ok" : "FAIL"
            if (sp < floor) bad++
            printf "%-28s scalar %10.1f ns  simd %10.1f ns  speedup %.3f  floor %.2f  %s\n", \
                id, scalar[id], simd[id], sp, floor, verdict
        }
        if (seen_compressed < 4) {
            printf "FAIL: expected 4 wire/delta_* + wire/quant_* benches, found %d\n", \
                seen_compressed
            exit 1
        }
        if (bad > 0) {
            print "FAIL: " bad " wire bench(es) below their speedup floor"
            exit 1
        }
    }
' "$SIMD_TSV" "$SCALAR_TSV"

echo "running wire byte-ordering assertion (delta < classic, Naive plan)..." >&2
cargo test --release -q -p graph-word2vec --test conformance \
    conformance_naive_wire_bytes_ordering

echo "perf smoke passed" >&2
