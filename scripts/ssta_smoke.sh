#!/bin/sh
# ssta_smoke.sh — full-chip statistical STA gate (the `ssta-smoke` leg
# of `make check`).
#
# Two assertions on the `lcsim sta -ssta` driver:
#   1. Statistical agreement: on s27, the block-level SSTA propagation
#      (characterize-once macromodels + Clark's max) must agree with a
#      5000-sample brute-force Monte-Carlo reference on mean and sigma
#      at every sink and at the chip max within 5% (`-check 0.05` makes
#      the driver itself exit non-zero on disagreement).
#   2. Determinism: the same analysis at 1 worker and 4 workers must
#      print bit-identical statistical output (only the cost-counter
#      line may differ — worker scheduling changes nothing else).
#   3. Shared stages: on s1423, whose blocks share most of their stages
#      through one run-scoped stage memo, the full-precision JSON reports
#      at 1 and 4 workers must be byte-identical.
set -eu

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

bin="$workdir/lcsim"
go build -o "$bin" ./cmd/lcsim

# 1. SSTA vs brute-force MC: the driver exits 1 if any sink's mean or
# sigma deviates beyond the tolerance.
if ! $bin sta -bench s27 -ssta -budget 300p -mc 5000 -check 0.05 -workers -1 \
        > "$workdir/agree.out" 2>&1; then
    echo "ssta-smoke: SSTA disagrees with the 5k brute-force MC reference:" >&2
    cat "$workdir/agree.out" >&2
    exit 1
fi
grep 'check: PASS' "$workdir/agree.out"

# 2. Worker-count invariance on a smaller population. Only wall-clock
# noise is excluded from the diff: the cost-counter line (scheduling
# dependent) and the characterization wall time on the ssta line — the
# block/cache-hit counts and every statistic stay in.
strip_wall() {
    grep -v '^cost:' | sed 's/, [^,]* characterization$//'
}
args="sta -bench s27 -ssta -budget 300p -mc 600 -seed 9"
$bin $args -workers 1 | strip_wall > "$workdir/w1.out"
$bin $args -workers 4 | strip_wall > "$workdir/w4.out"
if ! diff -u "$workdir/w1.out" "$workdir/w4.out"; then
    echo "ssta-smoke: statistical output differs between 1 and 4 workers" >&2
    exit 1
fi
# 3. The stage memo across worker counts: whichever worker builds a
# shared stage, and whichever waits for it, the report keeps its bits.
$bin sta -bench s1423 -ssta -workers 1 -json "$workdir/s1423.w1.json" > /dev/null
$bin sta -bench s1423 -ssta -workers 4 -json "$workdir/s1423.w4.json" > /dev/null
if ! cmp "$workdir/s1423.w1.json" "$workdir/s1423.w4.json"; then
    echo "ssta-smoke: s1423 JSON report differs between 1 and 4 workers" >&2
    exit 1
fi
echo "ssta-smoke: OK (within 5% of brute-force MC; bit-identical across worker counts)"
