#!/bin/sh
# bench.sh — run the hot-path benchmarks and record the results as JSON.
#
# Runs the named benchmarks that gate the simulator's performance
# trajectory, each with -benchmem -count=5, plus the 100k-disk fleet
# benchmark once (-benchtime=1x: one iteration is six simulated years of
# a 100,000-drive system; repetition buys nothing but minutes), and
# writes the given output file (paths are relative to the repository
# root) mapping benchmark name -> {ns/op, B/op, allocs/op}. For each metric the minimum over the
# repetitions is kept: minima are the standard noise-robust summary for
# wall-clock benchmarks, and B/op / allocs/op are deterministic anyway.
#
# After writing, the script diffs the new numbers against the most recent
# earlier BENCH_*.json and warns on regressions (any allocs/op growth, or
# ns/op more than 10% above the previous record). Warnings do not fail
# the script — wall time is machine-dependent — but allocs/op drift also
# fails `go test` via the alloc-gate tests, which are the hard line.
#
# Usage: scripts/bench.sh output.json   (e.g. BENCH_11.json; required)
# BENCH_COUNT overrides the repetition count (default 5): raise it on
# noisy shared machines so the minima catch a quiet window.
set -eu

if [ $# -ne 1 ]; then
    echo "usage: $0 output.json   (e.g. BENCH_11.json)" >&2
    exit 2
fi
cd "$(dirname "$0")/.."
out="$1"
count="${BENCH_COUNT:-5}"

pattern='^(BenchmarkTable2BaseSystemBuild|BenchmarkSingleRunFARM|BenchmarkSingleRunFARMObs|BenchmarkFailDiskAndIndex|BenchmarkPlacementCandidate|BenchmarkErasureEncodeRS8of10|BenchmarkEventQueue)$'

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

echo "running hot-path benchmarks (count=$count)..." >&2
go test -run '^$' -bench "$pattern" -benchmem -count="$count" . | tee "$raw" >&2

echo "running the 100k-disk fleet benchmark (single iteration)..." >&2
go test -run '^$' -bench '^BenchmarkSingleRunFARM100k$' -benchmem \
    -benchtime=1x -count=1 -timeout=30m . | tee -a "$raw" >&2

# Parse `go test -bench` output lines, e.g.
#   BenchmarkSingleRunFARM-8  422  2504567 ns/op  0.0 ploss_pct  913456 B/op  8886 allocs/op
# Token-scan for the value preceding each unit so custom metrics
# (ploss_pct, disks) and varying GOMAXPROCS suffixes do not break parsing.
awk '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     ns = $(i-1)
        if ($i == "B/op")      bp = $(i-1)
        if ($i == "allocs/op") ap = $(i-1)
    }
    if (!(name in seen) || ns + 0 < min_ns[name] + 0) min_ns[name] = ns
    if (!(name in seen) || bp + 0 < min_bp[name] + 0) min_bp[name] = bp
    if (!(name in seen) || ap + 0 < min_ap[name] + 0) min_ap[name] = ap
    if (!(name in seen)) order[++n] = name
    seen[name] = 1
}
END {
    printf "{\n"
    for (i = 1; i <= n; i++) {
        name = order[i]
        printf "  \"%s\": {\"ns/op\": %s, \"B/op\": %s, \"allocs/op\": %s}%s\n", \
            name, min_ns[name], min_bp[name], min_ap[name], (i < n ? "," : "")
    }
    printf "}\n"
}' "$raw" > "$out"

echo "wrote $out" >&2
cat "$out"

# Diff against the most recent earlier BENCH_*.json (numeric order),
# warning on allocation growth or >10% wall-time regression.
prev=""
for f in BENCH_*.json; do
    [ -e "$f" ] || continue
    [ "$f" = "$out" ] && continue
    if [ -z "$prev" ] || [ "$(printf '%s\n%s\n' "$prev" "$f" | sort -V | tail -1)" = "$f" ]; then
        prev="$f"
    fi
done
if [ -n "$prev" ]; then
    echo "" >&2
    echo "comparing against $prev..." >&2
    awk -v prevfile="$prev" -v curfile="$out" '
    function load(file, dest,   line, name, val) {
        while ((getline line < file) > 0) {
            if (match(line, /"Benchmark[^"]*"/)) {
                name = substr(line, RSTART + 1, RLENGTH - 2)
                if (match(line, /"ns\/op": [0-9.]+/)) {
                    val = substr(line, RSTART, RLENGTH); sub(/.*: /, "", val)
                    dest[name, "ns"] = val
                }
                if (match(line, /"allocs\/op": [0-9.]+/)) {
                    val = substr(line, RSTART, RLENGTH); sub(/.*: /, "", val)
                    dest[name, "ap"] = val
                }
                names[name] = 1
            }
        }
        close(file)
    }
    BEGIN {
        load(prevfile, prev)
        load(curfile, cur)
        warned = 0
        for (name in names) {
            if (!((name, "ns") in prev) || !((name, "ns") in cur)) continue
            if (cur[name, "ap"] + 0 > prev[name, "ap"] + 0) {
                printf "WARNING: %s allocs/op regressed: %s -> %s\n", \
                    name, prev[name, "ap"], cur[name, "ap"]
                warned = 1
            }
            if (cur[name, "ns"] + 0 > prev[name, "ns"] * 1.10) {
                printf "WARNING: %s ns/op regressed >10%%: %s -> %s\n", \
                    name, prev[name, "ns"], cur[name, "ns"]
                warned = 1
            }
        }
        if (!warned) print "no regressions vs " prevfile
    }' >&2
fi
