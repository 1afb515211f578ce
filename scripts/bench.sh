#!/bin/sh
# Benchmark harness: runs every Go benchmark once (-benchtime 1x) and
# writes a JSON summary mapping benchmark name -> {unit: value, ...},
# plus "_wall_seconds" for the whole run and "_cpus" for context.
#
# Usage:
#   scripts/bench.sh [-quick] [out.json]
#
#   -quick  smoke mode for CI: only the engine hot-path and full-sweep
#           benchmarks, output to /tmp unless an explicit path is given.
#
# The default output (BENCH_pr10.json) is the newest recorded artifact,
# and the one live gate: verify.sh and CI run `bench.sh -quick` and
# `ghost-bench -diff BENCH_pr10.json /tmp/bench_quick.json`, so the
# result depends on the tree under test. Regenerate it on a quiet machine
# and compare recordings with `ghost-bench -diff old.json new.json`.
set -e

PATTERN='.'
OUT=BENCH_pr10.json
if [ "$1" = "-quick" ]; then
	shift
	PATTERN='BenchmarkEngineSchedule|BenchmarkFullSweep'
	OUT=/tmp/bench_quick.json
fi
[ -n "$1" ] && OUT=$1

RAW=$(mktemp)
# BenchmarkSnapshotRoundTrip and the snapshot CLI smokes drop .snap
# checkpoint files; they are artifacts, not recordings.
trap 'rm -f "$RAW" ./*.snap' EXIT

START=$(date +%s)
# -timeout 0: the full-size figure benchmarks exceed go test's default
# 10-minute per-package budget.
go test -run '^$' -bench "$PATTERN" -benchtime 1x -timeout 0 ./... | tee "$RAW"
END=$(date +%s)

awk -v wall=$((END - START)) -v cpus=$(nproc) '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	body = ""
	for (i = 3; i + 1 <= NF; i += 2) {
		m = sprintf("\"%s\": %s", $(i + 1), $i)
		body = body (body == "" ? "" : ", ") m
	}
	if (out != "") out = out ",\n"
	out = out sprintf("  \"%s\": {%s}", name, body)
}
END {
	printf("{\n%s%s  \"_wall_seconds\": %d,\n  \"_cpus\": %d\n}\n",
	       out, (out == "" ? "" : ",\n"), wall, cpus)
}
' "$RAW" >"$OUT"

echo "bench: wrote $OUT"
