#!/bin/sh
# Full verification: tier-1 (build + test) plus vet, formatting, and the
# race detector. Run from the repo root.
set -e

echo "== go build ./..."
go build ./...

echo "== gofmt"
unformatted=$(gofmt -l . | grep -v '^internal/trace/testdata/' || true)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== ghost-lint -escape ./... (determinism taint, maporder, hotpathalloc, eventhandle, apisurface, hotpathescape)"
go run ./cmd/ghost-lint -escape -summary ./...

echo "== go test ./..."
go test ./...

echo "== perfbench module (separate module: gofmt, vet, digest and serve-oracles == serve-shinjuku tests)"
(cd perfbench && test -z "$(gofmt -l .)" && go vet ./... && go test ./...)

echo "== fuzz smoke (ReadSnapshot/Restore never panic on outside bytes)"
go test -run '^$' -fuzz FuzzReadSnapshot -fuzztime 20s .

echo "== fuzz smoke (ghost-check repro strings: no panic, accepted strings round-trip)"
go test -run '^$' -fuzz FuzzParseRepro -fuzztime 10s -fuzzminimizetime 1s ./internal/check

echo "== go test -race -short ./..."
go test -race -short ./...

echo "== ghost-check smoke (property-based invariant scan)"
go run ./cmd/ghost-check -quick -seeds 25 -parallel 4

echo "== examples (build + quick smoke run)"
for ex in examples/*/; do
	name=$(basename "$ex")
	quick=""
	case "$name" in
	search | shinjuku | snap | tuned) quick="-quick" ;;
	esac
	echo "-- $name"
	go run "./$ex" $quick >/dev/null
done

echo "== ghost-tune smoke (successive-halving auto-tuner)"
go run ./cmd/ghost-tune -scenario shinjuku-rocksdb -quick -parallel 4

echo "== fig9 smoke (upgrade/crash robustness)"
go run ./cmd/ghost-bench -exp fig9 -quick

echo "== bench smoke (engine hot path + parallel sweep)"
sh scripts/bench.sh -quick

echo "== bench regression diff (this tree vs the newest recording)"
go run ./cmd/ghost-bench -diff BENCH_pr10.json /tmp/bench_quick.json

echo "== snapshot smoke (fig5 restore-transparency digest compare)"
go run ./cmd/ghost-bench -exp fig5 -quick -snapshot-every 5ms >/dev/null

echo "== snapshot smoke (ghost-check checkpoint rewind on a directed regression)"
rewind_out=$(go run ./cmd/ghost-check \
	-repro "seed=3 policy=central-fifo cpus=4 threads=9 horizon=25.000ms" \
	-mutate drop-wakeup -snapshot-every 3ms || true)
echo "$rewind_out" | grep -q "^rewind: from checkpoint" || {
	echo "ghost-check rewind smoke: no rewind report in output:" >&2
	echo "$rewind_out" >&2
	exit 1
}
echo "$rewind_out" | grep "^rewind:"
rm -f ./*.snap

echo "== profile smoke (-cpuprofile/-memprofile produce non-empty pprof)"
sh scripts/profile.sh -out /tmp/ghost-profile-verify ghost-bench -exp fig6a -quick >/dev/null

echo "verify: all checks passed"
