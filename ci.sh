#!/usr/bin/env sh
# CI gate: formatting, vet, build, the full test suite once plain and once
# under the race detector (the simulation engine schedules tiles and
# designs on shared Workload caches, so -race is load-bearing, not
# optional), and the serving benchmark's own tests.
set -eu

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:"
    echo "$unformatted"
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

# The benchmark harness is its own module: without these lines a root API
# change that breaks benchmark/probes.go only shows up at benchmark time.
# Its TestQuickSmoke runs every workload against real misam-serve
# processes and checks each answer against sim.SimulateAllSerial.
echo "==> benchmark module: go vet + go test"
go vet -C benchmark ./...
go test -C benchmark ./...

# The plain pass is the only one where wall-clock share assertions run
# (TestFigure12OverheadsSmall skips under -race).
echo "==> go test -shuffle=on ./..."
go test -shuffle=on ./...

echo "==> go test -race -shuffle=on ./..."
# -timeout raised past the 10m default: internal/reconfig alone runs
# ~10m under the race detector on a single-core host.
go test -race -shuffle=on -timeout 30m ./...

# The registry hammer is the hot-swap safety proof: readers race
# publishes and rollbacks under -race and assert no torn snapshot. It
# already ran inside the full suite above; run it by name here so a
# future -run filter on the main pass can't silently skip it.
echo "==> registry hot-swap hammer (-race)"
go test -race -run 'TestSwapRollbackHammer|TestAnalyzeDuringHotSwap' ./internal/registry/ .

# The pruned tier's early-exit bound is raced by the tile workers of the
# design being simulated, and concurrent callers (exact and pruned) share
# one Workload's pooled bounds, scratches and caches; the tile cache races
# concurrent lookups, stores and mid-sim bound aborts on shared striped
# slots. Run both hammers by name under -race so a future -run filter on
# the main pass can't silently skip them.
echo "==> early-exit racing bound + tile-cache hammer (-race)"
go test -race -run 'TestEarlyExitRacingBound|TestTileBoundRaceHammer' ./internal/sim/

# The placement pool reorders only idle-device selection; waiter
# handover must stay strictly FIFO or preferred traffic starves plain
# requests. Run the starvation proofs by name under -race so a future
# -run filter on the main pass can't silently skip them.
echo "==> placement pool hammer (-race)"
go test -race -run 'TestAcquirePreferredHammer|TestSaturatedHandoverIsFIFO' ./internal/fleet/

# Every serving configuration (cache, placement, fast path, transport,
# batching, cluster) must answer one request stream identically: the
# proof that the single request pipeline has no per-configuration fork.
echo "==> serving configurations differential (-race)"
go test -race -run 'TestServeConfigurationsAgree' ./internal/server/

# Benchmark smoke: one iteration of the fingerprint/memo/cache/registry/
# fast-path/steady-state benchmarks so their harness code can't rot.
# Scoped by name — the figure-scale benchmarks are far too slow for CI.
echo "==> benchmark smoke (-benchtime=1x)"
go test -run '^$' -bench 'Fingerprint|Memo|Cache|Registry|FastPath|SteadyState|WriteJSON|Binary|Fused' -benchtime=1x ./...

# Two-node serving smoke over the public API: real misam-serve processes
# proving ownership routing, forward counters, boot replication and
# rollback propagation (see cluster_smoke.sh).
echo "==> two-node cluster serving smoke"
./cluster_smoke.sh

# Wire-decoder fuzz smoke: 10 s of coverage-guided mutation against the
# binary CSR decoder. The seed corpus + regression entries run inside
# the full suite above; this pass actually mutates.
echo "==> wire decoder fuzz smoke (-fuzztime=10s)"
go test -run '^$' -fuzz 'FuzzDecodeBinary' -fuzztime 10s ./internal/sparse/

# Fingerprint fuzz smoke: 10 s hunting content-key collisions — a
# single-word change (which the construction makes impossible), a
# transposition within a section — and a wire fingerprint that differs
# from the CSR one at some buffer alignment. A collision would let one
# pair's cached analysis answer for another's.
echo "==> fingerprint fuzz smoke (-fuzztime=10s)"
go test -run '^$' -fuzz 'FuzzFingerprint' -fuzztime 10s ./internal/sparse/

# Tile-hash fuzz smoke: 10 s hunting for tile-cache key collisions — a
# collision would let one tile's memoized schedule answer for another's,
# silently corrupting cycle counts. The seed corpus runs in the full
# suite; this pass actually mutates.
echo "==> tile stream hash fuzz smoke (-fuzztime=10s)"
go test -run '^$' -fuzz 'FuzzTileStreamHash' -fuzztime 10s ./internal/sim/

# The zero-alloc pins guard the binary serving floor (ingestion) and the
# simulator's warm steady state, whose serial/parallel split keeps result
# arrays out of goroutine closures: run them by name so a future -run
# filter on the main pass can't silently skip them.
echo "==> zero-alloc pins"
go test -run 'SteadyStateZeroAllocs' ./internal/sparse/ ./internal/features/ ./internal/sim/

# Online-adaptation smoke: replay a tiny shifting stream through the
# collector end to end (drift report + retrain + promotion gate).
echo "==> misam-retrain smoke"
go run ./cmd/misam-retrain -corpus 120 -maxdim 192 -phase1 36 -phase2 60 \
    -window 48 -min-samples 24 -min-traces 40 -checkpoint 24 -force

# Same stream through the confidence-gated fast path: labels now come
# from the background verifier, and the drift detector must still fire.
echo "==> misam-retrain fast-path smoke"
go run ./cmd/misam-retrain -corpus 120 -maxdim 192 -phase1 36 -phase2 60 \
    -window 48 -min-samples 24 -min-traces 40 -checkpoint 24 -force \
    -fastpath -confidence 0.5

echo "CI green"
