#!/usr/bin/env sh
# CI gate: formatting, vet, build, and the full test suite under the race
# detector (the simulation engine schedules tiles and designs on shared
# Workload caches, so -race is load-bearing, not optional).
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
echo "==> benchmark module: go vet + go test -short"
go vet -C benchmark ./...
go test -C benchmark -short ./...

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

# The early-exit pruned tier races a shared best-so-far bound across the
# design fan-out, and the tile cache races concurrent lookups, stores and
# mid-sim bound aborts on shared striped slots; run both hammers by name
# under -race so a future -run filter on the main pass can't silently
# skip them.
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

# Fast-path experiment smoke: one quick-scale pass over the serving
# tiers (baseline + four gate thresholds) without writing BENCH_PR5.json.
echo "==> fastpath experiment smoke"
go run ./cmd/misam-bench -scale quick -experiment fastpath -fastout ""

# Slow-tier (v2, memoized) experiment smoke: one quick-scale pass over
# the exact and pruned tiers. Writing to a scratch path (not the
# committed BENCH_PR10.json) makes the driver run its write/re-read/
# schema validation, and the run itself asserts argmin agreement, winner
# bit-identity and the verifier tile-reuse floor on a real timing stream.
echo "==> slowtier-v2 experiment smoke"
slowout="${TMPDIR:-/tmp}/misam_bench_pr10_smoke.json"
go run ./cmd/misam-bench -scale quick -experiment slowtier -slowout "$slowout"
rm -f "$slowout"

# Placement experiment smoke: one quick-scale replay of the skewed
# stream through the FIFO pool and the placement pool. The scratch path
# exercises the write/re-read/schema validation, and the run itself
# fails unless every analysis is bit-identical between pools and
# placement avoids >= 50% of FIFO's reconfigurations.
echo "==> placement experiment smoke"
placeout="${TMPDIR:-/tmp}/misam_bench_pr7_smoke.json"
go run ./cmd/misam-bench -scale quick -experiment placement -placeout "$placeout"
rm -f "$placeout"

# Ingest experiment smoke: one quick-scale pass over binary-vs-
# MatrixMarket decode, fused extraction, and both e2e serving paths.
# The scratch path exercises the write/re-read/schema validation, and
# the run itself fails unless the decode speedup, zero-alloc, transport
# bit-identity and e2e-p50 gates all hold.
echo "==> ingest experiment smoke"
ingestout="${TMPDIR:-/tmp}/misam_bench_pr8_smoke.json"
go run ./cmd/misam-bench -scale quick -experiment ingest -ingestout "$ingestout"
rm -f "$ingestout"

# Cluster experiment smoke: one quick-scale replay of a repeated-operand
# stream through a two-node loopback cluster and a single node. The
# scratch path exercises the write/re-read/schema validation, and the
# run itself fails unless the deployments answer bit-identically, each
# pair is built on exactly one member, the cluster warm hit stays within
# 2x of the single node, and a mid-stream peer kill loses zero requests.
echo "==> cluster experiment smoke"
clusterout="${TMPDIR:-/tmp}/misam_bench_pr9_smoke.json"
go run ./cmd/misam-bench -scale quick -experiment cluster -clusterout "$clusterout"
rm -f "$clusterout"

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

# Tile-hash fuzz smoke: 10 s hunting for tile-cache key collisions — a
# collision would let one tile's memoized schedule answer for another's,
# silently corrupting cycle counts. The seed corpus runs in the full
# suite; this pass actually mutates.
echo "==> tile stream hash fuzz smoke (-fuzztime=10s)"
go test -run '^$' -fuzz 'FuzzTileStreamHash' -fuzztime 10s ./internal/sim/

# The zero-alloc ingestion pins guard the binary serving floor: run
# them by name so a future -run filter on the main pass can't silently
# skip them.
echo "==> zero-alloc ingestion pins"
go test -run 'SteadyStateZeroAllocs' ./internal/sparse/ ./internal/features/

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
