package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"misam"
	"misam/internal/dataset"
	"misam/internal/online"
	"misam/internal/sim"
)

// SlowTierReportData is the machine-readable slow-tier trajectory record
// (BENCH_PR10.json): the exact four-design evaluation versus the pruned
// tier (coarse-then-exact ordering + early-exit simulation + tile-level
// memoization + mid-simulation bound aborts) on the same distinct-pair
// stream BENCH_PR5 timed, plus the pruned tier's effect on batch
// labelling and background-audit throughput and the audit pass's tile
// reuse out of the shared serve-side tile cache.
type SlowTierReportData struct {
	Schema     string `json:"schema"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Requests   int    `json:"requests"`

	// Exact*/Pruned* are per-pair evaluation latencies (workload build +
	// all four designs) through each tier.
	ExactP50NsOp  int64 `json:"exact_p50_ns_op"`
	ExactP90NsOp  int64 `json:"exact_p90_ns_op"`
	ExactP99NsOp  int64 `json:"exact_p99_ns_op"`
	PrunedP50NsOp int64 `json:"pruned_p50_ns_op"`
	PrunedP90NsOp int64 `json:"pruned_p90_ns_op"`
	PrunedP99NsOp int64 `json:"pruned_p99_ns_op"`
	// SpeedupP50 is exact vs pruned, both measured this run.
	SpeedupP50 float64 `json:"speedup_p50"`

	// ArgminAgreement must be 1.0 and WinnerBitIdentical true — the
	// pruned tier claims exactness for the winner, and the report run
	// doubles as a check of that claim on real timing streams.
	ArgminAgreement    float64 `json:"argmin_agreement"`
	WinnerBitIdentical bool    `json:"winner_bit_identical"`
	// PrunedShare is the fraction of the 4×Requests design evaluations
	// the pruned tier retired with a bound instead of a full simulation.
	PrunedShare float64 `json:"pruned_share"`

	// PR5BaselineP50NsOp is BENCH_PR5's slow-tier baseline for the same
	// stream (0 when the file is absent); SpeedupVsPR5P50 is that
	// baseline over this run's pruned p50.
	PR5BaselineP50NsOp int64   `json:"pr5_baseline_p50_ns_op,omitempty"`
	SpeedupVsPR5P50    float64 `json:"speedup_vs_pr5_p50,omitempty"`

	// Label*RPS are dataset.LabelAll pairs/sec through each tier (batch
	// corpus generation is the other big slow-tier consumer).
	LabelExactRPS  float64 `json:"label_exact_rps"`
	LabelPrunedRPS float64 `json:"label_pruned_rps"`
	LabelSpeedup   float64 `json:"label_speedup"`

	// VerifierDrainRPS is the background-audit drain rate with pruned
	// verification (jobs/sec over the stream's workloads).
	VerifierDrainRPS float64 `json:"verifier_drain_rps"`

	// TileCache* aggregate the shared serve+audit tile-schedule cache:
	// total lookups that found a memoized (busy, bubbles, compute) triple
	// versus ones that had to schedule. BoundAborts counts design
	// simulations cut mid-tile-loop by the running remaining-tiles floor;
	// CoarseSkips counts whole designs retired before their first tile.
	TileCacheHits    int64   `json:"tile_cache_hits"`
	TileCacheMisses  int64   `json:"tile_cache_misses"`
	TileCacheHitRate float64 `json:"tile_cache_hit_rate"`
	BoundAborts      int64   `json:"bound_aborts"`
	CoarseSkips      int64   `json:"coarse_skips"`
	// VerifierReuseRate is the fraction of the audit pass's tile
	// simulations served from the tile cache when re-simulating freshly
	// rebuilt workloads of just-served pairs — the production audit
	// re-checks what serving just computed, so its schedules should come
	// out of the cache, not out of the scheduler.
	VerifierReuseRate float64 `json:"verifier_reuse_rate"`
}

// slowTierPairs is the standard distinct-pair stream shared with
// FastPathReport, so BENCH_PR5's baseline and BENCH_PR10's tiers time the
// same workloads.
func slowTierPairs(cfg Config) []dataset.Pair {
	dim := cfg.MaxDim
	if dim < 128 {
		dim = 128
	}
	const nPairs = 40
	pairs := make([]dataset.Pair, nPairs)
	for i := range pairs {
		s := int64(9000 + i*11)
		n := dim/2 + (i*131)%(dim/2)
		if i%2 == 0 {
			pairs[i] = dataset.Pair{
				Family: "ms-dense",
				A:      misam.RandUniform(s, n, n, 0.02),
				B:      misam.RandDense(s+1, n, 64),
			}
		} else {
			pairs[i] = dataset.Pair{
				Family: "graph",
				A:      misam.RandPowerLaw(s, n, n, n*8, 1.8),
				B:      misam.RandUniform(s+1, n, 96, 0.05),
			}
		}
	}
	return pairs
}

// SlowTierReport times the exact and pruned slow tiers over the standard
// distinct-pair stream, checks the pruned tier's exactness contract on
// every pair, measures batch labelling, background-audit throughput and
// the audit's tile-cache reuse, and writes (then re-reads and validates)
// the BENCH_PR10 record.
func SlowTierReport(ctxE *Context, path string, w io.Writer) (SlowTierReportData, error) {
	header(w, "Slow-tier report: pruned (coarse + early-exit + memoized tiles) vs exact simulation")
	rep := SlowTierReportData{
		Schema:     "misam-slowtier/2",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	pairs := slowTierPairs(ctxE.Cfg)
	rep.Requests = len(pairs)
	ctx := context.Background()

	// Per-pair evaluation latency through each tier (fresh workload every
	// time: the slow tier serves cache misses).
	time1 := func(pruned bool, p dataset.Pair) (int64, [sim.NumDesigns]sim.Result, error) {
		t0 := time.Now()
		wl, err := sim.NewWorkload(p.A, p.B)
		if err != nil {
			return 0, [sim.NumDesigns]sim.Result{}, err
		}
		var res [sim.NumDesigns]sim.Result
		if pruned {
			res, err = wl.SimulateAllPrunedCtx(ctx)
		} else {
			res, err = wl.SimulateAllCtx(ctx)
		}
		return time.Since(t0).Nanoseconds(), res, err
	}
	exactNs := make([]int64, len(pairs))
	prunedNs := make([]int64, len(pairs))
	agree, prunedEvals := 0, 0
	rep.WinnerBitIdentical = true
	for i, p := range pairs {
		var exact, pruned [sim.NumDesigns]sim.Result
		var err error
		if exactNs[i], exact, err = time1(false, p); err != nil {
			return rep, fmt.Errorf("experiments: slowtier exact pair %d: %w", i, err)
		}
		if prunedNs[i], pruned, err = time1(true, p); err != nil {
			return rep, fmt.Errorf("experiments: slowtier pruned pair %d: %w", i, err)
		}
		eb, pb := sim.BestDesign(exact), sim.BestDesign(pruned)
		if eb == pb {
			agree++
		}
		if pruned[pb] != exact[eb] {
			rep.WinnerBitIdentical = false
		}
		for _, id := range sim.AllDesigns {
			if pruned[id].Pruned {
				prunedEvals++
			}
		}
	}
	rep.ExactP50NsOp = pctNs(exactNs, 0.50)
	rep.ExactP90NsOp = pctNs(exactNs, 0.90)
	rep.ExactP99NsOp = pctNs(exactNs, 0.99)
	rep.PrunedP50NsOp = pctNs(prunedNs, 0.50)
	rep.PrunedP90NsOp = pctNs(prunedNs, 0.90)
	rep.PrunedP99NsOp = pctNs(prunedNs, 0.99)
	if rep.PrunedP50NsOp > 0 {
		rep.SpeedupP50 = float64(rep.ExactP50NsOp) / float64(rep.PrunedP50NsOp)
	}
	rep.ArgminAgreement = float64(agree) / float64(len(pairs))
	rep.PrunedShare = float64(prunedEvals) / float64(len(pairs)*int(sim.NumDesigns))

	// The PR5 record timed the full-tier serving path over this same stream;
	// its baseline_p50_ns_op is the slow-tier cost the fast path was
	// built to avoid — and the pruned tier now shrinks.
	if data, err := os.ReadFile("BENCH_PR5.json"); err == nil {
		var pr5 struct {
			BaselineP50NsOp int64 `json:"baseline_p50_ns_op"`
		}
		if json.Unmarshal(data, &pr5) == nil && pr5.BaselineP50NsOp > 0 {
			rep.PR5BaselineP50NsOp = pr5.BaselineP50NsOp
			if rep.PrunedP50NsOp > 0 {
				rep.SpeedupVsPR5P50 = float64(pr5.BaselineP50NsOp) / float64(rep.PrunedP50NsOp)
			}
		}
	}

	// Batch labelling throughput through each tier. The pair streams are
	// distinct per run only in timing — LabelAll dedups identical
	// fingerprints, and the stream has none.
	label := func(opt dataset.LabelOptions) (float64, error) {
		t0 := time.Now()
		if _, err := dataset.LabelAllOpts(ctx, pairs, opt); err != nil {
			return 0, err
		}
		return float64(len(pairs)) / time.Since(t0).Seconds(), nil
	}
	var err error
	if rep.LabelExactRPS, err = label(dataset.LabelOptions{}); err != nil {
		return rep, fmt.Errorf("experiments: slowtier exact labelling: %w", err)
	}
	if rep.LabelPrunedRPS, err = label(dataset.LabelOptions{Pruned: true}); err != nil {
		return rep, fmt.Errorf("experiments: slowtier pruned labelling: %w", err)
	}
	if rep.LabelExactRPS > 0 {
		rep.LabelSpeedup = rep.LabelPrunedRPS / rep.LabelExactRPS
	}

	// Background-audit drain rate and verifier tile reuse. Every pair is
	// first served once through a shared tile cache, then the verifier
	// pool re-simulates freshly rebuilt workloads of the same pairs
	// against that cache. The rebuild is deliberate: it discards all
	// per-workload memoization, so the only schedules the audit can reuse
	// are the ones serving published to the shared cache.
	shared := sim.NewTileCache(32 << 20)
	wls := make([]*sim.Workload, len(pairs))
	for i, p := range pairs {
		if wls[i], err = sim.NewWorkload(p.A, p.B); err != nil {
			return rep, err
		}
		wls[i].AttachTileCache(shared)
		if _, err = wls[i].SimulateAllPrunedCtx(ctx); err != nil {
			return rep, fmt.Errorf("experiments: slowtier serve pair %d: %w", i, err)
		}
	}
	served := shared.Stats()
	for i, p := range pairs {
		if wls[i], err = sim.NewWorkload(p.A, p.B); err != nil {
			return rep, err
		}
		wls[i].AttachTileCache(shared)
	}
	col := online.NewCollector(len(pairs), 1)
	ver := online.NewVerifier(col, runtime.GOMAXPROCS(0), len(pairs))
	t0 := time.Now()
	for i := range wls {
		wl := wls[i]
		ver.Offer(online.VerifyJob{Simulate: func(ctx context.Context) ([sim.NumDesigns]sim.Result, error) {
			return wl.SimulateAllPrunedCtx(ctx)
		}})
	}
	dctx, cancel := context.WithTimeout(ctx, 10*time.Minute)
	drainErr := ver.Drain(dctx)
	cancel()
	ver.Close()
	if drainErr != nil {
		return rep, fmt.Errorf("experiments: slowtier verifier drain: %w", drainErr)
	}
	rep.VerifierDrainRPS = float64(len(wls)) / time.Since(t0).Seconds()
	audit := shared.Stats()
	if dh, dm := audit.Hits-served.Hits, audit.Misses-served.Misses; dh+dm > 0 {
		rep.VerifierReuseRate = float64(dh) / float64(dh+dm)
	}
	rep.TileCacheHits = audit.Hits
	rep.TileCacheMisses = audit.Misses
	rep.TileCacheHitRate = audit.HitRate
	rep.BoundAborts = audit.BoundAborts
	rep.CoarseSkips = audit.CoarseSkips

	fmt.Fprintf(w, "%-8s %12s %12s %12s %10s\n", "tier", "p50 ns/op", "p90 ns/op", "p99 ns/op", "speedup")
	fmt.Fprintf(w, "%-8s %12d %12d %12d %10s\n", "exact", rep.ExactP50NsOp, rep.ExactP90NsOp, rep.ExactP99NsOp, "1.00x")
	fmt.Fprintf(w, "%-8s %12d %12d %12d %9.2fx\n", "pruned", rep.PrunedP50NsOp, rep.PrunedP90NsOp, rep.PrunedP99NsOp, rep.SpeedupP50)
	fmt.Fprintf(w, "argmin agreement %.3f, winner bit-identical %v, %.0f%% of design evals pruned\n",
		rep.ArgminAgreement, rep.WinnerBitIdentical, 100*rep.PrunedShare)
	if rep.PR5BaselineP50NsOp > 0 {
		fmt.Fprintf(w, "vs BENCH_PR5 slow-tier baseline %d ns: %.2fx\n", rep.PR5BaselineP50NsOp, rep.SpeedupVsPR5P50)
	}
	fmt.Fprintf(w, "labelling: exact %.1f pairs/s, pruned %.1f pairs/s (%.2fx); pruned audit drain %.1f jobs/s\n",
		rep.LabelExactRPS, rep.LabelPrunedRPS, rep.LabelSpeedup, rep.VerifierDrainRPS)
	fmt.Fprintf(w, "tile cache: %d hits / %d misses (%.0f%% hit rate), verifier reuse %.0f%%, %d bound aborts, %d coarse skips\n",
		rep.TileCacheHits, rep.TileCacheMisses, 100*rep.TileCacheHitRate,
		100*rep.VerifierReuseRate, rep.BoundAborts, rep.CoarseSkips)

	if path != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return rep, err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return rep, fmt.Errorf("experiments: slowtier report: %w", err)
		}
		// Re-read and validate: the record is a CI artifact, so a half
		// written or schema-drifted file should fail the run that made it.
		back, err := os.ReadFile(path)
		if err != nil {
			return rep, err
		}
		var check SlowTierReportData
		if err := json.Unmarshal(back, &check); err != nil {
			return rep, fmt.Errorf("experiments: slowtier report unreadable: %w", err)
		}
		if check.Schema != "misam-slowtier/2" {
			return rep, fmt.Errorf("experiments: slowtier report schema %q", check.Schema)
		}
		if check.ArgminAgreement != 1 || !check.WinnerBitIdentical {
			return rep, fmt.Errorf("experiments: pruned tier broke exactness: agreement %.3f, bit-identical %v",
				check.ArgminAgreement, check.WinnerBitIdentical)
		}
		if check.PrunedP50NsOp <= 0 || check.ExactP50NsOp <= 0 {
			return rep, fmt.Errorf("experiments: slowtier report has empty percentiles")
		}
		if check.PR5BaselineP50NsOp > 0 && check.SpeedupVsPR5P50 < 8 {
			return rep, fmt.Errorf("experiments: pruned tier is %.2fx the PR5 slow-tier baseline, below the 8x floor",
				check.SpeedupVsPR5P50)
		}
		if check.VerifierReuseRate < 0.5 {
			return rep, fmt.Errorf("experiments: verifier tile reuse %.0f%% below the 50%% floor",
				100*check.VerifierReuseRate)
		}
		fmt.Fprintf(w, "wrote %s\n", path)
	}
	return rep, nil
}
