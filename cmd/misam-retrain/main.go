// Command misam-retrain exercises the online-adaptation loop offline: it
// replays a synthetic workload stream whose distribution shifts midway
// (dense-ish uniform pairs, then graph-like power-law pairs) through a
// framework with trace capture enabled, prints the drift detector's
// verdict at checkpoints, and — when drift fires or -force is given —
// retrains a candidate on the captured traces, shadow-evaluates it
// against the incumbent, and reports the promotion decision.
//
// Usage:
//
//	misam-retrain -model misam.model -phase1 96 -phase2 160
//	misam-retrain -corpus 400 -maxdim 256 -force
//
// With no -model a default model is trained first (-corpus, -maxdim and
// -seed control that corpus). The exit status is 0 whether or not the
// candidate is promoted — rejection is the gate working, not a failure.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"misam"
	"misam/internal/online"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("misam-retrain: ")

	model := flag.String("model", "", "trained model file (trains a default model if empty)")
	corpus := flag.Int("corpus", 400, "classifier corpus size when training the default model")
	maxDim := flag.Int("maxdim", 512, "maximum generated matrix dimension")
	seed := flag.Int64("seed", 1, "generation seed (corpus and replayed stream)")
	sample := flag.Int("sample", 1, "record one in N analyses into the trace buffer")
	capacity := flag.Int("capacity", 2048, "trace buffer capacity")
	phase1 := flag.Int("phase1", 96, "dense-ish uniform requests before the shift")
	phase2 := flag.Int("phase2", 160, "power-law requests after the shift")
	window := flag.Int("window", 64, "drift detector sliding window")
	minSamples := flag.Int("min-samples", 32, "traces required before the detector reports")
	minTraces := flag.Int("min-traces", 48, "traces required before retraining")
	checkpoint := flag.Int("checkpoint", 32, "drift-check cadence in requests")
	force := flag.Bool("force", false, "retrain even if the detector never fires")
	fastPath := flag.Bool("fastpath", false, "replay through the confidence-gated fast path (labels come from the background verifier)")
	confidence := flag.Float64("confidence", 0.6, "fast-path gate: minimum selector leaf confidence")
	verifySample := flag.Int("verify-sample", 1, "re-simulate one in N fast-path hits in the background")
	flag.Parse()

	fw := buildFramework(*model, *corpus, *maxDim, *seed)
	fw.WithTraceCapture(*capacity, *sample)
	if *fastPath {
		// The verifier must be wired after trace capture so its audit
		// traces land in the same collector the drift detector reads.
		fw.WithFastPath(misam.FastPathConfig{Confidence: *confidence, VerifySample: *verifySample})
		defer fw.Close()
	}

	// A trained framework carries its corpus, so the baseline is the real
	// training distribution; a file-loaded one self-calibrates on the
	// first full window of replayed traffic.
	baseline, err := fw.OnlineBaseline()
	if err != nil {
		fmt.Printf("no training corpus in model; self-calibrating baseline from first %d traces\n", *window)
	}
	mgr := online.NewManager(fw.Registry(), fw.Traces(), baseline, online.Config{
		Drift:   online.DriftConfig{Window: *window, MinSamples: *minSamples},
		Retrain: online.RetrainConfig{MinTraces: *minTraces, Seed: *seed},
	})

	ctx := context.Background()
	drifted := false
	replay := func(label string, n int, gen func(i int) (*misam.Matrix, *misam.Matrix)) {
		fmt.Printf("\n== %s: %d requests ==\n", label, n)
		for i := 0; i < n; i++ {
			a, b := gen(i)
			if _, err := fw.Analyze(ctx, a, b); err != nil {
				log.Fatalf("analyze: %v", err)
			}
			if (i+1)%*checkpoint == 0 || i == n-1 {
				if *fastPath {
					// Fast-path labels arrive asynchronously; let the
					// verifier catch up so the checkpoint reads a
					// complete window.
					dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
					if err := fw.DrainVerifier(dctx); err != nil {
						log.Printf("verifier drain: %v", err)
					}
					cancel()
				}
				rep := mgr.CheckDrift()
				printDrift(i+1, rep)
				if rep.Drifted {
					drifted = true
				}
			}
		}
	}

	// Phase 1: dense-ish uniform pairs — the regime the paper's dense
	// dataflows win. Phase 2 shifts to power-law graph matrices, the
	// regime that favours the sparse dataflows; the feature distribution
	// (density, row variance) moves enough for PSI to trip.
	dim := *maxDim
	if dim < 64 {
		dim = 64
	}
	replay("phase 1 (dense-ish uniform)", *phase1, func(i int) (*misam.Matrix, *misam.Matrix) {
		s := *seed + int64(i)*2
		n := 64 + int(s*37%int64(dim-63))
		return misam.RandUniform(s, n, n, 0.25), misam.RandUniform(s+1, n, n, 0.30)
	})
	replay("phase 2 (power-law shift)", *phase2, func(i int) (*misam.Matrix, *misam.Matrix) {
		s := *seed + 1_000_003 + int64(i)*2
		n := 128 + int(s*53%int64(dim-127))
		nnz := n * 8
		return misam.RandPowerLaw(s, n, n, nnz, 1.8), misam.RandPowerLaw(s+1, n, n, nnz, 1.6)
	})

	stats := fw.Traces().Stats()
	fmt.Printf("\ntraces: observed=%d sampled=%d resident=%d dropped=%d\n",
		stats.Observed, stats.Sampled, stats.Resident, stats.Dropped)
	if st, ok := fw.FastPathStats(); ok {
		fmt.Printf("fast path: served=%d fast=%d slow=%d  verifier offered=%d verified=%d agreed=%d dropped=%d\n",
			st.Served, st.Fast, st.Slow,
			st.Verifier.Offered, st.Verifier.Verified, st.Verifier.Agreed, st.Verifier.Dropped)
	}

	if !drifted && !*force {
		fmt.Println("detector never fired and -force not given; not retraining")
		return
	}
	note := "operator request"
	if drifted {
		note = "drift detected during replay"
	}
	fmt.Printf("\n== retraining (%s) ==\n", note)
	out, err := mgr.RetrainNow(note)
	if err != nil {
		log.Fatalf("retrain: %v", err)
	}
	fmt.Printf("train/holdout traces:  %d / %d\n", out.TrainTraces, out.HoldoutTraces)
	fmt.Printf("geomean slowdown vs oracle:  candidate %.4fx  incumbent %.4fx\n",
		out.CandidateGeomean, out.IncumbentGeomean)
	fmt.Printf("holdout accuracy:      candidate %.1f%%  incumbent %.1f%%\n",
		out.CandidateAccuracy*100, out.IncumbentAccuracy*100)
	if out.CrossValAccuracy > 0 {
		fmt.Printf("candidate cross-val accuracy: %.1f%%\n", out.CrossValAccuracy*100)
	}
	if out.Promote {
		fmt.Printf("PROMOTED: version %d -> %d\n", out.IncumbentVersion, out.CandidateVersion)
	} else {
		fmt.Printf("REJECTED: %s (incumbent version %d stays live)\n", out.Reason, out.IncumbentVersion)
	}

	fmt.Println("\nregistry:")
	cur := fw.Registry().Current().Version()
	for _, info := range fw.Registry().List() {
		marker := " "
		if info.Version == cur {
			marker = "*"
		}
		fmt.Printf("  %s v%d  source=%s  traces=%d  note=%q\n",
			marker, info.Version, info.Source, info.Traces, info.Note)
	}
}

func buildFramework(model string, corpus, maxDim int, seed int64) *misam.Framework {
	if model != "" {
		f, err := os.Open(model)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		fw, err := misam.Load(f)
		if err != nil {
			log.Fatal(err)
		}
		return fw
	}
	fmt.Printf("no -model given; training a default model (corpus %d, maxdim %d)...\n", corpus, maxDim)
	opts := misam.DefaultTrainOptions()
	opts.CorpusSize = corpus
	opts.LatencyCorpusSize = 2 * corpus
	opts.MaxDim = maxDim
	opts.Seed = seed
	fw, err := misam.Train(opts)
	if err != nil {
		log.Fatal(err)
	}
	return fw
}

func printDrift(served int, rep online.DriftReport) {
	if rep.PSI == nil {
		// Still calibrating or below the detector's minimum window.
		reason := "collecting traces"
		if len(rep.Reasons) > 0 {
			reason = rep.Reasons[0]
		}
		fmt.Printf("  [%4d served] %s\n", served, reason)
		return
	}
	verdict := "stable"
	if rep.Drifted {
		verdict = "DRIFT"
	}
	fmt.Printf("  [%4d served] %-6s max PSI %.3f (%s)  window acc %.1f%% (baseline %.1f%%)\n",
		served, verdict, rep.MaxPSI, rep.MaxPSIFeature, rep.WindowAccuracy*100, rep.BaselineAccuracy*100)
}
