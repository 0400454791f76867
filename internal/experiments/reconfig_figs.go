package experiments

import (
	"fmt"
	"io"
	"math"

	"misam"
	"misam/internal/dataset"
	"misam/internal/mltree"
	"misam/internal/reconfig"
	"misam/internal/sim"
	"misam/internal/sparse"
	"misam/internal/stats"
)

// Figure8Scenario is one reconfiguration case study: a workload executed
// Batch times (an iterative solver or a training loop re-invoking SpGEMM)
// while some bitstream is already loaded.
type Figure8Scenario struct {
	Name    string
	Current sim.DesignID
	Batch   int
	A, B    *sparse.CSR
}

// Figure8Row is the outcome of one scenario.
type Figure8Row struct {
	Name string
	// CurrentSec is running the whole batch on the loaded bitstream;
	// BestSec is the per-workload best design including its
	// reconfiguration cost; ChosenSec is what the engine's decision
	// actually costs.
	CurrentSec, BestSec, ChosenSec float64
	ReconfigSec                    float64
	Switched                       bool
	// Speedup is CurrentSec/ChosenSec (≥1 when switching helped);
	// SlowdownVsBest is ChosenSec/BestSec.
	Speedup        float64
	SlowdownVsBest float64
}

// Figure8Result aggregates the engine evaluation.
type Figure8Result struct {
	Rows []Figure8Row
	// GeoSpeedupSwitched is the geomean of Speedup over scenarios where
	// the engine reconfigured (paper: 2.74×, up to 10.76×).
	GeoSpeedupSwitched float64
	// GeoSlowdownKept is the geomean of SlowdownVsBest where it kept the
	// current design (paper: 1.02×).
	GeoSlowdownKept float64
	MaxSpeedup      float64
}

// figure8Scenarios builds the case-study suite: one very large matrix
// whose batch amortizes the 3–4 s reconfiguration (the paper's cg15) and
// several smaller ones where switching cannot pay.
func figure8Scenarios(ctx *Context) []Figure8Scenario {
	rng := ctx.RNG(8)
	red := ctx.Cfg.Reduction
	dim := func(d int) int {
		n := d / red
		if n < 128 {
			n = 128
		}
		return n
	}
	nCG := dim(1_500_000)
	// cg15-like: a 1.5M-row iterative solve multiplying a very sparse A
	// by a moderately sparse block of vectors tens of thousands of times.
	// Design 4's compressed-B path beats the loaded SpMM design by ~an
	// order of magnitude, and the batch amortizes the 3–4 s switch
	// (paper: up to 10.76×).
	cg := sparse.Uniform(rng, nCG, nCG, 3.0/float64(nCG))
	cgB := sparse.Uniform(rng, nCG, 256, 0.02)
	nAP := dim(120_000)
	apa := sparse.PowerLaw(rng, nAP, nAP, nAP*4, 1.8)
	nDel := dim(300_000)
	del := sparse.Banded(rng, nDel, nDel, 2, 0.8)
	nIm := dim(200_000)
	im := sparse.Imbalanced(rng, nIm, nIm, nIm*6, 0.01, 0.85)
	nRe := dim(250_000)
	reg := sparse.Banded(rng, nRe, nRe, 8, 0.6)
	// The per-run gain shrinks linearly with the size reduction, so the
	// iteration count that amortizes a 3–4 s reconfiguration scales with
	// it (at paper scale, red=1, this is a 12k-iteration solve).
	cgBatch := 12000 * red
	return []Figure8Scenario{
		{Name: "cg15", Current: sim.Design1, Batch: cgBatch, A: cg, B: cgB},
		// apa2: Design 2 loaded, the proposal is Design 3 — a shared
		// bitstream, so the engine switches for free.
		{Name: "apa2", Current: sim.Design2, Batch: 3, A: apa, B: sparse.DenseRandom(rng, nAP, 32)},
		// del19: near-tied designs with a tiny batch — the engine keeps
		// the loaded design at negligible cost ("minimal performance gain
		// from switching", §5.2).
		{Name: "del19", Current: sim.Design2, Batch: 2, A: del, B: sparse.DenseRandom(rng, nDel, 32)},
		// Imbalanced workload while Design 2 is loaded: Design 3 shares
		// the bitstream, so switching is free even for a small batch.
		{Name: "imb", Current: sim.Design2, Batch: 4, A: im, B: sparse.DenseRandom(rng, nIm, 32)},
		// Regular banded solve on Design 1 with a small batch: Design 2
		// would win per run, but a 3–4 s reconfiguration cannot amortize.
		{Name: "reg", Current: sim.Design1, Batch: 3, A: reg, B: sparse.DenseRandom(rng, nRe, 32)},
	}
}

// Figure8 reproduces the reconfiguration-overhead analysis.
func Figure8(ctx *Context, w io.Writer) (Figure8Result, error) {
	header(w, "Figure 8: reconfiguration engine on Xilinx U55C (batch totals; * = engine's choice)")
	fw, err := ctx.Framework()
	if err != nil {
		return Figure8Result{}, err
	}
	var res Figure8Result
	var switched, kept []float64
	fmt.Fprintf(w, "%-8s %6s %12s %12s %12s %9s %7s\n",
		"name", "batch", "current(s)", "best(s)", "chosen(s)", "reconf(s)", "switch")
	for _, sc := range figure8Scenarios(ctx) {
		st := reconfig.State{Loaded: sc.Current, HasLoaded: true}
		v := misamFeatures(sc.A, sc.B)
		proposed := fw.Selector.Select(v)
		dec := fw.Engine.Decide(st, v, proposed, float64(sc.Batch))

		all, err := misam.SimulateAllDesigns(sc.A, sc.B)
		if err != nil {
			return res, err
		}
		best := sim.BestDesign(all)
		times := fw.Engine.Times

		row := Figure8Row{Name: sc.Name, Switched: dec.Target != sc.Current}
		row.CurrentSec = float64(sc.Batch) * all[sc.Current].Seconds
		row.BestSec = float64(sc.Batch)*all[best].Seconds + times.Switch(sc.Current, best)
		row.ChosenSec = float64(sc.Batch)*all[dec.Target].Seconds + dec.ReconfigSeconds
		row.ReconfigSec = dec.ReconfigSeconds
		row.Speedup = row.CurrentSec / row.ChosenSec
		// "Slight slowdown compared to the theoretical best" (§5.2): the
		// best design's batch time with reconfiguration assumed free.
		row.SlowdownVsBest = row.ChosenSec / (float64(sc.Batch) * all[best].Seconds)
		res.Rows = append(res.Rows, row)

		if row.Switched {
			switched = append(switched, row.Speedup)
			if row.Speedup > res.MaxSpeedup {
				res.MaxSpeedup = row.Speedup
			}
		} else {
			kept = append(kept, row.SlowdownVsBest)
		}
		star := " "
		if row.Switched {
			star = "*"
		}
		fmt.Fprintf(w, "%-8s %6d %12.3f %12.3f %12.3f %9.2f %6s%s\n",
			sc.Name, sc.Batch, row.CurrentSec, row.BestSec, row.ChosenSec, row.ReconfigSec,
			dec.Target.String(), star)
	}
	res.GeoSpeedupSwitched = stats.GeoMean(switched)
	res.GeoSlowdownKept = stats.GeoMean(kept)
	fmt.Fprintf(w, "geomean speedup when reconfiguring: %.2fx (paper 2.74x, up to 10.76x; ours up to %.2fx)\n",
		res.GeoSpeedupSwitched, res.MaxSpeedup)
	fmt.Fprintf(w, "geomean slowdown vs best when keeping: %.2fx (paper 1.02x)\n", res.GeoSlowdownKept)
	return res, nil
}

// Figure9Result is the latency-predictor accuracy analysis.
type Figure9Result struct {
	MAE float64 // in log10(ms) space
	R2  float64
	// ResidualP50/P90 are residual magnitudes at those percentiles.
	ResidualP50, ResidualP90 float64
	N                        int
}

// Figure9 reproduces the latency-predictor residual analysis: the paper
// reports MAE 0.344 and R² 0.978.
func Figure9(ctx *Context, w io.Writer) (Figure9Result, error) {
	header(w, "Figure 9: reconfiguration-engine latency predictor accuracy")
	corpus, err := ctx.Corpus()
	if err != nil {
		return Figure9Result{}, err
	}
	// Fresh 70/30 split over corpus samples: train the production
	// per-design predictor on one side, pool held-out residuals over
	// every (sample, design) record on the other.
	rng := ctx.RNG(9)
	trainIdx, testIdx := mltree.Split(len(corpus.Samples), 0.7, rng)
	trainCorpus := &dataset.Corpus{}
	for _, j := range trainIdx {
		trainCorpus.Samples = append(trainCorpus.Samples, corpus.Samples[j])
	}
	predictor, err := reconfig.TrainLatencyPredictor(trainCorpus, mltree.Config{MaxDepth: 16, MinSamplesLeaf: 2})
	if err != nil {
		return Figure9Result{}, err
	}
	var pred, truth, resid []float64
	for _, j := range testIdx {
		smp := &corpus.Samples[j]
		for _, id := range sim.AllDesigns {
			p := predictor.PredictTarget(smp.Features, id)
			tr := dataset.LatencyTarget(smp.LatencySec[id])
			pred = append(pred, p)
			truth = append(truth, tr)
			resid = append(resid, math.Abs(p-tr))
		}
	}
	res := Figure9Result{
		MAE:         mltree.MAE(pred, truth),
		R2:          mltree.R2(pred, truth),
		ResidualP50: stats.Percentile(resid, 50),
		ResidualP90: stats.Percentile(resid, 90),
		N:           len(pred),
	}
	fmt.Fprintf(w, "held-out records: %d\n", res.N)
	fmt.Fprintf(w, "MAE  (log10 ms): %.3f   (paper: 0.344)\n", res.MAE)
	fmt.Fprintf(w, "R²             : %.3f   (paper: 0.978)\n", res.R2)
	fmt.Fprintf(w, "|residual| p50 : %.3f   p90: %.3f\n", res.ResidualP50, res.ResidualP90)
	return res, nil
}
