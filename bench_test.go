package misam_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (§5, §6). Each BenchmarkTableN / BenchmarkFigureN runs the
// corresponding experiment driver; run with -v (or cmd/misam-bench) to
// see the rendered rows. The Ablation benchmarks exercise the design
// choices DESIGN.md calls out: class weighting, feature pruning, the
// reconfiguration threshold, the scheduler window, and streaming tile
// sizes.
//
//	go test -bench=. -benchmem
//	go run ./cmd/misam-bench -scale paper   # paper-scale regeneration

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"testing"

	"misam"
	"misam/internal/dataset"
	"misam/internal/experiments"
	"misam/internal/mltree"
	"misam/internal/reconfig"
	"misam/internal/sim"
	"misam/internal/sparse"
	"misam/internal/workload"
)

var (
	benchCtx     *experiments.Context
	benchCtxOnce sync.Once
)

// benchContext shares one trained context across the figure benchmarks.
// Set MISAM_BENCH_SCALE=paper for paper-scale corpora and workloads.
func benchContext() *experiments.Context {
	benchCtxOnce.Do(func() {
		cfg := experiments.DefaultConfig()
		switch os.Getenv("MISAM_BENCH_SCALE") {
		case "paper":
			cfg = experiments.PaperConfig()
		case "quick":
			cfg = experiments.QuickConfig()
		}
		benchCtx = experiments.NewContext(cfg)
	})
	return benchCtx
}

// benchOut returns the experiment output sink: stdout under -v, else
// discard.
func benchOut(b *testing.B) io.Writer {
	if testing.Verbose() {
		return os.Stdout
	}
	return io.Discard
}

func BenchmarkFigure1SparsitySpace(b *testing.B) {
	w := benchOut(b)
	for i := 0; i < b.N; i++ {
		experiments.Figure1(w)
	}
}

func BenchmarkTable1DesignConfigs(b *testing.B) {
	w := benchOut(b)
	for i := 0; i < b.N; i++ {
		experiments.Table1(w)
	}
}

func BenchmarkTable2Resources(b *testing.B) {
	w := benchOut(b)
	for i := 0; i < b.N; i++ {
		experiments.Table2(w)
	}
}

func BenchmarkTable3Matrices(b *testing.B) {
	ctx := benchContext()
	w := benchOut(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Table3(ctx, w)
	}
}

func BenchmarkFigure3DesignSuite(b *testing.B) {
	ctx := benchContext()
	w := benchOut(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3(ctx, w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4FeatureImportance(b *testing.B) {
	ctx := benchContext()
	if _, err := ctx.Framework(); err != nil {
		b.Fatal(err)
	}
	w := benchOut(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure4(ctx, w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6ToyTimelines(b *testing.B) {
	w := benchOut(b)
	for i := 0; i < b.N; i++ {
		experiments.Figure6(w)
	}
}

func BenchmarkTable4CrossSpeedup(b *testing.B) {
	ctx := benchContext()
	if _, err := ctx.Framework(); err != nil {
		b.Fatal(err)
	}
	w := benchOut(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table4(ctx, w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5Confusion(b *testing.B) {
	ctx := benchContext()
	if _, err := ctx.Framework(); err != nil {
		b.Fatal(err)
	}
	w := benchOut(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table5(ctx, w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8Reconfig(b *testing.B) {
	ctx := benchContext()
	if _, err := ctx.Framework(); err != nil {
		b.Fatal(err)
	}
	w := benchOut(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure8(ctx, w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9LatencyPredictor(b *testing.B) {
	ctx := benchContext()
	if _, err := ctx.Framework(); err != nil {
		b.Fatal(err)
	}
	w := benchOut(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure9(ctx, w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure10PerfGain(b *testing.B) {
	ctx := benchContext()
	if _, err := ctx.Framework(); err != nil {
		b.Fatal(err)
	}
	ctx.Suite()
	w := benchOut(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure10(ctx, w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure11Energy(b *testing.B) {
	ctx := benchContext()
	if _, err := ctx.Framework(); err != nil {
		b.Fatal(err)
	}
	ctx.Suite()
	w := benchOut(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure11(ctx, w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure12Breakdown(b *testing.B) {
	ctx := benchContext()
	if _, err := ctx.Framework(); err != nil {
		b.Fatal(err)
	}
	w := benchOut(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure12(ctx, w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure13Trapezoid(b *testing.B) {
	ctx := benchContext()
	if _, err := ctx.Framework(); err != nil {
		b.Fatal(err)
	}
	ctx.Suite()
	w := benchOut(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure13(ctx, w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSection62MultiTenant(b *testing.B) {
	w := benchOut(b)
	for i := 0; i < b.N; i++ {
		experiments.MultiTenant(w)
	}
}

// --- Ablation benchmarks -------------------------------------------------

// BenchmarkAblationClassWeighting compares selector accuracy with and
// without the §3.1 inverse-frequency class weights.
func BenchmarkAblationClassWeighting(b *testing.B) {
	ctx := benchContext()
	fw, err := ctx.Framework()
	if err != nil {
		b.Fatal(err)
	}
	x, y := fw.Corpus.X(), fw.Corpus.Labels()
	rng := rand.New(rand.NewSource(77))
	cfg := mltree.Config{MaxDepth: 10, MinSamplesLeaf: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		weighted, err := mltree.CrossValidateClassifier(x, y, misam.NumDesigns, true, cfg, 5, rng)
		if err != nil {
			b.Fatal(err)
		}
		plain, err := mltree.CrossValidateClassifier(x, y, misam.NumDesigns, false, cfg, 5, rng)
		if err != nil {
			b.Fatal(err)
		}
		if testing.Verbose() && i == 0 {
			fmt.Printf("class weighting: CV accuracy %.3f weighted vs %.3f unweighted\n",
				mean(weighted), mean(plain))
		}
	}
}

// BenchmarkAblationTopFeatures compares the full-feature selector against
// the pruned four-feature deployment (§5.5).
func BenchmarkAblationTopFeatures(b *testing.B) {
	ctx := benchContext()
	fw, err := ctx.Framework()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pruned, err := misam.TrainOnCorpus(fw.Corpus, nil, misam.TrainOptions{
			CorpusSize: len(fw.Corpus.Samples), MaxDim: ctx.Cfg.MaxDim,
			Seed: 1, TopFeaturesOnly: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if testing.Verbose() && i == 0 {
			fullAcc := mltree.Accuracy(fw.Selector.Tree.PredictBatch(fw.Corpus.X()), fw.Corpus.Labels())
			prunedAcc := mltree.Accuracy(pruned.Selector.Tree.PredictBatch(fw.Corpus.X()), fw.Corpus.Labels())
			fullSz, _ := fw.Selector.SizeBytes()
			prunedSz, _ := pruned.Selector.SizeBytes()
			fmt.Printf("feature pruning: accuracy %.3f/%d B full vs %.3f/%d B pruned\n",
				fullAcc, fullSz, prunedAcc, prunedSz)
		}
	}
}

// BenchmarkAblationThresholdSweep sweeps the §3.3 reconfiguration
// threshold and reports how often the engine switches on a mixed stream.
func BenchmarkAblationThresholdSweep(b *testing.B) {
	ctx := benchContext()
	fw, err := ctx.Framework()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(88))
	a := sparse.Uniform(rng, 40000, 40000, 0.0001)
	bm := sparse.Uniform(rng, 40000, 256, 0.05)
	v := misam.ExtractFeatures(a, bm)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, th := range []float64{0.05, 0.10, 0.20, 0.40, 0.80} {
			eng := reconfig.NewEngine(fw.Engine.Predictor, reconfig.DefaultTimeModel(), th)
			st := reconfig.State{Loaded: sim.Design1, HasLoaded: true}
			switches := 0
			for units := 1000.0; units <= 512000; units *= 2 {
				if d := eng.Decide(st, v, sim.Design4, units); d.Target == sim.Design4 {
					switches++
				}
			}
			if testing.Verbose() && i == 0 {
				fmt.Printf("threshold %.2f: switches at %d of 10 batch scales\n", th, switches)
			}
		}
	}
}

// BenchmarkAblationSchedulerWindow sweeps the scheduler's lookahead
// window, the bubble-filling mechanism of §3.2.2.
func BenchmarkAblationSchedulerWindow(b *testing.B) {
	rng := rand.New(rand.NewSource(99))
	a := sparse.PowerLaw(rng, 4000, 4000, 24000, 1.8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, win := range []int{1, 2, 4, 8, 16, 32} {
			groups := sim.ScheduleA(a, sim.ScheduleOptions{
				PEGs: 16, PEsPerPEG: 4, Traversal: sim.ColWise, DepGap: 4, Window: win,
			})
			if testing.Verbose() && i == 0 {
				var bubbles int64
				for _, g := range groups {
					bubbles += g.Bubbles
				}
				fmt.Printf("window %2d: makespan %6d cycles, %6d bubbles\n",
					win, sim.Makespan(groups), bubbles)
			}
		}
	}
}

// BenchmarkAblationTileSize sweeps the §3.3 streaming tile height.
func BenchmarkAblationTileSize(b *testing.B) {
	ctx := benchContext()
	fw, err := ctx.Framework()
	if err != nil {
		b.Fatal(err)
	}
	a := misam.RandUniform(5, 60000, 20000, 0.0002)
	bm := misam.RandDense(6, 20000, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tile := range []int{5000, 10000, 25000, 50000} {
			res, err := fw.Stream(context.Background(), int64(tile), a, bm, tile/2, tile)
			if err != nil {
				b.Fatal(err)
			}
			if testing.Verbose() && i == 0 {
				fmt.Printf("tile ~%5d rows: %2d tiles, compute %.3f ms, %d reconfigs\n",
					tile, len(res.Outcomes), res.ComputeSeconds*1e3, res.Reconfigs)
			}
		}
	}
}

// --- Microbenchmarks of the hot paths ------------------------------------

func BenchmarkSimulateDesign2(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	a := sparse.Uniform(rng, 4000, 4000, 0.01)
	bm := sparse.DenseRandom(rng, 4000, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := misam.SimulateDesign(sim.Design2, a, bm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectorInference(b *testing.B) {
	ctx := benchContext()
	fw, err := ctx.Framework()
	if err != nil {
		b.Fatal(err)
	}
	a := misam.RandUniform(1, 2000, 2000, 0.01)
	bm := misam.RandDense(2, 2000, 64)
	v := misam.ExtractFeatures(a, bm)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fw.Selector.Select(v)
	}
}

func BenchmarkEndToEndAnalyze(b *testing.B) {
	ctx := benchContext()
	fw, err := ctx.Framework()
	if err != nil {
		b.Fatal(err)
	}
	a := misam.RandPowerLaw(3, 20000, 20000, 80000, 1.9)
	bm := misam.RandDense(4, 20000, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fw.Analyze(context.Background(), a, bm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorkloadSuiteGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		workload.Suite(workload.Options{Reduction: 32, DenseCols: 64, Seed: int64(i)})
	}
}

// BenchmarkSimulateAllSerial is the pre-Workload reference: four designs
// simulated back to back, each redoing the design-independent precompute
// and walking its tiles serially.
func BenchmarkSimulateAllSerial(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	a := sparse.Uniform(rng, 4000, 4000, 0.01)
	bm := sparse.DenseRandom(rng, 4000, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.SimulateAllSerial(a, bm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateAllPrecomputed is the production engine on the same
// workload: one shared Workload precompute, designs fanned over
// goroutines, tiles over the bounded worker pool. The ratio against
// BenchmarkSimulateAllSerial is the engine's speedup; the serving
// benchmark's sim.simulate_all_ms and sim.serial_ms rows track the same
// pair of engines.
func BenchmarkSimulateAllPrecomputed(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	a := sparse.Uniform(rng, 4000, 4000, 0.01)
	bm := sparse.DenseRandom(rng, 4000, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := misam.SimulateAllDesigns(a, bm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCorpusLabelling(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.Label(context.Background(), dataset.RandomPair(rng, 512)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCorpusLabellingParallel labels a fixed batch of corpus pairs
// through dataset.LabelAll's worker fan-out; BenchmarkCorpusLabelling is
// the sequential dataset.Label it is compared with.
func BenchmarkCorpusLabellingParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	pairs := make([]dataset.Pair, 16)
	for i := range pairs {
		pairs[i] = dataset.RandomPair(rng, 512)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.LabelAll(context.Background(), pairs); err != nil {
			b.Fatal(err)
		}
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// BenchmarkExtensionRouter runs the §6.3 heterogeneous routing extension.
func BenchmarkExtensionRouter(b *testing.B) {
	ctx := benchContext()
	if _, err := ctx.Framework(); err != nil {
		b.Fatal(err)
	}
	ctx.Suite()
	w := benchOut(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Router(ctx, w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionObjective runs the §3.1 multi-objective extension.
func BenchmarkExtensionObjective(b *testing.B) {
	ctx := benchContext()
	if _, err := ctx.Framework(); err != nil {
		b.Fatal(err)
	}
	w := benchOut(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Objective(ctx, w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSection61ReconfigModes runs the §6.1 reconfiguration-mechanism
// extension.
func BenchmarkSection61ReconfigModes(b *testing.B) {
	ctx := benchContext()
	if _, err := ctx.Framework(); err != nil {
		b.Fatal(err)
	}
	w := benchOut(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ReconfigModes(ctx, w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationForest quantifies the paper's model choice: a single
// decision tree versus a random forest on the same corpus — accuracy vs
// footprint and inference latency (§3.1's "lightweight footprint and
// low-latency inference" argument).
func BenchmarkAblationForest(b *testing.B) {
	ctx := benchContext()
	fw, err := ctx.Framework()
	if err != nil {
		b.Fatal(err)
	}
	x, y := fw.Corpus.X(), fw.Corpus.Labels()
	rng := rand.New(rand.NewSource(55))
	train, test := mltree.StratifiedSplit(y, misam.NumDesigns, 0.7, rng)
	trX := make([][]float64, len(train))
	trY := make([]int, len(train))
	for i, j := range train {
		trX[i], trY[i] = x[j], y[j]
	}
	teX := make([][]float64, len(test))
	teY := make([]int, len(test))
	for i, j := range test {
		teX[i], teY[i] = x[j], y[j]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree, err := mltree.TrainClassifier(trX, trY, misam.NumDesigns,
			mltree.BalancedWeights(trY, misam.NumDesigns), mltree.Config{MaxDepth: 10, MinSamplesLeaf: 2})
		if err != nil {
			b.Fatal(err)
		}
		forest, err := mltree.TrainForest(trX, trY, misam.NumDesigns,
			mltree.BalancedWeights(trY, misam.NumDesigns),
			mltree.ForestConfig{Trees: 25, Tree: mltree.Config{MaxDepth: 10, MinSamplesLeaf: 2}, FeatureFraction: 0.6, Seed: 55})
		if err != nil {
			b.Fatal(err)
		}
		if testing.Verbose() && i == 0 {
			fmt.Printf("tree: accuracy %.3f, %d nodes; forest: accuracy %.3f, %d nodes\n",
				mltree.Accuracy(tree.PredictBatch(teX), teY), tree.NumNodes(),
				mltree.Accuracy(forest.PredictBatch(teX), teY), forest.NumNodes())
		}
	}
}

// BenchmarkAblationOneHotPredictor compares the production per-design
// latency trees against the single-tree one-hot encoding: the one-hot
// variant can pool all four designs into one leaf, predicting zero gain
// and paralyzing the reconfiguration engine.
func BenchmarkAblationOneHotPredictor(b *testing.B) {
	ctx := benchContext()
	fw, err := ctx.Framework()
	if err != nil {
		b.Fatal(err)
	}
	corpus := fw.Corpus
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One-hot single tree.
		x, y := dataset.GenerateLatency(corpus)
		oneHot, err := mltree.TrainRegressor(x, y, mltree.Config{MaxDepth: 16, MinSamplesLeaf: 2})
		if err != nil {
			b.Fatal(err)
		}
		// Per-design trees (the production predictor).
		perDesign, err := reconfig.TrainLatencyPredictor(corpus, mltree.Config{MaxDepth: 16, MinSamplesLeaf: 2})
		if err != nil {
			b.Fatal(err)
		}
		if testing.Verbose() && i == 0 {
			// How often does each predictor distinguish the best design
			// from the worst on training samples?
			distinct := func(pred func(s *dataset.Sample, id sim.DesignID) float64) float64 {
				n := 0
				for j := range corpus.Samples {
					s := &corpus.Samples[j]
					lo, hi := pred(s, sim.Design1), pred(s, sim.Design1)
					for _, id := range sim.AllDesigns {
						p := pred(s, id)
						if p < lo {
							lo = p
						}
						if p > hi {
							hi = p
						}
					}
					if hi > lo {
						n++
					}
				}
				return float64(n) / float64(len(corpus.Samples))
			}
			oneHotDistinct := distinct(func(s *dataset.Sample, id sim.DesignID) float64 {
				return oneHot.Predict(dataset.LatencyRecordFeatures(s.Features, id))
			})
			perDesignDistinct := distinct(func(s *dataset.Sample, id sim.DesignID) float64 {
				return perDesign.PredictTarget(s.Features, id)
			})
			fmt.Printf("design-distinguishing predictions: one-hot %.1f%%, per-design %.1f%%\n",
				oneHotDistinct*100, perDesignDistinct*100)
		}
	}
}

// BenchmarkExtensionLearningCurve runs the §6.3 retraining study.
func BenchmarkExtensionLearningCurve(b *testing.B) {
	ctx := benchContext()
	if _, err := ctx.Framework(); err != nil {
		b.Fatal(err)
	}
	w := benchOut(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.LearningCurve(ctx, w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionPhases runs the evolving-sparsity adaptation study.
func BenchmarkExtensionPhases(b *testing.B) {
	ctx := benchContext()
	if _, err := ctx.Framework(); err != nil {
		b.Fatal(err)
	}
	w := benchOut(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Phases(ctx, w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDepGap sweeps the accumulator dependency depth — the
// one scheduling constant this reproduction calibrates (Figure 6's toy
// uses 2; the production designs use 4). The design-win distribution over
// a mixed workload set shows how the constant shapes the D1/D2 boundary.
func BenchmarkAblationDepGap(b *testing.B) {
	rng := rand.New(rand.NewSource(66))
	type wl struct{ a, bm *sparse.CSR }
	var wls []wl
	for i := 0; i < 6; i++ {
		n := 300 + i*400
		wls = append(wls, wl{
			a:  sparse.Uniform(rng, n, n, 0.004/float64(i+1)*float64(1+i%3)),
			bm: sparse.DenseRandom(rng, n, 8<<(i%3)),
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, gap := range []int64{2, 4, 6, 8} {
			wins := map[sim.DesignID]int{}
			for _, w := range wls {
				best, bestSec := sim.Design1, 0.0
				for _, id := range sim.SpMMDesigns {
					cfg := sim.GetConfig(id)
					cfg.DepGapCycles = gap
					wk, err := sim.NewWorkload(w.a, w.bm)
					if err != nil {
						b.Fatal(err)
					}
					r, err := wk.SimulateCtx(context.Background(), cfg)
					if err != nil {
						b.Fatal(err)
					}
					if bestSec == 0 || r.Seconds < bestSec {
						best, bestSec = id, r.Seconds
					}
				}
				wins[best]++
			}
			if testing.Verbose() && i == 0 {
				fmt.Printf("depgap %d: wins D1=%d D2=%d D3=%d\n",
					gap, wins[sim.Design1], wins[sim.Design2], wins[sim.Design3])
			}
		}
	}
}

var (
	cacheBenchFW   *misam.Framework
	cacheBenchOnce sync.Once
	cacheBenchErr  error
)

// cacheBenchFramework trains a tiny fixed-seed framework shared by the
// analysis-cache benchmarks (separate from benchContext so `-bench
// Cache` pays no figure-scale training).
func cacheBenchFramework(b *testing.B) *misam.Framework {
	b.Helper()
	cacheBenchOnce.Do(func() {
		cacheBenchFW, cacheBenchErr = misam.Train(misam.TrainOptions{
			CorpusSize: 60, LatencyCorpusSize: 80, MaxDim: 256, Seed: 7})
	})
	if cacheBenchErr != nil {
		b.Fatal(cacheBenchErr)
	}
	return cacheBenchFW
}

func cacheBenchOperands() (*misam.Matrix, *misam.Matrix) {
	return misam.RandPowerLaw(61, 4000, 4000, 32000, 1.9), misam.RandDense(62, 4000, 48)
}

func analyzeFresh(b *testing.B, fw *misam.Framework, dev *misam.Accelerator, a, m *misam.Matrix) {
	b.Helper()
	// A fresh workload per call: workload-precompute reuse must not be
	// what the cached variants measure.
	wl, err := misam.NewWorkload(a, m)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := fw.Serve(context.Background(), &misam.Request{Workload: wl, Device: dev}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAnalyzeCacheCold is the uncached serving baseline the warm
// and coalesced variants are read against.
func BenchmarkAnalyzeCacheCold(b *testing.B) {
	fw := cacheBenchFramework(b)
	a, m := cacheBenchOperands()
	dev := fw.NewDevice("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analyzeFresh(b, fw, dev, a, m)
	}
}

// BenchmarkAnalyzeCacheWarm times repeated requests for one resident
// pair: fingerprint + cache lookup + per-request pricing.
func BenchmarkAnalyzeCacheWarm(b *testing.B) {
	fw := *cacheBenchFramework(b)
	cfw := (&fw).WithCache(64 << 20)
	a, m := cacheBenchOperands()
	dev := cfw.NewDevice("bench")
	analyzeFresh(b, cfw, dev, a, m) // prime the entry
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analyzeFresh(b, cfw, dev, a, m)
	}
}

// BenchmarkAnalyzeCacheCoalesced times a 16-way burst of identical
// concurrent requests against a cold cache: singleflight runs one
// simulation, the other 15 wait and share it.
func BenchmarkAnalyzeCacheCoalesced(b *testing.B) {
	base := cacheBenchFramework(b)
	a, m := cacheBenchOperands()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fw := *base
		cfw := (&fw).WithCache(64 << 20)
		dev := cfw.NewDevice("bench")
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				analyzeFresh(b, cfw, dev, a, m)
			}()
		}
		wg.Wait()
	}
}

func analyzeFastFresh(b *testing.B, fw *misam.Framework, dev *misam.Accelerator, a, m *misam.Matrix) {
	b.Helper()
	wl, err := misam.NewWorkload(a, m)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := fw.Serve(context.Background(), &misam.Request{Workload: wl, Device: dev})
	if err != nil {
		b.Fatal(err)
	}
	if rep.Path != misam.PathFast {
		b.Fatalf("request fell to the slow path (path %q)", rep.Path)
	}
}

// BenchmarkAnalyzeFastPathWarm times the fast tier with a resident
// features entry: fingerprint + features-cache hit + tree walk +
// regressor pricing. Read against BenchmarkAnalyzeCacheCold for the
// fast-vs-full-simulation serving gap.
func BenchmarkAnalyzeFastPathWarm(b *testing.B) {
	fw := *cacheBenchFramework(b)
	cfw := (&fw).WithCache(64 << 20).WithFastPath(misam.FastPathConfig{Confidence: 0, VerifySample: 0})
	defer cfw.Close()
	a, m := cacheBenchOperands()
	dev := cfw.NewDevice("bench")
	analyzeFastFresh(b, cfw, dev, a, m) // prime the features entry
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analyzeFastFresh(b, cfw, dev, a, m)
	}
}

// BenchmarkAnalyzeFastPathCold times the cache-miss fast tier — feature
// extraction plus model serving, no simulation — the latency a distinct
// high-confidence request pays.
func BenchmarkAnalyzeFastPathCold(b *testing.B) {
	fw := *cacheBenchFramework(b)
	// No cache: every request extracts features from the operands.
	cfw := (&fw).WithFastPath(misam.FastPathConfig{Confidence: 0, VerifySample: 0})
	defer cfw.Close()
	a, m := cacheBenchOperands()
	dev := cfw.NewDevice("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analyzeFastFresh(b, cfw, dev, a, m)
	}
}
