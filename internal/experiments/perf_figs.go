package experiments

import (
	"context"
	"fmt"
	"io"

	"misam"
	"misam/internal/baseline"
	"misam/internal/energy"
	"misam/internal/features"
	"misam/internal/mltree"
	"misam/internal/sim"
	"misam/internal/sparse"
	"misam/internal/stats"
	"misam/internal/workload"
)

// misamFeatures is a local alias keeping driver call sites compact.
func misamFeatures(a, b *sparse.CSR) features.Vector { return features.Extract(a, b) }

// CategoryGain is one category's geomean speedup of Misam over the
// baselines.
type CategoryGain struct {
	Category               workload.Category
	VsCPU, VsGPU, VsTrap   float64
	N                      int
	TrapezoidFixedDataflow baseline.TrapezoidDataflow
}

// Figure10Result is the per-category performance-gain table.
type Figure10Result struct {
	Gains []CategoryGain
}

// runMisamOnSuite simulates the selector-chosen design for every suite
// workload and returns per-workload latency, utilization-bearing results
// and the chosen designs.
func runMisamOnSuite(ctx *Context) ([]sim.Result, []sim.DesignID, error) {
	fw, err := ctx.Framework()
	if err != nil {
		return nil, nil, err
	}
	suite := ctx.Suite()
	results := make([]sim.Result, len(suite))
	chosen := make([]sim.DesignID, len(suite))
	for i, wl := range suite {
		id := fw.Selector.Select(misamFeatures(wl.A, wl.B))
		r, err := misam.SimulateDesign(id, wl.A, wl.B)
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: %s: %w", wl.Name, err)
		}
		results[i] = r
		chosen[i] = id
	}
	return results, chosen, nil
}

// trapezoidFixedPerCategory picks, per category, the single dataflow with
// the best geomean latency — Trapezoid's offline-profiled fixed choice,
// which cannot adapt per workload (§1, §2.1).
func trapezoidFixedPerCategory(suite []workload.Workload, statsPer []baseline.Stats) map[workload.Category]baseline.TrapezoidDataflow {
	model := baseline.DefaultTrapezoid()
	out := map[workload.Category]baseline.TrapezoidDataflow{}
	for _, cat := range workload.Categories {
		bestDF, bestGeo := baseline.TrapezoidRowWise, 0.0
		for _, df := range baseline.TrapezoidDataflows {
			var lats []float64
			for i, wl := range suite {
				if wl.Category != cat {
					continue
				}
				lats = append(lats, model.EstimateDataflow(df, statsPer[i]).Seconds)
			}
			if len(lats) == 0 {
				continue
			}
			g := stats.GeoMean(lats)
			if bestGeo == 0 || g < bestGeo {
				bestGeo, bestDF = g, df
			}
		}
		out[cat] = bestDF
	}
	return out
}

// Figure10 reproduces the performance-gain comparison across the
// evaluation suite.
func Figure10(ctx *Context, w io.Writer) (Figure10Result, error) {
	header(w, "Figure 10: performance gain of Misam over CPU, GPU and Trapezoid")
	suite := ctx.Suite()
	misamRes, _, err := runMisamOnSuite(ctx)
	if err != nil {
		return Figure10Result{}, err
	}
	statsPer := make([]baseline.Stats, len(suite))
	for i, wl := range suite {
		statsPer[i] = baseline.Collect(wl.A, wl.B)
	}
	cpu, gpu, trap := baseline.DefaultCPU(), baseline.DefaultGPU(), baseline.DefaultTrapezoid()
	fixed := trapezoidFixedPerCategory(suite, statsPer)

	var res Figure10Result
	fmt.Fprintf(w, "%-7s %10s %10s %12s %6s %10s\n", "cat", "vs CPU", "vs GPU", "vs Trapezoid", "n", "trap-fixed")
	for _, cat := range workload.Categories {
		var vsCPU, vsGPU, vsTrap []float64
		n := 0
		for i, wl := range suite {
			if wl.Category != cat {
				continue
			}
			n++
			m := misamRes[i].Seconds
			vsCPU = append(vsCPU, cpu.Estimate(statsPer[i]).Seconds/m)
			vsGPU = append(vsGPU, gpu.Estimate(statsPer[i]).Seconds/m)
			vsTrap = append(vsTrap, trap.EstimateDataflow(fixed[cat], statsPer[i]).Seconds/m)
		}
		g := CategoryGain{
			Category: cat, N: n,
			VsCPU: stats.GeoMean(vsCPU), VsGPU: stats.GeoMean(vsGPU), VsTrap: stats.GeoMean(vsTrap),
			TrapezoidFixedDataflow: fixed[cat],
		}
		res.Gains = append(res.Gains, g)
		fmt.Fprintf(w, "%-7v %9.2fx %9.2fx %11.2fx %6d %10v\n", cat, g.VsCPU, g.VsGPU, g.VsTrap, n, fixed[cat])
	}
	fmt.Fprintln(w, "paper: HSxMS 3.23x / MSxMS 1.01x / HSxD 5.84x over Trapezoid;")
	fmt.Fprintln(w, "       5.50x/15.33x/20.27x over CPU and 1.37x/4.48x/11.26x over GPU for HSxHS/HSxMS/MSxMS")
	return res, nil
}

// CategoryEnergy is one category's geomean energy-efficiency gain.
type CategoryEnergy struct {
	Category     workload.Category
	VsCPU, VsGPU float64
	N            int
}

// Figure11Result is the energy-efficiency table.
type Figure11Result struct {
	Gains []CategoryEnergy
}

// Figure11 reproduces the energy-efficiency comparison.
func Figure11(ctx *Context, w io.Writer) (Figure11Result, error) {
	header(w, "Figure 11: energy efficiency gain of Misam over CPU and GPU")
	suite := ctx.Suite()
	misamRes, _, err := runMisamOnSuite(ctx)
	if err != nil {
		return Figure11Result{}, err
	}
	cpu, gpu := baseline.DefaultCPU(), baseline.DefaultGPU()
	var res Figure11Result
	fmt.Fprintf(w, "%-7s %10s %10s %6s\n", "cat", "vs CPU", "vs GPU", "n")
	for _, cat := range workload.Categories {
		var vsCPU, vsGPU []float64
		n := 0
		for i, wl := range suite {
			if wl.Category != cat {
				continue
			}
			n++
			st := baseline.Collect(wl.A, wl.B)
			misamJ := energy.FPGAEnergy(misamRes[i])
			cpuJ := energy.Energy(energy.CPUActiveWatts, cpu.Estimate(st).Seconds)
			gpuJ := energy.Energy(energy.GPUPower(st.BDensity), gpu.Estimate(st).Seconds)
			vsCPU = append(vsCPU, cpuJ/misamJ)
			vsGPU = append(vsGPU, gpuJ/misamJ)
		}
		g := CategoryEnergy{Category: cat, N: n, VsCPU: stats.GeoMean(vsCPU), VsGPU: stats.GeoMean(vsGPU)}
		res.Gains = append(res.Gains, g)
		fmt.Fprintf(w, "%-7v %9.2fx %9.2fx %6d\n", cat, g.VsCPU, g.VsGPU, n)
	}
	fmt.Fprintln(w, "paper vs CPU: 14.94x HSxHS / 47.24x MSxMS / 33.96x HSxMS / 6.08x HSxD / 5.51x MSxD")
	fmt.Fprintln(w, "paper vs GPU: 8.21x HSxHS / 43.07x MSxMS / 39.86x HSxMS; GPU wins dense (0.47x HSxD, 0.27x MSxD)")
	return res, nil
}

// Figure12Row is one workload's end-to-end breakdown.
type Figure12Row struct {
	Name              string
	PreprocessPercent float64
	InferencePercent  float64
	HardwarePercent   float64
	TotalSeconds      float64
}

// Figure12Result is the breakdown table.
type Figure12Result struct {
	Rows []Figure12Row
	// MeanInferencePercent should be ≈0.1 % (paper) and
	// MeanPreprocessPercent ≈2 %.
	MeanInferencePercent  float64
	MeanPreprocessPercent float64
}

// Figure12 reproduces the performance breakdown: preprocessing (feature
// extraction), model + engine inference, and hardware execution. It uses
// the paper's deployed configuration — the pruned four-feature model with
// pointer-offset feature extraction ("our lightweight 6 KB model, which
// is pruned and uses only the top four features", §5.5) — trained on the
// context's already-labelled corpus.
func Figure12(ctx *Context, w io.Writer) (Figure12Result, error) {
	header(w, "Figure 12: Misam end-to-end breakdown (percent of total)")
	base, err := ctx.Framework()
	if err != nil {
		return Figure12Result{}, err
	}
	fw, err := misam.TrainOnCorpus(base.Corpus, nil, misam.TrainOptions{
		CorpusSize:      ctx.Cfg.CorpusSize,
		MaxDim:          ctx.Cfg.MaxDim,
		Seed:            ctx.Cfg.Seed,
		TopFeaturesOnly: true,
	})
	if err != nil {
		return Figure12Result{}, err
	}
	var res Figure12Result
	var infs, pres []float64
	fmt.Fprintf(w, "%-26s %10s %10s %10s %12s\n", "workload", "preproc%", "infer%", "hardware%", "total(s)")
	for _, wl := range figure12Workloads(ctx) {
		rep, err := fw.Analyze(context.Background(), wl.A, wl.B)
		if err != nil {
			return res, err
		}
		total := rep.PreprocessSeconds + rep.InferenceSeconds + rep.SimulatedSeconds
		row := Figure12Row{
			Name:              wl.Name,
			PreprocessPercent: rep.PreprocessSeconds / total * 100,
			InferencePercent:  rep.InferenceSeconds / total * 100,
			HardwarePercent:   rep.SimulatedSeconds / total * 100,
			TotalSeconds:      total,
		}
		res.Rows = append(res.Rows, row)
		infs = append(infs, row.InferencePercent)
		pres = append(pres, row.PreprocessPercent)
		fmt.Fprintf(w, "%-26s %9.3f%% %9.4f%% %9.2f%% %12.6f\n",
			row.Name, row.PreprocessPercent, row.InferencePercent, row.HardwarePercent, row.TotalSeconds)
	}
	res.MeanInferencePercent = stats.Mean(infs)
	res.MeanPreprocessPercent = stats.Mean(pres)
	fmt.Fprintf(w, "mean inference share: %.4f%% (paper ≈0.1%%)   mean preprocessing share: %.2f%% (paper ≈2%%)\n",
		res.MeanInferencePercent, res.MeanPreprocessPercent)
	return res, nil
}

// figure12Workloads builds the breakdown's representative set at close to
// paper scale (hardware execution in the millisecond range, B 512 wide),
// since overhead percentages only mean anything against realistic
// hardware times. The quick configs halve dimensions via Reduction but
// keep B wide.
func figure12Workloads(ctx *Context) []workload.Workload {
	rng := ctx.RNG(12)
	red := ctx.Cfg.Reduction / 8
	if red < 1 {
		red = 1
	}
	dim := func(d int) int {
		n := d / red
		if n < 512 {
			n = 512
		}
		return n
	}
	bCols := 512
	var out []workload.Workload
	nSC := dim(170_000)
	sc := sparse.Block(rng, nSC, nSC, 24, 0.02, 0.4)
	out = append(out, workload.Workload{Name: "HSxD-scircuit-like", Category: workload.HSxD,
		A: sc, B: sparse.DenseRandom(rng, nSC, bCols)})
	nP2P := dim(26_000)
	p2p := sparse.PowerLaw(rng, nP2P, nP2P, nP2P*3, 1.9)
	out = append(out, workload.Workload{Name: "HSxMS-p2p-like", Category: workload.HSxMS,
		A: p2p, B: sparse.Uniform(rng, nP2P, bCols, 0.4)})
	m, k := dim(2048), dim(2048)
	dnn := sparse.DNNPruned(rng, m, k, 0.2, true, 4)
	out = append(out, workload.Workload{Name: "MSxD-resnet-like", Category: workload.MSxD,
		A: dnn, B: sparse.DenseRandom(rng, k, bCols)})
	vgg := sparse.DNNPruned(rng, m, k, 0.1, true, 4)
	out = append(out, workload.Workload{Name: "MSxMS-vgg-like", Category: workload.MSxMS,
		A: vgg, B: sparse.DNNPruned(rng, k, bCols, 0.2, true, 4)})
	nHS := dim(36_000)
	hs := sparse.PowerLaw(rng, nHS, nHS, nHS*10, 1.8)
	out = append(out, workload.Workload{Name: "HSxHS-enron-like", Category: workload.HSxHS,
		A: hs, B: hs})
	return out
}

// Figure13Result covers the §6.3 Trapezoid integration: per-workload
// normalized dataflow performance and a Misam selector trained on
// Trapezoid's dataflows.
type Figure13Result struct {
	// Wins[d] counts suite workloads where dataflow d is fastest.
	Wins [baseline.NumTrapezoidDataflows]int
	// SelectorAccuracy is the held-out accuracy of the dataflow selector
	// (paper: 92 %).
	SelectorAccuracy float64
	// MaxSpeedup is the largest optimal-vs-worst dataflow ratio observed
	// (paper: up to 15.8×).
	MaxSpeedup float64
	// GeoSpeedupOverFixed is the geomean gain of per-workload optimal
	// selection over the single best fixed dataflow.
	GeoSpeedupOverFixed float64
}

// Figure13 reproduces Figure 13 and the §6.3 integration experiment.
func Figure13(ctx *Context, w io.Writer) (Figure13Result, error) {
	header(w, "Figure 13 / §6.3: Misam selector over Trapezoid's dataflows")
	model := baseline.DefaultTrapezoid()
	var res Figure13Result

	// Build a labelled corpus over the training pairs: features → fastest
	// Trapezoid dataflow.
	corpus, err := ctx.Corpus()
	if err != nil {
		return res, err
	}
	var x [][]float64
	var y []int
	for _, s := range corpus.Samples {
		st := baseline.Collect(s.Pair.A, s.Pair.B)
		best, _ := model.BestDataflow(st)
		x = append(x, s.Features.Slice())
		y = append(y, int(best))
	}
	rng := ctx.RNG(13)
	train, test := mltree.StratifiedSplit(y, int(baseline.NumTrapezoidDataflows), 0.7, rng)
	trX := make([][]float64, len(train))
	trY := make([]int, len(train))
	for i, j := range train {
		trX[i], trY[i] = x[j], y[j]
	}
	cls, err := mltree.TrainClassifier(trX, trY, int(baseline.NumTrapezoidDataflows),
		mltree.BalancedWeights(trY, int(baseline.NumTrapezoidDataflows)),
		mltree.Config{MaxDepth: 10, MinSamplesLeaf: 2})
	if err != nil {
		return res, err
	}
	teX := make([][]float64, len(test))
	teY := make([]int, len(test))
	for i, j := range test {
		teX[i], teY[i] = x[j], y[j]
	}
	res.SelectorAccuracy = mltree.Accuracy(cls.PredictBatch(teX), teY)

	// Per-workload dataflow spread over the evaluation suite.
	suite := ctx.Suite()
	var fixedBest [baseline.NumTrapezoidDataflows][]float64
	var optimal []float64
	for _, wl := range suite {
		st := baseline.Collect(wl.A, wl.B)
		ests := model.EstimateAll(st)
		best, worst := baseline.TrapezoidInner, baseline.TrapezoidInner
		for _, d := range baseline.TrapezoidDataflows {
			if ests[d].Seconds < ests[best].Seconds {
				best = d
			}
			if ests[d].Seconds > ests[worst].Seconds {
				worst = d
			}
		}
		res.Wins[best]++
		if ratio := ests[worst].Seconds / ests[best].Seconds; ratio > res.MaxSpeedup {
			res.MaxSpeedup = ratio
		}
		optimal = append(optimal, ests[best].Seconds)
		for _, d := range baseline.TrapezoidDataflows {
			fixedBest[d] = append(fixedBest[d], ests[d].Seconds)
		}
	}
	bestFixedGeo := 0.0
	optGeo := stats.GeoMean(optimal)
	fmt.Fprintf(w, "%-10s %20s\n", "dataflow", "geomean normalized")
	for _, d := range baseline.TrapezoidDataflows {
		g := stats.GeoMean(fixedBest[d])
		if bestFixedGeo == 0 || g < bestFixedGeo {
			bestFixedGeo = g
		}
		fmt.Fprintf(w, "%-10v %20.3f\n", d, optGeo/g)
	}
	res.GeoSpeedupOverFixed = bestFixedGeo / optGeo

	fmt.Fprintf(w, "dataflow wins across suite: IP=%d OP=%d RW=%d\n",
		res.Wins[baseline.TrapezoidInner], res.Wins[baseline.TrapezoidOuter], res.Wins[baseline.TrapezoidRowWise])
	fmt.Fprintf(w, "selector held-out accuracy: %.1f%% (paper 92%%)\n", res.SelectorAccuracy*100)
	fmt.Fprintf(w, "max optimal-vs-worst dataflow speedup: %.1fx (paper up to 15.8x)\n", res.MaxSpeedup)
	fmt.Fprintf(w, "geomean gain of per-workload selection over best fixed dataflow: %.2fx\n", res.GeoSpeedupOverFixed)
	return res, nil
}
