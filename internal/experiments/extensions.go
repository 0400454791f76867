package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"misam"
	"misam/internal/features"
	"misam/internal/mltree"
	"misam/internal/reconfig"
	"misam/internal/sim"
	"misam/internal/sparse"
	"misam/internal/stats"
	"misam/internal/workload"
)

// RouterResult is the §6.3 heterogeneous-routing extension: a selector
// that sends each workload to the fastest of {CPU, GPU, Misam}.
type RouterResult struct {
	// Counts[d] is how many suite workloads the router sent to device d.
	Counts [misam.NumDevices]int
	// OracleCounts is the true fastest-device distribution.
	OracleCounts [misam.NumDevices]int
	// Accuracy is agreement between router and oracle over the suite.
	Accuracy float64
	// GeoSpeedupOverMisamOnly is the geomean gain of routed execution
	// over always using the FPGA.
	GeoSpeedupOverMisamOnly float64
}

// Router runs the §6.3 extension over the evaluation suite.
func Router(ctx *Context, w io.Writer) (RouterResult, error) {
	header(w, "Extension (§6.3): heterogeneous CPU/GPU/Misam routing")
	fw, err := ctx.Framework()
	if err != nil {
		return RouterResult{}, err
	}
	router, err := misam.TrainRouter(fw)
	if err != nil {
		return RouterResult{}, err
	}
	var res RouterResult
	var ratios []float64
	for _, wl := range ctx.Suite() {
		lat, err := misam.DeviceLatencies(wl.A, wl.B)
		if err != nil {
			return res, err
		}
		oracle := misam.DeviceCPU
		for d := misam.DeviceCPU; d < misam.NumDevices; d++ {
			if lat[d] < lat[oracle] {
				oracle = d
			}
		}
		routed := router.Route(misam.ExtractFeatures(wl.A, wl.B))
		res.Counts[routed]++
		res.OracleCounts[oracle]++
		if routed == oracle {
			res.Accuracy++
		}
		ratios = append(ratios, lat[misam.DeviceMisam]/lat[routed])
	}
	n := len(ctx.Suite())
	res.Accuracy /= float64(n)
	res.GeoSpeedupOverMisamOnly = stats.GeoMean(ratios)
	fmt.Fprintf(w, "routed:  CPU=%d GPU=%d Misam=%d\n", res.Counts[0], res.Counts[1], res.Counts[2])
	fmt.Fprintf(w, "oracle:  CPU=%d GPU=%d Misam=%d\n", res.OracleCounts[0], res.OracleCounts[1], res.OracleCounts[2])
	fmt.Fprintf(w, "routing accuracy: %.1f%%\n", res.Accuracy*100)
	fmt.Fprintf(w, "geomean speedup of routed execution over FPGA-only: %.2fx\n", res.GeoSpeedupOverMisamOnly)
	return res, nil
}

// ObjectiveResult is the §3.1 multi-objective extension: how the optimal
// design distribution shifts as the objective moves from pure latency to
// pure energy.
type ObjectiveResult struct {
	// Shifted is the fraction of corpus samples whose optimal design
	// changes under a pure-energy objective.
	Shifted float64
	// LatencyCounts / EnergyCounts are the label distributions.
	LatencyCounts, EnergyCounts [4]int
}

// Objective runs the multi-objective extension on the training corpus.
func Objective(ctx *Context, w io.Writer) (ObjectiveResult, error) {
	header(w, "Extension (§3.1): tunable latency/energy objective")
	corpus, err := ctx.Corpus()
	if err != nil {
		return ObjectiveResult{}, err
	}
	var res ObjectiveResult
	lat := corpus.Labels()
	en := corpus.LabelsFor(0, 1)
	for i := range lat {
		res.LatencyCounts[lat[i]]++
		res.EnergyCounts[en[i]]++
		if lat[i] != en[i] {
			res.Shifted++
		}
	}
	res.Shifted /= float64(len(lat))
	fmt.Fprintf(w, "%-16s %6s %6s %6s %6s\n", "objective", "D1", "D2", "D3", "D4")
	fmt.Fprintf(w, "%-16s %6d %6d %6d %6d\n", "latency", res.LatencyCounts[0], res.LatencyCounts[1], res.LatencyCounts[2], res.LatencyCounts[3])
	fmt.Fprintf(w, "%-16s %6d %6d %6d %6d\n", "energy", res.EnergyCounts[0], res.EnergyCounts[1], res.EnergyCounts[2], res.EnergyCounts[3])
	fmt.Fprintf(w, "optimal design changes on %.1f%% of the corpus\n", res.Shifted*100)
	return res, nil
}

var _ = workload.HSxHS

// ReconfigModesResult is the §6.1 reconfiguration-mechanism study: switch
// times per mode and the batch size at which the engine first switches.
type ReconfigModesResult struct {
	// SwitchSeconds[mode] is the D1→D4 switch cost under each mechanism.
	SwitchSeconds map[string]float64
	// FirstSwitchUnits[mode] is the smallest power-of-two batch at which
	// the engine reconfigures for a Design-4-favoring workload.
	FirstSwitchUnits map[string]float64
}

// ReconfigModes runs the §6.1 extension: "future FPGA platforms with
// reduced reconfiguration times could enable the engine to more
// aggressively select optimal designs" — quantified by sweeping the
// switching mechanism from full bitstreams to partial regions to a CGRA.
func ReconfigModes(ctx *Context, w io.Writer) (ReconfigModesResult, error) {
	header(w, "Extension (§6.1): reconfiguration mechanisms vs engine aggressiveness")
	fw, err := ctx.Framework()
	if err != nil {
		return ReconfigModesResult{}, err
	}
	res := ReconfigModesResult{
		SwitchSeconds:    map[string]float64{},
		FirstSwitchUnits: map[string]float64{},
	}
	rng := ctx.RNG(61)
	n := 3000
	a := sparse.Uniform(rng, n, n, 0.001)
	bm := sparse.Uniform(rng, n, 256, 0.02)
	v := misamFeatures(a, bm)
	fmt.Fprintf(w, "%-10s %14s %22s\n", "mode", "D1→D4 switch", "first switch at batch")
	for _, mode := range []reconfig.Mode{reconfig.FullBitstream, reconfig.PartialRegion, reconfig.CGRA} {
		times := reconfig.DefaultTimeModel().WithMode(mode)
		res.SwitchSeconds[mode.String()] = times.Switch(sim.Design1, sim.Design4)
		eng := reconfig.NewEngine(fw.Engine.Predictor, times, 0.20)
		st := reconfig.State{Loaded: sim.Design1, HasLoaded: true}
		first := float64(-1)
		for units := 1.0; units <= 1<<26; units *= 2 {
			if d := eng.Decide(st, v, sim.Design4, units); d.Target == sim.Design4 {
				first = units
				break
			}
		}
		res.FirstSwitchUnits[mode.String()] = first
		fmt.Fprintf(w, "%-10s %13.4fs %22.0f\n", mode, res.SwitchSeconds[mode.String()], first)
	}
	fmt.Fprintln(w, "paper §6.1: full ≈3–4 s; small partial regions ≈ hundreds of ms; CGRAs µs–ms")
	return res, nil
}

// LearningCurveResult quantifies §6.3's retraining claim ("Misam can be
// retrained as workloads evolve, often within minutes for reasonably
// sized datasets"): selector accuracy and wall-clock training time as the
// corpus grows.
type LearningCurvePoint struct {
	CorpusSize   int
	Accuracy     float64
	TrainSeconds float64
}

type LearningCurveResult struct {
	Points []LearningCurvePoint
}

// LearningCurve trains selectors on nested prefixes of the corpus and
// evaluates each on the final 30 % holdout.
func LearningCurve(ctx *Context, w io.Writer) (LearningCurveResult, error) {
	header(w, "Extension (§6.3): selector accuracy and training time vs corpus size")
	corpus, err := ctx.Corpus()
	if err != nil {
		return LearningCurveResult{}, err
	}
	n := len(corpus.Samples)
	holdStart := n * 7 / 10
	teX := make([][]float64, 0, n-holdStart)
	teY := make([]int, 0, n-holdStart)
	for _, s := range corpus.Samples[holdStart:] {
		teX = append(teX, s.Features.Slice())
		teY = append(teY, int(s.Best))
	}

	var res LearningCurveResult
	fmt.Fprintf(w, "%-12s %10s %12s\n", "corpus size", "accuracy", "train time")
	for frac := 0.1; frac <= 1.0; frac *= 2 {
		size := int(frac * float64(holdStart))
		if size < 20 {
			continue
		}
		trX := make([][]float64, size)
		trY := make([]int, size)
		for i := 0; i < size; i++ {
			trX[i] = corpus.Samples[i].Features.Slice()
			trY[i] = int(corpus.Samples[i].Best)
		}
		start := time.Now()
		cls, err := mltree.TrainClassifier(trX, trY, int(sim.NumDesigns),
			mltree.BalancedWeights(trY, int(sim.NumDesigns)),
			mltree.Config{MaxDepth: 10, MinSamplesLeaf: 2})
		if err != nil {
			return res, err
		}
		elapsed := time.Since(start).Seconds()
		pt := LearningCurvePoint{
			CorpusSize:   size,
			Accuracy:     mltree.Accuracy(cls.PredictBatch(teX), teY),
			TrainSeconds: elapsed,
		}
		res.Points = append(res.Points, pt)
		fmt.Fprintf(w, "%-12d %9.1f%% %11.3fs\n", pt.CorpusSize, pt.Accuracy*100, pt.TrainSeconds)
	}
	fmt.Fprintln(w, "(labelling the corpus — simulating all designs — dominates; tree fitting is sub-second)")
	return res, nil
}

// PhaseRow is one phase's outcome under the adaptive engine.
type PhaseRow struct {
	Name      string
	Proposed  sim.DesignID
	Executed  sim.DesignID
	Switched  bool
	PhaseSec  float64 // executed design × invocations + any reconfig
	StaticSec float64 // staying on the initial design
}

// PhasesResult aggregates one trace.
type PhasesResult struct {
	Trace       string
	Rows        []PhaseRow
	AdaptiveSec float64
	StaticSec   float64
	Switches    int
}

// Phases runs the intro's evolving-application scenario: three traces
// (training-time pruning, multilevel graph coarsening, adaptive solver
// stages) whose sparsity regime shifts between phases, comparing the
// engine's adaptive execution against staying on the initial bitstream.
func Phases(ctx *Context, w io.Writer) ([]PhasesResult, error) {
	header(w, "Extension (§1): adapting to evolving sparsity phases")
	fw, err := ctx.Framework()
	if err != nil {
		return nil, err
	}
	rng := ctx.RNG(71)
	red := ctx.Cfg.Reduction
	dim := func(d int) int {
		n := d / red
		if n < 128 {
			n = 128
		}
		return n
	}
	// Invocation counts scale with the size reduction so the amortization
	// regime matches paper-scale behavior (as in Figure 8's batches).
	inv := 4000 * red
	traces := []struct {
		name   string
		phases []workload.Phase
	}{
		{"pruning", workload.PruningTrace(rng, dim(8192), dim(8192), 256, 5, inv)},
		{"coarsening", workload.CoarseningTrace(rng, dim(400_000), 4, 5, inv)},
		{"solver", workload.SolverTrace(rng, dim(200_000), 128, 4, inv)},
	}

	var results []PhasesResult
	for _, tr := range traces {
		res := PhasesResult{Trace: tr.name}
		// The first phase's best design is the static baseline.
		first, err := misam.SimulateAllDesigns(tr.phases[0].A, tr.phases[0].B)
		if err != nil {
			return nil, err
		}
		static := sim.BestDesign(first)
		dev := reconfig.NewDevice(tr.name, fw.Engine)
		dev.ForceLoad(static)

		fmt.Fprintf(w, "trace %q (static baseline: %v)\n", tr.name, static)
		for _, ph := range tr.phases {
			v := misamFeatures(ph.A, ph.B)
			proposed := fw.Selector.Select(v)
			dec := dev.DecideApply(v, proposed, float64(ph.Invocations))

			// The adaptive and static designs run on the same pair, so one
			// workload precompute serves both simulations.
			wk, err := sim.NewWorkload(ph.A, ph.B)
			if err != nil {
				return nil, err
			}
			exec, err := wk.SimulateCtx(context.Background(), sim.GetConfig(dec.Target))
			if err != nil {
				return nil, err
			}
			staticRes, err := wk.SimulateCtx(context.Background(), sim.GetConfig(static))
			if err != nil {
				return nil, err
			}
			row := PhaseRow{
				Name:      ph.Name,
				Proposed:  proposed,
				Executed:  dec.Target,
				Switched:  dec.Target != static,
				PhaseSec:  float64(ph.Invocations)*exec.Seconds + dec.ReconfigSeconds,
				StaticSec: float64(ph.Invocations) * staticRes.Seconds,
			}
			res.Rows = append(res.Rows, row)
			res.AdaptiveSec += row.PhaseSec
			res.StaticSec += row.StaticSec
			if dec.Target != static || dec.Reconfigure {
				res.Switches++
			}
			fmt.Fprintf(w, "  %-28s proposed %v → ran %v   adaptive %8.2fs vs static %8.2fs\n",
				ph.Name, proposed, dec.Target, row.PhaseSec, row.StaticSec)
		}
		fmt.Fprintf(w, "  trace total: adaptive %.2fs vs static %.2fs (%.2fx), %d reconfigurations\n",
			res.AdaptiveSec, res.StaticSec, res.StaticSec/res.AdaptiveSec, res.Switches)
		results = append(results, res)
	}
	return results, nil
}

// Heuristics prints the learned selector as human-readable rules — §6.3:
// "insights from trained models can inform the design of new heuristics,
// bridging the gap between manual rule design and adaptive learning-based
// optimization".
type HeuristicsResult struct {
	TopSplits []string
	Rules     string
}

// Heuristics extracts the selector's top decision boundaries.
func Heuristics(ctx *Context, w io.Writer) (HeuristicsResult, error) {
	header(w, "Extension (§6.3): the learned dataflow-selection heuristic")
	fw, err := ctx.Framework()
	if err != nil {
		return HeuristicsResult{}, err
	}
	names := features.Names()
	classes := make([]string, sim.NumDesigns)
	for _, id := range sim.AllDesigns {
		classes[id] = id.String()
	}
	res := HeuristicsResult{
		TopSplits: fw.Selector.Tree.TopSplits(names, 3),
	}
	// A pruned copy keeps the printed rule set readable.
	pruned, err := misam.TrainOnCorpus(fw.Corpus, nil, misam.TrainOptions{
		CorpusSize: len(fw.Corpus.Samples), MaxDim: ctx.Cfg.MaxDim, Seed: ctx.Cfg.Seed, MaxDepth: 3,
	})
	if err != nil {
		return res, err
	}
	res.Rules = pruned.Selector.Tree.Rules(names, classes)
	fmt.Fprintln(w, "top decision boundaries of the full selector:")
	for _, s := range res.TopSplits {
		fmt.Fprintf(w, "  %s\n", s)
	}
	fmt.Fprintln(w, "\ndepth-3 selector as an explicit heuristic:")
	fmt.Fprint(w, res.Rules)
	return res, nil
}
