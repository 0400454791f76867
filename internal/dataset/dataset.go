// Package dataset generates the training corpora of §4: a classifier set
// of matrix pairs spanning 1–99 % sparsity labelled with the best Misam
// design (the paper's 6,219-matrix set), and a larger latency-predictor
// set of (features, design) → latency records (the paper's 19,000-matrix
// set). SuiteSparse-style highly sparse matrices are synthesized with the
// generator families of internal/sparse; moderately sparse and dense
// matrices mimic pruned DNN weights. Sizes scale with a count parameter
// so unit tests stay fast while the benchmark harness can regenerate
// paper-scale corpora.
package dataset

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"misam/internal/energy"
	"misam/internal/features"
	"misam/internal/memo"
	"misam/internal/sim"
	"misam/internal/sparse"
)

// Pair is one SpGEMM workload: the two operands plus a family tag for
// diagnostics.
type Pair struct {
	Family string
	A, B   *sparse.CSR
}

// Sample is one labelled training record.
type Sample struct {
	Pair     Pair
	Features features.Vector
	// LatencySec and EnergyJ hold each design's simulated latency and
	// energy.
	LatencySec [sim.NumDesigns]float64
	EnergyJ    [sim.NumDesigns]float64
	// Best is the argmin-latency design — the default classification
	// label (see Corpus.LabelsFor for other objectives).
	Best sim.DesignID
}

// BestFor returns the optimal design under a weighted latency/energy
// objective (§3.1: "users [can] prioritize performance metrics ...
// optimize exclusively for performance, prioritize energy efficiency, or
// apply a weighted combination"). Each metric is normalized by its
// per-sample minimum so the weights are scale-free.
func (s *Sample) BestFor(latencyWeight, energyWeight float64) sim.DesignID {
	minLat, minEn := s.LatencySec[0], s.EnergyJ[0]
	for _, id := range sim.AllDesigns {
		if s.LatencySec[id] < minLat {
			minLat = s.LatencySec[id]
		}
		if s.EnergyJ[id] < minEn {
			minEn = s.EnergyJ[id]
		}
	}
	best, bestCost := sim.Design1, 0.0
	for i, id := range sim.AllDesigns {
		cost := 0.0
		if minLat > 0 {
			cost += latencyWeight * s.LatencySec[id] / minLat
		}
		if minEn > 0 {
			cost += energyWeight * s.EnergyJ[id] / minEn
		}
		if i == 0 || cost < bestCost {
			best, bestCost = id, cost
		}
	}
	return best
}

// Corpus is a labelled training set.
type Corpus struct {
	Samples []Sample
}

// X returns the feature matrix.
func (c *Corpus) X() [][]float64 {
	out := make([][]float64, len(c.Samples))
	for i := range c.Samples {
		out[i] = c.Samples[i].Features.Slice()
	}
	return out
}

// Labels returns the best-design labels under the pure-latency objective.
func (c *Corpus) Labels() []int {
	out := make([]int, len(c.Samples))
	for i := range c.Samples {
		out[i] = int(c.Samples[i].Best)
	}
	return out
}

// LabelsFor returns the best-design labels under a weighted
// latency/energy objective.
func (c *Corpus) LabelsFor(latencyWeight, energyWeight float64) []int {
	out := make([]int, len(c.Samples))
	for i := range c.Samples {
		out[i] = int(c.Samples[i].BestFor(latencyWeight, energyWeight))
	}
	return out
}

// ClassCounts tallies labels per design.
func (c *Corpus) ClassCounts() [sim.NumDesigns]int {
	var out [sim.NumDesigns]int
	for _, s := range c.Samples {
		out[s.Best]++
	}
	return out
}

// RandomPair draws one workload from the mixture the paper trains on.
// maxDim bounds matrix dimensions (training-time simulation cost).
func RandomPair(rng *rand.Rand, maxDim int) Pair {
	if maxDim < 64 {
		maxDim = 64
	}
	switch rng.Intn(9) {
	case 0:
		// DNN layer: moderately sparse or dense A × dense-ish B with the
		// characteristic power-of-two widths (§3.1). Layer dims run up to
		// 2× the nominal bound: im2col weight matrices (e.g. 512×4608)
		// outgrow the square workloads.
		dims := []int{128, 256, 512, 1024, 2048, 4096}
		m := dims[rng.Intn(len(dims))]
		k := dims[rng.Intn(len(dims))]
		n := dims[rng.Intn(len(dims))]
		m, k, n = capDim(m, 2*maxDim), capDim(k, 2*maxDim), capDim(n, maxDim)
		aDens := 0.05 + rng.Float64()*0.45
		a := sparse.DNNPruned(rng, m, k, aDens, rng.Intn(2) == 0, 4)
		var b *sparse.CSR
		if rng.Intn(2) == 0 {
			b = sparse.DenseRandom(rng, k, n)
		} else {
			b = sparse.DNNPruned(rng, k, n, 0.1+rng.Float64()*0.5, true, 4)
		}
		return Pair{Family: "dnn", A: a, B: b}
	case 1:
		// Scientific: banded/FEM-like A, highly sparse or dense B.
		n := dimBetween(rng, 256, maxDim)
		a := sparse.Banded(rng, n, n, 1+rng.Intn(8), 0.3+0.7*rng.Float64())
		b := scientificB(rng, n, maxDim)
		return Pair{Family: "banded", A: a, B: b}
	case 2:
		// Graph: power-law A, often squared (A×A graph analytics).
		n := dimBetween(rng, 256, maxDim)
		nnz := n * (2 + rng.Intn(8))
		a := sparse.PowerLaw(rng, n, n, nnz, 1.5+rng.Float64())
		if rng.Intn(2) == 0 {
			return Pair{Family: "graph-sq", A: a, B: a}
		}
		return Pair{Family: "graph", A: a, B: scientificB(rng, n, maxDim)}
	case 3:
		// Uniform random across the full 1–99 % sparsity span.
		m := dimBetween(rng, 64, maxDim)
		k := dimBetween(rng, 64, maxDim)
		n := dimBetween(rng, 64, maxDim)
		a := sparse.Uniform(rng, m, k, 0.01+rng.Float64()*0.98)
		b := sparse.Uniform(rng, k, n, 0.01+rng.Float64()*0.98)
		return Pair{Family: "uniform", A: a, B: b}
	case 4:
		// Highly sparse uniform pair — Design 4 territory.
		m := dimBetween(rng, 512, maxDim)
		k := dimBetween(rng, 512, maxDim)
		n := dimBetween(rng, 512, maxDim)
		a := sparse.Uniform(rng, m, k, 0.0005+rng.Float64()*0.01)
		b := sparse.Uniform(rng, k, n, 0.0005+rng.Float64()*0.01)
		return Pair{Family: "hs", A: a, B: b}
	case 5:
		// Imbalanced A — Design 3 territory.
		n := dimBetween(rng, 512, maxDim)
		nnz := n * (4 + rng.Intn(10))
		a := sparse.Imbalanced(rng, n, n, nnz, 0.005+0.02*rng.Float64(), 0.6+0.35*rng.Float64())
		b := sparse.DenseRandom(rng, n, capDim(8<<rng.Intn(4), maxDim))
		return Pair{Family: "imbalanced", A: a, B: b}
	case 6:
		// Small uniformly sparse A × narrow dense B — the regime where
		// Design 1's compact schedule wins (§3.2.2).
		n := dimBetween(rng, 128, maxDim/2+128)
		a := sparse.Uniform(rng, n, n, 0.001+rng.Float64()*0.01)
		b := sparse.DenseRandom(rng, n, 4+rng.Intn(13))
		return Pair{Family: "tiny-sparse", A: a, B: b}
	case 7:
		// Wide streaming tile (§3.3): a row slice of a much larger matrix,
		// so rows ≪ cols. This is the shape the tile-level engine sees.
		rows := dimBetween(rng, 256, maxDim*2)
		cols := rows * (4 + rng.Intn(13))
		var a *sparse.CSR
		if rng.Intn(2) == 0 {
			a = sparse.PowerLaw(rng, rows, cols, rows*(2+rng.Intn(10)), 1.5+rng.Float64())
		} else {
			a = sparse.Uniform(rng, rows, cols, float64(2+rng.Intn(8))/float64(cols))
		}
		var b *sparse.CSR
		if rng.Intn(2) == 0 {
			b = sparse.DenseRandom(rng, cols, 8<<rng.Intn(3))
		} else {
			b = sparse.Uniform(rng, cols, 128<<rng.Intn(2), 0.05+rng.Float64()*0.4)
		}
		return Pair{Family: "tile", A: a, B: b}
	default:
		// Large-dimension sparse matrices (the Figure 8 streaming regime):
		// dimensions log-uniform from 2× to ~128× the DNN sizes, bounded
		// nnz so labelling stays affordable.
		n := int(float64(maxDim*2) * math.Pow(2, rng.Float64()*6))
		deg := 2 + rng.Intn(10)
		var a *sparse.CSR
		switch rng.Intn(3) {
		case 0:
			a = sparse.Banded(rng, n, n, (deg+1)/2, 0.8)
		case 1:
			a = sparse.PowerLaw(rng, n, n, n*deg, 1.6+rng.Float64())
		default:
			a = sparse.Uniform(rng, n, n, float64(deg)/float64(n))
		}
		var b *sparse.CSR
		switch rng.Intn(4) {
		case 0:
			b = sparse.DenseRandom(rng, n, 8<<rng.Intn(4))
		case 1:
			b = sparse.Uniform(rng, n, n, float64(2+rng.Intn(6))/float64(n))
		case 2:
			// Moderately sparse multi-RHS block (the cg-style streaming
			// workloads of Figure 8).
			b = sparse.Uniform(rng, n, 128<<rng.Intn(3), 0.02+rng.Float64()*0.5)
		default:
			b = a
		}
		return Pair{Family: "large", A: a, B: b}
	}
}

// dimBetween draws a dimension uniformly in [lo, hi], tolerating hi < lo
// (small MaxDim configurations).
func dimBetween(rng *rand.Rand, lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + rng.Intn(hi-lo+1)
}

func capDim(d, maxDim int) int {
	if d > maxDim {
		return maxDim
	}
	return d
}

// scientificB draws the B operand for scientific/graph workloads: dense
// multi-RHS block, moderately sparse, or highly sparse.
func scientificB(rng *rand.Rand, k, maxDim int) *sparse.CSR {
	switch rng.Intn(3) {
	case 0:
		return sparse.DenseRandom(rng, k, capDim(32<<rng.Intn(3), maxDim))
	case 1:
		return sparse.Uniform(rng, k, capDim(128<<rng.Intn(3), maxDim), 0.1+rng.Float64()*0.5)
	default:
		return sparse.Uniform(rng, k, k, 0.0005+rng.Float64()*0.005)
	}
}

// Label simulates all four designs on a pair and returns the sample. The
// designs share one sim.Workload precompute, so the pair's CSC form, B
// row counts, tilings and element bins are derived once rather than per
// design — this is the hot kernel of corpus generation (one call per
// training sample). Cancelling ctx aborts the four design simulations
// mid-tile-pool and returns ctx.Err().
func Label(ctx context.Context, p Pair) (Sample, error) {
	w, err := sim.NewWorkload(p.A, p.B)
	if err != nil {
		return Sample{}, fmt.Errorf("dataset: labelling %s: %w", p.Family, err)
	}
	results, err := w.SimulateAllCtx(ctx)
	if err != nil {
		return Sample{}, fmt.Errorf("dataset: labelling %s: %w", p.Family, err)
	}
	s := Sample{Pair: p, Features: features.Extract(p.A, p.B), Best: sim.BestDesign(results)}
	for _, id := range sim.AllDesigns {
		s.LatencySec[id] = results[id].Seconds
		s.EnergyJ[id] = energy.FPGAEnergy(results[id])
	}
	return s, nil
}

// LabelAll labels a batch of pairs, fanning the per-pair work out across
// GOMAXPROCS workers. Results keep the input order; the first error (in
// input order) wins. It labels a pair set without serializing on Label;
// BenchmarkCorpusLabellingParallel times it against sequential Label. ctx
// cancellation stops the workers between pairs (and aborts in-flight
// simulations) and returns ctx.Err().
//
// Identical operand pairs are deduplicated by content fingerprint before
// any simulation runs: each distinct pair is labelled exactly once and
// the sample replicated to its duplicates (keeping each duplicate's own
// Pair metadata). Corpora drawn from real workload traces repeat the
// same weight matrix across many records, so the saving is proportional
// to the repetition rate.
func LabelAll(ctx context.Context, pairs []Pair) ([]Sample, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Group by operand content; reps holds the first index of each
	// distinct pair, repOf maps every index to its representative.
	reps := make([]int, 0, len(pairs))
	repOf := make([]int, len(pairs))
	firstByKey := make(map[memo.Key]int, len(pairs))
	for i, p := range pairs {
		k := memo.PairKey(p.A.Fingerprint(), p.B.Fingerprint())
		if j, ok := firstByKey[k]; ok {
			repOf[i] = j
			continue
		}
		firstByKey[k] = i
		repOf[i] = i
		reps = append(reps, i)
	}

	samples := make([]Sample, len(pairs))
	errs := make([]error, len(pairs))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(reps) {
		workers = len(reps)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	next := int64(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				r := int(atomic.AddInt64(&next, 1)) - 1
				if r >= len(reps) {
					return
				}
				i := reps[r]
				samples[i], errs[i] = Label(ctx, pairs[i])
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i := range pairs {
		if err := errs[repOf[i]]; err != nil {
			return nil, err
		}
	}
	for i, j := range repOf {
		if i == j {
			continue
		}
		samples[i] = samples[j]
		samples[i].Pair = pairs[i]
	}
	return samples, nil
}

// GenerateClassifier builds a labelled corpus of n samples. maxDim bounds
// matrix dimensions (2048 reproduces the paper's regime; tests pass
// smaller values for speed). Generation and labelling fan out across
// GOMAXPROCS workers; results are deterministic for a given rng seed
// because each sample derives its own seed from the master stream before
// the fan-out.
func GenerateClassifier(rng *rand.Rand, n, maxDim int) (*Corpus, error) {
	// Draw per-sample seeds serially so scheduling cannot perturb them.
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	samples := make([]Sample, n)
	errs := make([]error, n)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	next := int64(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				local := rand.New(rand.NewSource(seeds[i]))
				samples[i], errs[i] = Label(context.Background(), RandomPair(local, maxDim))
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &Corpus{Samples: samples}, nil
}

// LatencyRecordFeatures returns the latency predictor's input encoding:
// the matrix features followed by a one-hot of the design whose latency
// is being predicted — "the expected latency for the predicted design,
// based on the matrix features and the current FPGA configuration" (§3.3).
func LatencyRecordFeatures(v features.Vector, id sim.DesignID) []float64 {
	out := make([]float64, features.NumFeatures+int(sim.NumDesigns))
	copy(out, v.Slice())
	out[features.NumFeatures+int(id)] = 1
	return out
}

// LatencyTarget converts a simulated latency to the regression target:
// log10 of milliseconds, compressing the several-decade dynamic range.
func LatencyTarget(seconds float64) float64 {
	ms := seconds * 1e3
	if ms < 1e-9 {
		ms = 1e-9
	}
	return math.Log10(ms)
}

// LatencyFromTarget inverts LatencyTarget back to seconds.
func LatencyFromTarget(t float64) float64 {
	return math.Pow(10, t) / 1e3
}

// GenerateLatency builds the latency-predictor training set from a
// classifier corpus: one record per (sample, design).
func GenerateLatency(c *Corpus) (x [][]float64, y []float64) {
	for _, s := range c.Samples {
		for _, id := range sim.AllDesigns {
			x = append(x, LatencyRecordFeatures(s.Features, id))
			y = append(y, LatencyTarget(s.LatencySec[id]))
		}
	}
	return x, y
}
