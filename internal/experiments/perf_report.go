package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"misam"
	"misam/internal/dataset"
	"misam/internal/energy"
	"misam/internal/features"
	"misam/internal/sim"
	"misam/internal/sparse"
)

// PerfBench is one serial-vs-parallel timing comparison in the perf
// report. Serial is the pre-Workload reference engine (per-design
// precompute, serial tile loop: sim.SimulateAllSerial); parallel is the
// production shared-precompute engine.
type PerfBench struct {
	Name         string  `json:"name"`
	Iters        int     `json:"iters"`
	SerialNsOp   int64   `json:"serial_ns_op"`
	ParallelNsOp int64   `json:"parallel_ns_op"`
	Speedup      float64 `json:"speedup"`
}

// PerfReportData is the machine-readable perf trajectory record
// (BENCH_PR1.json). Later PRs append comparable files so the speedup
// history is tracked from PR 1 onward.
type PerfReportData struct {
	Schema     string      `json:"schema"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	NumCPU     int         `json:"num_cpu"`
	Note       string      `json:"note,omitempty"`
	Benchmarks []PerfBench `json:"benchmarks"`
}

// timePair measures serial and parallel ns/op by interleaving their
// iterations (serial, parallel, serial, parallel, ...) so slow drift in
// host load cancels out of the ratio instead of biasing one side. One
// warmup of each calibrates an iteration count covering ~1s per side,
// bounded to [3, 16].
func timePair(serial, parallel func() error) (int64, int64, int, error) {
	if err := serial(); err != nil {
		return 0, 0, 0, err
	}
	if err := parallel(); err != nil {
		return 0, 0, 0, err
	}
	t0 := time.Now()
	if err := serial(); err != nil {
		return 0, 0, 0, err
	}
	per := time.Since(t0)
	iters := 3
	if per > 0 {
		if n := int(time.Second / per); n > iters {
			iters = n
		}
	}
	if iters > 16 {
		iters = 16
	}
	var sNs, pNs int64
	for i := 0; i < iters; i++ {
		t0 = time.Now()
		if err := serial(); err != nil {
			return 0, 0, 0, err
		}
		sNs += time.Since(t0).Nanoseconds()
		t0 = time.Now()
		if err := parallel(); err != nil {
			return 0, 0, 0, err
		}
		pNs += time.Since(t0).Nanoseconds()
	}
	return sNs / int64(iters), pNs / int64(iters), iters, nil
}

// labelSerial reproduces dataset.Label on the serial reference engine —
// the baseline the corpus-labelling speedup is measured against.
func labelSerial(p dataset.Pair) (dataset.Sample, error) {
	results, err := sim.SimulateAllSerial(p.A, p.B)
	if err != nil {
		return dataset.Sample{}, err
	}
	s := dataset.Sample{Pair: p, Features: features.Extract(p.A, p.B), Best: sim.BestDesign(results)}
	for _, id := range sim.AllDesigns {
		s.LatencySec[id] = results[id].Seconds
		s.EnergyJ[id] = energy.FPGAEnergy(results[id])
	}
	return s, nil
}

// PerfReport times the simulation engine's serial reference against the
// shared-precompute parallel engine on representative workloads plus a
// corpus-labelling batch, writes the JSON record to path, and prints a
// human-readable table. The workloads are fixed-seed, so successive PRs
// measure the same inputs.
func PerfReport(path string, w io.Writer) (PerfReportData, error) {
	header(w, "Perf report: serial reference vs shared-precompute parallel engine")
	rep := PerfReportData{
		Schema:     "misam-perf/1",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	if rep.GOMAXPROCS <= 1 {
		rep.Note = "single-processor host: SimulateAll runs designs sequentially and the " +
			"tile pool is disabled, so these speedups measure shared precompute only; " +
			"design fan-out and tile-parallel gains appear with GOMAXPROCS > 1"
	}

	rng := rand.New(rand.NewSource(42))
	simCases := []struct {
		name string
		a, b *sparse.CSR
	}{
		{"SimulateAll/uniform-spmm", sparse.Uniform(rng, 3000, 3000, 0.01), sparse.DenseRandom(rng, 3000, 96)},
		{"SimulateAll/powerlaw-graph", sparse.PowerLaw(rng, 6000, 6000, 48000, 1.8), sparse.DenseRandom(rng, 6000, 32)},
		{"SimulateAll/hs-spgemm", sparse.Uniform(rng, 8000, 8000, 0.0008), sparse.Uniform(rng, 8000, 8000, 0.0005)},
	}
	for _, c := range simCases {
		a, b := c.a, c.b
		serial, parallel, iters, err := timePair(
			func() error { _, err := sim.SimulateAllSerial(a, b); return err },
			func() error { _, err := sim.SimulateAll(a, b); return err },
		)
		if err != nil {
			return rep, fmt.Errorf("experiments: perf %s: %w", c.name, err)
		}
		rep.Benchmarks = append(rep.Benchmarks, PerfBench{
			Name: c.name, Iters: iters,
			SerialNsOp: serial, ParallelNsOp: parallel,
			Speedup: float64(serial) / float64(parallel),
		})
	}

	// Corpus labelling: a fixed batch of generator-family pairs, labelled
	// sequentially on the reference engine vs dataset.LabelAll on the
	// production engine (worker fan-out plus shared per-pair precompute).
	pairRng := rand.New(rand.NewSource(11))
	pairs := make([]dataset.Pair, 24)
	for i := range pairs {
		pairs[i] = dataset.RandomPair(pairRng, 384)
	}
	serial, parallel, iters, err := timePair(
		func() error {
			for _, p := range pairs {
				if _, err := labelSerial(p); err != nil {
					return err
				}
			}
			return nil
		},
		func() error { _, err := dataset.LabelAll(context.Background(), pairs); return err },
	)
	if err != nil {
		return rep, fmt.Errorf("experiments: perf labelling: %w", err)
	}
	rep.Benchmarks = append(rep.Benchmarks, PerfBench{
		Name: fmt.Sprintf("CorpusLabelling/%d-pairs", len(pairs)), Iters: iters,
		SerialNsOp: serial, ParallelNsOp: parallel,
		Speedup: float64(serial) / float64(parallel),
	})

	// Analysis cache (PR 3): the "serial" column is the uncached serving
	// path, the "parallel" column the cache-enabled path. warm-hit times a
	// repeated request (resident entry, fingerprint + lookup + pricing);
	// coalesced-16 times a burst of 16 concurrent identical requests
	// against a cold cache (singleflight: one simulation, 15 waiters)
	// versus 16 independent full analyses.
	fw, err := misam.Train(misam.TrainOptions{CorpusSize: 60, LatencyCorpusSize: 80, MaxDim: 256, Seed: 7})
	if err != nil {
		return rep, fmt.Errorf("experiments: perf cache framework: %w", err)
	}
	ca := sparse.PowerLaw(rng, 4000, 4000, 32000, 1.8)
	cb := sparse.DenseRandom(rng, 4000, 48)
	analyzeOnce := func(f *misam.Framework, dev *misam.Accelerator) error {
		// A fresh workload every call: the cache, not workload-precompute
		// reuse, must be what the warm side measures.
		wl, err := misam.NewWorkload(ca, cb)
		if err != nil {
			return err
		}
		_, err = f.Serve(context.Background(), &misam.Request{Workload: wl, Device: dev})
		return err
	}
	warmCp := *fw
	warmFW := (&warmCp).WithCache(64 << 20)
	coldDev, warmDev := fw.NewDevice("bench"), warmFW.NewDevice("bench")
	serial, parallel, iters, err = timePair(
		func() error { return analyzeOnce(fw, coldDev) },
		func() error { return analyzeOnce(warmFW, warmDev) },
	)
	if err != nil {
		return rep, fmt.Errorf("experiments: perf cache warm-hit: %w", err)
	}
	rep.Benchmarks = append(rep.Benchmarks, PerfBench{
		Name: "AnalyzeCache/warm-hit", Iters: iters,
		SerialNsOp: serial, ParallelNsOp: parallel,
		Speedup: float64(serial) / float64(parallel),
	})

	burst := func(f *misam.Framework) error {
		dev := f.NewDevice("burst")
		errs := make([]error, 16)
		var wg sync.WaitGroup
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = analyzeOnce(f, dev)
			}(i)
		}
		wg.Wait()
		for _, e := range errs {
			if e != nil {
				return e
			}
		}
		return nil
	}
	serial, parallel, iters, err = timePair(
		func() error { return burst(fw) },
		func() error {
			// A fresh cache per burst so every iteration exercises the
			// singleflight (1 build + 15 coalesced waiters), not warm hits.
			cp := *fw
			return burst((&cp).WithCache(64 << 20))
		},
	)
	if err != nil {
		return rep, fmt.Errorf("experiments: perf cache coalesced: %w", err)
	}
	rep.Benchmarks = append(rep.Benchmarks, PerfBench{
		Name: "AnalyzeCache/coalesced-16", Iters: iters,
		SerialNsOp: serial, ParallelNsOp: parallel,
		Speedup: float64(serial) / float64(parallel),
	})

	fmt.Fprintf(w, "%-30s %14s %14s %8s\n", "benchmark", "serial ns/op", "parallel ns/op", "speedup")
	for _, bm := range rep.Benchmarks {
		fmt.Fprintf(w, "%-30s %14d %14d %7.2fx\n", bm.Name, bm.SerialNsOp, bm.ParallelNsOp, bm.Speedup)
	}
	fmt.Fprintf(w, "(GOMAXPROCS=%d; tile/design fan-out gains scale with cores)\n", rep.GOMAXPROCS)

	if path != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return rep, err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return rep, fmt.Errorf("experiments: perf report: %w", err)
		}
		fmt.Fprintf(w, "wrote %s\n", path)
	}
	return rep, nil
}
