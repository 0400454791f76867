package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"misam"
)

// FastPathTier is one confidence threshold's serving profile in the
// fast-path report: how much traffic the gate let through, how often the
// model's proposal matched the simulated optimum, and the request
// latency distribution against the full-simulation baseline.
type FastPathTier struct {
	Confidence float64 `json:"confidence"`
	Requests   int     `json:"requests"`
	Fast       int     `json:"fast"`
	// Coverage is the fraction of requests served from the model alone.
	Coverage float64 `json:"coverage"`
	// Agreement is the fraction of fast-served requests whose proposed
	// design matched the full-simulation argmin for the same operands
	// (0 when nothing was served fast).
	Agreement float64 `json:"agreement"`
	P50NsOp   int64   `json:"p50_ns_op"`
	P99NsOp   int64   `json:"p99_ns_op"`
	// FastP50NsOp is the median over fast-served requests only — the
	// latency a high-confidence cache-miss request actually sees.
	FastP50NsOp   int64   `json:"fast_p50_ns_op"`
	ThroughputRPS float64 `json:"throughput_rps"`
	// SpeedupP50 compares this tier's overall median to the baseline's;
	// FastSpeedupP50 compares the fast-served median.
	SpeedupP50     float64 `json:"speedup_p50"`
	FastSpeedupP50 float64 `json:"fast_speedup_p50"`
}

// FastPathReportData is the machine-readable fast-path trajectory record
// (BENCH_PR5.json): a full-simulation baseline plus one tier per gate
// threshold, all measured on the same distinct-pair (cache-miss) stream.
type FastPathReportData struct {
	Schema                string         `json:"schema"`
	GOMAXPROCS            int            `json:"gomaxprocs"`
	NumCPU                int            `json:"num_cpu"`
	Requests              int            `json:"requests"`
	BaselineP50NsOp       int64          `json:"baseline_p50_ns_op"`
	BaselineP99NsOp       int64          `json:"baseline_p99_ns_op"`
	BaselineThroughputRPS float64        `json:"baseline_throughput_rps"`
	Tiers                 []FastPathTier `json:"tiers"`
}

// pctNs returns the p-quantile (0..1) of ns by sorting a copy.
func pctNs(ns []int64, p float64) int64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[int(float64(len(s)-1)*p)]
}

// FastPathReport serves one stream of distinct operand pairs through the
// plain pipeline and again through the confidence-gated pipeline at each
// threshold, and records latency percentiles, throughput, gate coverage
// and fast/full agreement. Every request is a cache miss (fresh cache
// per run, no repeated pairs), so the comparison is between the two
// build paths — full simulation versus features + tree walk + regressor
// pricing — not between a miss and a warm hit.
func FastPathReport(ctxE *Context, path string, w io.Writer) (FastPathReportData, error) {
	header(w, "Fast-path report: confidence-gated serving vs full simulation")
	rep := FastPathReportData{
		Schema:     "misam-fastpath/1",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	fw, err := ctxE.Framework()
	if err != nil {
		return rep, fmt.Errorf("experiments: fastpath framework: %w", err)
	}

	// Distinct pairs spanning the generator families; dims scale with
	// the configured MaxDim so -scale quick stays CI-sized.
	dim := ctxE.Cfg.MaxDim
	if dim < 128 {
		dim = 128
	}
	const nPairs = 40
	type pair struct{ a, b *misam.Matrix }
	pairs := make([]pair, nPairs)
	for i := range pairs {
		s := int64(9000 + i*11)
		n := dim/2 + (i*131)%(dim/2)
		if i%2 == 0 {
			pairs[i] = pair{
				a: misam.RandUniform(s, n, n, 0.02),
				b: misam.RandDense(s+1, n, 64),
			}
		} else {
			pairs[i] = pair{
				a: misam.RandPowerLaw(s, n, n, n*8, 1.8),
				b: misam.RandUniform(s+1, n, 96, 0.05),
			}
		}
	}
	rep.Requests = nPairs

	type reqResult struct {
		ns  int64
		rep misam.Report
	}
	serve := func(f *misam.Framework) ([]reqResult, float64, error) {
		dev := f.NewDevice("bench")
		out := make([]reqResult, 0, len(pairs))
		start := time.Now()
		for _, p := range pairs {
			t0 := time.Now()
			r, err := f.Serve(context.Background(), &misam.Request{A: p.a, B: p.b, Device: dev})
			if err != nil {
				return nil, 0, err
			}
			out = append(out, reqResult{time.Since(t0).Nanoseconds(), r})
		}
		return out, float64(len(pairs)) / time.Since(start).Seconds(), nil
	}

	// Baseline: the plain pipeline, and the per-pair simulated optimum
	// the tiers' agreement is judged against.
	bcp := *fw
	base, baseRPS, err := serve((&bcp).WithCache(64 << 20))
	if err != nil {
		return rep, fmt.Errorf("experiments: fastpath baseline: %w", err)
	}
	baseNs := make([]int64, len(base))
	for i, r := range base {
		baseNs[i] = r.ns
	}
	rep.BaselineP50NsOp = pctNs(baseNs, 0.50)
	rep.BaselineP99NsOp = pctNs(baseNs, 0.99)
	rep.BaselineThroughputRPS = baseRPS

	for _, th := range []float64{0.6, 0.8, 0.9, 1.0} {
		cp := *fw
		tfw := (&cp).WithCache(64 << 20).WithFastPath(misam.FastPathConfig{Confidence: th, VerifySample: 0})
		res, rps, err := serve(tfw)
		tfw.Close()
		if err != nil {
			return rep, fmt.Errorf("experiments: fastpath tier %.2f: %w", th, err)
		}
		var allNs, fastNs []int64
		var agree int
		for i, r := range res {
			allNs = append(allNs, r.ns)
			if r.rep.Path == misam.PathFast {
				fastNs = append(fastNs, r.ns)
				if r.rep.Design == base[i].rep.Design {
					agree++
				}
			}
		}
		tier := FastPathTier{
			Confidence:    th,
			Requests:      len(res),
			Fast:          len(fastNs),
			Coverage:      float64(len(fastNs)) / float64(len(res)),
			P50NsOp:       pctNs(allNs, 0.50),
			P99NsOp:       pctNs(allNs, 0.99),
			FastP50NsOp:   pctNs(fastNs, 0.50),
			ThroughputRPS: rps,
		}
		if len(fastNs) > 0 {
			tier.Agreement = float64(agree) / float64(len(fastNs))
			tier.FastSpeedupP50 = float64(rep.BaselineP50NsOp) / float64(tier.FastP50NsOp)
		}
		if tier.P50NsOp > 0 {
			tier.SpeedupP50 = float64(rep.BaselineP50NsOp) / float64(tier.P50NsOp)
		}
		rep.Tiers = append(rep.Tiers, tier)
	}

	fmt.Fprintf(w, "%-10s %9s %10s %12s %12s %12s %10s %10s\n",
		"gate", "coverage", "agreement", "p50 ns/op", "p99 ns/op", "fast p50", "rps", "speedup")
	fmt.Fprintf(w, "%-10s %9s %10s %12d %12d %12s %10.1f %10s\n",
		"full-sim", "-", "-", rep.BaselineP50NsOp, rep.BaselineP99NsOp, "-", rep.BaselineThroughputRPS, "1.00x")
	for _, t := range rep.Tiers {
		agreement := "-"
		if t.Fast > 0 {
			agreement = fmt.Sprintf("%.3f", t.Agreement)
		}
		fastP50 := "-"
		if t.Fast > 0 {
			fastP50 = fmt.Sprintf("%d", t.FastP50NsOp)
		}
		fmt.Fprintf(w, "%-10.2f %8.0f%% %10s %12d %12d %12s %10.1f %9.2fx\n",
			t.Confidence, 100*t.Coverage, agreement, t.P50NsOp, t.P99NsOp, fastP50, t.ThroughputRPS, t.SpeedupP50)
	}
	fmt.Fprintf(w, "(distinct pairs: every request misses the cache; agreement is vs the simulated argmin)\n")

	if path != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return rep, err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return rep, fmt.Errorf("experiments: fastpath report: %w", err)
		}
		fmt.Fprintf(w, "wrote %s\n", path)
	}
	return rep, nil
}
