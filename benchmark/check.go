package main

import (
	"fmt"
	"math"

	"misam"
)

// Correctness checks. The reference is the serial simulator
// (probeSerial): every design, fresh precompute, no memoization. A
// full-path answer must quote, for the design it served, exactly the
// reference's latency — bit for bit, because every optimisation of the
// simulator in this repository promises bit-identity, and a one-ulp
// drift is how a broken promise first shows.

// reference holds the serial simulator's verdict on one operand pair.
type reference struct {
	seconds [misam.NumDesigns]float64
	best    misam.Design
}

func newReference(a, b *misam.Matrix) (*reference, error) {
	res, err := probeSerial(a, b)
	if err != nil {
		return nil, err
	}
	ref := &reference{}
	for d := range res {
		ref.seconds[d] = res[d].Seconds
		if res[d].Seconds < ref.seconds[ref.best] {
			ref.best = misam.Design(d)
		}
	}
	return ref, nil
}

// parseDesign maps a response's design name back to its ID.
func parseDesign(name string) (misam.Design, bool) {
	for d := 0; d < misam.NumDesigns; d++ {
		if misam.Design(d).String() == name {
			return misam.Design(d), true
		}
	}
	return 0, false
}

// slowdown is the reference latency of the served design over the best
// design's: 1 when the server picked the oracle's choice.
func (ref *reference) slowdown(d misam.Design) float64 {
	return ref.seconds[d] / ref.seconds[ref.best]
}

// checkAnswer compares one answer with the reference for the operands
// that were sent. It returns "" when the answer is right, else what is
// wrong with it.
func checkAnswer(ans answer, ref *reference) string {
	d, ok := parseDesign(ans.Design)
	if !ok {
		return fmt.Sprintf("unknown design %q", ans.Design)
	}
	switch ans.Path {
	case misam.PathFast:
		// Served from the model alone: nothing was simulated, so the
		// simulator's fields must be empty and the regressor's estimate
		// must be a usable latency.
		if ans.SimulatedMs != 0 || ans.PEUtilization != 0 || ans.EnergyMJ != 0 {
			return "fast-path answer carries simulator fields"
		}
		if !(ans.PredictedMs > 0) {
			return fmt.Sprintf("fast-path predicted_ms = %v", ans.PredictedMs)
		}
	case misam.PathFull:
		// The server reports seconds×1e3; do the same arithmetic.
		want := ref.seconds[d] * 1e3
		if math.Float64bits(ans.SimulatedMs) != math.Float64bits(want) {
			return fmt.Sprintf("simulated_ms = %v, reference says %v for %s", ans.SimulatedMs, want, ans.Design)
		}
	default:
		return fmt.Sprintf("unknown path %q", ans.Path)
	}
	return ""
}
