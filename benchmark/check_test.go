package main

import (
	"math"
	"testing"

	"misam"
)

func TestCheckAnswer(t *testing.T) {
	ref := &reference{seconds: [misam.NumDesigns]float64{0.004, 0.001, 0.002, 0.003}, best: 1}
	name := func(d int) string { return misam.Design(d).String() }
	full := func(d int, ms float64) answer {
		return answer{Design: name(d), Path: misam.PathFull, SimulatedMs: ms, PredictedMs: 1}
	}
	want := ref.seconds[2] * 1e3

	if why := checkAnswer(full(2, want), ref); why != "" {
		t.Errorf("exact answer rejected: %s", why)
	}
	// One unit in the last place, either way, is a mismatch.
	for _, ms := range []float64{math.Nextafter(want, math.Inf(1)), math.Nextafter(want, 0)} {
		if checkAnswer(full(2, ms), ref) == "" {
			t.Errorf("simulated_ms %v passed against %v", ms, want)
		}
	}
	if checkAnswer(full(3, want), ref) == "" {
		t.Error("another design's latency passed")
	}
	if checkAnswer(answer{Design: "Design 9", Path: misam.PathFull}, ref) == "" {
		t.Error("unknown design passed")
	}
	if checkAnswer(answer{Design: name(0), Path: "warm", SimulatedMs: 4}, ref) == "" {
		t.Error("unknown path passed")
	}

	fast := answer{Design: name(0), Path: misam.PathFast, PredictedMs: 0.5}
	if why := checkAnswer(fast, ref); why != "" {
		t.Errorf("fast answer rejected: %s", why)
	}
	for _, bad := range []answer{
		{Design: name(0), Path: misam.PathFast, PredictedMs: 0},
		{Design: name(0), Path: misam.PathFast, PredictedMs: math.NaN()},
		{Design: name(0), Path: misam.PathFast, PredictedMs: 0.5, SimulatedMs: 4},
		{Design: name(0), Path: misam.PathFast, PredictedMs: 0.5, EnergyMJ: 1},
		{Design: name(0), Path: misam.PathFast, PredictedMs: 0.5, PEUtilization: 0.1},
	} {
		if checkAnswer(bad, ref) == "" {
			t.Errorf("fast answer %+v passed", bad)
		}
	}
}

func TestSlowdown(t *testing.T) {
	ref := &reference{seconds: [misam.NumDesigns]float64{0.004, 0.001, 0.002, 0.003}, best: 1}
	if got := ref.slowdown(1); got != 1 {
		t.Errorf("best design's slowdown = %v", got)
	}
	if got := ref.slowdown(0); got != 4 {
		t.Errorf("slowdown = %v, want 4", got)
	}
}
