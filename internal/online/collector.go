// Package online is the continuous-learning half of the Misam serving
// stack. Every served analysis already computes the ground-truth label
// the offline trainer needs — the four per-design simulations — and the
// paper's own premise is that the best dataflow shifts with the workload
// mix. This package captures that traffic (Collector), watches for the
// captured distribution drifting away from the training snapshot
// (drift.go), and retrains + shadow-evaluates candidate models in the
// background, promoting them into the version registry only when they
// beat the incumbent on the holdout slice (retrain.go, manager.go).
package online

import (
	"sync"

	"misam/internal/features"
	"misam/internal/sim"
)

// Trace is one served analysis reduced to its training-relevant facts:
// the feature vector, what the live model proposed, and the simulated
// outcome of every design (from which the argmin label and the oracle
// cost derive). A trace is self-contained — retraining needs nothing
// else from the request.
type Trace struct {
	Features features.Vector
	// Predicted is the live selector's raw proposal (before the
	// reconfiguration engine's hysteresis), so window accuracy measures
	// the model, not the pricing policy.
	Predicted sim.DesignID
	// Best is the argmin-latency design over the four simulations.
	Best sim.DesignID
	// Seconds and Cycles are each design's simulated outcome.
	Seconds [sim.NumDesigns]float64
	Cycles  [sim.NumDesigns]int64
	// ModelVersion is the registry version that served the request.
	ModelVersion uint64
}

// CollectorStats snapshot the collector's counters.
type CollectorStats struct {
	// Observed counts every analysis offered to the collector.
	Observed int64 `json:"observed"`
	// Sampled counts observations admitted by the 1-in-N sampler.
	Sampled int64 `json:"sampled"`
	// Dropped counts sampled traces that overwrote an unconsumed older
	// trace because the bounded buffer was full — the saturation signal:
	// when Dropped grows between retrains, the buffer is cycling faster
	// than the retrainer consumes it at the configured sample rate.
	Dropped int64 `json:"dropped"`
	// Resident is the number of traces currently buffered.
	Resident int `json:"resident"`
	// Capacity and SampleEvery echo the configuration.
	Capacity    int `json:"capacity"`
	SampleEvery int `json:"sample_every"`
}

// Collector is a bounded, sampling trace buffer. Admission is 1-in-N
// counter sampling (deterministic, cheap, unbiased for arrival-order-
// independent statistics); storage is a ring that overwrites the oldest
// trace when full, counting each overwrite as a drop. All methods are
// safe for concurrent use; Observe is O(1) and never blocks on
// consumers.
type Collector struct {
	mu    sync.Mutex
	buf   []Trace
	start int // index of the oldest trace
	n     int // resident count

	sampleEvery int64
	observed    int64
	sampled     int64
	dropped     int64

	// demand is the per-design EWMA of the serving proposal mix: every
	// observation (sampled or not) decays the vector and adds demandAlpha
	// to the proposed design's share. The portfolio rebalancer reads it
	// to keep the fleet's loaded bitstreams tracking the traffic mix.
	// demandN counts the observations behind it — full traces plus the
	// proposal-only observations the fast path records.
	demand  [sim.NumDesigns]float64
	demandN int64
}

// demandAlpha is the EWMA weight of one observation: a half-life of
// ~44 observations, fast enough to follow a workload phase shift within
// one trace window, slow enough that a burst of one request type does
// not thrash the fleet's portfolio.
const demandAlpha = 1.0 / 64

// NewCollector returns a collector holding at most capacity traces,
// admitting one in every sampleEvery observations (<=1 admits all).
func NewCollector(capacity, sampleEvery int) *Collector {
	if capacity < 1 {
		capacity = 1
	}
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	return &Collector{buf: make([]Trace, capacity), sampleEvery: int64(sampleEvery)}
}

// Observe offers one trace. It returns true when the trace was admitted
// by the sampler and buffered.
func (c *Collector) Observe(t Trace) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.observed++
	c.noteDemandLocked(t.Predicted)
	if (c.observed-1)%c.sampleEvery != 0 {
		return false
	}
	c.sampled++
	if c.n == len(c.buf) {
		// Ring full: overwrite the oldest trace and account the loss.
		c.buf[c.start] = t
		c.start = (c.start + 1) % len(c.buf)
		c.dropped++
		return true
	}
	c.buf[(c.start+c.n)%len(c.buf)] = t
	c.n++
	return true
}

// Len reports the resident trace count.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Snapshot copies the resident traces, oldest first.
func (c *Collector) Snapshot() []Trace {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Trace, c.n)
	for i := 0; i < c.n; i++ {
		out[i] = c.buf[(c.start+i)%len(c.buf)]
	}
	return out
}

// Window copies the most recent n traces (all of them when fewer are
// resident), oldest first.
func (c *Collector) Window(n int) []Trace {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n > c.n {
		n = c.n
	}
	if n < 0 {
		n = 0
	}
	out := make([]Trace, n)
	for i := 0; i < n; i++ {
		out[i] = c.buf[(c.start+c.n-n+i)%len(c.buf)]
	}
	return out
}

// noteDemandLocked folds one proposal into the demand EWMA; c.mu must
// be held.
func (c *Collector) noteDemandLocked(id sim.DesignID) {
	if id < 0 || int(id) >= len(c.demand) {
		return
	}
	for i := range c.demand {
		c.demand[i] *= 1 - demandAlpha
	}
	c.demand[id] += demandAlpha
	c.demandN++
}

// ObserveProposal records one served proposal into the demand EWMA
// without offering a trace — the fast path's contribution to the
// portfolio signal: a fast-tier hit never simulates (so it has no
// training trace to offer), but its proposed design is exactly the
// bitstream demand the rebalancer must track.
func (c *Collector) ObserveProposal(id sim.DesignID) {
	c.mu.Lock()
	c.noteDemandLocked(id)
	c.mu.Unlock()
}

// Demand returns the normalized per-design EWMA of the serving proposal
// mix (summing to 1) and the number of observations behind it. Before
// any observation the mix is all zeros — callers should treat a small n
// as "no signal yet" rather than acting on the early, noisy estimate.
func (c *Collector) Demand() (mix [sim.NumDesigns]float64, n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum float64
	for _, v := range c.demand {
		sum += v
	}
	if sum <= 0 {
		return mix, c.demandN
	}
	for i, v := range c.demand {
		mix[i] = v / sum
	}
	return mix, c.demandN
}

// Stats snapshots the counters.
func (c *Collector) Stats() CollectorStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CollectorStats{
		Observed:    c.observed,
		Sampled:     c.sampled,
		Dropped:     c.dropped,
		Resident:    c.n,
		Capacity:    len(c.buf),
		SampleEvery: int(c.sampleEvery),
	}
}
