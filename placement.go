package misam

// Bitstream-aware fleet placement: the framework-side wiring of
// internal/placement. A request's predicted winner is known *before* a
// device is acquired — features are cheap (and cached), the compiled
// selector is microseconds — so Serve's acquire stage can hand the
// request an idle device that already holds the winning bitstream
// instead of whichever device happens to be longest idle. Placement is
// strictly advisory: the acquired device still runs the same decide/apply
// transaction against the same snapshot-consistent engine, so every
// analysis-derived report field is bit-identical to the FIFO pool's —
// placement changes which device pays, never the analysis result.

// PlacementConfig tunes the placement cost model (see
// internal/placement.Request). Setting Request.Placement on a request
// with a Fleet enables placement for it.
type PlacementConfig struct {
	// QueueWeight scales the queue-pressure term: each request queued
	// fleet-wide inflates a candidate's reconfiguration charge by this
	// fraction (<= 0 uses placement.DefaultQueueWeight).
	QueueWeight float64
}
