package online

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"misam/internal/features"
	"misam/internal/sim"
)

// VerifyJob is one fast-path decision queued for asynchronous audit: the
// request's features, what the model proposed, and a closure that runs
// the full four-design simulation when a worker gets to it. The closure
// is supplied by the serving layer (it typically routes through the
// analysis cache, so an audited pair's full Analysis becomes resident for
// future requests) — the verifier itself stays ignorant of how
// simulations are produced and so free of upward package dependencies.
type VerifyJob struct {
	Features  features.Vector
	Predicted sim.DesignID
	// ModelVersion is the registry version whose compiled tree proposed
	// Predicted, stamped into the audit trace for per-version accuracy.
	ModelVersion uint64
	Simulate     func(ctx context.Context) ([sim.NumDesigns]sim.Result, error)
}

// VerifierStats snapshot the audit counters. The accounting invariant the
// hammer test pins: Verified + Errors + Resident(queue) ≤ Offered, and
// Offered = accepted + Dropped.
type VerifierStats struct {
	// Offered counts every job handed to Offer (accepted or not).
	Offered int64 `json:"offered"`
	// Dropped counts jobs rejected because the queue was full — audit
	// coverage lost to backpressure, never blocking the serving path.
	Dropped int64 `json:"dropped"`
	// Verified counts completed re-simulations.
	Verified int64 `json:"verified"`
	// Agreed counts verified jobs whose predicted design matched the
	// simulated argmin. Agreed/Verified is the live estimate of the
	// model's accuracy on the high-confidence slice.
	Agreed int64 `json:"agreed"`
	// Errors counts simulations that failed (or were cancelled by Close).
	Errors int64 `json:"errors"`
	// Workers and QueueCap echo the configuration.
	Workers  int `json:"workers"`
	QueueCap int `json:"queue_cap"`
}

// Verifier is the bounded background audit pool behind the fast path.
// Once prediction replaces simulation on the request path, the online
// adaptation loop (PR 4) starves: no simulations means no labelled
// traces, so drift detection goes blind exactly when a cheap, stale model
// is serving every request. The verifier closes that loop — a sample of
// fast-path hits is re-simulated off the request path, compared against
// the model's proposal, and fed to the Collector as ordinary labelled
// traces.
//
// Offer never blocks: a full queue drops the job and counts it, because
// audit coverage is best-effort while serving latency is the product.
type Verifier struct {
	col  *Collector
	jobs chan VerifyJob
	wg   sync.WaitGroup

	// ctx cancels in-flight simulations on Close so shutdown does not
	// wait out a slow cycle-level run.
	ctx    context.Context
	cancel context.CancelFunc

	closeOnce sync.Once

	workers  int
	offered  atomic.Int64
	dropped  atomic.Int64
	verified atomic.Int64
	agreed   atomic.Int64
	errors   atomic.Int64
}

// NewVerifier starts a pool of workers draining a queue of at most queue
// jobs into col. workers and queue are clamped to ≥1.
func NewVerifier(col *Collector, workers, queue int) *Verifier {
	if workers < 1 {
		workers = 1
	}
	if queue < 1 {
		queue = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	v := &Verifier{
		col:     col,
		jobs:    make(chan VerifyJob, queue),
		ctx:     ctx,
		cancel:  cancel,
		workers: workers,
	}
	v.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go v.worker()
	}
	return v
}

// Offer enqueues a job without blocking. It reports whether the job was
// accepted; false means the queue was full (or the verifier closed) and
// the job was dropped.
func (v *Verifier) Offer(j VerifyJob) bool {
	v.offered.Add(1)
	if v.ctx.Err() != nil {
		v.dropped.Add(1)
		return false
	}
	select {
	case v.jobs <- j:
		return true
	default:
		v.dropped.Add(1)
		return false
	}
}

func (v *Verifier) worker() {
	defer v.wg.Done()
	for {
		select {
		case <-v.ctx.Done():
			// Drain what remains so accepted jobs are always accounted
			// (as errors) rather than silently vanishing.
			for {
				select {
				case <-v.jobs:
					v.errors.Add(1)
				default:
					return
				}
			}
		case j := <-v.jobs:
			v.run(j)
		}
	}
}

// run re-simulates one fast-path decision and feeds the audit trace to
// the collector. A job that returns any pruned lower bound counts as an
// error and is dropped: traces must carry every design's exact latency,
// since the retrainer fits regressors to them and shadow evaluation
// divides by them.
func (v *Verifier) run(j VerifyJob) {
	results, err := j.Simulate(v.ctx)
	if err != nil || slices.ContainsFunc(results[:], func(r sim.Result) bool { return r.Pruned }) {
		v.errors.Add(1)
		return
	}
	best := sim.DesignID(0)
	for _, id := range sim.AllDesigns {
		if results[id].Seconds < results[best].Seconds {
			best = id
		}
	}
	v.verified.Add(1)
	if best == j.Predicted {
		v.agreed.Add(1)
	}
	tr := Trace{
		Features:     j.Features,
		Predicted:    j.Predicted,
		Best:         best,
		ModelVersion: j.ModelVersion,
	}
	for _, id := range sim.AllDesigns {
		tr.Seconds[id] = results[id].Seconds
		tr.Cycles[id] = results[id].Cycles
	}
	if v.col != nil {
		v.col.Observe(tr)
	}
}

// Drain blocks until the queue is empty and all in-flight jobs have
// completed, or ctx expires. It is a test/benchmark convenience — the
// serving path never waits on the verifier.
func (v *Verifier) Drain(ctx context.Context) error {
	for {
		if len(v.jobs) == 0 && v.inFlightSettled() {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// inFlightSettled reports whether every accepted job has reached a
// terminal counter. Accepted = offered - dropped; terminal = verified +
// errors.
func (v *Verifier) inFlightSettled() bool {
	return v.verified.Load()+v.errors.Load() >= v.offered.Load()-v.dropped.Load()
}

// Close stops the workers. In-flight simulations are cancelled; queued
// jobs are counted as errors. Safe to call more than once.
func (v *Verifier) Close() {
	v.closeOnce.Do(func() {
		v.cancel()
		v.wg.Wait()
	})
}

// Stats snapshots the counters.
func (v *Verifier) Stats() VerifierStats {
	return VerifierStats{
		Offered:  v.offered.Load(),
		Dropped:  v.dropped.Load(),
		Verified: v.verified.Load(),
		Agreed:   v.agreed.Load(),
		Errors:   v.errors.Load(),
		Workers:  v.workers,
		QueueCap: cap(v.jobs),
	}
}
