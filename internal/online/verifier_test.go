package online

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"misam/internal/features"
	"misam/internal/sim"
)

// verifyResults builds a result set whose argmin is best.
func verifyResults(best sim.DesignID) [sim.NumDesigns]sim.Result {
	var out [sim.NumDesigns]sim.Result
	for _, id := range sim.AllDesigns {
		out[id] = sim.Result{Design: id, Seconds: 10 + float64(id), Cycles: 1000 + int64(id)}
	}
	out[best].Seconds = 1
	return out
}

func verifyJob(predicted, best sim.DesignID) VerifyJob {
	var v features.Vector
	v[0] = float64(predicted)
	return VerifyJob{
		Features:     v,
		Predicted:    predicted,
		ModelVersion: 7,
		Simulate: func(context.Context) ([sim.NumDesigns]sim.Result, error) {
			return verifyResults(best), nil
		},
	}
}

// TestVerifierFeedsCollector: verified jobs become labelled traces with
// the simulated argmin as Best, and agreement is counted correctly.
func TestVerifierFeedsCollector(t *testing.T) {
	col := NewCollector(64, 1)
	v := NewVerifier(col, 2, 16)
	defer v.Close()

	if !v.Offer(verifyJob(sim.Design1, sim.Design1)) { // agree
		t.Fatal("offer 1 rejected")
	}
	if !v.Offer(verifyJob(sim.Design1, sim.Design3)) { // disagree
		t.Fatal("offer 2 rejected")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := v.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	st := v.Stats()
	if st.Offered != 2 || st.Verified != 2 || st.Agreed != 1 || st.Dropped != 0 || st.Errors != 0 {
		t.Fatalf("stats = %+v, want 2 offered / 2 verified / 1 agreed", st)
	}
	traces := col.Snapshot()
	if len(traces) != 2 {
		t.Fatalf("collector holds %d traces, want 2", len(traces))
	}
	for _, tr := range traces {
		if tr.ModelVersion != 7 {
			t.Fatalf("trace model version %d, want 7", tr.ModelVersion)
		}
		if tr.Seconds[tr.Best] >= tr.Seconds[(tr.Best+1)%sim.NumDesigns] {
			t.Fatalf("trace Best %v is not the argmin of %v", tr.Best, tr.Seconds)
		}
	}
}

// TestVerifierBackpressureDrops: a full queue rejects Offer without
// blocking, and the drop is counted.
func TestVerifierBackpressureDrops(t *testing.T) {
	col := NewCollector(64, 1)
	v := NewVerifier(col, 1, 1)
	defer v.Close()

	block := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	slow := VerifyJob{Simulate: func(context.Context) ([sim.NumDesigns]sim.Result, error) {
		once.Do(func() { close(started) })
		<-block
		return verifyResults(0), nil
	}}
	// First job occupies the worker; second fills the 1-slot queue; the
	// third must be dropped immediately.
	if !v.Offer(slow) {
		t.Fatal("offer 1 rejected")
	}
	<-started
	if !v.Offer(slow) {
		t.Fatal("offer 2 rejected with an empty queue")
	}
	done := make(chan bool, 1)
	go func() { done <- v.Offer(slow) }()
	select {
	case accepted := <-done:
		if accepted {
			t.Fatal("offer 3 accepted past a full queue")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Offer blocked on a full queue")
	}
	close(block)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := v.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st := v.Stats()
	if st.Offered != 3 || st.Dropped != 1 || st.Verified != 2 {
		t.Fatalf("stats = %+v, want 3 offered / 1 dropped / 2 verified", st)
	}
	if st.Verified+st.Dropped > st.Offered {
		t.Fatalf("accounting broken: verified %d + dropped %d > offered %d", st.Verified, st.Dropped, st.Offered)
	}
}

// TestVerifierSimulateError: failed simulations, and simulations that
// return a pruned lower bound instead of an exact latency, count as
// errors and feed nothing to the collector.
func TestVerifierSimulateError(t *testing.T) {
	col := NewCollector(64, 1)
	v := NewVerifier(col, 1, 4)
	defer v.Close()
	v.Offer(VerifyJob{Simulate: func(context.Context) ([sim.NumDesigns]sim.Result, error) {
		return [sim.NumDesigns]sim.Result{}, errors.New("boom")
	}})
	v.Offer(VerifyJob{Simulate: func(context.Context) ([sim.NumDesigns]sim.Result, error) {
		results := verifyResults(sim.Design2)
		results[sim.Design4].Pruned = true
		results[sim.Design4].Seconds = 2 // a lower bound, still worse than the winner
		return results, nil
	}})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := v.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st := v.Stats()
	if st.Errors != 2 || st.Verified != 0 {
		t.Fatalf("stats = %+v, want 2 errors / 0 verified", st)
	}
	if col.Len() != 0 {
		t.Fatalf("collector holds %d traces after failed or pruned simulations, want 0", col.Len())
	}
}

// TestVerifierCloseCancelsInFlight: Close returns even with a simulation
// stuck until its context is cancelled, and Offer after Close drops.
func TestVerifierCloseCancelsInFlight(t *testing.T) {
	col := NewCollector(64, 1)
	v := NewVerifier(col, 1, 4)
	started := make(chan struct{})
	v.Offer(VerifyJob{Simulate: func(ctx context.Context) ([sim.NumDesigns]sim.Result, error) {
		close(started)
		<-ctx.Done()
		return [sim.NumDesigns]sim.Result{}, ctx.Err()
	}})
	<-started
	closed := make(chan struct{})
	go func() { v.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not cancel the in-flight simulation")
	}
	if v.Offer(verifyJob(0, 0)) {
		t.Fatal("Offer accepted after Close")
	}
	st := v.Stats()
	if st.Errors != 1 {
		t.Fatalf("cancelled in-flight job not counted as error: %+v", st)
	}
}
