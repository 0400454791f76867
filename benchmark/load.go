package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The load generator: one process, one connection per client goroutine,
// talking to the servers' public HTTP API only.

const (
	binaryContentType = "application/x-misam-csr"
	jsonContentType   = "application/json"
)

// answer is the part of POST /v1/analyze's response the checks read.
type answer struct {
	Design        string  `json:"design"`
	Path          string  `json:"path"`
	Node          string  `json:"node"`
	PredictedMs   float64 `json:"predicted_ms"`
	SimulatedMs   float64 `json:"simulated_ms"`
	PEUtilization float64 `json:"pe_utilization"`
	EnergyMJ      float64 `json:"energy_mj"`
}

// client owns one keep-alive connection to one server.
type client struct {
	hc    *http.Client
	url   string
	ctype string
}

func newClient(baseURL, ctype string) *client {
	return &client{
		url:   baseURL + "/v1/analyze",
		ctype: ctype,
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			// Bodies are megabytes; the default 4 KiB write buffer would
			// spend the generator's CPU on hundreds of syscalls a request.
			WriteBufferSize: 256 << 10,
		}},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// analyze posts one body. status 0 means the transport failed.
func (c *client) analyze(ctx context.Context, body []byte) (ans answer, status int, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return ans, 0, err
	}
	req.Header.Set("Content-Type", c.ctype)
	resp, err := c.hc.Do(req)
	if err != nil {
		return ans, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return ans, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return ans, resp.StatusCode, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	if err := json.Unmarshal(raw, &ans); err != nil {
		return ans, resp.StatusCode, fmt.Errorf("decoding response: %w", err)
	}
	return ans, resp.StatusCode, nil
}

// spinBefore is how long before a due time an open-loop client stops
// sleeping and polls the clock instead.
const spinBefore = 2 * time.Millisecond

// sample is one request's outcome.
type sample struct {
	req     request
	ans     answer
	err     error         // transport error, non-200 or undecodable body
	latency time.Duration // from send (closed loop) or from due time (open loop)
	// late is the generator's own delay in an open loop: how long after
	// the request was due and its connection free it was actually sent.
	// Waiting for a busy connection is queueing, which latency carries.
	late    time.Duration
	backlog int // open loop: requests due but not yet taken at send time
	slice   int // which slice of the measured window it belongs to; -1 if none
}

// loadSpec describes one workload's traffic.
type loadSpec struct {
	url      string
	ctype    string
	jsonBody [][]byte // per pair, JSON transport only
	clients  int
	openRate float64 // req/s; 0 means closed loop
	warm     time.Duration
	measure  time.Duration
	// The measured window is cut into slices; tick(k) runs at the start
	// of slice k and tick(slices) when the window closes, before
	// stragglers drain.
	slices int
	tick   func(k int) error
	pool   []*pair
	stream *stream
	seed   int64
}

// runLoad drives spec and returns every sample taken, warm-up included.
//
// Closed loop: each client sends its next request when the previous
// answer arrives; a sample belongs to the slice it completes in.
// Open loop: requests are due on a seeded schedule whatever the server
// does; a client builds the next body ahead of time, sleeps until the due
// time and sends, so a slow answer delays later sends and that delay is
// charged to latency, which runs from the due time. A sample belongs to
// the slice its due time falls in.
func runLoad(ctx context.Context, spec loadSpec) ([]sample, error) {
	sliceLen := spec.measure / time.Duration(spec.slices)
	var due []time.Duration
	if spec.openRate > 0 {
		// One schedule for the warm-up and one per slice, so that every
		// slice is offered exactly rate × its length.
		due = arrivals(spec.seed, spec.openRate, spec.warm)
		for k := 0; k < spec.slices; k++ {
			for _, d := range arrivals(spec.seed+1+int64(k), spec.openRate, sliceLen) {
				due = append(due, spec.warm+time.Duration(k)*sliceLen+d)
			}
		}
	}
	var (
		next     atomic.Int64
		stop     atomic.Bool
		wg       sync.WaitGroup
		perCl    = make([][]sample, spec.clients)
		firstErr atomic.Pointer[error]
	)
	fail := func(err error) {
		firstErr.CompareAndSwap(nil, &err)
		stop.Store(true)
	}
	t0 := time.Now()
	winStart := t0.Add(spec.warm)
	sliceOf := func(t time.Time) int {
		if d := t.Sub(winStart); d >= 0 && d < spec.measure {
			return int(d / sliceLen)
		}
		return -1
	}
	for c := 0; c < spec.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(spec.url, spec.ctype)
			defer cl.close()
			var buf []byte
			free := t0 // when this client's connection last became free
			for !stop.Load() {
				n := int(next.Add(1) - 1)
				if due != nil && n >= len(due) {
					return
				}
				r, err := spec.stream.at(n)
				if err != nil {
					fail(err)
					return
				}
				var body []byte
				if spec.jsonBody != nil {
					body = spec.jsonBody[r.pair]
				} else {
					body = spec.pool[r.pair].frame(&buf, r.mode, r.arg)
				}
				s := sample{req: r}
				start := time.Now()
				if due != nil {
					at := t0.Add(due[n])
					if wait := at.Sub(start); wait > 0 {
						// Sleep to just short of the due time, then watch
						// the clock: with the servers busy on both cores a
						// timer wake-up can arrive a millisecond late.
						if wait > spinBefore {
							time.Sleep(wait - spinBefore)
						}
						for time.Now().Before(at) {
						}
					}
					sent := time.Now()
					if free.After(at) {
						s.late = sent.Sub(free)
					} else {
						s.late = sent.Sub(at)
					}
					elapsed := sent.Sub(t0)
					s.backlog = sort.Search(len(due), func(i int) bool { return due[i] > elapsed }) - int(next.Load())
					start = at
					s.slice = sliceOf(at)
				}
				s.ans, _, s.err = cl.analyze(ctx, body)
				end := time.Now()
				free = end
				s.latency = end.Sub(start)
				if due == nil {
					s.slice = sliceOf(end)
				}
				perCl[c] = append(perCl[c], s)
			}
		}(c)
	}

	// The coordinator opens and closes the window on the wall clock.
	sleepUntil := func(t time.Time) {
		select {
		case <-time.After(time.Until(t)):
		case <-ctx.Done():
			stop.Store(true)
		}
	}
	for k := 0; k <= spec.slices; k++ {
		sleepUntil(winStart.Add(time.Duration(k) * sliceLen))
		if !stop.Load() {
			if err := spec.tick(k); err != nil {
				fail(err)
			}
		}
	}
	if due == nil {
		stop.Store(true)
	}
	wg.Wait()
	if p := firstErr.Load(); p != nil {
		return nil, *p
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var all []sample
	for _, s := range perCl {
		all = append(all, s...)
	}
	return all, nil
}
