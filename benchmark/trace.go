package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"sort"
	"time"

	"misam"
	"misam/internal/memo"
)

// The traced run. End-to-end numbers come from real server processes
// with no tracing anywhere. Per-stage numbers come from here: the same
// request stream is sent, one request at a time, through an in-process
// server on a loopback socket (the roundtrip the stages must explain),
// and then the harness walks the same body through the stages the
// serving path runs — same functions, same order, its own caches —
// recording a span around each call. Spans stay in memory until the run
// ends.

// span is one timed interval. Spans of one request share Req; Parent is
// the ID of the enclosing span, 0 for a root.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects spans. A nil tracer records nothing, which is how the
// rig's caches are warmed without polluting the trace.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Req: req,
		Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id-1].End = int64(time.Since(t.t0))
	}
}

// Root span names. Stage spans hang under rootPipeline; spans under
// rootProbes time a layer on the same operands for the per-layer table
// without being part of the request's budget.
const (
	rootRoundtrip = "server.roundtrip"
	rootTransport = "server.transport"
	rootPipeline  = "server.pipeline"
	rootProbes    = "harness.probes"
)

// pipeline names the three call sequences the two server configurations
// run for an analyze request.
type pipeline int

const (
	// pipeFastWire: -fastpath, binary body (AnalyzeFastWire).
	pipeFastWire pipeline = iota
	// pipeFullWire: default flags, binary body.
	pipeFullWire
	// pipeFullJSON: default flags, JSON body with MatrixMarket operands.
	pipeFullJSON
)

// fastConfidence is misam-serve's -confidence default.
const fastConfidence = 0.9

// walked is what a re-enacted request produced.
type walked struct {
	features misam.FeatureVector
	served   misam.Design
	built    *memo.Analysis // non-nil when the four designs were simulated
	simHost  time.Duration  // host time of that simulation
	a, b     *misam.Matrix  // decoded operands, when the path decoded them
	owner    string         // cluster workloads: the member that owns the key
}

// walk re-enacts one request. self is the node the client talks to in a
// cluster workload ("" otherwise).
func (r *rig) walk(ctx context.Context, t *tracer, req int, kind pipeline, self string, body []byte) (walked, error) {
	var out walked
	root := t.begin(rootPipeline, 0, req)
	defer t.end(root)
	stage := func(name string, parent int, fn func()) {
		id := t.begin(name, parent, req)
		fn()
		t.end(id)
	}

	var va, vb misam.WireView
	var err error
	decode := func() {
		if out.a == nil {
			stage("sparse.decode", root, func() { out.a, out.b = r.probeDecode(va, vb) })
		}
	}
	// fullTail is the simulate-everything pipeline from decoded operands
	// on: content key, analysis cache (building on a miss), device,
	// selection, decision.
	fullTail := func() error {
		w, err := probeNewWorkload(out.a, out.b)
		if err != nil {
			return err
		}
		var key memo.Key
		stage("sparse.csr_fingerprint", root, func() { key = r.probeCSRKey(out.a, out.b) })
		var an *memo.Analysis
		probe := t.begin("memo.probe", root, req)
		an, err = r.probeAnalysisDo(ctx, key, func(ctx context.Context) (*memo.Analysis, error) {
			an := &memo.Analysis{}
			stage("features.extract_multipass", probe, func() { an.Features = probeExtractMultipass(out.a, out.b) })
			var err error
			t0 := time.Now()
			stage("sim.simulate_all", probe, func() { an.Results, err = r.probeSimulateAll(ctx, w) })
			out.simHost = time.Since(t0)
			if err != nil {
				return nil, err
			}
			stage("baseline.stats", probe, func() { an.Baseline = probeBaselineStats(w) })
			out.built = an
			return an, nil
		})
		t.end(probe)
		if err != nil {
			return err
		}
		out.features = an.Features
		stage("fleet.acquire", root, func() { err = r.probeAcquire(ctx) })
		if err != nil {
			return err
		}
		var proposed misam.Design
		stage("registry.select", root, func() { proposed, _ = r.probeSelect(an.Features) })
		stage("reconfig.decide", root, func() { out.served = r.probeDecide(an.Features, proposed) })
		return nil
	}

	if kind == pipeFullJSON {
		var aText, bText string
		stage("server.json_decode", root, func() { aText, bText, err = decodeJSONBody(body) })
		if err != nil {
			return out, err
		}
		stage("sparse.mtx_parse", root, func() {
			if out.a, err = probeMtxParse(aText); err == nil {
				out.b, err = probeMtxParse(bText)
			}
		})
		if err != nil {
			return out, err
		}
		return out, fullTail()
	}

	stage("sparse.parse", root, func() { va, vb, err = probeParse(body) })
	if err != nil {
		return out, err
	}
	// The handler computes the routing key as an argument of its forward
	// check, so the fingerprints are paid with or without a cluster —
	// except on the owner's side of a forwarded request, where the check
	// short-circuits first.
	var key memo.Key
	stage("sparse.fingerprint", root, func() { key = r.probeWireKey(va, vb) })
	if r.ring != nil {
		stage("cluster.owner", root, func() { out.owner = r.probeOwner(key) })
		if out.owner != self {
			// The owner parses the forwarded bytes again.
			stage("sparse.parse", root, func() { va, vb, err = probeParse(body) })
			if err != nil {
				return out, err
			}
		}
	}
	if kind == pipeFullWire {
		decode()
		return out, fullTail()
	}

	// pipeFastWire: device first, then AnalyzeFastWire's own key, probe,
	// gate and decision.
	stage("fleet.acquire", root, func() { err = r.probeAcquire(ctx) })
	if err != nil {
		return out, err
	}
	stage("sparse.fingerprint", root, func() { key = r.probeWireKey(va, vb) })
	var ent memo.FastEntry
	var warm bool
	stage("memo.probe", root, func() { ent, warm = r.probeFastGet(key) })
	if !warm {
		decode()
		w, err := probeNewWorkload(out.a, out.b)
		if err != nil {
			return out, err
		}
		probe := t.begin("memo.probe", root, req)
		ent, err = r.probeFastDo(ctx, key, func(context.Context) (memo.FastEntry, error) {
			var e memo.FastEntry
			stage("features.extract", probe, func() { e.Features = r.probeExtractFused(out.a, out.b) })
			stage("baseline.stats", probe, func() { e.Baseline = probeBaselineStats(w) })
			return e, nil
		})
		t.end(probe)
		if err != nil {
			return out, err
		}
	}
	out.features = ent.Features
	var proposed misam.Design
	var conf float64
	stage("registry.select", root, func() { proposed, conf = r.probeSelect(ent.Features) })
	if conf < fastConfidence {
		// The gate sends this request down the full pipeline.
		decode()
		return out, fullTail()
	}
	stage("reconfig.decide", root, func() { out.served = r.probeDecide(ent.Features, proposed) })
	return out, nil
}

// decodeJSONBody is the JSON transport's first step: the request
// document's two MatrixMarket strings.
func decodeJSONBody(body []byte) (aText, bText string, err error) {
	var doc struct {
		A string `json:"a_mtx"`
		B string `json:"b_mtx"`
	}
	err = json.Unmarshal(body, &doc)
	return doc.A, doc.B, err
}

// layerProbes times, on a request that had to build, the layers whose
// alternative implementations the per-layer table compares: the fused
// extractor beside the multi-pass one the full pipeline calls, the
// serial reference beside the parallel simulation, and the baseline
// statistics on a workload nobody has precomputed yet.
func (r *rig) layerProbes(t *tracer, req int, w walked, withSerial bool) error {
	root := t.begin(rootProbes, 0, req)
	defer t.end(root)
	id := t.begin("features.extract", root, req)
	r.probeExtractFused(w.a, w.b)
	t.end(id)
	fresh, err := probeNewWorkload(w.a, w.b)
	if err != nil {
		return err
	}
	id = t.begin("baseline.stats_fresh", root, req)
	probeBaselineStats(fresh)
	t.end(id)
	if withSerial {
		id = t.begin("sim.serial", root, req)
		_, err = probeSerial(w.a, w.b)
		t.end(id)
	}
	return err
}

// localServer is an http.Server on a loopback port of the kernel's
// choosing.
type localServer struct {
	url string
	srv *http.Server
	ln  net.Listener
}

func listenLocal() (*localServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &localServer{url: "http://" + ln.Addr().String(), ln: ln}, nil
}

func (l *localServer) serve(h http.Handler) {
	l.srv = &http.Server{Handler: h}
	go func() { _ = l.srv.Serve(l.ln) }() // returns ErrServerClosed on close
}

func (l *localServer) close() {
	if l.srv != nil {
		_ = l.srv.Close()
	} else {
		_ = l.ln.Close()
	}
}

// readOnlyHandler reads the request body into memory and answers with
// an empty object: what an analyze request costs before the server looks
// at a single byte.
func readOnlyHandler(w http.ResponseWriter, r *http.Request) {
	_, _ = io.Copy(io.Discard, r.Body)
	w.Header().Set("Content-Type", jsonContentType)
	_, _ = io.WriteString(w, "{}\n")
}

// traceEnv is what the traced run needs from the process-level run.
type traceEnv struct {
	def    workload
	seed   int64
	model  string
	pool   []*pair
	bodies [][]byte // JSON bodies per pair (JSON transport only)
	refs   []*reference
	budget time.Duration
	outDir string
}

// traceSamples caps the requests sampled per pass.
const traceSamples = 200

// budgetRow is one line of the printed stage budget.
type budgetRow struct {
	Name  string  `json:"name"`
	P50Ms float64 `json:"p50_ms"` // over all sampled requests, 0 where the stage did not run
	Ran   int     `json:"ran"`    // requests in which the stage ran
}

// traceFile is the layout of out/trace-<workload>.json.
type traceFile struct {
	Workload    string      `json:"workload"`
	Seed        int64       `json:"seed"`
	Requests    int         `json:"requests"`
	RoundtripMs float64     `json:"roundtrip_p50_ms"`
	Budget      []budgetRow `json:"budget"`
	Unattrib    float64     `json:"unattributed_ms"`
	Spans       []span      `json:"spans"`
}

// runTraced produces the per-layer metrics whose source is the trace.
func runTraced(ctx context.Context, env traceEnv) (map[string]float64, error) {
	deadline := time.Now().Add(env.budget)
	def := env.def

	// In-process servers: one, or two that know each other.
	nodes := 1
	if def.cluster {
		nodes = 2
	}
	var listeners []*localServer
	defer func() {
		for _, l := range listeners {
			l.close()
		}
	}()
	var urls []string
	for i := 0; i < nodes+1; i++ { // the last one is the read-only handler
		l, err := listenLocal()
		if err != nil {
			return nil, err
		}
		listeners = append(listeners, l)
		urls = append(urls, l.url)
	}
	var members []string
	self := ""
	if def.cluster {
		members, self = urls[:nodes], urls[0]
	}
	for i := 0; i < nodes; i++ {
		var me string
		var peers []string
		if def.cluster {
			me = urls[i]
			peers = append(peers, urls[:i]...)
			peers = append(peers, urls[i+1:nodes]...)
		}
		h, stop, err := newInProcessServer(env.model, def.fast, me, peers)
		if err != nil {
			return nil, err
		}
		defer stop()
		listeners[i].serve(h)
	}
	listeners[nodes].serve(http.HandlerFunc(readOnlyHandler))

	r, err := newRig(env.model, members)
	if err != nil {
		return nil, err
	}
	kind := pipeFullWire
	switch {
	case def.json:
		kind = pipeFullJSON
	case def.fast:
		kind = pipeFastWire
	}
	binKind := kind
	if kind == pipeFullJSON {
		binKind = pipeFullWire
	}

	// Warm both sides with the base bodies, and score the selector on the
	// pool while the features are at hand. Binary and JSON ingestion share
	// cache keys, so the binary body warms the JSON workload too at a
	// tenth of the cost.
	warmCl := newClient(urls[0], binaryContentType)
	defer warmCl.close()
	var agree int
	var slow []float64
	for i, p := range env.pool {
		if _, _, err := warmCl.analyze(ctx, p.body); err != nil {
			return nil, fmt.Errorf("warming in-process server: %w", err)
		}
		w, err := r.walk(ctx, nil, 0, binKind, self, p.body)
		if err != nil {
			return nil, fmt.Errorf("warming rig: %w", err)
		}
		proposed, _ := r.probeSelect(w.features)
		if proposed == env.refs[i].best {
			agree++
		}
		slow = append(slow, env.refs[i].slowdown(proposed))
	}

	ctype := binaryContentType
	if def.json {
		ctype = jsonContentType
	}
	cl := newClient(urls[0], ctype)
	defer cl.close()
	roCl := newClient(urls[nodes], ctype)
	defer roCl.close()
	var peerCl *client
	if def.cluster {
		peerCl = newClient(urls[1], ctype)
		defer peerCl.close()
	}
	st := newStream(env.seed, env.pool, def.mix)
	var buf []byte
	bodyOf := func(n int) (request, []byte, error) {
		rq, err := st.at(n)
		if err != nil {
			return rq, nil, err
		}
		if def.json {
			return rq, env.bodies[rq.pair], nil
		}
		return rq, env.pool[rq.pair].frame(&buf, rq.mode, rq.arg), nil
	}

	// Untraced roundtrips, nothing in between them: half before the traced
	// pass and half after, an eighth of the time each, so that whatever the
	// process is still warming up at the start weighs on both sides of the
	// comparison.
	var untraced []float64
	n := 0 // next request number of the stream
	untracedPass := func(until time.Time) error {
		for i := 0; i < traceSamples/2 && (i < 4 || time.Now().Before(until)); i++ {
			_, body, err := bodyOf(n)
			if err != nil {
				return err
			}
			n++
			t0 := time.Now()
			if _, _, err := cl.analyze(ctx, body); err != nil {
				return fmt.Errorf("untraced roundtrip: %w", err)
			}
			untraced = append(untraced, ms(time.Since(t0)))
		}
		return nil
	}
	eighth := time.Until(deadline) / 8
	if err := untracedPass(time.Now().Add(eighth)); err != nil {
		return nil, err
	}

	// Traced pass.
	t := &tracer{t0: time.Now(), spans: make([]span, 0, 32*traceSamples)}
	var (
		roundtrip, transport, hop, relErr, mcycles, bodyMB, fpGBps []float64
		reqs                                                       int
		cold                                                       int
	)
	for ; reqs < traceSamples && (reqs < 8 || time.Now().Before(deadline.Add(-eighth))); reqs++ {
		rq, body, err := bodyOf(n)
		if err != nil {
			return nil, err
		}
		n++
		bodyMB = append(bodyMB, float64(len(body))/1e6)

		id := t.begin(rootRoundtrip, 0, reqs)
		_, _, err = cl.analyze(ctx, body)
		t.end(id)
		if err != nil {
			return nil, fmt.Errorf("traced roundtrip: %w", err)
		}
		rt := t.spans[id-1].End - t.spans[id-1].Start
		roundtrip = append(roundtrip, float64(rt)/1e6)

		id = t.begin(rootTransport, 0, reqs)
		_, _, err = roCl.analyze(ctx, body)
		t.end(id)
		if err != nil {
			return nil, fmt.Errorf("read-only roundtrip: %w", err)
		}
		transport = append(transport, float64(t.spans[id-1].End-t.spans[id-1].Start)/1e6)

		var viaPeer float64
		if peerCl != nil {
			// The same bytes through the other node: one of the two owns
			// the key, so the difference is one forward hop.
			t0 := time.Now()
			if _, _, err := peerCl.analyze(ctx, body); err != nil {
				return nil, fmt.Errorf("peer roundtrip: %w", err)
			}
			viaPeer = ms(time.Since(t0))
		}

		w, err := r.walk(ctx, t, reqs, kind, self, body)
		if err != nil {
			return nil, fmt.Errorf("re-enacting request %d: %w", n-1, err)
		}
		if peerCl != nil {
			// Ownership comes from the ring, not from the answer's "node"
			// field, which fast-path answers leave empty.
			if w.owner == self {
				hop = append(hop, viaPeer-float64(rt)/1e6)
			} else {
				hop = append(hop, float64(rt)/1e6-viaPeer)
			}
		}
		simulated := env.refs[rq.pair].seconds[w.served] // value-blind: holds for revalue too
		if w.built != nil {
			simulated = w.built.Results[w.served].Seconds
			var cycles int64
			for _, res := range w.built.Results {
				cycles += res.Cycles
			}
			mcycles = append(mcycles, float64(cycles)/1e6/w.simHost.Seconds())
			// The serial reference costs as much as the request; every
			// fourth cold request is enough for a median.
			if err := r.layerProbes(t, reqs, w, cold%4 == 0); err != nil {
				return nil, err
			}
			cold++
		}
		relErr = append(relErr, math.Abs(r.probePredict(w.features, w.served)-simulated)/simulated)
	}

	if err := untracedPass(deadline); err != nil {
		return nil, err
	}

	// Per-request time in each stage: a span's self time is its duration
	// minus its children's, summed by name under the pipeline root.
	perReq := make([]map[string]float64, reqs)
	probeTimes := map[string][]float64{}
	rootOf := make([]string, len(t.spans)+1)
	selfNs := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		selfNs[s.ID] += s.End - s.Start
		if s.Parent == 0 {
			rootOf[s.ID] = s.Name
		} else {
			rootOf[s.ID] = rootOf[s.Parent]
			selfNs[s.Parent] -= s.End - s.Start
		}
	}
	for _, s := range t.spans {
		if s.Parent == 0 {
			continue
		}
		switch rootOf[s.ID] {
		case rootPipeline:
			if perReq[s.Req] == nil {
				perReq[s.Req] = map[string]float64{}
			}
			perReq[s.Req][s.Name] += float64(selfNs[s.ID]) / 1e6
			if s.Name == "sparse.fingerprint" && s.End > s.Start {
				fpGBps = append(fpGBps, bodyMB[s.Req]*1e6/float64(s.End-s.Start))
			}
		case rootProbes:
			probeTimes[s.Name] = append(probeTimes[s.Name], float64(selfNs[s.ID])/1e6)
		}
	}
	names := map[string]bool{}
	for _, m := range perReq {
		for name := range m {
			names[name] = true
		}
	}
	var budget []budgetRow
	ran := map[string][]float64{}
	stageSum := 0.0
	for name := range names {
		all := make([]float64, reqs)
		for i, m := range perReq {
			if v, ok := m[name]; ok {
				all[i] = v
				ran[name] = append(ran[name], v)
			}
		}
		row := budgetRow{Name: name, P50Ms: median(all), Ran: len(ran[name])}
		stageSum += row.P50Ms
		budget = append(budget, row)
	}
	sort.Slice(budget, func(i, j int) bool {
		if budget[i].P50Ms != budget[j].P50Ms {
			return budget[i].P50Ms > budget[j].P50Ms
		}
		return budget[i].Name < budget[j].Name
	})
	rt50 := median(roundtrip)

	// A stage's metric is its p50 over the requests that ran it. On a
	// workload whose requests all take one path that is the budget row;
	// on a mixed one (mixed-open) the budget describes the median request
	// and the cold-only stages keep a meaningful number of their own.
	p50ran := func(name string) float64 { return median(ran[name]) }
	out := map[string]float64{
		"server.roundtrip_ms":                rt50,
		"server.unattributed_ms":             rt50 - stageSum,
		"server.unattributed_share":          (rt50 - stageSum) / rt50,
		"server.transport_ms":                median(transport),
		"server.json_decode_ms":              p50ran("server.json_decode"),
		"server.body_mb":                     mean(bodyMB),
		"sparse.parse_ms":                    p50ran("sparse.parse"),
		"sparse.fingerprint_ms":              p50ran("sparse.fingerprint"),
		"sparse.fingerprint_gbps":            median(fpGBps),
		"sparse.decode_ms":                   p50ran("sparse.decode"),
		"sparse.mtx_parse_ms":                p50ran("sparse.mtx_parse"),
		"sparse.csr_fingerprint_ms":          p50ran("sparse.csr_fingerprint"),
		"memo.probe_us":                      1e3 * p50ran("memo.probe"),
		"features.extract_ms":                median(append(probeTimes["features.extract"], ran["features.extract"]...)),
		"features.extract_multipass_ms":      p50ran("features.extract_multipass"),
		"registry.select_us":                 1e3 * p50ran("registry.select"),
		"registry.selector_accuracy":         float64(agree) / float64(len(env.pool)),
		"registry.selector_slowdown_geomean": geomean(slow),
		"reconfig.decide_us":                 1e3 * p50ran("reconfig.decide"),
		"reconfig.predict_rel_err":           median(relErr),
		"fleet.acquire_us":                   1e3 * p50ran("fleet.acquire"),
		"sim.simulate_all_ms":                p50ran("sim.simulate_all"),
		"sim.serial_ms":                      median(probeTimes["sim.serial"]),
		"sim.mcycles_per_host_s":             median(mcycles),
		"baseline.stats_us":                  1e3 * median(probeTimes["baseline.stats_fresh"]),
		"cluster.hop_ms":                     median(hop),
		"cluster.owner_us":                   1e3 * p50ran("cluster.owner"),
		"trace.overhead_share":               (rt50 - median(untraced)) / median(untraced),
		"trace.requests":                     float64(reqs),
	}

	tf := traceFile{Workload: def.name, Seed: env.seed, Requests: reqs, RoundtripMs: rt50,
		Budget: budget, Unattrib: rt50 - stageSum, Spans: t.spans}
	path := fmt.Sprintf("%s/trace-%s.json", env.outDir, def.name)
	data, err := json.Marshal(tf)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}

	fmt.Printf("  stage budget of the median request (%d traced requests, in-process roundtrip p50 %.3f ms):\n", reqs, rt50)
	for _, row := range budget {
		fmt.Printf("    %-28s %9.4f ms  %5.1f %%  ran in %d\n", row.Name, row.P50Ms, 100*row.P50Ms/rt50, row.Ran)
	}
	fmt.Printf("    %-28s %9.4f ms  %5.1f %%  (of which a handler that only reads the body: %.4f ms)\n",
		"server.unattributed", rt50-stageSum, 100*(rt50-stageSum)/rt50, median(transport))
	fmt.Printf("  trace written to %s\n", path)
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
