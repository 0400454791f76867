// Command benchmark is the repository's one serving benchmark: it trains
// a model with misam-train, boots real misam-serve processes on
// loopback, drives them over HTTP, checks every answer it can afford to
// against the serial reference simulator, and prints every metric named
// in ../BENCHMARK.json. See README.md.
//
//	go run -C benchmark . -seed 1                        # all five workloads, both modes
//	go run -C benchmark . -workload cold-full -trace 1   # one run, as the driver makes it
//	go run -C benchmark . -repeat 2                      # run-to-run spread beside each bound
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"misam/internal/memo"
)

// workload is one named traffic mix against one server configuration.
// The only server flags that vary are -fastpath and the cluster pair;
// everything else stays at misam-serve's defaults with -devices 2.
type workload struct {
	name     string
	fast     bool    // serve-fast (-fastpath) instead of serve-default
	json     bool    // JSON transport with MatrixMarket operands
	cluster  bool    // two nodes, all traffic to the first
	mix      [3]int  // repeat/revalue/rotate per mixBlock requests
	openRate float64 // req/s on a schedule; 0 = closed loop
}

var workloads = []workload{
	{name: "hot-binary", fast: true, mix: [3]int{20, 0, 0}},
	{name: "cold-full", mix: [3]int{0, 0, 20}},
	{name: "mixed-open", mix: [3]int{12, 5, 3}, openRate: 100},
	{name: "json-mtx", json: true, mix: [3]int{20, 0, 0}},
	{name: "cluster-hot", fast: true, cluster: true, mix: [3]int{20, 0, 0}},
}

// clients is the connection count of every workload: one per core of
// the two-core box this benchmark was sized on.
const clients = 2

// Training corpus sizes. misam-train's defaults (400/600/768) take 25 s
// here, which no per-run budget can carry 114 times; these train the
// same two models in about 5 s. -quick shrinks them further.
var (
	fullTrain  = trainSizes{corpus: 120, latency: 200, maxDim: 384}
	quickTrain = trainSizes{corpus: 60, latency: 100, maxDim: 256}
)

// windowSlices is how many equal slices the measured window is cut into.
const windowSlices = 5

// setupRounds is how many times a run sets up (train, boot, check pass);
// setup_s is the median round.
const setupRounds = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// units of every metric the harness can print. BENCHMARK.json lists the
// same names with the same units; a unit test holds the two together.
var units = map[string]string{
	// end to end
	"setup_s":                 "s",
	"throughput_rps":          "1/s",
	"latency_p50_ms":          "ms",
	"latency_p95_ms":          "ms",
	"server_cpu_ms_per_req":   "ms",
	"server_peak_rss_mb":      "MB",
	"served_slowdown_geomean": "ratio",
	// outcome counts (zero at a healthy commit, so they cannot carry a
	// relative bound; the result line's correct/failed fields gate them)
	"failed_share":     "ratio",
	"check_mismatches": "count",
	// per layer
	"server.roundtrip_ms":                "ms",
	"server.unattributed_ms":             "ms",
	"server.unattributed_share":          "ratio",
	"server.transport_ms":                "ms",
	"server.json_decode_ms":              "ms",
	"server.body_mb":                     "MB",
	"server.cpu_util":                    "cores",
	"server.latency_p99_ms":              "ms",
	"server.latency_max_ms":              "ms",
	"sparse.parse_ms":                    "ms",
	"sparse.fingerprint_ms":              "ms",
	"sparse.fingerprint_gbps":            "GB/s",
	"sparse.decode_ms":                   "ms",
	"sparse.mtx_parse_ms":                "ms",
	"sparse.csr_fingerprint_ms":          "ms",
	"memo.probe_us":                      "us",
	"memo.hit_ratio":                     "ratio",
	"memo.fast_hit_ratio":                "ratio",
	"memo.coalesced":                     "count",
	"memo.evictions":                     "count",
	"memo.resident_mb":                   "MB",
	"features.extract_ms":                "ms",
	"features.extract_multipass_ms":      "ms",
	"registry.select_us":                 "us",
	"registry.selector_accuracy":         "ratio",
	"registry.selector_slowdown_geomean": "ratio",
	"reconfig.decide_us":                 "us",
	"reconfig.predict_rel_err":           "ratio",
	"reconfig.reconfigs":                 "count",
	"reconfig.avoided":                   "count",
	"fleet.acquire_us":                   "us",
	"sim.simulate_all_ms":                "ms",
	"sim.serial_ms":                      "ms",
	"sim.mcycles_per_host_s":             "Mcycles/s",
	"sim.tile_hit_ratio":                 "ratio",
	"sim.tile_evictions":                 "count",
	"sim.bound_aborts":                   "count",
	"sim.coarse_skips":                   "count",
	"baseline.stats_us":                  "us",
	"cluster.forward_share":              "ratio",
	"cluster.hop_ms":                     "ms",
	"cluster.owner_us":                   "us",
	"cluster.forward_errors":             "count",
	"cluster.fallbacks":                  "count",
	"online.verify_offered":              "count",
	"online.verify_dropped":              "count",
	"online.verified":                    "count",
	"online.agreement":                   "ratio",
	"dataset.train_s":                    "s",
	"loadgen.late_share":                 "ratio",
	"loadgen.max_backlog":                "count",
	"loadgen.cpu_util":                   "cores",
	"trace.overhead_share":               "ratio",
	"trace.requests":                     "count",
}

// endToEnd lists, in print order, the metrics a --trace 0 run reports.
var endToEnd = []string{"setup_s", "throughput_rps", "latency_p50_ms", "latency_p95_ms",
	"server_cpu_ms_per_req", "server_peak_rss_mb", "served_slowdown_geomean"}

func isEndToEnd(name string) bool {
	for _, n := range endToEnd {
		if n == name {
			return true
		}
	}
	return false
}

// runConfig is one run of one workload.
type runConfig struct {
	def     workload
	seed    int64
	seconds float64
	trace   bool
	quick   bool
	outDir  string
}

// result is what one run measured.
type result struct {
	metrics   map[string]float64
	attempted int
	failed    int
	correct   bool
	samples   int // latency samples behind p50/p95
	problems  []string
}

// harness carries what survives between the runs of one invocation.
type harness struct {
	ps        procs
	trainBin  string
	serveBin  string
	poolSeed  int64
	poolQuick bool
	pool      []*pair
	bodies    [][]byte
	keys      []memo.Key // content key per pair, computed on first use
}

func (h *harness) poolFor(seed int64, quick, withJSON bool) ([]*pair, [][]byte, error) {
	if h.pool == nil || h.poolSeed != seed || h.poolQuick != quick {
		n := fullPoolPairs
		if quick {
			n = quickPoolPairs
		}
		h.pool, h.bodies, h.keys, h.poolSeed, h.poolQuick = newPool(seed, n), nil, nil, seed, quick
	}
	if withJSON && h.bodies == nil {
		for _, p := range h.pool {
			b, err := p.jsonBody()
			if err != nil {
				return nil, nil, err
			}
			h.bodies = append(h.bodies, b)
		}
	}
	return h.pool, h.bodies, nil
}

// counters is the sum, over a workload's servers, of the server-side
// counters the per-layer table reads from /v1/stats, /v1/fleet and
// /v1/cluster, by the harness's own short names.
type counters map[string]float64

// since returns c − start, counter by counter.
func (c counters) since(start counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - start[k]
	}
	return d
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func readCounters(servers []*serverProc) (counters, error) {
	c := counters{}
	for _, s := range servers {
		var st struct {
			Cache struct {
				Hits, Misses, Coalesced, Evictions float64
				FastHits                           float64 `json:"fast_hits"`
				FastMisses                         float64 `json:"fast_misses"`
				ResidentBytes                      float64 `json:"resident_bytes"`
			}
			FastPath struct {
				Verifier struct{ Offered, Dropped, Verified, Agreed float64 }
			}
			SlowTier struct {
				TileCache struct {
					Hits, Misses, Evictions float64
					BoundAborts             float64 `json:"bound_aborts"`
					CoarseSkips             float64 `json:"coarse_skips"`
				} `json:"tile_cache"`
			}
		}
		if err := getJSON(s.url+"/v1/stats", &st); err != nil {
			return nil, err
		}
		c["hits"] += st.Cache.Hits
		c["misses"] += st.Cache.Misses
		c["coalesced"] += st.Cache.Coalesced
		c["evictions"] += st.Cache.Evictions
		c["fastHits"] += st.Cache.FastHits
		c["fastMisses"] += st.Cache.FastMisses
		c["residentBytes"] += st.Cache.ResidentBytes
		c["offered"] += st.FastPath.Verifier.Offered
		c["dropped"] += st.FastPath.Verifier.Dropped
		c["verified"] += st.FastPath.Verifier.Verified
		c["agreed"] += st.FastPath.Verifier.Agreed
		c["tileHits"] += st.SlowTier.TileCache.Hits
		c["tileMisses"] += st.SlowTier.TileCache.Misses
		c["tileEvictions"] += st.SlowTier.TileCache.Evictions
		c["boundAborts"] += st.SlowTier.TileCache.BoundAborts
		c["coarseSkips"] += st.SlowTier.TileCache.CoarseSkips

		var fleet []struct {
			Reconfigs float64
			Avoided   float64 `json:"reconfigs_avoided"`
		}
		if err := getJSON(s.url+"/v1/fleet", &fleet); err != nil {
			return nil, err
		}
		for _, d := range fleet {
			c["reconfigs"] += d.Reconfigs
			c["avoided"] += d.Avoided
		}

		var cl struct {
			Stats *struct {
				ServedLocal float64 `json:"served_local"`
				Members     []struct {
					Forwards      float64
					ForwardErrors float64 `json:"forward_errors"`
					Fallbacks     float64
				}
			}
		}
		if err := getJSON(s.url+"/v1/cluster", &cl); err != nil {
			return nil, err
		}
		if cl.Stats != nil {
			c["servedLocal"] += cl.Stats.ServedLocal
			for _, m := range cl.Stats.Members {
				c["forwards"] += m.Forwards
				c["forwardErrors"] += m.ForwardErrors
				c["fallbacks"] += m.Fallbacks
			}
		}
	}
	return c, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// usageOf sums CPU over pids and takes the largest peak RSS.
func usageOf(pids []int) (procUsage, error) {
	var sum procUsage
	for _, pid := range pids {
		u, err := readUsage(pid)
		if err != nil {
			return sum, err
		}
		sum.cpu += u.cpu
		sum.peakMB = math.Max(sum.peakMB, u.peakMB)
	}
	return sum, nil
}

// setup is one round of what a user waits for before the first answer:
// train the model, start the workload's servers, and send every pair
// once (which also checks the answers and warms the caches).
type setup struct {
	servers []*serverProc
	train   time.Duration
	total   time.Duration
	answers []answer
	errs    []error
}

func (h *harness) setUp(ctx context.Context, cfg runConfig, pool []*pair, bodies [][]byte, refs []*reference) (*setup, error) {
	s := &setup{}
	model := filepath.Join(cfg.outDir, "model.bin")
	sizes := fullTrain
	if cfg.quick {
		sizes = quickTrain
	}
	var err error
	if s.train, err = trainModel(ctx, h.trainBin, model, filepath.Join(cfg.outDir, "train.log"), sizes); err != nil {
		return nil, err
	}
	s.total = s.train

	ports := make([]int, 1)
	owners := make([]int, len(pool)) // a single node owns everything
	if cfg.def.cluster {
		if ports, owners, err = h.clusterPorts(cfg.seed, pool); err != nil {
			return nil, err
		}
	} else if ports[0], err = freePort(); err != nil {
		return nil, err
	}
	for i, port := range ports {
		args := []string{"-model", model, "-devices", fmt.Sprint(serveDevices)}
		if cfg.def.fast {
			args = append(args, "-fastpath")
		}
		if cfg.def.cluster {
			var peers []string
			for j, p := range ports {
				if j != i {
					peers = append(peers, nodeURL(p))
				}
			}
			args = append(args, "-node-id", nodeURL(port), "-peers", strings.Join(peers, ","))
		}
		logPath := filepath.Join(cfg.outDir, fmt.Sprintf("serve-%s-%d.log", cfg.def.name, i+1))
		p, boot, err := h.ps.start(ctx, h.serveBin, logPath, port, args...)
		if err != nil {
			return nil, err
		}
		s.servers = append(s.servers, p)
		s.total += boot
	}

	// Check pass: every pair once on one connection. The reference
	// verdicts are computed in the first round and reused; they depend on
	// the pool alone.
	t0 := time.Now()
	ctype := binaryContentType
	if cfg.def.json {
		ctype = jsonContentType
	}
	cl := newClient(s.servers[0].url, ctype)
	defer cl.close()
	s.answers, s.errs = make([]answer, len(pool)), make([]error, len(pool))
	for _, i := range checkOrder(owners) {
		body := pool[i].body
		if cfg.def.json {
			body = bodies[i]
		}
		s.answers[i], _, s.errs[i] = cl.analyze(ctx, body)
		if refs[i] == nil {
			if refs[i], err = newReference(pool[i].a, pool[i].b); err != nil {
				return nil, err
			}
		}
	}
	s.total += time.Since(t0)
	return s, nil
}

// checkOrder is the order the check pass sends the pool in. A device
// programs the bitstream of the first request it sees and, a switch
// costing seconds against requests worth milliseconds, keeps it; the two
// devices of a node then take turns. So the order of the first pass
// decides which design every later answer is served on, and an arbitrary
// order makes served-design quality a lottery — worst in a cluster,
// where the ring deals each node a different hand for every seed. The
// order below gives every device of every node the same start and the
// same diet: a node's pairs go node by node; families 0 and 1 first,
// interleaved a b b a so that device 0 programs from family 0, device 1
// from family 1, and each serves both equally; then each further family
// in a block, which the alternating devices split evenly.
func checkOrder(owners []int) []int {
	nf := len(familyNames)
	nodes := 0
	for _, o := range owners {
		if o >= nodes {
			nodes = o + 1
		}
	}
	var order []int
	for node := 0; node < nodes; node++ {
		byFamily := make([][]int, nf)
		for i, o := range owners {
			if o == node {
				byFamily[i%nf] = append(byFamily[i%nf], i)
			}
		}
		a, b := byFamily[0], byFamily[1]
		for k := 0; len(a) > 0 || len(b) > 0; k++ {
			from := &a
			if k%4 == 1 || k%4 == 2 {
				from = &b
			}
			if len(*from) == 0 { // one family ran out: drain the other
				if from = &a; len(a) == 0 {
					from = &b
				}
			}
			order = append(order, (*from)[0])
			*from = (*from)[1:]
		}
		for _, rest := range byFamily[2:] {
			order = append(order, rest...)
		}
	}
	return order
}

// clusterPorts picks the two nodes' ports and reports which node owns
// each pair. Left to the kernel, the ports would decide the ring, the
// ring how many (and which) requests pay the forward hop, and that share
// — anywhere from 0.3 to 0.7 — would move throughput by a fifth between
// runs of the same code. So the ports come from a sequence seeded like
// everything else, and a candidate is taken only if each family's pairs
// split evenly between the nodes and both ports are free.
func (h *harness) clusterPorts(seed int64, pool []*pair) ([]int, []int, error) {
	if h.keys == nil {
		for _, p := range pool {
			k, err := probePairKey(p.body)
			if err != nil {
				return nil, nil, err
			}
			h.keys = append(h.keys, k)
		}
	}
	nf := len(familyNames)
	rng := rand.New(rand.NewSource(seed ^ 0xc1a5))
	for try := 0; try < 1_000_000; try++ {
		// Below the kernel's ephemeral range, so nobody is handed these.
		ports := []int{20000 + rng.Intn(10000), 20000 + rng.Intn(10000)}
		if ports[0] == ports[1] {
			continue
		}
		owners, err := probeOwners([]string{nodeURL(ports[0]), nodeURL(ports[1])}, h.keys)
		if err != nil {
			return nil, nil, err
		}
		var mine, all [len(familyNames)]int
		for i, o := range owners {
			all[i%nf]++
			if o == 0 {
				mine[i%nf]++
			}
		}
		even := true
		for f := range all {
			even = even && (mine[f] == all[f]/2 || mine[f] == (all[f]+1)/2)
		}
		if even && portFree(ports[0]) && portFree(ports[1]) {
			return ports, owners, nil
		}
	}
	return nil, nil, errors.New("no free pair of ports splits the pool evenly between two nodes")
}

func nodeURL(port int) string { return fmt.Sprintf("http://127.0.0.1:%d", port) }

// run executes one workload once.
func (h *harness) run(ctx context.Context, cfg runConfig) (*result, error) {
	def := cfg.def
	pool, bodies, err := h.poolFor(cfg.seed, cfg.quick, def.json)
	if err != nil {
		return nil, err
	}
	defer h.ps.stopAll()

	// Set up several times and keep the last; setup_s is the median.
	refs := make([]*reference, len(pool))
	var su *setup
	var setupTimes, trainTimes []float64
	for round := 0; round < setupRounds; round++ {
		h.ps.stopAll()
		if su, err = h.setUp(ctx, cfg, pool, bodies, refs); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, su.total.Seconds())
		trainTimes = append(trainTimes, su.train.Seconds())
	}

	res := &result{metrics: map[string]float64{"check_mismatches": 0}, correct: true}
	m := res.metrics
	m["setup_s"] = median(setupTimes)
	m["dataset.train_s"] = median(trainTimes)
	mismatch := func(format string, args ...any) {
		m["check_mismatches"]++
		res.failed++
		if len(res.problems) < 10 {
			res.problems = append(res.problems, fmt.Sprintf(format, args...))
		}
	}
	var slow []float64
	for i, ans := range su.answers {
		res.attempted++
		if su.errs[i] != nil {
			res.failed++
			res.problems = append(res.problems, fmt.Sprintf("check pass, pair %d: %v", i, su.errs[i]))
			continue
		}
		if why := checkAnswer(ans, refs[i]); why != "" {
			mismatch("check pass, pair %d (%s): %s", i, pool[i].family, why)
			continue
		}
		d, _ := parseDesign(ans.Design)
		slow = append(slow, refs[i].slowdown(d))
	}
	m["served_slowdown_geomean"] = geomean(slow)

	// The measured window. A traced run spends most of its time in the
	// in-process trace, so its process-level window is shorter: the
	// counters it is there for do not need the length.
	measure := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		measure = measure * 3 / 10
	}
	warm := measure * 15 / 100
	if warm < time.Second {
		warm = time.Second
	}
	var pids []int
	for _, s := range su.servers {
		pids = append(pids, s.cmd.Process.Pid)
	}
	// Server CPU is read at every slice boundary, the generator's own CPU
	// and the servers' counters when the window opens and closes.
	var c0, c1 counters
	var g0, g1 procUsage
	cpuAt := make([]time.Duration, windowSlices+1)
	tickAt := make([]time.Time, windowSlices+1)
	st := newStream(cfg.seed, pool, def.mix)
	spec := loadSpec{
		url: su.servers[0].url, ctype: binaryContentType, clients: clients, openRate: def.openRate,
		warm: warm, measure: measure, pool: pool, stream: st, seed: cfg.seed, slices: windowSlices,
		tick: func(k int) error {
			tickAt[k] = time.Now()
			u, err := usageOf(pids)
			if err != nil {
				return err
			}
			cpuAt[k] = u.cpu
			switch k {
			case 0:
				if g0, err = readUsage(os.Getpid()); err == nil {
					c0, err = readCounters(su.servers)
				}
			case windowSlices:
				if g1, err = readUsage(os.Getpid()); err == nil {
					c1, err = readCounters(su.servers)
				}
			}
			return err
		},
	}
	if def.json {
		spec.ctype, spec.jsonBody = jsonContentType, bodies
	}
	samples, err := runLoad(ctx, spec)
	if err != nil {
		return nil, err
	}
	wall := measure.Seconds()

	lat := make([][]float64, windowSlices) // ms, per slice
	var late, backlog int
	var cold []sample
	ok := 0
	okIn := make([]float64, windowSlices)
	for _, s := range samples {
		if s.slice < 0 {
			continue
		}
		res.attempted++
		if s.err != nil {
			res.failed++
			if len(res.problems) < 10 {
				res.problems = append(res.problems, fmt.Sprintf("%s request, pair %d: %v", s.req.mode, s.req.pair, s.err))
			}
			continue
		}
		ok++
		okIn[s.slice]++
		lat[s.slice] = append(lat[s.slice], ms(s.latency))
		if s.late > time.Millisecond {
			late++
		}
		if s.backlog > backlog {
			backlog = s.backlog
		}
		if s.req.mode == modeRotate {
			cold = append(cold, s)
			continue
		}
		// repeat and revalue answers share the base pair's reference: the
		// simulator never reads a value (pinned by a unit test).
		if why := checkAnswer(s.ans, refs[s.req.pair]); why != "" {
			mismatch("%s request, pair %d: %s", s.req.mode, s.req.pair, why)
		}
	}
	// A rotated pair needs its own reference, four serial simulations
	// each; check as many as a fixed time allows, in a seeded order, on
	// both cores now that the servers are idle.
	checked := h.checkCold(cold, pool, cfg.seed, time.Duration(0.15*cfg.seconds*float64(time.Second)), mismatch)

	// Every gated number is the median slice's: a burst of interference
	// from the machine's other tenants, or one stall that an open loop
	// turns into a queue, then costs one slice and not the run.
	var rps, cpuPer, p50, p95, whole []float64
	for k, n := range okIn {
		rps = append(rps, n/tickAt[k+1].Sub(tickAt[k]).Seconds())
		cpuPer = append(cpuPer, ratio(ms(cpuAt[k+1]-cpuAt[k]), n))
		p50 = append(p50, percentile(lat[k], 50))
		p95 = append(p95, percentile(lat[k], 95))
		whole = append(whole, lat[k]...)
	}
	res.samples = len(whole)
	m["throughput_rps"] = median(rps)
	m["latency_p50_ms"] = median(p50)
	m["latency_p95_ms"] = median(p95)
	m["server.latency_p99_ms"] = percentile(whole, 99)
	m["server.latency_max_ms"] = percentile(whole, 100)
	m["server_cpu_ms_per_req"] = median(cpuPer)
	m["server.cpu_util"] = (cpuAt[windowSlices] - cpuAt[0]).Seconds() / wall
	m["loadgen.cpu_util"] = (g1.cpu - g0.cpu).Seconds() / wall
	m["loadgen.late_share"] = ratio(float64(late), float64(ok))
	m["loadgen.max_backlog"] = float64(backlog)
	uEnd, err := usageOf(pids)
	if err != nil {
		return nil, err
	}
	m["server_peak_rss_mb"] = uEnd.peakMB
	m["failed_share"] = ratio(float64(res.failed), float64(res.attempted))
	res.correct = m["check_mismatches"] == 0

	d := c1.since(c0)
	m["memo.hit_ratio"] = ratio(d["hits"]+d["fastHits"], d["hits"]+d["misses"]+d["coalesced"]+d["fastHits"]+d["fastMisses"])
	m["memo.fast_hit_ratio"] = ratio(d["fastHits"], d["fastHits"]+d["fastMisses"])
	m["memo.coalesced"] = d["coalesced"]
	m["memo.evictions"] = d["evictions"]
	m["memo.resident_mb"] = c1["residentBytes"] / (1 << 20)
	m["sim.tile_hit_ratio"] = ratio(d["tileHits"], d["tileHits"]+d["tileMisses"])
	m["sim.tile_evictions"] = d["tileEvictions"]
	m["sim.bound_aborts"] = d["boundAborts"]
	m["sim.coarse_skips"] = d["coarseSkips"]
	m["reconfig.reconfigs"] = d["reconfigs"]
	m["reconfig.avoided"] = d["avoided"]
	m["cluster.forward_share"] = ratio(d["forwards"], d["forwards"]+d["servedLocal"]+d["fallbacks"])
	m["cluster.forward_errors"] = d["forwardErrors"]
	m["cluster.fallbacks"] = d["fallbacks"]
	m["online.verify_offered"] = d["offered"]
	m["online.verify_dropped"] = d["dropped"]
	m["online.verified"] = d["verified"]
	m["online.agreement"] = ratio(d["agreed"], d["verified"])

	h.ps.stopAll()
	fmt.Printf("  %d requests in the window (%d ok, %d failed), %d of %d cold answers re-simulated, %d latency samples\n",
		res.attempted-len(pool), ok, res.failed, checked, len(cold), res.samples)
	fmt.Printf("  per slice: %.1f req/s, %.3f CPU-ms/req, p50 %.2f ms, p95 %.2f ms\n", rps, cpuPer, p50, p95)

	if cfg.trace {
		layer, err := runTraced(ctx, traceEnv{def: def, seed: cfg.seed, model: filepath.Join(cfg.outDir, "model.bin"),
			pool: pool, bodies: bodies, refs: refs, outDir: cfg.outDir,
			budget: time.Duration(0.7 * cfg.seconds * float64(time.Second))})
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		for k, v := range layer {
			m[k] = v
		}
	}
	return res, nil
}

// checkCold re-simulates rotated requests until the time runs out and
// returns how many it checked.
func (h *harness) checkCold(cold []sample, pool []*pair, seed int64, budget time.Duration, mismatch func(string, ...any)) int {
	rand.New(rand.NewSource(seed)).Shuffle(len(cold), func(i, j int) { cold[i], cold[j] = cold[j], cold[i] })
	deadline := time.Now().Add(budget)
	var mu sync.Mutex
	var wg sync.WaitGroup
	next, checked := 0, 0
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for time.Now().Before(deadline) {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(cold) {
					return
				}
				s := cold[i]
				why := ""
				va, vb, err := probeParse(pool[s.req.pair].frame(&buf, s.req.mode, s.req.arg))
				if err != nil {
					why = err.Error()
				} else if ref, err := newReference(probeDecodeCopy(va), probeDecodeCopy(vb)); err != nil {
					why = err.Error()
				} else {
					why = checkAnswer(s.ans, ref)
				}
				mu.Lock()
				checked++
				if why != "" {
					mismatch("rotate request, pair %d, k=%d: %s", s.req.pair, s.req.arg, why)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return checked
}

// report prints one run's metrics by name and unit.
func report(res *result, names []string) {
	for _, name := range names {
		v, ok := res.metrics[name]
		if !ok {
			continue
		}
		note := ""
		if name == "latency_p95_ms" {
			note = fmt.Sprintf("  (median of %d slices, %d samples in all)", windowSlices, res.samples)
		}
		fmt.Printf("    %-36s %14.6g %s%s\n", name, v, units[name], note)
	}
}

func layerNames() []string {
	var names []string
	for name := range units {
		if !isEndToEnd(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// resultLine renders the run's last line of output: the contract between
// this harness and whatever drives it.
func resultLine(res *result, names []string) (string, error) {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, map[string]metric{}}
	for _, name := range names {
		v := res.metrics[name] // a stage the workload never runs reads 0
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", name, v)
		}
		out.Metrics[name] = metric{Value: v, Unit: units[name]}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// bounds reads the end-to-end bounds from ../BENCHMARK.json, the one
// place they are written down.
func bounds() (map[string]float64, error) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name  string
			Bound float64
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, e := range doc.EndToEnd {
		out[e.Name] = e.Bound
	}
	return out, nil
}

func environment() string {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s commit=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

func main() {
	if _, err := realMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// realMain runs the harness and returns every run's result.
func realMain(args []string) ([]*result, error) {
	flag := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name    = flag.String("workload", "", "run only this workload and end with the result line (default: all five)")
		seed    = flag.Int64("seed", 1, "seed of the operand pool, the request stream and the arrival schedule")
		seconds = flag.Float64("seconds", 0, "measured window in seconds (default 10, or 2 with -quick)")
		trace   = flag.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics from a traced run (default: both, one run each)")
		quick   = flag.Bool("quick", false, "8 pairs, tiny training corpus, 2 s windows: a smoke run, not a measurement")
		repeat  = flag.Int("repeat", 0, "run the untraced set N times and print each metric's run-to-run spread beside its bound")
		outDir  = flag.String("out", "out", "directory for binaries, the model, server logs and trace files")
	)
	if err := flag.Parse(args); err != nil {
		return nil, err
	}
	if *seconds <= 0 {
		*seconds = 10
		if *quick {
			*seconds = 2
		}
	}
	defs := workloads
	if *name != "" {
		defs = nil
		for _, w := range workloads {
			if w.name == *name {
				defs = []workload{w}
			}
		}
		if defs == nil {
			return nil, fmt.Errorf("unknown workload %q", *name)
		}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return nil, err
	}

	// Children die with the harness on every path: a cancelled context
	// unwinds through the deferred stopAll, and Pdeathsig covers a crash.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	h := &harness{}
	defer h.ps.stopAll()
	var err error
	if h.trainBin, h.serveBin, err = buildBinaries(ctx, *outDir); err != nil {
		return nil, err
	}
	fmt.Printf("misam serving benchmark: seed %d, %.3g s windows, %s\n", *seed, *seconds, environment())

	one := func(def workload, traced bool) (*result, error) {
		fmt.Printf("%s (trace %v)\n", def.name, traced)
		res, err := h.run(ctx, runConfig{def: def, seed: *seed, seconds: *seconds, trace: traced, quick: *quick, outDir: *outDir})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", def.name, err)
		}
		report(res, endToEnd)
		report(res, layerNames())
		for _, p := range res.problems {
			fmt.Printf("    PROBLEM: %s\n", p)
		}
		return res, nil
	}

	if *repeat > 0 {
		return nil, repeatRuns(defs, *repeat, one)
	}
	var all []*result
	lastTraced := false
	for _, def := range defs {
		for _, traced := range []bool{false, true} {
			if *trace >= 0 && traced != (*trace == 1) {
				continue
			}
			res, err := one(def, traced)
			if err != nil {
				return all, err
			}
			all = append(all, res)
			lastTraced = traced
		}
	}
	if *name == "" || len(all) == 0 {
		return all, nil
	}
	names := endToEnd
	if lastTraced {
		names = layerNames()
	}
	line, err := resultLine(all[len(all)-1], names)
	if err != nil {
		return all, err
	}
	fmt.Println(line)
	return all, nil
}

// maxLateShare is the share of open-loop sends that may leave more than
// a millisecond late before -repeat calls the run invalid. With both
// cores busy, one or two timer wake-ups in a hundred overshoot even the
// generator's 2 ms of clock-watching; the delay is charged to latency
// either way.
const maxLateShare = 0.05

// repeatRuns runs the untraced set n times and holds every end-to-end
// metric's spread against its bound.
func repeatRuns(defs []workload, n int, one func(workload, bool) (*result, error)) error {
	bound, err := bounds()
	if err != nil {
		return err
	}
	values := map[string]map[string][]float64{} // workload → metric → one value per run
	var bad []string
	for i := 0; i < n; i++ {
		for _, def := range defs {
			res, err := one(def, false)
			if err != nil {
				return err
			}
			if values[def.name] == nil {
				values[def.name] = map[string][]float64{}
			}
			for _, name := range endToEnd {
				values[def.name][name] = append(values[def.name][name], res.metrics[name])
			}
			if late := res.metrics["loadgen.late_share"]; late > maxLateShare {
				bad = append(bad, fmt.Sprintf("%s run %d: loadgen.late_share %.3f > %.2f", def.name, i+1, late, maxLateShare))
			}
			if !res.correct || res.failed > 0 {
				bad = append(bad, fmt.Sprintf("%s run %d: %d failed, correct=%v", def.name, i+1, res.failed, res.correct))
			}
		}
	}
	fmt.Printf("spread over %d runs (%s)\n", n, environment())
	for _, def := range defs {
		for _, name := range endToEnd {
			xs := values[def.name][name]
			sp := relSpread(xs)
			verdict := "ok"
			if sp > bound[name] {
				verdict = "EXCEEDS BOUND"
				bad = append(bad, fmt.Sprintf("%s %s: spread %.3f > bound %.3f", def.name, name, sp, bound[name]))
			}
			fmt.Printf("  %-12s %-26s median %12.6g %-6s spread %6.3f  bound %5.3f  %s\n",
				def.name, name, median(xs), units[name], sp, bound[name], verdict)
		}
	}
	if len(bad) > 0 {
		return errors.New(strings.Join(bad, "; "))
	}
	return nil
}
