// Package server exposes a trained Misam framework over HTTP — the
// deployment shape a host-side selection service takes: clients POST a
// workload (MatrixMarket payloads or generator specs) and receive the
// selected design, the reconfiguration verdict and the predicted and
// simulated latencies as JSON.
//
// The server fronts a Fleet of N accelerators. Each request checks one
// device out for its duration — per-device serialization keeps every
// report consistent with the bitstream state it describes — while
// different devices serve different requests concurrently. Admission is
// context-aware: request deadlines and client disconnects cancel the
// simulation mid-tile-pool.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"misam"
	"misam/internal/cluster"
	"misam/internal/fleet"
	"misam/internal/online"
	"misam/internal/placement"
	"misam/internal/registry"
	"misam/internal/sim"
)

// Config tunes the serving layer. The zero value is a sensible
// single-device deployment.
type Config struct {
	// Devices is the fleet size (default 1).
	Devices int
	// RequestTimeout bounds each request's end-to-end time, including
	// waiting for a device. Zero means no server-imposed deadline.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies (default 8 MiB).
	MaxBodyBytes int64
	// MaxBatchItems caps the /v1/analyze/batch fan-out (default 16).
	MaxBatchItems int
	// CacheBytes, when positive, enables the framework's content-addressed
	// analysis cache with this byte budget (misam.Framework.WithCache).
	// Cache hits skip the fleet's simulation work entirely; misses hold
	// their device only for the pricing transaction, not the simulation.
	// Zero leaves caching to the caller's framework configuration.
	CacheBytes int64
	// TileCacheBytes, when positive, enables the framework's shared
	// tile-schedule cache with this byte budget
	// (misam.Framework.WithTileCache): every slow-tier simulation — cold
	// analyses, the pruned verifier's audits — memoizes per-tile
	// schedules in one pool, so a re-simulation of a just-served pair
	// reuses its schedules. Zero leaves each workload with its private
	// per-pair cache.
	TileCacheBytes int64
	// Online enables the continuous-learning subsystem: serve-time trace
	// capture, drift detection against the training snapshot, and
	// registry-backed retraining via POST /v1/models/retrain (and the
	// background loop when RetrainInterval is set).
	Online bool
	// TraceSample admits one in N served analyses into the trace buffer
	// (default 1 — record everything; raise under heavy traffic).
	TraceSample int
	// TraceCapacity bounds the trace buffer (default 4096). When the
	// buffer cycles faster than retraining consumes it, /v1/stats's
	// dropped counter grows.
	TraceCapacity int
	// RetrainInterval, when positive, runs the background adaptation
	// loop: every interval the drift detector is evaluated and a retrain
	// is attempted when it trips. Zero means on-demand retraining only.
	RetrainInterval time.Duration
	// OnlineConfig overrides the drift/retrain tuning (optional; the
	// zero value uses the online package defaults).
	OnlineConfig online.Config
	// FastPath enables the confidence-gated two-tier pipeline: requests
	// the selector is confident about are answered from the model's
	// latency regressors without simulation; the rest (and a background
	// audit sample) still run the full pipeline. See misam.WithFastPath.
	FastPath bool
	// Confidence is the fast-path gate threshold (default 0.9; >= 1
	// disables the fast tier while keeping its counters).
	Confidence float64
	// VerifySample offers one in N fast-path hits to the background
	// verifier for asynchronous re-simulation (default 8; negative
	// disables verification).
	VerifySample int
	// Placement enables bitstream-aware device selection: each request's
	// predicted winner is computed before acquisition and the placement
	// cost model picks the idle device on which serving it is cheapest —
	// typically one already holding the winning bitstream. Off, the
	// fleet hands out devices FIFO exactly as before. Placement never
	// changes analysis results, only which device pays the switch.
	Placement bool
	// QueueWeight tunes the placement cost model's queue-pressure term
	// (<= 0 uses the placement package default).
	QueueWeight float64
	// RebalanceInterval, when positive (and Placement is on), runs the
	// background portfolio rebalancer at this cadence: idle devices are
	// preloaded with the bitstreams the traffic mix demands, fed by the
	// trace collector's per-design EWMA. Trace capture is enabled
	// automatically when the rebalancer needs it.
	RebalanceInterval time.Duration
	// Cluster, when its Self field is set, joins this server to a
	// fingerprint-sharded cluster: analyze requests are routed to the
	// member owning their content key, and model promotions/rollbacks
	// replicate to peers. See internal/cluster and NewClustered.
	Cluster cluster.Config
}

const (
	defaultMaxBodyBytes  = 8 << 20
	defaultMaxBatchItems = 16
)

const (
	defaultTraceSample   = 1
	defaultTraceCapacity = 4096
)

func (c Config) withDefaults() Config {
	if c.Devices < 1 {
		c.Devices = 1
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = defaultMaxBodyBytes
	}
	if c.MaxBatchItems < 1 {
		c.MaxBatchItems = defaultMaxBatchItems
	}
	if c.TraceSample < 1 {
		c.TraceSample = defaultTraceSample
	}
	if c.TraceCapacity < 1 {
		c.TraceCapacity = defaultTraceCapacity
	}
	if c.FastPath {
		if c.Confidence <= 0 {
			c.Confidence = 0.9
		}
		if c.VerifySample == 0 {
			c.VerifySample = 8
		}
		if c.VerifySample < 0 {
			c.VerifySample = 0
		}
	}
	return c
}

// Server wraps an immutable framework and a device fleet behind an
// http.Handler. The framework (models, pricing engine) is shared
// read-only across all requests; per-accelerator bitstream state lives
// in the fleet's devices.
type Server struct {
	fw    *misam.Framework
	fleet *misam.Fleet
	cfg   Config
	// placement is every request's placement cost model (nil when
	// Placement is off: FIFO checkout).
	placement *misam.PlacementConfig
	// manager drives the online adaptation loop (nil when Config.Online
	// is false).
	manager *online.Manager
	// rebalancer keeps the fleet's bitstream portfolio tracking the
	// traffic mix (nil unless Placement and RebalanceInterval are set).
	rebalancer *placement.Rebalancer
	// cluster and replicator are the sharded-serving state (nil outside a
	// cluster); syncCancel stops the replication push loop.
	cluster    *cluster.Cluster
	replicator *cluster.Replicator
	syncCancel context.CancelFunc

	// onAcquire, when set, runs after a request checks its device out and
	// before the decide stage. Test hook for concurrency assertions.
	onAcquire func(*misam.Accelerator)
}

// New returns a single-device Server — the original one-FPGA daemon
// shape.
func New(fw *misam.Framework) *Server {
	return NewWithConfig(fw, Config{})
}

// NewWithConfig returns a Server over a fleet of cfg.Devices fresh
// accelerators. It panics on a malformed cluster configuration — use
// NewClustered to validate one gracefully.
func NewWithConfig(fw *misam.Framework, cfg Config) *Server {
	s, err := NewClustered(fw, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// NewClustered is NewWithConfig with the cluster configuration's
// fail-fast validation surfaced: malformed member addresses come back
// as cluster.ErrBadPeer / ErrDuplicatePeer / ErrSelfPeer before any
// background work starts. Configurations without a cluster never fail.
func NewClustered(fw *misam.Framework, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.CacheBytes > 0 {
		fw.WithCache(cfg.CacheBytes)
	}
	if cfg.TileCacheBytes > 0 {
		fw.WithTileCache(cfg.TileCacheBytes)
	}
	s := &Server{fw: fw, fleet: fw.NewFleet(cfg.Devices), cfg: cfg}
	if cfg.Placement {
		s.placement = &misam.PlacementConfig{QueueWeight: cfg.QueueWeight}
	}
	if cfg.Online {
		fw.WithTraceCapture(cfg.TraceCapacity, cfg.TraceSample)
		// The drift baseline comes from the in-memory training corpus
		// when there is one; a file-loaded model self-calibrates from the
		// first window of served traffic instead.
		baseline, _ := fw.OnlineBaseline()
		ocfg := cfg.OnlineConfig
		ocfg.Interval = cfg.RetrainInterval
		s.manager = online.NewManager(fw.Registry(), fw.Traces(), baseline, ocfg)
		s.manager.Start()
	}
	if cfg.FastPath {
		// After the online block: WithFastPath wires its verifier to the
		// trace collector, which must exist by now for audit traces to
		// reach drift detection.
		fw.WithFastPath(misam.FastPathConfig{
			Confidence:   cfg.Confidence,
			VerifySample: cfg.VerifySample,
		})
	}
	if cfg.Placement && cfg.RebalanceInterval > 0 {
		// The rebalancer reads the trace collector's demand EWMA; enable
		// capture if online mode did not already.
		if fw.Traces() == nil {
			fw.WithTraceCapture(cfg.TraceCapacity, cfg.TraceSample)
		}
		s.rebalancer = placement.NewRebalancer(s.fleet, fw.Traces(), placement.RebalancerConfig{
			Interval: cfg.RebalanceInterval,
		})
		s.rebalancer.Start()
	}
	if cfg.Cluster.Self != "" {
		if err := s.startCluster(); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// Fleet exposes the server's device pool (for stats and tests).
func (s *Server) Fleet() *misam.Fleet { return s.fleet }

// Manager exposes the online adaptation manager (nil when online mode is
// off).
func (s *Server) Manager() *online.Manager { return s.manager }

// Close stops the background adaptation loop, the portfolio rebalancer,
// the replication push loop and the fast-path verifier pool, if any.
// The HTTP handler itself is stateless and needs no teardown.
func (s *Server) Close() {
	if s.syncCancel != nil {
		s.syncCancel()
	}
	if s.rebalancer != nil {
		s.rebalancer.Close()
	}
	if s.manager != nil {
		s.manager.Close()
	}
	if s.cfg.FastPath {
		s.fw.Close()
	}
}

// Handler returns the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/designs", s.handleDesigns)
	mux.HandleFunc("GET /v1/fleet", s.handleFleet)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/models", s.handleModels)
	mux.HandleFunc("GET /v1/cluster", s.handleCluster)
	mux.HandleFunc("POST /v1/models/retrain", s.handleRetrain)
	mux.HandleFunc("POST /v1/models/rollback", s.handleRollback)
	mux.HandleFunc("POST /v1/models/sync", s.handleModelSync)
	mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("POST /v1/analyze/batch", s.handleAnalyzeBatch)
	return mux
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// designInfo is one design's static description.
type designInfo struct {
	Name      string  `json:"name"`
	Scheduler string  `json:"scheduler"`
	ChannelsA int     `json:"channels_a"`
	ChannelsB int     `json:"channels_b"`
	ChannelsC int     `json:"channels_c"`
	PEGs      int     `json:"pegs"`
	Freq      float64 `json:"freq_mhz"`
	Compress  bool    `json:"compressed_b"`
	LUT       float64 `json:"lut_percent"`
	BRAM      float64 `json:"bram_percent"`
}

func (s *Server) handleDesigns(w http.ResponseWriter, _ *http.Request) {
	var out []designInfo
	for _, id := range sim.AllDesigns {
		cfg := sim.GetConfig(id)
		res := sim.DesignResources(id)
		out = append(out, designInfo{
			Name:      id.String(),
			Scheduler: cfg.SchedulerA.String(),
			ChannelsA: cfg.ChA, ChannelsB: cfg.ChB, ChannelsC: cfg.ChC,
			PEGs: cfg.PEG, Freq: cfg.FreqMHz, Compress: cfg.CompressedB,
			LUT: res.LUT, BRAM: res.BRAM,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// deviceInfo is one accelerator's state snapshot.
type deviceInfo struct {
	Name            string  `json:"name"`
	Loaded          string  `json:"loaded"`
	Requests        int64   `json:"requests"`
	Reconfigs       int64   `json:"reconfigs"`
	ReconfigSeconds float64 `json:"reconfig_seconds"`
	// ReconfigsAvoided counts checkouts where the device already held the
	// request's predicted bitstream — switches placement saved.
	ReconfigsAvoided int64 `json:"reconfigs_avoided"`
}

func (s *Server) handleFleet(w http.ResponseWriter, _ *http.Request) {
	var out []deviceInfo
	for _, d := range s.fleet.Devices() {
		info := deviceInfo{Name: d.Name()}
		if id, ok := d.Loaded(); ok {
			info.Loaded = id.String()
		}
		st := d.Stats()
		info.Requests = st.Requests
		info.Reconfigs = st.Reconfigs
		info.ReconfigSeconds = st.ReconfigSeconds
		info.ReconfigsAvoided = st.ReconfigsAvoided
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, out)
}

// statsResponse reports the analysis-cache counters plus the online
// adaptation state. cache_enabled is false (and the counters zero) when
// the server runs without a cache; the online fields are omitted when
// online mode is off.
type statsResponse struct {
	CacheEnabled bool             `json:"cache_enabled"`
	Cache        misam.CacheStats `json:"cache"`
	// ModelVersion is the registry version currently serving traffic.
	ModelVersion uint64 `json:"model_version"`
	Online       bool   `json:"online"`
	// Traces carries the collector counters — including Dropped, the
	// signal that the bounded buffer is saturating at the configured
	// sample rate.
	Traces *online.CollectorStats `json:"traces,omitempty"`
	// Adaptation carries drift-check and retrain/promotion counters.
	Adaptation *online.ManagerStats `json:"adaptation,omitempty"`
	// FastPath carries the two-tier serving counters (coverage, the
	// background verifier's agreement and queue drops); omitted when the
	// fast path is off.
	FastPath *misam.FastPathStats `json:"fastpath,omitempty"`
	// Placement carries the bitstream-aware placement counters; omitted
	// when placement is off.
	Placement *placementStats `json:"placement,omitempty"`
	// SlowTier carries the pruned slow tier's tile-level counters —
	// shared tile-cache hits/misses plus bound-abort and coarse-skip
	// counts; omitted when no shared tile cache is enabled.
	SlowTier *slowTierStats `json:"slowtier,omitempty"`
}

// slowTierStats reports the slow tier's tile-level memoization and
// pruning activity (see sim.TileCache).
type slowTierStats struct {
	Enabled   bool                 `json:"enabled"`
	TileCache misam.TileCacheStats `json:"tile_cache"`
}

// placementStats reports the placement layer's effect: the pool's
// affinity counters, the switches it saved fleet-wide, and the portfolio
// rebalancer's activity.
type placementStats struct {
	Enabled bool `json:"enabled"`
	// Fleet carries the pool counters: affinity_hits counts checkouts
	// that landed on a device already holding the predicted bitstream.
	Fleet fleet.Stats `json:"fleet"`
	// Reconfigs groups the switch accounting placement exists to improve.
	Reconfigs struct {
		// Paid sums per-device reconfigurations actually performed;
		// Avoided sums checkouts where the predicted bitstream was already
		// resident.
		Paid    int64 `json:"paid"`
		Avoided int64 `json:"avoided"`
	} `json:"reconfigs"`
	// Rebalancer carries the background portfolio optimizer's counters
	// (omitted when no rebalancer runs).
	Rebalancer *placement.RebalancerStats `json:"rebalancer,omitempty"`
	// Demand is the normalized per-design traffic mix feeding the
	// rebalancer, with DemandN observations behind it (omitted without a
	// trace collector).
	Demand  []float64 `json:"demand,omitempty"`
	DemandN int64     `json:"demand_n,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("scope") == "cluster" {
		if s.cluster == nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("scope=cluster needs a cluster deployment"))
			return
		}
		if !s.forwardedIn(r) {
			s.handleClusterStats(w, r)
			return
		}
		// A peer's fan-out probe: answer with the local view below.
	}
	writeJSON(w, http.StatusOK, s.localStats())
}

// localStats assembles this node's statsResponse.
func (s *Server) localStats() statsResponse {
	st, ok := s.fw.CacheStats()
	resp := statsResponse{
		CacheEnabled: ok,
		Cache:        st,
		ModelVersion: s.fw.Registry().Current().Version(),
		Online:       s.manager != nil,
	}
	if s.manager != nil {
		ts := s.manager.Collector().Stats()
		ms := s.manager.Stats()
		resp.Traces = &ts
		resp.Adaptation = &ms
	}
	if fs, ok := s.fw.FastPathStats(); ok {
		resp.FastPath = &fs
	}
	if ts, ok := s.fw.TileCacheStats(); ok {
		resp.SlowTier = &slowTierStats{Enabled: true, TileCache: ts}
	}
	if s.cfg.Placement {
		ps := &placementStats{Enabled: true, Fleet: s.fleet.Stats()}
		for _, d := range s.fleet.Devices() {
			dst := d.Stats()
			ps.Reconfigs.Paid += dst.Reconfigs
			ps.Reconfigs.Avoided += dst.ReconfigsAvoided
		}
		if s.rebalancer != nil {
			rs := s.rebalancer.Stats()
			ps.Rebalancer = &rs
		}
		if tr := s.fw.Traces(); tr != nil {
			mix, n := tr.Demand()
			ps.Demand = mix[:]
			ps.DemandN = n
		}
		resp.Placement = ps
	}
	return resp
}

// modelsResponse lists the registry contents.
type modelsResponse struct {
	Current   uint64          `json:"current"`
	Snapshots []registry.Info `json:"snapshots"`
}

func (s *Server) handleModels(w http.ResponseWriter, _ *http.Request) {
	reg := s.fw.Registry()
	writeJSON(w, http.StatusOK, modelsResponse{
		Current:   reg.Current().Version(),
		Snapshots: reg.List(),
	})
}

// retrainResponse is the retrain endpoint's verdict: the shadow
// evaluation outcome plus the version now serving.
type retrainResponse struct {
	Outcome online.Outcome `json:"outcome"`
	Current uint64         `json:"current"`
}

func (s *Server) handleRetrain(w http.ResponseWriter, r *http.Request) {
	if s.manager == nil {
		writeErr(w, http.StatusConflict, fmt.Errorf("online adaptation is disabled (start with online mode on)"))
		return
	}
	note := "operator request"
	if rep := s.manager.CheckDrift(); rep.Drifted && len(rep.Reasons) > 0 {
		note = rep.Reasons[0]
	}
	out, err := s.manager.RetrainNow(note)
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	if out.Promote {
		s.syncAfterModelChange()
	}
	writeJSON(w, http.StatusOK, retrainResponse{Outcome: out, Current: s.fw.Registry().Current().Version()})
}

// rollbackResponse reports the version serving after a rollback.
type rollbackResponse struct {
	Current uint64        `json:"current"`
	Info    registry.Info `json:"info"`
}

func (s *Server) handleRollback(w http.ResponseWriter, _ *http.Request) {
	snap, err := s.fw.Registry().Rollback()
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	s.syncAfterModelChange()
	writeJSON(w, http.StatusOK, rollbackResponse{Current: snap.Version(), Info: snap.Info()})
}

// analyzeRequest carries the two operands, each as either a MatrixMarket
// document or a generator spec (uniform:<rows>:<cols>:<density>,
// dense:<cols>, powerlaw:<n>:<nnz>, banded:<n>:<halfbw>, or "self" for B).
type analyzeRequest struct {
	AMatrixMarket string `json:"a_mtx,omitempty"`
	BMatrixMarket string `json:"b_mtx,omitempty"`
	ASpec         string `json:"a_spec,omitempty"`
	BSpec         string `json:"b_spec,omitempty"`
	Seed          int64  `json:"seed,omitempty"`
}

// analyzeResponse is the framework report plus baseline estimates.
type analyzeResponse struct {
	Design           string  `json:"design"`
	Device           string  `json:"device"`
	ModelVersion     uint64  `json:"model_version"`
	Reconfigured     bool    `json:"reconfigured"`
	ReconfigSeconds  float64 `json:"reconfig_seconds"`
	PreprocessMs     float64 `json:"preprocess_ms"`
	InferenceMs      float64 `json:"inference_ms"`
	PredictedMs      float64 `json:"predicted_ms"`
	SimulatedMs      float64 `json:"simulated_ms"`
	PEUtilization    float64 `json:"pe_utilization"`
	EnergyMillijoule float64 `json:"energy_mj"`
	CPUMs            float64 `json:"cpu_ms"`
	GPUMs            float64 `json:"gpu_ms"`
	TrapezoidMs      float64 `json:"trapezoid_ms"`
	// Path reports which serving tier answered ("full" or "fast");
	// Confidence is the selector leaf's probability mass for the chosen
	// design when the fast-path gate evaluated it.
	Path       string  `json:"path,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`
	// Node is the cluster member that actually served the analysis
	// (omitted outside a cluster). A forwarded request carries the owner
	// node's ID here, not the member the client hit.
	Node string `json:"node,omitempty"`
}

// httpError pairs a status code with a client-facing message.
type httpError struct {
	status int
	err    error
}

func (e *httpError) Error() string { return e.err.Error() }

// resolveWorkload materializes one JSON item's operands into a
// simulation workload — the request's content key (and therefore its
// cluster owner) is defined by the resolved operand bytes.
func resolveWorkload(req analyzeRequest) (*misam.Workload, *httpError) {
	a, err := loadOperand(req.AMatrixMarket, req.ASpec, req.Seed, nil)
	if err != nil {
		return nil, &httpError{http.StatusBadRequest, fmt.Errorf("matrix A: %w", err)}
	}
	b, err := loadOperand(req.BMatrixMarket, req.BSpec, req.Seed+1, a)
	if err != nil {
		return nil, &httpError{http.StatusBadRequest, fmt.Errorf("matrix B: %w", err)}
	}
	wl, err := misam.NewWorkload(a, b)
	if err != nil {
		return nil, &httpError{http.StatusBadRequest,
			fmt.Errorf("dimension mismatch: A is %dx%d, B is %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)}
	}
	return wl, nil
}

// item is one unit of analysis decoded from a request body: the whole
// body of a single request, or one element of a batch. raw holds the
// bytes a peer needs to serve it, and is nil when the item must be
// served here; err is why the item could not be decoded.
type item struct {
	req *misam.Request
	raw []byte
	err *httpError
}

// newItem wraps decoded operands in a pipeline request on this server's
// fleet.
func (s *Server) newItem(req misam.Request, raw []byte) item {
	req.Fleet, req.Placement, req.OnAcquire = s.fleet, s.placement, s.onAcquire
	return item{req: &req, raw: raw}
}

// serveItem runs one item through the pipeline on this node.
func (s *Server) serveItem(ctx context.Context, it item) (analyzeResponse, *httpError) {
	if it.err != nil {
		return analyzeResponse{}, it.err
	}
	rep, err := s.fw.Serve(ctx, it.req)
	if err != nil {
		return analyzeResponse{}, &httpError{statusFor(err), err}
	}
	return buildResponse(rep, s.nodeID()), nil
}

// buildResponse renders a report as the wire response; node is the
// cluster member that served it ("" outside a cluster).
func buildResponse(rep misam.Report, node string) analyzeResponse {
	cmp := rep.Baseline
	return analyzeResponse{
		Design:           rep.Design.String(),
		Device:           rep.Device,
		ModelVersion:     rep.ModelVersion,
		Reconfigured:     rep.Reconfigured,
		ReconfigSeconds:  rep.ReconfigSec,
		PreprocessMs:     rep.PreprocessSeconds * 1e3,
		InferenceMs:      rep.InferenceSeconds * 1e3,
		PredictedMs:      rep.PredictedSeconds * 1e3,
		SimulatedMs:      rep.SimulatedSeconds * 1e3,
		PEUtilization:    rep.PEUtilization,
		EnergyMillijoule: rep.EnergyJoules * 1e3,
		CPUMs:            cmp.CPUSeconds * 1e3,
		GPUMs:            cmp.GPUSeconds * 1e3,
		TrapezoidMs:      cmp.TrapezoidSeconds * 1e3,
		Path:             rep.Path,
		Confidence:       rep.Confidence,
		Node:             node,
	}
}

// statusFor maps pipeline errors to HTTP statuses: rejected wire operands
// are a client error; a server-imposed deadline expiring is a gateway
// timeout; a cancelled context (client went away) is
// service-unavailable; anything else is internal.
func statusFor(err error) int {
	switch {
	case errors.Is(err, misam.ErrWire):
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// requestContext derives the request-scoped context, applying the
// server's timeout when configured.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout > 0 {
		return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	}
	return r.Context(), func() {}
}

// bodyPool recycles request-body buffers across requests: binary decode
// aliases the buffer for the request's duration, and the JSON path reads
// into it before unmarshalling, so neither format pays a per-request
// body allocation once the pool is warm. MaxBodyBytes bounds what a
// pooled buffer can hold, and the pool drops its contents at GC.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBuf caps the response buffers encodePool retains; one huge
// response must not pin its buffer forever.
const maxPooledBuf = 1 << 20

// readBody slurps the size-capped request body into a pooled buffer. On
// success the caller owns the buffer and must return it to bodyPool when
// done with its bytes (for binary requests that is after the response is
// written — decoded matrices alias the buffer).
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, *httpError) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	if n := r.ContentLength; n > 0 && n <= s.cfg.MaxBodyBytes {
		// Room for the whole body plus ReadFrom's final probe for EOF, so
		// a large body is not regrown by doubling.
		buf.Grow(int(n) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r.Body); err != nil {
		bodyPool.Put(buf)
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, &httpError{http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit)}
		}
		return nil, &httpError{http.StatusBadRequest, fmt.Errorf("reading body: %w", err)}
	}
	return buf, nil
}

// decodeBody decodes a size-capped JSON request body through the buffer
// pool. json.Unmarshal copies everything it keeps, so the buffer recycles
// immediately.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) *httpError {
	buf, herr := s.readBody(w, r)
	if herr != nil {
		return herr
	}
	defer bodyPool.Put(buf)
	if err := json.Unmarshal(buf.Bytes(), v); err != nil {
		return &httpError{http.StatusBadRequest, fmt.Errorf("bad JSON: %w", err)}
	}
	return nil
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) { s.analyze(w, r, false) }

func (s *Server) handleAnalyzeBatch(w http.ResponseWriter, r *http.Request) { s.analyze(w, r, true) }

// analyze is the one analyze path for both endpoints and both formats:
// the decode step turns the body into items, then each item is routed to
// its owner or served here.
func (s *Server) analyze(w http.ResponseWriter, r *http.Request, batch bool) {
	ctype := contentType(r)
	// The raw body is read (not streamed into a decoder) because a
	// cluster deployment may proxy it to the owner node byte for byte.
	body, herr := s.readBody(w, r)
	if herr != nil {
		writeErr(w, herr.status, herr.err)
		return
	}
	// Binary operands alias the body buffer: keep it out of the pool
	// until the response is fully written.
	defer bodyPool.Put(body)
	decode := s.decodeJSON
	if ctype == BinaryContentType {
		decode = s.decodeBinary
	}
	items, herr := decode(body.Bytes(), batch, s.cluster != nil && !s.forwardedIn(r))
	if herr != nil {
		writeErr(w, herr.status, herr.err)
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()

	if !batch {
		// A peer's answer to a forwarded single request is written
		// verbatim, whatever its status.
		if status, ct, resp, ok := s.route(ctx, ctype, items[0], func(int, []byte) bool { return true }); ok {
			if ct != "" {
				w.Header().Set("Content-Type", ct)
			}
			w.WriteHeader(status)
			_, _ = w.Write(resp)
			return
		}
		resp, herr := s.serveItem(ctx, items[0])
		if herr != nil {
			writeErr(w, herr.status, herr.err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}

	// Fan the items out; fleet admission provides the per-device
	// serialization, so concurrency here is bounded by the device count.
	// In a cluster each item routes independently to its owner node.
	out := batchResponse{Items: make([]batchItemResponse, len(items))}
	var wg sync.WaitGroup
	for i := range items {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out.Items[i] = s.batchItem(ctx, ctype, items[i])
		}(i)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, out)
}

// batchItem answers one batch element. A peer-owned item goes through
// the peer's single-analyze endpoint; a transport failure, a peer-side
// error or an undecodable answer falls back to local serving (the
// operands already decoded here, so a peer 4xx can only be transient).
func (s *Server) batchItem(ctx context.Context, ctype string, it item) batchItemResponse {
	var resp analyzeResponse
	decoded := func(status int, body []byte) bool {
		return status == http.StatusOK && json.Unmarshal(body, &resp) == nil
	}
	if _, _, _, ok := s.route(ctx, ctype, it, decoded); ok {
		return batchItemResponse{analyzeResponse: resp}
	}
	resp, herr := s.serveItem(ctx, it)
	if herr != nil {
		return batchItemResponse{Error: herr.Error()}
	}
	return batchItemResponse{analyzeResponse: resp}
}

// decodeJSON is the JSON half of the decode step: one analyzeRequest,
// or a batch of them, resolved into pipeline requests. A routable single
// request forwards its body verbatim; a routable batch item forwards
// itself re-marshalled alone.
func (s *Server) decodeJSON(body []byte, batch, routable bool) ([]item, *httpError) {
	reqs := make([]analyzeRequest, 1)
	var err error
	if batch {
		var b batchRequest
		err = json.Unmarshal(body, &b)
		reqs = b.Items
	} else {
		err = json.Unmarshal(body, &reqs[0])
	}
	switch {
	case err != nil:
		return nil, &httpError{http.StatusBadRequest, fmt.Errorf("bad JSON: %w", err)}
	case len(reqs) == 0:
		return nil, &httpError{http.StatusBadRequest, fmt.Errorf("batch has no items")}
	case len(reqs) > s.cfg.MaxBatchItems:
		return nil, &httpError{http.StatusBadRequest,
			fmt.Errorf("batch has %d items, limit is %d", len(reqs), s.cfg.MaxBatchItems)}
	}
	// Items resolve concurrently: generating or parsing operands is most
	// of a JSON item's cost.
	items := make([]item, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wl, herr := resolveWorkload(reqs[i])
			if herr != nil {
				items[i].err = herr
				return
			}
			var raw []byte
			switch {
			case routable && batch:
				// A marshal failure leaves raw nil: the item is served here.
				raw, _ = json.Marshal(reqs[i])
			case routable:
				raw = body
			}
			items[i] = s.newItem(misam.Request{Workload: wl}, raw)
		}(i)
	}
	wg.Wait()
	return items, nil
}

// batchRequest fans N analyze items across the fleet.
type batchRequest struct {
	Items []analyzeRequest `json:"items"`
}

// batchItemResponse is one item's outcome; exactly one of Error or the
// embedded response fields is meaningful.
type batchItemResponse struct {
	analyzeResponse
	Error string `json:"error,omitempty"`
}

type batchResponse struct {
	Items []batchItemResponse `json:"items"`
}

// ErrInvalidMatrix marks an ingested matrix that failed CSR invariant
// validation. Every ingest boundary returns it as a 400: the binary path
// via the sparse.ErrWire family, the MatrixMarket path via this wrapper.
// (Generator specs construct valid matrices by definition.)
var ErrInvalidMatrix = errors.New("invalid matrix")

// loadOperand resolves one matrix from its MatrixMarket document or
// generator spec. Parsed documents are invariant-checked before anything
// downstream walks them.
func loadOperand(mtx, spec string, seed int64, prev *misam.Matrix) (*misam.Matrix, error) {
	switch {
	case mtx != "" && spec != "":
		return nil, fmt.Errorf("give either a MatrixMarket document or a spec, not both")
	case mtx != "":
		m, err := misam.ReadMatrixMarket(strings.NewReader(mtx))
		if err != nil {
			return nil, err
		}
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrInvalidMatrix, err)
		}
		return m, nil
	case spec != "":
		return parseSpec(spec, seed, prev)
	default:
		return nil, fmt.Errorf("missing operand")
	}
}

// maxGenNNZ caps the estimated entry count of a generated matrix. A spec
// like dense:4194304 would otherwise allocate ~10^13 entries from one
// request; anything a legitimate client wants above this cap should be
// uploaded as a (size-capped) MatrixMarket document instead.
const maxGenNNZ = 1 << 23

// parseSpec mirrors the CLI generator grammar, with entry-count caps on
// every family.
func parseSpec(spec string, seed int64, prev *misam.Matrix) (*misam.Matrix, error) {
	if spec == "self" {
		if prev == nil {
			return nil, fmt.Errorf("'self' is only valid for matrix B")
		}
		return prev, nil
	}
	parts := strings.Split(spec, ":")
	atoi := func(i int) (int, error) {
		if i >= len(parts) {
			return 0, fmt.Errorf("spec %q: missing field %d", spec, i)
		}
		v, err := strconv.Atoi(parts[i])
		if err != nil || v < 1 || v > 4<<20 {
			return 0, fmt.Errorf("spec %q: bad field %d", spec, i)
		}
		return v, nil
	}
	checkNNZ := func(est float64) error {
		if est > maxGenNNZ {
			return fmt.Errorf("spec %q: ~%.0f generated entries exceeds the %d cap", spec, est, maxGenNNZ)
		}
		return nil
	}
	switch parts[0] {
	case "uniform":
		rows, err := atoi(1)
		if err != nil {
			return nil, err
		}
		cols, err := atoi(2)
		if err != nil {
			return nil, err
		}
		if len(parts) < 4 {
			return nil, fmt.Errorf("uniform needs a density")
		}
		dens, err := strconv.ParseFloat(parts[3], 64)
		if err != nil || dens < 0 || dens > 1 {
			return nil, fmt.Errorf("bad density %q", parts[3])
		}
		if err := checkNNZ(float64(rows) * float64(cols) * dens); err != nil {
			return nil, err
		}
		return misam.RandUniform(seed, rows, cols, dens), nil
	case "dense":
		cols, err := atoi(1)
		if err != nil {
			return nil, err
		}
		rows := cols
		if prev != nil {
			rows = prev.Cols
		}
		if err := checkNNZ(float64(rows) * float64(cols)); err != nil {
			return nil, err
		}
		return misam.RandDense(seed, rows, cols), nil
	case "powerlaw":
		n, err := atoi(1)
		if err != nil {
			return nil, err
		}
		nnz, err := atoi(2)
		if err != nil {
			return nil, err
		}
		if err := checkNNZ(float64(nnz)); err != nil {
			return nil, err
		}
		return misam.RandPowerLaw(seed, n, n, nnz, 1.9), nil
	case "banded":
		n, err := atoi(1)
		if err != nil {
			return nil, err
		}
		half, err := atoi(2)
		if err != nil {
			return nil, err
		}
		if err := checkNNZ(float64(n) * float64(2*half+1)); err != nil {
			return nil, err
		}
		return misam.RandBanded(seed, n, n, half, 0.8), nil
	default:
		return nil, fmt.Errorf("unknown generator %q", parts[0])
	}
}

// encodePool recycles response-encoding buffers (see
// BenchmarkWriteJSONPooled for the allocation pin).
var encodePool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func writeJSON(w http.ResponseWriter, status int, v any) {
	// Encode into a pooled buffer first: one Write call, no per-request
	// encoder allocation, and an encode error can never corrupt a
	// half-written 200.
	buf := encodePool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		encodePool.Put(buf)
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
	if buf.Cap() <= maxPooledBuf {
		encodePool.Put(buf)
	}
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
