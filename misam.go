// Package misam is a reproduction of "Misam: Machine Learning Assisted
// Dataflow Selection in Accelerators for Sparse Matrix Multiplication"
// (MICRO 2025). It provides the full framework the paper describes:
//
//   - a lightweight decision-tree selector that predicts the best of four
//     FPGA dataflow designs from cheap matrix features (§3.1),
//   - a reconfiguration engine with a latency-predictor model and a
//     cost-benefit threshold that decides when switching bitstreams pays
//     off (§3.3),
//   - a cycle-level simulator of the four designs standing in for the
//     Alveo U55C prototype (§3.2, §4), and
//   - CPU, GPU and Trapezoid baselines, workload generators, and a
//     benchmark harness regenerating every table and figure of the
//     paper's evaluation.
//
// Quick start:
//
//	fw, err := misam.Train(misam.DefaultTrainOptions())
//	a := misam.RandPowerLaw(1, 10000, 10000, 60000, 1.9)
//	b := misam.RandDense(2, 10000, 512)
//	c, report, err := fw.Multiply(a, b)
//
// The returned Report carries the selected design, the measured
// preprocessing/inference overheads, the simulated hardware latency and
// the energy estimate.
package misam

import (
	"bufio"
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"

	"misam/internal/baseline"
	"misam/internal/dataset"
	"misam/internal/energy"
	"misam/internal/features"
	"misam/internal/fleet"
	"misam/internal/memo"
	"misam/internal/mltree"
	"misam/internal/online"
	"misam/internal/reconfig"
	"misam/internal/registry"
	"misam/internal/sim"
	"misam/internal/spgemm"
)

// Design identifies one of the four Misam hardware designs (Table 1).
type Design = sim.DesignID

// The four designs of §3.2.
const (
	Design1 = sim.Design1 // Sextans-style SpMM, 16 PEGs, column traversal
	Design2 = sim.Design2 // wider channels and 24 PEGs for large denser inputs
	Design3 = sim.Design3 // Design 2's bitstream with row-wise scheduling
	Design4 = sim.Design4 // SpGEMM with compressed sparse B
)

// NumDesigns is the design count.
const NumDesigns = int(sim.NumDesigns)

// FeatureVector is the §3.1 feature set extracted from a matrix pair.
type FeatureVector = features.Vector

// TrainOptions configures Train.
type TrainOptions struct {
	// CorpusSize is the number of labelled matrix pairs for the selector
	// (the paper uses 6,219; smaller corpora train in seconds).
	CorpusSize int
	// LatencyCorpusSize is the number of pairs for the latency predictor
	// (the paper uses 19,000 including the selector corpus). Each pair
	// yields one record per design.
	LatencyCorpusSize int
	// MaxDim bounds generated matrix dimensions.
	MaxDim int
	// Seed drives corpus generation.
	Seed int64
	// MaxDepth bounds both trees.
	MaxDepth int
	// TopFeaturesOnly restricts the selector to the four Figure 4
	// features, reproducing the paper's pruned 6 KB deployment.
	TopFeaturesOnly bool
	// Threshold is the reconfiguration engine knob (§3.3, default 0.20).
	Threshold float64
	// LatencyWeight and EnergyWeight set the selection objective (§3.1:
	// "a user may choose to optimize exclusively for performance,
	// prioritize energy efficiency, or apply a weighted combination").
	// Both zero means pure latency.
	LatencyWeight float64
	EnergyWeight  float64
}

// DefaultTrainOptions returns a configuration that trains in a few
// seconds and reaches the paper's accuracy regime.
func DefaultTrainOptions() TrainOptions {
	return TrainOptions{
		CorpusSize:        400,
		LatencyCorpusSize: 600,
		MaxDim:            768,
		Seed:              1,
		MaxDepth:          10,
		Threshold:         0.20,
	}
}

func (o TrainOptions) withDefaults() TrainOptions {
	d := DefaultTrainOptions()
	if o.CorpusSize <= 0 {
		o.CorpusSize = d.CorpusSize
	}
	if o.LatencyCorpusSize <= 0 {
		o.LatencyCorpusSize = o.CorpusSize
	}
	if o.MaxDim <= 0 {
		o.MaxDim = d.MaxDim
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = d.MaxDepth
	}
	if o.Threshold <= 0 {
		o.Threshold = d.Threshold
	}
	return o
}

// Selector is the trained design classifier. Inference uses the compiled
// (flattened) tree, mirroring the paper's hand-unrolled decision logic.
type Selector struct {
	Tree     *mltree.Classifier
	compiled *mltree.Compiled
}

// Select predicts the best design for a feature vector.
func (s *Selector) Select(v FeatureVector) Design {
	return Design(s.compiled.PredictClass(v.Slice()))
}

// SelectWithConfidence also reports the leaf's class probability for the
// chosen design — how much of the training mass at that decision region
// agreed. Low confidence flags inputs near a regime boundary, where the
// engine's latency-predictor validation (§5.1: "an additional layer of
// validation") matters most.
func (s *Selector) SelectWithConfidence(v FeatureVector) (Design, float64) {
	class, conf, _ := s.compiled.PredictConfident(v.Slice())
	return Design(class), conf
}

// FeatureImportance returns the normalized gini importance per feature
// (Figure 4), indexed like features.Names().
func (s *Selector) FeatureImportance() []float64 {
	return append([]float64(nil), s.Tree.Importance...)
}

// SizeBytes reports the serialized model size (the paper's 6 KB claim).
func (s *Selector) SizeBytes() (int, error) { return mltree.SizeBytes(s.Tree) }

var _ reconfig.Selector = (*Selector)(nil)

// Framework bundles the trained selector, the reconfiguration pricing
// engine and the training corpus (kept for evaluation drivers). Model
// access is registry-backed: Train/Load publish the trained pair as
// version 1 of a versioned registry, and every Serve/Stream call reads
// the registry's current snapshot exactly once, so a request
// always sees one complete {selector, latency predictor} pair even while
// the online retrainer hot-swaps a promotion in. The Selector and Engine
// fields remain the *initial* (version 1) models for evaluation drivers
// and stay immutable; serving paths should not read them directly.
//
// Frameworks must be built by Train, TrainOnCorpus or Load. The mutable
// part of the system — which bitstream a given accelerator has loaded —
// lives in Accelerator devices (see NewDevice/NewFleet). For the
// single-accelerator convenience API (Analyze, Stream) the framework
// carries one default device, so existing single-device behavior is
// unchanged.
type Framework struct {
	Selector *Selector
	Engine   *reconfig.Engine
	Corpus   *dataset.Corpus
	Options  TrainOptions

	device *reconfig.Device
	// cache, when enabled via WithCache, memoizes the design-independent
	// analysis artifacts (features, all-design simulations, baseline
	// stats) by operand content. It never holds reconfiguration
	// decisions — those depend on mutable device state and are re-priced
	// per request.
	cache *memo.Cache
	// tileCache, when enabled via WithTileCache, shares per-tile schedule
	// memoization across every workload the framework simulates — cold
	// analyses, pruned verifier audits, labelling — so a re-simulation of
	// a just-served pair reuses its schedules (see sim.TileCache).
	tileCache *sim.TileCache
	// registry is the versioned model store behind snapshot(); always
	// non-nil on a constructed framework.
	registry *registry.Registry
	// traces, when enabled via WithTraceCapture, records served analyses
	// for the online adaptation loop.
	traces *online.Collector
	// fastpath, when enabled via WithFastPath, holds the confidence-gated
	// two-tier serving state (see fastpath.go).
	fastpath *fastPath
}

// Registry exposes the versioned model registry: the current snapshot
// serving requests, the publish history for pinned lookup, and rollback.
func (f *Framework) Registry() *registry.Registry { return f.registry }

// snapshot grabs the model pair serving requests right now. Callers use
// the returned snapshot for their whole request — selector proposal,
// pricing, prediction — so a concurrent promotion can never mix two
// model generations inside one request.
func (f *Framework) snapshot() *registry.Snapshot { return f.registry.Current() }

// WithTraceCapture enables the online trace collector: every full-tier
// request then computes all four design simulations (the argmin label)
// and records a training-ready trace —
// feature vector, live proposal, argmin design, per-design outcomes.
// capacity bounds the buffer; sampleEvery admits one in N observations
// (<=1 admits all). Returns f for chaining; enable once at setup.
func (f *Framework) WithTraceCapture(capacity, sampleEvery int) *Framework {
	f.traces = online.NewCollector(capacity, sampleEvery)
	return f
}

// Traces exposes the trace collector (nil unless WithTraceCapture was
// called).
func (f *Framework) Traces() *online.Collector { return f.traces }

// OnlineBaseline builds the drift-detection reference from the training
// corpus: per-feature quantile distributions plus the current model's
// accuracy on its own training set. It fails when the corpus is absent
// (file-loaded frameworks) — the online manager then self-calibrates
// from the first window of served traffic instead.
func (f *Framework) OnlineBaseline() (*online.Baseline, error) {
	if f.Corpus == nil || len(f.Corpus.Samples) == 0 {
		return nil, fmt.Errorf("misam: no training corpus in memory (model loaded from file?)")
	}
	snap := f.snapshot()
	x := f.Corpus.X()
	labels := f.Corpus.Labels()
	preds := make([]int, len(f.Corpus.Samples))
	for i := range f.Corpus.Samples {
		preds[i] = int(snap.Select(f.Corpus.Samples[i].Features))
	}
	return online.NewBaseline(x, labels, preds)
}

// observeTrace records one served analysis into the collector, if
// enabled.
func (f *Framework) observeTrace(an *Analysis, proposed Design, version uint64) {
	if f.traces == nil {
		return
	}
	t := online.Trace{
		Features:     an.Features,
		Predicted:    proposed,
		Best:         sim.BestDesign(an.Results),
		ModelVersion: version,
	}
	for _, id := range sim.AllDesigns {
		t.Seconds[id] = an.Results[id].Seconds
		t.Cycles[id] = an.Results[id].Cycles
	}
	f.traces.Observe(t)
}

// Analysis bundles the design-independent artifacts of one operand pair:
// the extracted feature vector, the cycle simulations of all four
// designs, and the baseline cost-model statistics. See internal/memo.
type Analysis = memo.Analysis

// CacheStats are the analysis cache's counters (see WithCache).
type CacheStats = memo.Stats

// WithCache enables the content-addressed analysis cache with roughly
// budgetBytes of resident entries, returning f for chaining. Enable it
// once at setup, before serving traffic. With the cache on, Serve and
// Stream share artifacts across requests whose operands are
// byte-identical (keyed by RequestKey), and concurrent
// requests for the same pair coalesce onto one simulation. Per-request
// reconfiguration decisions are never cached.
func (f *Framework) WithCache(budgetBytes int64) *Framework {
	f.cache = memo.New(budgetBytes)
	return f
}

// CacheStats snapshots the analysis cache counters; ok is false when no
// cache is enabled.
func (f *Framework) CacheStats() (st CacheStats, ok bool) {
	if f.cache == nil {
		return CacheStats{}, false
	}
	return f.cache.Stats(), true
}

// TileCacheStats are the shared tile-schedule cache's counters (see
// WithTileCache).
type TileCacheStats = sim.TileCacheStats

// WithTileCache enables the framework-wide tile-schedule cache with
// roughly budgetBytes of memoized (busy, bubbles, makespan) triples,
// returning f for chaining. Every workload the framework simulates —
// cold analyses, the pruned verifier's re-simulations, training labels —
// then shares one schedule pool keyed by tile content and design
// scheduling parameters, instead of each workload memoizing privately.
func (f *Framework) WithTileCache(budgetBytes int64) *Framework {
	f.tileCache = sim.NewTileCache(budgetBytes)
	return f
}

// TileCacheStats snapshots the shared tile-schedule cache counters
// (including the slow tier's bound-abort and coarse-skip counts); ok is
// false when no shared cache is enabled.
func (f *Framework) TileCacheStats() (st TileCacheStats, ok bool) {
	if f.tileCache == nil {
		return TileCacheStats{}, false
	}
	return f.tileCache.Stats(), true
}

// attachTileCache points w at the shared tile-schedule cache, when one is
// enabled. Without one, workloads keep their lazily created private
// caches (intra-workload reuse only).
func (f *Framework) attachTileCache(w *Workload) {
	if f.tileCache != nil {
		w.AttachTileCache(f.tileCache)
	}
}

// Accelerator is one (simulated) reconfigurable accelerator: it owns the
// loaded-bitstream state and per-device counters, pricing its decisions
// with the framework's immutable Engine. See internal/reconfig.Device.
type Accelerator = reconfig.Device

// AcceleratorStats are an Accelerator's running counters.
type AcceleratorStats = reconfig.DeviceStats

// Fleet is a checkout pool of Accelerators with per-device serialization
// and cross-device concurrency. See internal/fleet.
type Fleet = fleet.Fleet

// NewDevice returns a fresh accelerator (no bitstream loaded) backed by
// the framework's engine.
func (f *Framework) NewDevice(name string) *Accelerator {
	return reconfig.NewDevice(name, f.Engine)
}

// DefaultDevice returns the device behind the single-accelerator
// convenience API (Analyze, Stream).
func (f *Framework) DefaultDevice() *Accelerator { return f.device }

// NewFleet returns a fleet of n fresh devices sharing the framework's
// immutable models.
func (f *Framework) NewFleet(n int) *Fleet {
	return fleet.New(f.Engine, n)
}

// Train generates synthetic corpora, labels them with the design
// simulator, and fits both models (§3.1 selector and §3.3 latency
// predictor).
func Train(opts TrainOptions) (*Framework, error) {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	corpus, err := dataset.GenerateClassifier(rng, opts.CorpusSize, opts.MaxDim)
	if err != nil {
		return nil, fmt.Errorf("misam: corpus generation: %w", err)
	}
	latCorpus := corpus
	if opts.LatencyCorpusSize > opts.CorpusSize {
		extra, err := dataset.GenerateClassifier(rng, opts.LatencyCorpusSize-opts.CorpusSize, opts.MaxDim)
		if err != nil {
			return nil, fmt.Errorf("misam: latency corpus: %w", err)
		}
		latCorpus = &dataset.Corpus{Samples: append(append([]dataset.Sample(nil), corpus.Samples...), extra.Samples...)}
	}
	return TrainOnCorpus(corpus, latCorpus, opts)
}

// TrainOnCorpus fits the selector and latency predictor on pre-labelled
// corpora, allowing several model variants (e.g. the pruned four-feature
// deployment) to share one expensive labelling pass. latCorpus may be nil
// to reuse corpus.
func TrainOnCorpus(corpus, latCorpus *dataset.Corpus, opts TrainOptions) (*Framework, error) {
	opts = opts.withDefaults()
	if latCorpus == nil {
		latCorpus = corpus
	}
	cfg := mltree.Config{MaxDepth: opts.MaxDepth, MinSamplesLeaf: 2}
	latCfg := mltree.Config{MaxDepth: opts.MaxDepth + 6, MinSamplesLeaf: 2}
	if opts.TopFeaturesOnly {
		cfg.Features = append([]int(nil), features.TopFour...)
		// The per-design latency trees get the same pruned features, so
		// the ExtractPruned fast path feeds them too.
		latCfg.Features = append([]int(nil), features.TopFour...)
	}
	var labels []int
	if opts.LatencyWeight == 0 && opts.EnergyWeight == 0 {
		labels = corpus.Labels()
	} else {
		labels = corpus.LabelsFor(opts.LatencyWeight, opts.EnergyWeight)
	}
	cls, err := mltree.TrainClassifier(corpus.X(), labels, NumDesigns,
		mltree.BalancedWeights(labels, NumDesigns), cfg)
	if err != nil {
		return nil, fmt.Errorf("misam: selector training: %w", err)
	}
	pred, err := reconfig.TrainLatencyPredictor(latCorpus, latCfg)
	if err != nil {
		return nil, err
	}
	engine := reconfig.NewEngine(pred, reconfig.DefaultTimeModel(), opts.Threshold)
	snap, err := registry.NewSnapshot(cls, engine, registry.Info{
		Source: registry.SourceTrain,
		Note:   "offline training",
		Traces: len(corpus.Samples),
	})
	if err != nil {
		return nil, fmt.Errorf("misam: initial snapshot: %w", err)
	}
	return &Framework{
		Selector: &Selector{Tree: cls, compiled: cls.Compile()},
		Engine:   engine,
		Corpus:   corpus,
		Options:  opts,
		device:   reconfig.NewDevice("default", engine),
		registry: registry.New(snap),
	}, nil
}

// Report describes one framework invocation: the Figure 12 breakdown
// (preprocessing = feature extraction, inference = selector + engine) and
// the simulated hardware outcome.
type Report struct {
	Design Design
	// Device names the accelerator that served the request.
	Device string
	// Path records which serving tier produced the report: PathFull for
	// the simulating tier, PathFast for the confidence-gated tier that
	// prices from the latency regressors alone (see WithFastPath).
	Path string
	// Confidence is the selector leaf's probability mass for the proposed
	// design, populated whenever the fast-path gate evaluated it (zero
	// without a fast path, which never looks at it).
	Confidence float64
	// ModelVersion is the registry version of the model snapshot that
	// served the request (1 for a freshly trained/loaded framework).
	ModelVersion uint64
	// PreprocessSeconds is host time spent keying, probing and extracting
	// features; simulation and baseline statistics are not counted.
	PreprocessSeconds float64
	InferenceSeconds  float64
	// PredictedSeconds is the latency predictor's estimate for the chosen
	// design; SimulatedSeconds is the cycle simulator's result.
	PredictedSeconds float64
	SimulatedSeconds float64
	// TotalSeconds = preprocessing + inference + reconfiguration +
	// simulated hardware time.
	TotalSeconds float64
	Reconfigured bool
	ReconfigSec  float64
	// EnergyJoules is the FPGA energy estimate for the run.
	EnergyJoules float64
	// PEUtilization and Cycles expose the simulator detail.
	PEUtilization float64
	Cycles        int64
	// Baseline prices the same workload on the CPU, GPU and Trapezoid
	// models.
	Baseline BaselineComparison
}

// Analyze selects a design for A×B on the framework's default device and
// simulates it without computing the numeric product — the path a host
// would take before offloading. It is Serve over the decoded pair.
func (f *Framework) Analyze(ctx context.Context, a, b *Matrix) (Report, error) {
	return f.Serve(ctx, &Request{A: a, B: b})
}

// Multiply runs the full pipeline: design selection, reconfiguration
// decision, hardware simulation, and the numeric product (computed with
// the row-wise reference kernel).
func (f *Framework) Multiply(a, b *Matrix) (*Matrix, Report, error) {
	rep, err := f.Analyze(context.Background(), a, b)
	if err != nil {
		return nil, rep, err
	}
	c, _, err := spgemm.Multiply(spgemm.RowWiseProduct, a, b)
	if err != nil {
		return nil, rep, fmt.Errorf("misam: multiply: %w", err)
	}
	return c, rep, nil
}

// Stream executes A×B tile-by-tile under the reconfiguration engine,
// using random tile heights in [minTile, maxTile] (§3.3's 10k–50k when
// the matrix is large enough). The bitstream state carries across tiles
// (and across calls) on the framework's default device; ctx cancellation
// aborts between tiles.
func (f *Framework) Stream(ctx context.Context, seed int64, a, b *Matrix, minTile, maxTile int) (reconfig.StreamResult, error) {
	rng := rand.New(rand.NewSource(seed))
	// With the analysis cache enabled the per-tile feature extraction and
	// four-design simulations are content-addressed: re-streaming the same
	// matrix (or re-seeing a tile by content) skips straight to pricing.
	// Stream tiles always extract the full feature set, so their entries
	// live under unsalted keys. The selector comes from the registry's
	// current snapshot, grabbed once for the whole stream.
	return f.device.StreamCached(ctx, rng, f.snapshot(), a, b, minTile, maxTile, f.cache)
}

// CompareBaselines estimates the same workload on the CPU, GPU and
// Trapezoid models (Figure 10's comparison points).
type BaselineComparison struct {
	CPUSeconds        float64
	GPUSeconds        float64
	TrapezoidSeconds  float64 // best fixed Trapezoid dataflow
	TrapezoidDataflow string
	CPUEnergyJ        float64
	GPUEnergyJ        float64
}

// CompareBaselines evaluates the baseline cost models on A×B.
func CompareBaselines(a, b *Matrix) BaselineComparison {
	return compareStats(baseline.Collect(a, b))
}

// BaselineStats are the collected workload statistics the baseline cost
// models consume; cached Analyses carry them.
type BaselineStats = baseline.Stats

// compareStats prices collected statistics on every baseline model; the
// pipeline's report stage feeds it the stats a cache entry or workload
// precompute already holds, so no request re-walks its operands.
func compareStats(s baseline.Stats) BaselineComparison {
	cpu := baseline.DefaultCPU().Estimate(s)
	gpu := baseline.DefaultGPU().Estimate(s)
	df, trap := baseline.DefaultTrapezoid().BestDataflow(s)
	return BaselineComparison{
		CPUSeconds:        cpu.Seconds,
		GPUSeconds:        gpu.Seconds,
		TrapezoidSeconds:  trap.Seconds,
		TrapezoidDataflow: df.String(),
		CPUEnergyJ:        energy.Energy(energy.CPUActiveWatts, cpu.Seconds),
		GPUEnergyJ:        energy.Energy(energy.GPUPower(s.BDensity), gpu.Seconds),
	}
}

// savedModels is the gob persistence envelope.
type savedModels struct {
	Classifier *mltree.Classifier
	Regressors [NumDesigns]*mltree.Regressor
	Options    TrainOptions
}

// Model-file framing. Format version 1 is the legacy headerless gob
// stream; version 2 prefixes an ASCII header so mismatched readers can
// say exactly what they got instead of failing with a bare decode error.
const (
	modelMagic         = "misam-model:"
	modelFormatVersion = 2
)

// Save serializes the models of the registry's *current* snapshot (not
// the corpus or device state) — saving after a promotion persists the
// promoted models, so a restart resumes from the adapted generation.
func (f *Framework) Save(w io.Writer) error {
	snap := f.snapshot()
	if _, err := fmt.Fprintf(w, "%s%d\n", modelMagic, modelFormatVersion); err != nil {
		return fmt.Errorf("misam: save models: %w", err)
	}
	return gob.NewEncoder(w).Encode(savedModels{
		Classifier: snap.Classifier(),
		Regressors: snap.Engine().Predictor.Regs,
		Options:    f.Options,
	})
}

// readModels parses a Save-format stream — optional version header, gob
// body, completeness validation — shared by Load and the cluster sync
// receiver.
func readModels(r io.Reader) (savedModels, error) {
	br := bufio.NewReader(r)
	version := 1 // legacy headerless stream
	if peek, err := br.Peek(len(modelMagic)); err == nil && string(peek) == modelMagic {
		header, err := br.ReadString('\n')
		if err != nil {
			return savedModels{}, fmt.Errorf("misam: model file is truncated inside its header (expected %q<version>)", modelMagic)
		}
		verStr := strings.TrimSuffix(strings.TrimPrefix(header, modelMagic), "\n")
		v, err := strconv.Atoi(verStr)
		if err != nil {
			return savedModels{}, fmt.Errorf("misam: model file has malformed format version %q (this build writes version %d)",
				verStr, modelFormatVersion)
		}
		if v != modelFormatVersion {
			return savedModels{}, fmt.Errorf("misam: model file is format version %d, this build expects version %d — retrain or re-save the model",
				v, modelFormatVersion)
		}
		version = v
	}
	var s savedModels
	if err := gob.NewDecoder(br).Decode(&s); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return savedModels{}, fmt.Errorf("misam: model file is truncated (format version %d): %w", version, err)
		}
		return savedModels{}, fmt.Errorf("misam: load models (format version %d): %w", version, err)
	}
	if s.Classifier == nil || s.Classifier.Root == nil {
		return savedModels{}, fmt.Errorf("misam: loaded models are incomplete")
	}
	for _, reg := range s.Regressors {
		if reg == nil || reg.Root == nil {
			return savedModels{}, fmt.Errorf("misam: loaded models are incomplete")
		}
	}
	return s, nil
}

// Load restores a framework from Save's output. The corpus is not
// persisted; Corpus is nil on the loaded framework. Both the current
// headered format and the legacy headerless format are accepted;
// mismatched format versions and truncated files are reported by name.
func Load(r io.Reader) (*Framework, error) {
	s, err := readModels(r)
	if err != nil {
		return nil, err
	}
	engine := reconfig.NewEngine(&reconfig.LatencyPredictor{Regs: s.Regressors},
		reconfig.DefaultTimeModel(), s.Options.Threshold)
	snap, err := registry.NewSnapshot(s.Classifier, engine, registry.Info{
		Source: registry.SourceLoad,
		Note:   "restored from model file",
	})
	if err != nil {
		return nil, fmt.Errorf("misam: initial snapshot: %w", err)
	}
	return &Framework{
		Selector: &Selector{Tree: s.Classifier, compiled: s.Classifier.Compile()},
		Engine:   engine,
		Options:  s.Options,
		device:   reconfig.NewDevice("default", engine),
		registry: registry.New(snap),
	}, nil
}

// SnapshotModelBytes serializes the registry's current snapshot in the
// Save wire format and reports the registry version it corresponds to —
// the payload cluster replication pushes to peers.
func (f *Framework) SnapshotModelBytes() ([]byte, uint64, error) {
	snap := f.snapshot()
	var buf bytes.Buffer
	if _, err := fmt.Fprintf(&buf, "%s%d\n", modelMagic, modelFormatVersion); err != nil {
		return nil, 0, fmt.Errorf("misam: snapshot models: %w", err)
	}
	if err := gob.NewEncoder(&buf).Encode(savedModels{
		Classifier: snap.Classifier(),
		Regressors: snap.Engine().Predictor.Regs,
		Options:    f.Options,
	}); err != nil {
		return nil, 0, fmt.Errorf("misam: snapshot models: %w", err)
	}
	return buf.Bytes(), snap.Version(), nil
}

// PublishSyncedModels installs a model set received from a cluster peer
// (SnapshotModelBytes / Save wire format) as a new registry version with
// SourceSync, returning the minted version. Versions are per-node: the
// same replicated content gets different version numbers on different
// nodes; the replication layer's Lamport stamps, not versions, decide
// which content is newest.
func (f *Framework) PublishSyncedModels(data []byte, note string) (uint64, error) {
	s, err := readModels(bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	engine := reconfig.NewEngine(&reconfig.LatencyPredictor{Regs: s.Regressors},
		reconfig.DefaultTimeModel(), s.Options.Threshold)
	snap, err := registry.NewSnapshot(s.Classifier, engine, registry.Info{
		Source: registry.SourceSync,
		Note:   note,
	})
	if err != nil {
		return 0, fmt.Errorf("misam: synced snapshot: %w", err)
	}
	return f.registry.Publish(snap), nil
}

// ExtractFeatures exposes the multi-pass §3.1 feature extraction — the
// reference the pipeline's one-pass fused extractor is bit-identical to.
func ExtractFeatures(a, b *Matrix) FeatureVector { return features.Extract(a, b) }

// FeatureNames returns the Figure 4 feature names, indexed like
// FeatureVector.
func FeatureNames() []string { return features.Names() }

// SimulateDesign runs the cycle simulator for one design directly.
func SimulateDesign(id Design, a, b *Matrix) (sim.Result, error) {
	w, err := sim.NewWorkload(a, b)
	if err != nil {
		return sim.Result{}, err
	}
	return w.SimulateCtx(context.Background(), sim.GetConfig(id))
}

// SimulateAllDesigns runs every design on the workload. The four designs
// share one precompute (CSC form, B row counts, tilings, element bins)
// and run concurrently; see NewWorkload to reuse that precompute across
// further simulations.
func SimulateAllDesigns(a, b *Matrix) ([sim.NumDesigns]sim.Result, error) {
	w, err := sim.NewWorkload(a, b)
	if err != nil {
		return [sim.NumDesigns]sim.Result{}, err
	}
	return w.SimulateAllCtx(context.Background())
}

// SimulateAllDesignsPruned is SimulateAllDesigns through the pruned slow
// tier (coarse-then-exact ordering plus early-exit simulation): the
// argmin design and its Result are bit-identical to the exact pass, while
// provably losing designs may return early with a marked lower bound
// (Result.Pruned) instead of a full simulation.
func SimulateAllDesignsPruned(a, b *Matrix) ([sim.NumDesigns]sim.Result, error) {
	w, err := sim.NewWorkload(a, b)
	if err != nil {
		return [sim.NumDesigns]sim.Result{}, err
	}
	return w.SimulateAllPrunedCtx(context.Background())
}

// Workload is the design-independent simulation precompute for one A×B
// pair (see sim.NewWorkload). Build it once when the same pair will be
// analyzed or simulated repeatedly.
type Workload = sim.Workload

// NewWorkload validates dimensions and returns a reusable simulation
// precompute for A×B.
func NewWorkload(a, b *Matrix) (*Workload, error) {
	return sim.NewWorkload(a, b)
}
