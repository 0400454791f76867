package online

import (
	"fmt"
	"math"
	"math/rand"

	"misam/internal/dataset"
	"misam/internal/features"
	"misam/internal/mltree"
	"misam/internal/reconfig"
	"misam/internal/registry"
	"misam/internal/sim"
)

// RetrainConfig tunes the background retrainer.
type RetrainConfig struct {
	// MinTraces is the smallest trace set worth training on (default 48).
	MinTraces int
	// HoldoutFrac is the slice of traces withheld from training and used
	// for the shadow evaluation (default 0.3).
	HoldoutFrac float64
	// MaxDepth bounds the candidate trees (default 10, matching the
	// offline trainer).
	MaxDepth int
	// Folds is the k of the cross-validation pass on the training slice,
	// reported for observability (default 5; <2 skips it).
	Folds int
	// Seed drives the train/holdout shuffle and fold assignment.
	Seed int64
}

func (c RetrainConfig) withDefaults() RetrainConfig {
	if c.MinTraces <= 0 {
		c.MinTraces = 48
	}
	if c.HoldoutFrac <= 0 || c.HoldoutFrac >= 1 {
		c.HoldoutFrac = 0.3
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 10
	}
	if c.Folds == 0 {
		c.Folds = 5
	}
	return c
}

// Outcome records one retraining attempt — promoted or not, the numbers
// that decided it are kept so rejections stay auditable.
type Outcome struct {
	// Promote is the gate's verdict: the candidate won the shadow
	// evaluation. (The manager publishes on Promote and fills
	// CandidateVersion.)
	Promote bool `json:"promote"`
	// Reason is the human-readable verdict explanation.
	Reason string `json:"reason"`
	// CandidateVersion is the registry version assigned at promotion (0
	// when rejected).
	CandidateVersion uint64 `json:"candidate_version,omitempty"`
	// IncumbentVersion is the version the candidate was evaluated
	// against.
	IncumbentVersion uint64 `json:"incumbent_version"`
	// CandidateGeomean and IncumbentGeomean are the geometric-mean
	// slowdowns versus the per-trace oracle on the holdout slice — the
	// promotion metric (lower is better, 1.0 is oracle-perfect).
	CandidateGeomean float64 `json:"candidate_geomean"`
	IncumbentGeomean float64 `json:"incumbent_geomean"`
	// CandidateAccuracy and IncumbentAccuracy are argmin accuracies on
	// the same holdout slice.
	CandidateAccuracy float64 `json:"candidate_accuracy"`
	IncumbentAccuracy float64 `json:"incumbent_accuracy"`
	// CrossValAccuracy is the mean k-fold accuracy on the training slice
	// (0 when skipped).
	CrossValAccuracy float64 `json:"crossval_accuracy,omitempty"`
	// TrainTraces and HoldoutTraces are the slice sizes.
	TrainTraces   int `json:"train_traces"`
	HoldoutTraces int `json:"holdout_traces"`
}

// selector is the minimal design-proposal surface shared by snapshots
// and freshly trained candidates.
type selector interface {
	Select(v features.Vector) sim.DesignID
}

// shadowEval replays a trace slice against a selector: per-trace
// slowdown = chosen design's seconds / oracle seconds, aggregated as a
// geometric mean; accuracy = fraction of traces where the selector hit
// the argmin design.
func shadowEval(sel selector, traces []Trace) (geomean, accuracy float64) {
	if len(traces) == 0 {
		return 1, 0
	}
	logSum, correct := 0.0, 0
	for i := range traces {
		chosen := sel.Select(traces[i].Features)
		if chosen == traces[i].Best {
			correct++
		}
		oracle := traces[i].Seconds[traces[i].Best]
		actual := traces[i].Seconds[chosen]
		if oracle <= 0 || actual <= 0 {
			// Degenerate simulation (empty product); neutral ratio.
			continue
		}
		logSum += math.Log(actual / oracle)
	}
	return math.Exp(logSum / float64(len(traces))), float64(correct) / float64(len(traces))
}

// Retrain fits a candidate model pair on the accumulated traces and
// shadow-evaluates it against the incumbent on a held-out slice. It
// returns the candidate snapshot (unpublished — version 0) and the
// outcome; the caller promotes into the registry only when
// Outcome.Promote is set. The candidate inherits the incumbent engine's
// reconfiguration time model and threshold — retraining refreshes the
// models, not the pricing policy.
func Retrain(incumbent *registry.Snapshot, traces []Trace, cfg RetrainConfig) (*registry.Snapshot, Outcome, error) {
	cfg = cfg.withDefaults()
	out := Outcome{IncumbentVersion: incumbent.Version()}
	if len(traces) < cfg.MinTraces {
		return nil, out, fmt.Errorf("online: %d traces collected, need %d to retrain", len(traces), cfg.MinTraces)
	}

	// Shuffled train/holdout split. The shuffle matters: the collector
	// buffer is time-ordered, and a contiguous split would train on the
	// old regime and evaluate on the new one (or vice versa).
	rng := rand.New(rand.NewSource(cfg.Seed))
	idx := rng.Perm(len(traces))
	cut := len(traces) - int(float64(len(traces))*cfg.HoldoutFrac)
	if cut < 1 {
		cut = 1
	}
	if cut >= len(traces) {
		cut = len(traces) - 1
	}
	train := make([]Trace, 0, cut)
	holdout := make([]Trace, 0, len(traces)-cut)
	for i, j := range idx {
		if i < cut {
			train = append(train, traces[j])
		} else {
			holdout = append(holdout, traces[j])
		}
	}
	out.TrainTraces, out.HoldoutTraces = len(train), len(holdout)

	x := make([][]float64, len(train))
	labels := make([]int, len(train))
	for i := range train {
		x[i] = train[i].Features.Slice()
		labels[i] = int(train[i].Best)
	}
	treeCfg := mltree.Config{MaxDepth: cfg.MaxDepth, MinSamplesLeaf: 2}
	cls, err := mltree.TrainClassifier(x, labels, int(sim.NumDesigns),
		mltree.BalancedWeights(labels, int(sim.NumDesigns)), treeCfg)
	if err != nil {
		return nil, out, fmt.Errorf("online: candidate selector training: %w", err)
	}

	if cfg.Folds >= 2 && len(train) >= 2*cfg.Folds {
		accs, err := mltree.CrossValidateClassifier(x, labels, int(sim.NumDesigns), true,
			treeCfg, cfg.Folds, rand.New(rand.NewSource(cfg.Seed+1)))
		if err == nil && len(accs) > 0 {
			sum := 0.0
			for _, a := range accs {
				sum += a
			}
			out.CrossValAccuracy = sum / float64(len(accs))
		}
	}

	// Refresh the latency regressors from the same traces: each design's
	// tree learns (features → log10 ms) on the simulated outcomes.
	inc := incumbent.Engine()
	latCfg := mltree.Config{MaxDepth: cfg.MaxDepth + 6, MinSamplesLeaf: 2}
	pred := &reconfig.LatencyPredictor{}
	for _, id := range sim.AllDesigns {
		y := make([]float64, len(train))
		for i := range train {
			y[i] = dataset.LatencyTarget(train[i].Seconds[id])
		}
		reg, err := mltree.TrainRegressor(x, y, latCfg)
		if err != nil {
			return nil, out, fmt.Errorf("online: candidate %v regressor training: %w", id, err)
		}
		pred.Regs[id] = reg
	}
	engine := reconfig.NewEngine(pred, inc.Times, inc.Threshold)

	candidate, err := registry.NewSnapshot(cls, engine, registry.Info{
		Source: registry.SourceRetrain,
		Traces: len(train),
	})
	if err != nil {
		return nil, out, err
	}

	// Shadow evaluation: both models replay the identical holdout slice;
	// the promotion metric is geomean slowdown versus the per-trace
	// oracle.
	out.CandidateGeomean, out.CandidateAccuracy = shadowEval(candidate, holdout)
	out.IncumbentGeomean, out.IncumbentAccuracy = shadowEval(incumbent, holdout)
	candidate.SetMetrics(registry.Metrics{
		GeomeanSlowdown:  out.CandidateGeomean,
		Accuracy:         out.CandidateAccuracy,
		CrossValAccuracy: out.CrossValAccuracy,
	})

	if out.CandidateGeomean < out.IncumbentGeomean {
		out.Promote = true
		out.Reason = fmt.Sprintf("candidate geomean slowdown %.4f beats incumbent v%d's %.4f on %d holdout traces",
			out.CandidateGeomean, incumbent.Version(), out.IncumbentGeomean, len(holdout))
	} else {
		out.Reason = fmt.Sprintf("candidate geomean slowdown %.4f does not beat incumbent v%d's %.4f on %d holdout traces",
			out.CandidateGeomean, incumbent.Version(), out.IncumbentGeomean, len(holdout))
	}
	return candidate, out, nil
}
