package misam

import (
	"context"
	"fmt"

	"misam/internal/baseline"
	"misam/internal/dataset"
	"misam/internal/features"
	"misam/internal/mltree"
	"misam/internal/sim"
)

// Device is a compute target for the §6.3 heterogeneous extension:
// "Misam is also extensible to heterogeneous environments involving CPUs,
// GPUs, FPGAs, and ASICs ... the model can route workloads to the most
// suitable device; for instance, it correctly routes workloads to the GPU
// when it consistently offers better performance."
type Device int

const (
	DeviceCPU Device = iota
	DeviceGPU
	DeviceMisam
	NumDevices
)

// String names the device.
func (d Device) String() string {
	switch d {
	case DeviceCPU:
		return "CPU"
	case DeviceGPU:
		return "GPU"
	case DeviceMisam:
		return "Misam"
	default:
		return fmt.Sprintf("Device(%d)", int(d))
	}
}

// Router classifies matrix features to the fastest device.
type Router struct {
	Tree     *mltree.Classifier
	compiled *mltree.Compiled
}

// Route predicts the fastest device for a feature vector.
func (r *Router) Route(v FeatureVector) Device {
	return Device(r.compiled.PredictClass(v.Slice()))
}

// DeviceLatencies returns the modeled latency of each device on a
// workload: the CPU/GPU analytic models and the best Misam design's
// simulated time.
func DeviceLatencies(a, b *Matrix) ([NumDevices]float64, error) {
	var out [NumDevices]float64
	st := baseline.Collect(a, b)
	out[DeviceCPU] = baseline.DefaultCPU().Estimate(st).Seconds
	out[DeviceGPU] = baseline.DefaultGPU().Estimate(st).Seconds
	w, err := sim.NewWorkload(a, b)
	if err != nil {
		return out, err
	}
	results, err := w.SimulateAllCtx(context.Background())
	if err != nil {
		return out, err
	}
	out[DeviceMisam] = results[sim.BestDesign(results)].Seconds
	return out, nil
}

// deviceLabel computes the fastest device for a labelled corpus sample,
// reusing the sample's simulated design latencies.
func deviceLabel(s *dataset.Sample) Device {
	st := baseline.Collect(s.Pair.A, s.Pair.B)
	lat := [NumDevices]float64{
		DeviceCPU: baseline.DefaultCPU().Estimate(st).Seconds,
		DeviceGPU: baseline.DefaultGPU().Estimate(st).Seconds,
	}
	best := s.LatencySec[0]
	for _, l := range s.LatencySec {
		if l < best {
			best = l
		}
	}
	lat[DeviceMisam] = best
	out := DeviceCPU
	for d := DeviceCPU; d < NumDevices; d++ {
		if lat[d] < lat[out] {
			out = d
		}
	}
	return out
}

// TrainRouter fits a device router on the framework's training corpus.
func TrainRouter(fw *Framework) (*Router, error) {
	if fw.Corpus == nil || len(fw.Corpus.Samples) == 0 {
		return nil, fmt.Errorf("misam: TrainRouter needs a framework with a training corpus")
	}
	x := make([][]float64, len(fw.Corpus.Samples))
	y := make([]int, len(fw.Corpus.Samples))
	for i := range fw.Corpus.Samples {
		s := &fw.Corpus.Samples[i]
		x[i] = s.Features.Slice()
		y[i] = int(deviceLabel(s))
	}
	// Guard against a degenerate corpus where one device wins everything:
	// the tree still trains (two classes minimum required by mltree), so
	// ensure at least two classes appear; otherwise return a trivial
	// router via a constant-leaf tree trained on a 2-class relabeling.
	classes := map[int]bool{}
	for _, c := range y {
		classes[c] = true
	}
	if len(classes) < 2 {
		// All labels identical: duplicate one sample with a different
		// class so training succeeds; the dominant class still wins every
		// leaf that matters.
		x = append(x, x[0])
		alt := (y[0] + 1) % int(NumDevices)
		y = append(y, alt)
	}
	cls, err := mltree.TrainClassifier(x, y, int(NumDevices),
		mltree.BalancedWeights(y, int(NumDevices)), mltree.Config{MaxDepth: 10, MinSamplesLeaf: 2})
	if err != nil {
		return nil, fmt.Errorf("misam: router training: %w", err)
	}
	return &Router{Tree: cls, compiled: cls.Compile()}, nil
}

var _ = features.NumFeatures
