package misam

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"misam/internal/mltree"
	"misam/internal/sim"
)

var (
	sharedFW     *Framework
	sharedFWErr  error
	sharedFWOnce sync.Once
)

// trainTest returns a small framework shared by the public-API tests
// (training once keeps the suite fast).
func trainTest(t *testing.T) *Framework {
	t.Helper()
	sharedFWOnce.Do(func() {
		sharedFW, sharedFWErr = Train(TrainOptions{CorpusSize: 120, LatencyCorpusSize: 150, MaxDim: 512, Seed: 3})
	})
	if sharedFWErr != nil {
		t.Fatal(sharedFWErr)
	}
	return sharedFW
}

func TestTrainProducesWorkingSelector(t *testing.T) {
	fw := trainTest(t)
	// Training accuracy should be strong (the paper reports 90 % CV).
	x, y := fw.Corpus.X(), fw.Corpus.Labels()
	acc := mltree.Accuracy(fw.Selector.Tree.PredictBatch(x), y)
	if acc < 0.85 {
		t.Errorf("training accuracy %.2f, want >= 0.85", acc)
	}
}

func TestSelectorIsCompact(t *testing.T) {
	fw := trainTest(t)
	sz, err := fw.Selector.SizeBytes()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's deployed model is ~6 KB; ours should be the same order.
	if sz > 64*1024 {
		t.Errorf("selector serialized to %d bytes; not a lightweight model", sz)
	}
	t.Logf("selector model size: %d bytes", sz)
}

func TestMultiplyMatchesReference(t *testing.T) {
	fw := trainTest(t)
	a := RandUniform(1, 200, 200, 0.05)
	b := RandUniform(2, 200, 100, 0.1)
	c, rep, err := fw.Multiply(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if c.Rows != 200 || c.Cols != 100 {
		t.Fatalf("product dims %dx%d", c.Rows, c.Cols)
	}
	if rep.SimulatedSeconds <= 0 || rep.TotalSeconds < rep.SimulatedSeconds {
		t.Errorf("implausible report: %+v", rep)
	}
	if rep.EnergyJoules <= 0 {
		t.Error("missing energy estimate")
	}
	// The numeric product must agree with a direct identity check:
	// (A×I) = A.
	id := Identity(200)
	ai, _, err := fw.Multiply(a, id)
	if err != nil {
		t.Fatal(err)
	}
	if ai.NNZ() != a.NNZ() {
		t.Error("A×I lost entries")
	}
}

func TestAnalyzeOverheadsAreSmall(t *testing.T) {
	fw := trainTest(t)
	a := RandUniform(4, 2000, 2000, 0.005)
	b := RandDense(5, 2000, 128)
	rep, err := fw.Analyze(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	// §5.5: inference is ~0.002–0.005 ms; even allowing Go overhead it
	// must stay far below a millisecond.
	if rep.InferenceSeconds > 1e-3 {
		t.Errorf("inference took %.6fs; expected microseconds", rep.InferenceSeconds)
	}
	if rep.PreprocessSeconds <= 0 {
		t.Error("preprocessing time not measured")
	}
}

func TestAnalyzeDimensionMismatch(t *testing.T) {
	fw := trainTest(t)
	a := RandUniform(1, 10, 10, 0.5)
	b := RandUniform(2, 11, 10, 0.5)
	if _, err := fw.Analyze(context.Background(), a, b); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	fw := trainTest(t)
	var buf bytes.Buffer
	if err := fw.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Loaded selector must agree with the original on fresh inputs.
	for seed := int64(0); seed < 10; seed++ {
		a := RandUniform(seed, 300, 300, 0.01*float64(seed+1))
		b := RandDense(seed+100, 300, 64)
		v := ExtractFeatures(a, b)
		if got.Selector.Select(v) != fw.Selector.Select(v) {
			t.Fatal("loaded selector disagrees with original")
		}
	}
	if _, err := Load(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Error("Load accepted garbage")
	}
}

func TestStreamRuns(t *testing.T) {
	fw := trainTest(t)
	a := RandUniform(6, 4000, 800, 0.01)
	b := RandDense(7, 800, 64)
	res, err := fw.Stream(context.Background(), 8, a, b, 800, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) < 3 {
		t.Fatalf("expected several tiles, got %d", len(res.Outcomes))
	}
}

// TestAnalyzeCancellation: a cancelled context aborts the analyze
// pipeline and surfaces context.Canceled.
func TestAnalyzeCancellation(t *testing.T) {
	fw := trainTest(t)
	a := RandUniform(11, 2000, 2000, 0.005)
	b := RandDense(12, 2000, 64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fw.Analyze(ctx, a, b); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestAnalyzeOnSeparateDevices: the framework is immutable, so two
// devices evolve independent bitstream state while sharing the models.
func TestAnalyzeOnSeparateDevices(t *testing.T) {
	fw := trainTest(t)
	a := RandUniform(13, 800, 800, 0.01)
	b := RandDense(14, 800, 64)
	w, err := NewWorkload(a, b)
	if err != nil {
		t.Fatal(err)
	}
	d1, d2 := fw.NewDevice("one"), fw.NewDevice("two")
	defaultBefore := fw.DefaultDevice().Stats().Requests
	var wg sync.WaitGroup
	for _, dev := range []*Accelerator{d1, d2} {
		wg.Add(1)
		go func(dev *Accelerator) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				rep, err := fw.Serve(context.Background(), &Request{Workload: w, Device: dev})
				if err != nil {
					t.Error(err)
					return
				}
				if rep.Device != dev.Name() {
					t.Errorf("report names device %q, want %q", rep.Device, dev.Name())
				}
			}
		}(dev)
	}
	wg.Wait()
	// Both devices saw the same workload: same design loaded, independent
	// counters, and the default device was never touched.
	l1, ok1 := d1.Loaded()
	l2, ok2 := d2.Loaded()
	if !ok1 || !ok2 || l1 != l2 {
		t.Errorf("device states diverged: %v/%v %v/%v", l1, ok1, l2, ok2)
	}
	if d1.Stats().Requests != 4 || d2.Stats().Requests != 4 {
		t.Errorf("per-device request counts wrong: %+v %+v", d1.Stats(), d2.Stats())
	}
	if got := fw.DefaultDevice().Stats().Requests; got != defaultBefore {
		t.Errorf("Serve on a named device leaked %d transactions onto the default device", got-defaultBefore)
	}
}

func TestCompareBaselines(t *testing.T) {
	a := RandUniform(9, 1000, 1000, 0.01)
	b := RandDense(10, 1000, 128)
	cmp := CompareBaselines(a, b)
	if cmp.CPUSeconds <= 0 || cmp.GPUSeconds <= 0 || cmp.TrapezoidSeconds <= 0 {
		t.Errorf("nonpositive baseline estimates: %+v", cmp)
	}
	if cmp.CPUEnergyJ <= 0 || cmp.GPUEnergyJ <= 0 {
		t.Error("missing baseline energy")
	}
	if cmp.TrapezoidDataflow == "" {
		t.Error("missing Trapezoid dataflow name")
	}
}

func TestNewMatrixValidation(t *testing.T) {
	if _, err := NewMatrix(2, 2, []Entry{{Row: 5, Col: 0, Val: 1}}); err == nil {
		t.Error("accepted out-of-range entry")
	}
	m, err := NewMatrix(2, 2, []Entry{{Row: 0, Col: 1, Val: 2}, {Row: 0, Col: 1, Val: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 5 {
		t.Error("duplicate entries not summed")
	}
}

func TestNewDenseMatrix(t *testing.T) {
	if _, err := NewDenseMatrix(2, 2, []float64{1}); err == nil {
		t.Error("accepted wrong-length data")
	}
	m, err := NewDenseMatrix(2, 2, []float64{1, 0, 0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 2 {
		t.Errorf("NNZ = %d, want 2 (zeros dropped)", m.NNZ())
	}
}

func TestTopFeaturesOnlyTraining(t *testing.T) {
	fw, err := Train(TrainOptions{CorpusSize: 120, MaxDim: 512, Seed: 3, TopFeaturesOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	imp := fw.Selector.FeatureImportance()
	// Only the four Figure 4 features may carry importance.
	allowed := map[int]bool{}
	for _, i := range []int{20, 2, 16, 0} { // Tile1DDensity, BRows, ALoadImbalanceRow, ARows
		allowed[i] = true
	}
	for i, v := range imp {
		if v > 0 && !allowed[i] {
			t.Errorf("pruned model used feature %d (%s)", i, FeatureNames()[i])
		}
	}
}

func TestDesignConstantsAlias(t *testing.T) {
	if Design1 != sim.Design1 || Design4 != sim.Design4 {
		t.Error("design constants drifted from internal/sim")
	}
	if NumDesigns != 4 {
		t.Errorf("NumDesigns = %d", NumDesigns)
	}
}

func TestSelectWithConfidence(t *testing.T) {
	fw := trainTest(t)
	for seed := int64(0); seed < 8; seed++ {
		a := RandUniform(seed, 400, 400, 0.01*float64(seed+1))
		b := RandDense(seed+50, 400, 32)
		v := ExtractFeatures(a, b)
		d, conf := fw.Selector.SelectWithConfidence(v)
		if d != fw.Selector.Select(v) {
			t.Fatal("confidence path disagrees with Select")
		}
		if conf <= 0 || conf > 1 {
			t.Fatalf("confidence %v outside (0,1]", conf)
		}
	}
}

// TestSimulateWrappersMatchSerial: the public simulator wrappers agree
// with the serial reference — every Result for the exact ones, the argmin
// and the winner's Result for the pruned one.
func TestSimulateWrappersMatchSerial(t *testing.T) {
	a := RandPowerLaw(4, 400, 400, 2400, 1.8)
	b := RandUniform(5, 400, 64, 0.1)
	serial, err := sim.SimulateAllSerial(a, b)
	if err != nil {
		t.Fatal(err)
	}
	all, err := SimulateAllDesigns(a, b)
	if err != nil || all != serial {
		t.Fatalf("SimulateAllDesigns = %+v, %v; want the serial reference %+v", all, err, serial)
	}
	for _, id := range sim.AllDesigns {
		if r, err := SimulateDesign(id, a, b); err != nil || r != serial[id] {
			t.Errorf("SimulateDesign(%v) = %+v, %v; want %+v", id, r, err, serial[id])
		}
	}
	pruned, err := SimulateAllDesignsPruned(a, b)
	if err != nil {
		t.Fatal(err)
	}
	best := sim.BestDesign(serial)
	if got := sim.BestDesign(pruned); got != best || pruned[best] != serial[best] {
		t.Errorf("SimulateAllDesignsPruned winner %v %+v; want %v %+v", got, pruned[got], best, serial[best])
	}
}
