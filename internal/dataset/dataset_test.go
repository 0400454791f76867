package dataset

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"misam/internal/features"
	"misam/internal/mltree"
	"misam/internal/sim"
	"misam/internal/sparse"
)

func smallCorpus(t *testing.T, n int) *Corpus {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	c, err := GenerateClassifier(rng, n, 512)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGenerateClassifierShape(t *testing.T) {
	c := smallCorpus(t, 40)
	if len(c.Samples) != 40 {
		t.Fatalf("got %d samples, want 40", len(c.Samples))
	}
	x := c.X()
	y := c.Labels()
	if len(x) != 40 || len(y) != 40 {
		t.Fatal("X/Labels length mismatch")
	}
	for i, row := range x {
		if len(row) != features.NumFeatures {
			t.Fatalf("sample %d has %d features", i, len(row))
		}
		if y[i] < 0 || y[i] >= int(sim.NumDesigns) {
			t.Fatalf("sample %d label %d out of range", i, y[i])
		}
	}
}

func TestLabelsAreArgmin(t *testing.T) {
	c := smallCorpus(t, 25)
	for i, s := range c.Samples {
		for _, id := range sim.AllDesigns {
			if s.LatencySec[id] < s.LatencySec[s.Best] {
				t.Errorf("sample %d: label %v but %v is faster", i, s.Best, id)
			}
		}
	}
}

func TestCorpusCoversMultipleClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c, err := GenerateClassifier(rng, 120, 768)
	if err != nil {
		t.Fatal(err)
	}
	counts := c.ClassCounts()
	nonEmpty := 0
	for _, n := range counts {
		if n > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 3 {
		t.Errorf("corpus covers only %d classes (%v); selection would be trivial", nonEmpty, counts)
	}
}

func TestRandomPairDimsCompatible(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 60; i++ {
		p := RandomPair(rng, 700)
		if p.A.Cols != p.B.Rows {
			t.Fatalf("pair %d (%s): A %dx%d vs B %dx%d", i, p.Family, p.A.Rows, p.A.Cols, p.B.Rows, p.B.Cols)
		}
		// The "large" family goes up to 128× maxDim by design (the
		// Figure 8 streaming regime).
		if p.A.Rows > 700*128 || p.B.Cols > 700*128 {
			t.Fatalf("pair %d exceeds dimension bound", i)
		}
		if err := p.A.Validate(); err != nil {
			t.Fatalf("pair %d A invalid: %v", i, err)
		}
	}
}

func TestLatencyTargetRoundTrip(t *testing.T) {
	for _, sec := range []float64{1e-6, 1e-3, 0.5, 3.0} {
		got := LatencyFromTarget(LatencyTarget(sec))
		if math.Abs(got-sec)/sec > 1e-9 {
			t.Errorf("round trip %v -> %v", sec, got)
		}
	}
	// Degenerate latencies clamp rather than produce -Inf.
	if math.IsInf(LatencyTarget(0), -1) {
		t.Error("zero latency produced -Inf target")
	}
}

func TestLatencyRecordFeatures(t *testing.T) {
	var v features.Vector
	v[0] = 42
	rec := LatencyRecordFeatures(v, sim.Design3)
	if len(rec) != features.NumFeatures+int(sim.NumDesigns) {
		t.Fatalf("record length %d", len(rec))
	}
	if rec[0] != 42 {
		t.Error("features not copied")
	}
	for _, id := range sim.AllDesigns {
		want := 0.0
		if id == sim.Design3 {
			want = 1
		}
		if rec[features.NumFeatures+int(id)] != want {
			t.Errorf("one-hot wrong at %v", id)
		}
	}
}

func TestGenerateLatencyShape(t *testing.T) {
	c := smallCorpus(t, 15)
	x, y := GenerateLatency(c)
	if len(x) != 15*int(sim.NumDesigns) || len(y) != len(x) {
		t.Fatalf("latency set %d×%d, want %d", len(x), len(y), 15*int(sim.NumDesigns))
	}
	for _, target := range y {
		if math.IsNaN(target) || math.IsInf(target, 0) {
			t.Fatal("non-finite latency target")
		}
	}
}

// TestSelectorLearnsFromCorpus is the end-to-end §3.1 sanity check: a
// decision tree trained on corpus features should beat chance comfortably.
func TestSelectorLearnsFromCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	c, err := GenerateClassifier(rng, 220, 640)
	if err != nil {
		t.Fatal(err)
	}
	x, y := c.X(), c.Labels()
	train, test := mltree.StratifiedSplit(y, int(sim.NumDesigns), 0.7, rng)
	trX := make([][]float64, len(train))
	trY := make([]int, len(train))
	for i, j := range train {
		trX[i], trY[i] = x[j], y[j]
	}
	teX := make([][]float64, len(test))
	teY := make([]int, len(test))
	for i, j := range test {
		teX[i], teY[i] = x[j], y[j]
	}
	cls, err := mltree.TrainClassifier(trX, trY, int(sim.NumDesigns),
		mltree.BalancedWeights(trY, int(sim.NumDesigns)), mltree.Config{MaxDepth: 8, MinSamplesLeaf: 3})
	if err != nil {
		t.Fatal(err)
	}
	acc := mltree.Accuracy(cls.PredictBatch(teX), teY)
	if acc < 0.6 {
		t.Errorf("selector accuracy %.2f; corpus is not learnable", acc)
	}
	t.Logf("selector accuracy on held-out corpus: %.2f", acc)
}

func TestGenerateClassifierDeterministicAcrossParallelism(t *testing.T) {
	// Same master seed must yield identical corpora regardless of worker
	// scheduling.
	a, err := GenerateClassifier(rand.New(rand.NewSource(99)), 30, 384)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateClassifier(rand.New(rand.NewSource(99)), 30, 384)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Samples {
		if a.Samples[i].Features != b.Samples[i].Features {
			t.Fatalf("sample %d features differ across runs", i)
		}
		if a.Samples[i].Best != b.Samples[i].Best {
			t.Fatalf("sample %d label differs across runs", i)
		}
	}
}

// TestLabelAllDedupsIdenticalPairs: content-equal pairs (even in
// distinct storage, under distinct family tags) are labelled once and
// the sample replicated with each duplicate's own metadata intact.
func TestLabelAllDedupsIdenticalPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := sparse.Uniform(rng, 150, 150, 0.05)
	b := sparse.DenseRandom(rng, 150, 16)
	c := sparse.Uniform(rng, 120, 140, 0.04)
	d := sparse.DenseRandom(rng, 140, 8)
	// A structural copy: equal bytes, separate backing arrays — the dedup
	// must key on content, not pointers.
	aCopy := &sparse.CSR{
		Rows: a.Rows, Cols: a.Cols,
		RowPtr: append([]int(nil), a.RowPtr...),
		ColIdx: append([]int(nil), a.ColIdx...),
		Val:    append([]float64(nil), a.Val...),
	}
	pairs := []Pair{
		{Family: "orig", A: a, B: b},
		{Family: "copy", A: aCopy, B: b},
		{Family: "other", A: c, B: d},
		{Family: "orig-again", A: a, B: b},
	}
	samples, err := LabelAll(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(pairs) {
		t.Fatalf("got %d samples, want %d", len(samples), len(pairs))
	}
	for _, i := range []int{1, 3} {
		if samples[i].LatencySec != samples[0].LatencySec ||
			samples[i].EnergyJ != samples[0].EnergyJ ||
			samples[i].Best != samples[0].Best ||
			samples[i].Features != samples[0].Features {
			t.Errorf("duplicate %d's label data diverged from its representative", i)
		}
		if samples[i].Pair.Family != pairs[i].Family || samples[i].Pair.A != pairs[i].A {
			t.Errorf("duplicate %d lost its own Pair metadata", i)
		}
	}
	// The replicated labels must equal a direct (non-deduped) labelling.
	direct, err := Label(context.Background(), pairs[1])
	if err != nil {
		t.Fatal(err)
	}
	if direct.LatencySec != samples[1].LatencySec || direct.Best != samples[1].Best {
		t.Error("deduped sample differs from directly labelling the duplicate")
	}
	if samples[2].LatencySec == samples[0].LatencySec {
		t.Error("distinct pairs produced identical latencies (suspicious dedup over-merge)")
	}
}
