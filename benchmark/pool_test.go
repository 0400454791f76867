package main

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"
)

// testPool is the -quick pool: every family, a few MB in total.
func testPool(t *testing.T, seed int64) []*pair {
	t.Helper()
	return newPool(seed, quickPoolPairs)
}

func TestPoolIsAFunctionOfTheSeed(t *testing.T) {
	a, b, c := testPool(t, 7), testPool(t, 7), testPool(t, 8)
	differs := false
	for i := range a {
		if a[i] == nil {
			t.Fatalf("pair %d missing", i)
		}
		if a[i].family != familyNames[i%len(familyNames)] {
			t.Errorf("pair %d is %s", i, a[i].family)
		}
		if !bytes.Equal(a[i].body, b[i].body) {
			t.Errorf("pair %d differs between two pools of one seed", i)
		}
		if !bytes.Equal(a[i].body, c[i].body) {
			differs = true
		}
		if _, _, err := probeParse(a[i].body); err != nil {
			t.Errorf("pair %d base body: %v", i, err)
		}
	}
	if !differs {
		t.Error("seeds 7 and 8 generated the same pool")
	}
	if rows := a[4].a.Rows; rows <= 4096 {
		t.Errorf("multitile A has %d rows; it must exceed one 4096-row tile", rows)
	}
}

func TestArrivalsAreAFunctionOfTheSeed(t *testing.T) {
	a := arrivals(3, 100, 10*time.Second)
	if len(a) != 1000 {
		t.Fatalf("%d arrivals, want rate × duration = 1000", len(a))
	}
	if !reflect.DeepEqual(a, arrivals(3, 100, 10*time.Second)) {
		t.Error("same seed, different schedule")
	}
	if reflect.DeepEqual(a, arrivals(4, 100, 10*time.Second)) {
		t.Error("different seed, same schedule")
	}
	for i, d := range a {
		if d < 0 || d >= 10*time.Second || (i > 0 && d < a[i-1]) {
			t.Fatalf("arrival %d = %v out of order or range", i, d)
		}
	}
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	pool := testPool(t, 1)
	mix := [3]int{12, 5, 3}
	a, b := newStream(5, pool, mix), newStream(5, pool, mix)
	other := newStream(6, pool, mix)
	same := true
	for i := 0; i < 400; i++ {
		ra, err := a.at(i)
		if err != nil {
			t.Fatal(err)
		}
		if rb, _ := b.at(i); ra != rb {
			t.Fatalf("request %d differs between two streams of one seed", i)
		}
		if ro, _ := other.at(i); ra != ro {
			same = false
		}
	}
	if same {
		t.Error("seeds 5 and 6 generated the same stream")
	}
	// Every block deals exactly the configured mix; every cycle visits
	// every pair once.
	for block := 0; block < 20; block++ {
		var got [3]int
		for i := block * mixBlock; i < (block+1)*mixBlock; i++ {
			r, _ := a.at(i)
			got[r.mode]++
		}
		if got != mix {
			t.Errorf("block %d dealt %v, want %v", block, got, mix)
		}
	}
	seen := map[int]bool{}
	for i := 0; i < len(pool); i++ {
		r, _ := a.at(i)
		seen[r.pair] = true
	}
	if len(seen) != len(pool) {
		t.Errorf("first cycle visited %d of %d pairs", len(seen), len(pool))
	}
}

func TestRotationsNeverRepeat(t *testing.T) {
	pool := testPool(t, 1)
	s := newStream(1, pool, [3]int{0, 0, mixBlock})
	type pk struct{ pair, k int }
	seen := map[pk]bool{}
	n := len(pool) * (s.minAR - 1)
	for i := 0; i < n; i++ {
		r, err := s.at(i)
		if err != nil {
			t.Fatalf("request %d of %d: %v", i, n, err)
		}
		if r.arg <= 0 || r.arg >= pool[r.pair].a.Rows {
			t.Fatalf("request %d rotates a %d-row A by %d", i, pool[r.pair].a.Rows, r.arg)
		}
		if seen[pk{r.pair, r.arg}] {
			t.Fatalf("request %d repeats pair %d, k=%d", i, r.pair, r.arg)
		}
		seen[pk{r.pair, r.arg}] = true
	}
	if _, err := s.at(n); err == nil {
		t.Error("the stream kept rotating after every k was used")
	}
}

// Every body the harness can send must be a valid pair of frames whose
// content key differs from the base body's and from the previous
// request's — otherwise a "miss" workload would quietly hit.
func TestFramesParseAndChangeTheKey(t *testing.T) {
	pool := testPool(t, 2)
	s := newStream(2, pool, [3]int{0, 10, 10})
	var scratch []byte
	last := map[int][2]uint64{}
	for i := 0; i < 6*len(pool); i++ {
		r, err := s.at(i)
		if err != nil {
			t.Fatal(err)
		}
		p := pool[r.pair]
		baseA, baseB, _ := probeParse(p.body)
		va, vb, err := probeParse(p.frame(&scratch, r.mode, r.arg))
		if err != nil {
			t.Fatalf("request %d (%s, pair %d): %v", i, r.mode, r.pair, err)
		}
		fa := probeFingerprint(va)
		if fa == probeFingerprint(baseA) {
			t.Errorf("request %d (%s): A's fingerprint is the base's", i, r.mode)
		}
		if fa == last[r.pair] {
			t.Errorf("request %d (%s): A's fingerprint is the previous request's", i, r.mode)
		}
		last[r.pair] = fa
		if probeFingerprint(vb) != probeFingerprint(baseB) {
			t.Errorf("request %d (%s): B changed", i, r.mode)
		}
		if base, _, _ := probeParse(p.body); probeFingerprint(base) != probeFingerprint(baseA) {
			t.Fatalf("request %d wrote into the shared base body", i)
		}
	}
	if got := pool[0].frame(&scratch, modeRepeat, 0); &got[0] != &pool[0].body[0] {
		t.Error("repeat does not send the base body as is")
	}
}

// A rotation permutes A's rows, so every feature — all of them sums,
// counts or extrema over rows and columns — keeps its value up to the
// order of summation.
func TestRotateKeepsTheFeatures(t *testing.T) {
	var scratch []byte
	for i, p := range testPool(t, 3) {
		base := probeExtractMultipass(p.a, p.b)
		for _, k := range []int{1, p.a.Rows / 3, p.a.Rows - 1} {
			va, vb, err := probeParse(p.frame(&scratch, modeRotate, k))
			if err != nil {
				t.Fatal(err)
			}
			a := probeDecodeCopy(va)
			if a.NNZ() != p.a.NNZ() || a.RowPtr[1] != p.a.RowPtr[k+1]-p.a.RowPtr[k] {
				t.Fatalf("pair %d, k=%d: row 0 of the rotation is not row k of the base", i, k)
			}
			got := probeExtractMultipass(a, probeDecodeCopy(vb))
			for f := range base {
				if d := math.Abs(got[f] - base[f]); d > 1e-9*math.Max(1, math.Abs(base[f])) {
					t.Errorf("pair %d (%s), k=%d: feature %d moved from %v to %v", i, p.family, k, f, base[f], got[f])
				}
			}
		}
	}
}

// The window check holds revalue answers against the base pair's
// reference; that is sound only while the simulator never reads a value.
func TestRevalueKeepsTheReference(t *testing.T) {
	var scratch []byte
	for i, p := range testPool(t, 4)[:len(familyNames)] {
		base, err := newReference(p.a, p.b)
		if err != nil {
			t.Fatal(err)
		}
		va, vb, err := probeParse(p.frame(&scratch, modeRevalue, 41))
		if err != nil {
			t.Fatal(err)
		}
		got, err := newReference(probeDecodeCopy(va), probeDecodeCopy(vb))
		if err != nil {
			t.Fatal(err)
		}
		if *got != *base {
			t.Errorf("pair %d (%s): one changed value moved the reference from %+v to %+v", i, p.family, base, got)
		}
	}
}

// The JSON transport must carry exactly the operands the binary one does.
func TestJSONBodyCarriesTheSameOperands(t *testing.T) {
	p := testPool(t, 5)[2]
	body, err := p.jsonBody()
	if err != nil {
		t.Fatal(err)
	}
	aText, bText, err := decodeJSONBody(body)
	if err != nil {
		t.Fatal(err)
	}
	a, err := probeMtxParse(aText)
	if err != nil {
		t.Fatal(err)
	}
	b, err := probeMtxParse(bText)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, p.a) || !reflect.DeepEqual(b, p.b) {
		t.Error("MatrixMarket round trip changed an operand")
	}
}

// Whatever the ring deals, the check pass must start every node's two
// devices on families 0 and 1 and feed each device half of every family.
func TestCheckOrderBalancesDevices(t *testing.T) {
	nf := len(familyNames)
	for _, owners := range [][]int{
		make([]int, fullPoolPairs), // one node owns everything
		func() []int { // two nodes, four pairs of each family each, dealt unevenly
			o := make([]int, fullPoolPairs)
			for i := range o {
				m, f := i/nf, i%nf
				if (m*7+f*3)%8 < 4 {
					o[i] = 1
				}
			}
			return o
		}(),
	} {
		order := checkOrder(owners)
		seen := map[int]bool{}
		turn := map[int]int{}      // node → requests seen so far
		served := map[[3]int]int{} // (node, device, family) → pairs
		first := map[[2]int]int{}  // (node, device) → family of its first pair
		for _, i := range order {
			if seen[i] {
				t.Fatalf("pair %d sent twice", i)
			}
			seen[i] = true
			node, dev := owners[i], turn[owners[i]]%2
			if turn[node] < 2 {
				first[[2]int{node, dev}] = i % nf
			}
			turn[node]++
			served[[3]int{node, dev, i % nf}]++
		}
		if len(seen) != len(owners) {
			t.Fatalf("%d of %d pairs sent", len(seen), len(owners))
		}
		for node := range turn {
			if first[[2]int{node, 0}] != 0 || first[[2]int{node, 1}] != 1 {
				t.Errorf("node %d starts its devices on families %d and %d", node, first[[2]int{node, 0}], first[[2]int{node, 1}])
			}
			for f := 0; f < nf; f++ {
				if a, b := served[[3]int{node, 0, f}], served[[3]int{node, 1, f}]; a != b {
					t.Errorf("node %d: family %d split %d/%d between the devices", node, f, a, b)
				}
			}
		}
	}
}
