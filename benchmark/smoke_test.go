package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestQuickSmoke runs the whole harness at -quick scale: builds the two
// programs, trains, boots servers for all five workloads, drives them in
// both modes and reads back a trace. About a minute; skipped by -short.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real server processes for about a minute")
	}
	out := filepath.Join("out", "smoke")
	results, err := realMain([]string{"-quick", "-seed", "3", "-out", out})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2*len(workloads) {
		t.Fatalf("%d results, want an untraced and a traced run of %d workloads", len(results), len(workloads))
	}
	for i, res := range results {
		name := workloads[i/2].name
		if !res.correct || res.failed != 0 {
			t.Errorf("%s: %d of %d failed, correct=%v: %v", name, res.failed, res.attempted, res.correct, res.problems)
		}
		names := endToEnd
		if i%2 == 1 {
			names = layerNames()
		}
		if _, err := resultLine(res, names); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		for _, n := range endToEnd {
			if !(res.metrics[n] > 0) {
				t.Errorf("%s: %s = %v, want a positive number", name, n, res.metrics[n])
			}
		}
	}
	for _, w := range workloads {
		data, err := os.ReadFile(filepath.Join(out, "trace-"+w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(data, &tf); err != nil {
			t.Fatalf("%s trace: %v", w.name, err)
		}
		if tf.Requests == 0 || len(tf.Spans) == 0 {
			t.Errorf("%s trace is empty", w.name)
		}
		sum := tf.Unattrib
		for _, row := range tf.Budget {
			sum += row.P50Ms
		}
		if d := sum - tf.RoundtripMs; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s: stages + unattributed = %v ms, roundtrip = %v ms", w.name, sum, tf.RoundtripMs)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON holds the harness's metric and workload
// names, and their units, to the ones ../BENCHMARK.json declares.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var doc struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the harness %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, declared []entry, have []string) {
		want := map[string]bool{}
		for _, n := range have {
			want[n] = true
		}
		for _, e := range declared {
			if !want[e.Name] {
				t.Errorf("%s metric %q is declared but never reported", kind, e.Name)
			}
			delete(want, e.Name)
			if units[e.Name] != e.Unit {
				t.Errorf("%s metric %q: unit %q declared, %q reported", kind, e.Name, e.Unit, units[e.Name])
			}
		}
		for n := range want {
			t.Errorf("%s metric %q is reported but not declared", kind, n)
		}
	}
	check("end-to-end", doc.EndToEnd, endToEnd)
	check("per-layer", doc.PerLayer, layerNames())
}
