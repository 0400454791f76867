// Command misam-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	misam-bench                      # every experiment at the default scale
//	misam-bench -experiment fig10    # one experiment
//	misam-bench -scale paper         # paper-scale corpora and workloads (slow)
//	misam-bench -scale quick         # smallest sizes (CI)
//
// Serving performance is measured by the benchmark module instead
// (go run -C benchmark .; see benchmark/README.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"misam"
	"misam/internal/experiments"
)

// dumpBinarySpecs encodes each generator spec as a binary wire blob and
// writes the concatenation to w — a ready-made request body for the
// binary analyze endpoints (two specs per analyze pair). The grammar
// mirrors the server's: uniform:rows:cols:density, dense:cols,
// powerlaw:n:nnz, banded:n:halfbw, or "self" to repeat the previous
// matrix. Successive specs draw seeds seed, seed+1, ...
func dumpBinarySpecs(w io.Writer, specs string, seed int64) error {
	var prev *misam.Matrix
	var buf []byte
	for i, spec := range strings.Split(specs, ",") {
		spec = strings.TrimSpace(spec)
		m, err := genSpec(spec, seed+int64(i), prev)
		if err != nil {
			return fmt.Errorf("spec %d (%q): %w", i, spec, err)
		}
		buf = misam.AppendMatrixBinary(buf, m)
		prev = m
	}
	_, err := w.Write(buf)
	return err
}

func genSpec(spec string, seed int64, prev *misam.Matrix) (*misam.Matrix, error) {
	if spec == "self" {
		if prev == nil {
			return nil, fmt.Errorf("'self' needs a preceding spec")
		}
		return prev, nil
	}
	parts := strings.Split(spec, ":")
	atoi := func(i int) (int, error) {
		if i >= len(parts) {
			return 0, fmt.Errorf("missing field %d", i)
		}
		v, err := strconv.Atoi(parts[i])
		if err != nil || v < 1 {
			return 0, fmt.Errorf("bad field %d", i)
		}
		return v, nil
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
		return misam.RandBanded(seed, n, n, half, 0.8), nil
	default:
		return nil, fmt.Errorf("unknown generator %q", parts[0])
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("misam-bench: ")

	scale := flag.String("scale", "default", "experiment scale: quick, default, or paper")
	experiment := flag.String("experiment", "all",
		"which experiment to run: all, fig1, fig3, fig4, fig6, fig8, fig9, fig10, fig11, fig12, fig13, table1, table2, table3, table4, table5, multitenant, router, objective, reconfigmodes, learningcurve, phases, heuristics")
	dumpBinary := flag.String("dump-binary", "",
		"comma-separated generator specs (e.g. 'uniform:200:200:0.05,dense:64'); encodes them as "+
			"concatenated binary wire blobs on stdout — pipe into curl for the binary analyze endpoints")
	dumpSeed := flag.Int64("dump-seed", 1, "seed for -dump-binary generator specs")
	flag.Parse()

	if *dumpBinary != "" {
		if err := dumpBinarySpecs(os.Stdout, *dumpBinary, *dumpSeed); err != nil {
			log.Fatalf("dump-binary: %v", err)
		}
		return
	}

	var cfg experiments.Config
	switch *scale {
	case "quick":
		cfg = experiments.QuickConfig()
	case "default":
		cfg = experiments.DefaultConfig()
	case "paper":
		cfg = experiments.PaperConfig()
	default:
		log.Fatalf("unknown scale %q", *scale)
	}
	ctx := experiments.NewContext(cfg)
	w := os.Stdout

	type driver struct {
		name string
		run  func() error
	}
	drivers := []driver{
		{"fig1", func() error { experiments.Figure1(w); return nil }},
		{"table1", func() error { experiments.Table1(w); return nil }},
		{"table2", func() error { experiments.Table2(w); return nil }},
		{"table3", func() error { experiments.Table3(ctx, w); return nil }},
		{"fig6", func() error { experiments.Figure6(w); return nil }},
		{"fig3", func() error { _, err := experiments.Figure3(ctx, w); return err }},
		{"fig4", func() error { _, err := experiments.Figure4(ctx, w); return err }},
		{"table4", func() error { _, err := experiments.Table4(ctx, w); return err }},
		{"table5", func() error { _, err := experiments.Table5(ctx, w); return err }},
		{"fig8", func() error { _, err := experiments.Figure8(ctx, w); return err }},
		{"fig9", func() error { _, err := experiments.Figure9(ctx, w); return err }},
		{"fig10", func() error { _, err := experiments.Figure10(ctx, w); return err }},
		{"fig11", func() error { _, err := experiments.Figure11(ctx, w); return err }},
		{"fig12", func() error { _, err := experiments.Figure12(ctx, w); return err }},
		{"fig13", func() error { _, err := experiments.Figure13(ctx, w); return err }},
		{"multitenant", func() error { experiments.MultiTenant(w); return nil }},
		{"router", func() error { _, err := experiments.Router(ctx, w); return err }},
		{"objective", func() error { _, err := experiments.Objective(ctx, w); return err }},
		{"reconfigmodes", func() error { _, err := experiments.ReconfigModes(ctx, w); return err }},
		{"learningcurve", func() error { _, err := experiments.LearningCurve(ctx, w); return err }},
		{"phases", func() error { _, err := experiments.Phases(ctx, w); return err }},
		{"heuristics", func() error { _, err := experiments.Heuristics(ctx, w); return err }},
	}

	want := strings.ToLower(*experiment)
	ran := 0
	for _, d := range drivers {
		if want != "all" && want != d.name {
			continue
		}
		if err := d.run(); err != nil {
			log.Fatalf("%s: %v", d.name, err)
		}
		ran++
	}
	if ran == 0 {
		log.Fatalf("unknown experiment %q", *experiment)
	}
	fmt.Fprintf(w, "\n%d experiment(s) complete at scale %q\n", ran, *scale)
}
