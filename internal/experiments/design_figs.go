package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"misam/internal/fpga"
	"misam/internal/reconfig"
	"misam/internal/sim"
	"misam/internal/sparse"
	"misam/internal/stats"
	"misam/internal/workload"
)

// Figure1Result is the sparsity-space placement of Figure 1.
type Figure1Result struct {
	Points []workload.ApplicationPoint
}

// Figure1 reproduces Figure 1: applications clustered across the
// sparsity space of A × sparsity of B.
func Figure1(w io.Writer) Figure1Result {
	header(w, "Figure 1: applications across the sparsity space")
	fmt.Fprintf(w, "%-40s %10s %10s %8s\n", "application", "sparsity A", "sparsity B", "regime")
	for _, p := range workload.Figure1Points {
		fmt.Fprintf(w, "%-40s %10.4f %10.4f %8s\n", p.Application, p.ASparsity, p.BSparsity, p.Regime)
	}
	return Figure1Result{Points: workload.Figure1Points}
}

// Figure3Row is one workload's normalized performance across the SpMM
// design suite.
type Figure3Row struct {
	Name       string
	Normalized [3]float64 // D1, D2, D3 latency normalized to the best
	Best       sim.DesignID
}

// Figure3Result holds all rows plus the per-design win counts.
type Figure3Result struct {
	Rows []Figure3Row
	Wins [3]int
}

// Figure3 reproduces Figure 3: D1/D2/D3 performance normalized to the
// best design per workload — "no single design consistently outperforms
// others across all sparse workloads".
func Figure3(ctx *Context, w io.Writer) (Figure3Result, error) {
	header(w, "Figure 3: Misam design suite performance (normalized to best; 1.00 = best)")
	var res Figure3Result
	// A representative diverse subset: one from each suite category plus
	// synthetic domain workloads, as in the figure.
	wls := representativeWorkloads(ctx)
	fmt.Fprintf(w, "%-26s %8s %8s %8s  %s\n", "workload", "D1", "D2", "D3", "best")
	for _, wl := range wls {
		// One workload precompute feeds all three SpMM designs.
		wk, err := sim.NewWorkload(wl.A, wl.B)
		if err != nil {
			return res, err
		}
		var lat [3]float64
		for i, id := range sim.SpMMDesigns {
			r, err := wk.SimulateCtx(context.Background(), sim.GetConfig(id))
			if err != nil {
				return res, err
			}
			lat[i] = r.Seconds
		}
		best := 0
		for i := 1; i < 3; i++ {
			if lat[i] < lat[best] {
				best = i
			}
		}
		row := Figure3Row{Name: wl.Name, Best: sim.SpMMDesigns[best]}
		for i := range lat {
			row.Normalized[i] = lat[best] / lat[i] // 1.0 = best, <1 = slower
		}
		res.Rows = append(res.Rows, row)
		res.Wins[best]++
		fmt.Fprintf(w, "%-26s %8.2f %8.2f %8.2f  %v\n", wl.Name,
			row.Normalized[0], row.Normalized[1], row.Normalized[2], row.Best)
	}
	fmt.Fprintf(w, "wins: D1=%d D2=%d D3=%d\n", res.Wins[0], res.Wins[1], res.Wins[2])
	fmt.Fprintln(w, "\nmatrix footprints (as in the figure's thumbnails):")
	for _, wl := range wls {
		fmt.Fprintf(w, "%s\n%s", wl.Name, sparse.Spy(wl.A, 24, 6))
	}
	return res, nil
}

// representativeWorkloads draws a cross-domain sample like Figure 3's
// x-axis (CFD, graphs, circuits, DNN layers, ...).
func representativeWorkloads(ctx *Context) []workload.Workload {
	return representativeWorkloadsAt(ctx, ctx.Cfg.Reduction)
}

// representativeWorkloadsAt draws the same sample at an explicit
// reduction (Figure 12 uses larger matrices than the quick suite so the
// hardware term dominates the breakdown, as on the real system).
func representativeWorkloadsAt(ctx *Context, red int) []workload.Workload {
	rng := ctx.RNG(3)
	mk := func(name string, a, b *sparse.CSR) workload.Workload {
		return workload.Workload{Name: name, A: a, B: b}
	}
	dim := func(d int) int {
		n := d / red
		if n < 96 {
			n = 96
		}
		return n
	}
	var out []workload.Workload
	nCFD := dim(30000)
	cfdA := sparse.Banded(rng, nCFD, nCFD, 6, 0.7)
	out = append(out, mk("cfd-goodwin-like", cfdA, sparse.DenseRandom(rng, nCFD, 64)))
	nCFD2 := dim(16000)
	cfd2 := sparse.Banded(rng, nCFD2, nCFD2, 24, 0.5)
	out = append(out, mk("cfd-ramage-like", cfd2, sparse.DenseRandom(rng, nCFD2, 64)))
	nG := dim(26000)
	g := sparse.PowerLaw(rng, nG, nG, nG*3, 1.9)
	out = append(out, mk("graph-p2p-like", g, sparse.DenseRandom(rng, nG, 64)))
	nW := dim(11000)
	wiki := sparse.PowerLaw(rng, nW, nW, nW*16, 1.6)
	out = append(out, mk("graph-wiki-like", wiki, sparse.DenseRandom(rng, nW, 64)))
	nC := dim(170000)
	circ := sparse.Block(rng, nC, nC, 24, 0.02, 0.4)
	out = append(out, mk("circuit-scircuit-like", circ, sparse.DenseRandom(rng, nC, 64)))
	dnnM, dnnK := dim(4096), dim(4096)
	dnn := sparse.DNNPruned(rng, dnnM, dnnK, 0.2, true, 4)
	out = append(out, mk("dnn-resnet-like", dnn, sparse.DenseRandom(rng, dnnK, 128)))
	nI := dim(24000)
	imb := sparse.Imbalanced(rng, nI, nI, nI*8, 0.01, 0.85)
	out = append(out, mk("recsys-imbalanced", imb, sparse.DenseRandom(rng, nI, 64)))
	nT := dim(4800)
	tiny := sparse.Uniform(rng, nT, nT, 0.002)
	out = append(out, mk("sparse-uniform-small", tiny, sparse.DenseRandom(rng, nT, 8)))
	return out
}

// Table1 prints the design parameter configurations.
func Table1(w io.Writer) [sim.NumDesigns]sim.Config {
	header(w, "Table 1: parameter configurations")
	cfgs := sim.Configs()
	fmt.Fprintf(w, "%-12s %8s %8s %8s %8s\n", "parameter", "Design 1", "Design 2", "Design 3", "Design 4")
	row := func(name string, f func(sim.Config) string) {
		fmt.Fprintf(w, "%-12s %8s %8s %8s %8s\n", name,
			f(cfgs[0]), f(cfgs[1]), f(cfgs[2]), f(cfgs[3]))
	}
	row("ch_A", func(c sim.Config) string { return fmt.Sprint(c.ChA) })
	row("ch_B", func(c sim.Config) string { return fmt.Sprint(c.ChB) })
	row("ch_C", func(c sim.Config) string { return fmt.Sprint(c.ChC) })
	row("PEG", func(c sim.Config) string { return fmt.Sprint(c.PEG) })
	row("ACCG", func(c sim.Config) string { return fmt.Sprint(c.ACC) })
	row("Scheduler A", func(c sim.Config) string { return c.SchedulerA.String() })
	row("Format B", func(c sim.Config) string {
		if c.CompressedB {
			return "Comp."
		}
		return "Uncomp."
	})
	return cfgs
}

// Table2 prints the resource estimation.
func Table2(w io.Writer) map[sim.DesignID]sim.Resources {
	header(w, "Table 2: resource estimation for Xilinx U55C")
	fmt.Fprintf(w, "%-14s %7s %7s %7s %7s %7s %9s\n", "design", "LUT", "FF", "BRAM", "URAM", "DSP", "Freq(MHz)")
	out := map[sim.DesignID]sim.Resources{}
	printed := map[string]bool{}
	for _, id := range sim.AllDesigns {
		r := sim.DesignResources(id)
		out[id] = r
		name := id.String()
		if id == sim.Design2 || id == sim.Design3 {
			name = "Design 2 & 3"
		}
		if printed[name] {
			continue
		}
		printed[name] = true
		fmt.Fprintf(w, "%-14s %6.2f%% %6.2f%% %6.2f%% %6.2f%% %6.2f%% %9.2f\n",
			name, r.LUT, r.FF, r.BRAM, r.URAM, r.DSP, sim.GetConfig(id).FreqMHz)
	}
	return out
}

// Table3Row pairs a Table 3 spec with its generated stand-in statistics.
type Table3Row struct {
	Spec workload.HSMatrixSpec
	Rows int
	NNZ  int
}

// Table3 generates the highly sparse matrix suite and prints published
// versus generated statistics.
func Table3(ctx *Context, w io.Writer) []Table3Row {
	header(w, "Table 3: highly sparse matrices (published spec → generated stand-in)")
	rng := ctx.RNG(33)
	fmt.Fprintf(w, "%-16s %6s %9s %9s %10s | %9s %10s\n",
		"name", "id", "density", "rows", "nnz", "gen rows", "gen nnz")
	var out []Table3Row
	for _, spec := range workload.Table3 {
		m := spec.Generate(rng, ctx.Cfg.Reduction)
		out = append(out, Table3Row{Spec: spec, Rows: m.Rows, NNZ: m.NNZ()})
		fmt.Fprintf(w, "%-16s %6s %9.1e %9d %10d | %9d %10d\n",
			spec.Name, spec.ID, spec.Density, spec.Rows, spec.NNZ, m.Rows, m.NNZ())
	}
	return out
}

// MultiTenantResult is the §6.2 packing analysis.
type MultiTenantResult struct {
	// Instances[id] is the computed per-design replication at 100 % and
	// at the 75 % shell-reserved limit.
	InstancesFull     map[sim.DesignID]int
	InstancesReserved map[sim.DesignID]int
	// CoLocations lists feasible mixed deployments.
	CoLocations []string
	// TrapezoidIdle is the §6.2 idle-silicon fraction of the ASIC.
	TrapezoidIdle float64
	// MakespanMultiTenant / MakespanSerial compare a mixed job stream on
	// the runtime scheduler against single-tenant execution.
	MakespanMultiTenant float64
	MakespanSerial      float64
}

// MultiTenant reproduces the §6.2 analysis: replication counts per
// design, feasible co-locations, and Trapezoid's idle-area cost.
func MultiTenant(w io.Writer) MultiTenantResult {
	header(w, "Section 6.2: multi-tenant packing on the U55C")
	res := MultiTenantResult{
		InstancesFull:     map[sim.DesignID]int{},
		InstancesReserved: map[sim.DesignID]int{},
	}
	fmt.Fprintf(w, "%-10s %22s %24s\n", "design", "instances (100% fabric)", "instances (75% usable)")
	for _, id := range sim.AllDesigns {
		res.InstancesFull[id] = sim.MaxInstances(id, 100)
		res.InstancesReserved[id] = sim.MaxInstances(id, 75)
		fmt.Fprintf(w, "%-10v %22d %24d\n", id, res.InstancesFull[id], res.InstancesReserved[id])
	}
	mixes := [][]sim.DesignID{
		{sim.Design1, sim.Design4},
		{sim.Design2, sim.Design4},
		{sim.Design2, sim.Design2},
		{sim.Design4, sim.Design4, sim.Design4},
		{sim.Design1, sim.Design2},
	}
	for _, mix := range mixes {
		if sim.CanCoLocate(mix, 100) {
			s := fmt.Sprintf("%v", mix)
			res.CoLocations = append(res.CoLocations, s)
			fmt.Fprintf(w, "co-locatable: %s\n", s)
		}
	}
	res.TrapezoidIdle = sim.TrapezoidIdleFraction()
	fmt.Fprintf(w, "Trapezoid worst-case idle silicon: %.1f%% (paper: up to 26.5%%)\n", res.TrapezoidIdle*100)

	// Runtime demonstration: a mixed stream of jobs on the multi-tenant
	// device manager versus one-design-at-a-time execution.
	device := fpga.NewDevice(100, reconfig.DefaultTimeModel())
	var jobs []fpga.Job
	for i := 0; i < 8; i++ {
		jobs = append(jobs,
			fpga.Job{Name: fmt.Sprintf("sparse-%d", i), Design: sim.Design4, Duration: 0.4},
			fpga.Job{Name: fmt.Sprintf("regular-%d", i), Design: sim.Design2, Duration: 0.4})
	}
	rep, err := fpga.RunJobs(device, jobs)
	if err == nil {
		res.MakespanMultiTenant = rep.Makespan
		res.MakespanSerial = rep.SerialSeconds
		fmt.Fprintf(w, "mixed 16-job stream: multi-tenant %.2fs vs single-tenant %.2fs (%.1fx throughput)\n",
			rep.Makespan, rep.SerialSeconds, rep.SerialSeconds/rep.Makespan)
	}
	return res
}

// sortDesc sorts values descending and returns matching indices.
func sortDesc(values []float64) []int {
	idx := make([]int, len(values))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return values[idx[a]] > values[idx[b]] })
	return idx
}

var _ = stats.GeoMean // referenced by sibling files
