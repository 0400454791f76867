// Command misam-sim drives the cycle-level simulator directly: it runs
// one design (or all four) on a workload, prints the cycle breakdown,
// host-preprocessing statistics (§3.2.1's pointer lists and packed A
// words), and — for small matrices — the per-PE timeline of Figure 6.
//
//	misam-sim -design 2 -a powerlaw:20000:80000 -b dense:64
//	misam-sim -design all -a uniform:4000:4000:0.002 -b self
//	misam-sim -design 1 -a uniform:16:16:0.2 -b dense:8 -timeline
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"misam/internal/sim"
	"misam/internal/sparse"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("misam-sim: ")

	design := flag.String("design", "all", "1, 2, 3, 4 or all")
	aSpec := flag.String("a", "uniform:2000:2000:0.01", "matrix A generator spec")
	bSpec := flag.String("b", "dense:64", "matrix B generator spec or 'self'")
	seed := flag.Int64("seed", 1, "generator seed")
	timeline := flag.Bool("timeline", false, "render per-PE timelines (small matrices only)")
	spy := flag.Bool("spy", false, "render the operands' sparsity footprints")
	flag.Parse()

	a, err := parse(*aSpec, *seed, nil)
	if err != nil {
		log.Fatalf("matrix A: %v", err)
	}
	b, err := parse(*bSpec, *seed+1, a)
	if err != nil {
		log.Fatalf("matrix B: %v", err)
	}
	fmt.Printf("A: %dx%d nnz %d | B: %dx%d nnz %d\n\n", a.Rows, a.Cols, a.NNZ(), b.Rows, b.Cols, b.NNZ())
	if *spy {
		fmt.Printf("A footprint:\n%s\nB footprint:\n%s\n", sparse.Spy(a, 48, 16), sparse.Spy(b, 48, 16))
	}

	var designs []sim.DesignID
	if *design == "all" {
		designs = sim.AllDesigns
	} else {
		n, err := strconv.Atoi(*design)
		if err != nil || n < 1 || n > 4 {
			log.Fatalf("bad -design %q", *design)
		}
		designs = []sim.DesignID{sim.DesignID(n - 1)}
	}

	fmt.Printf("%-10s %12s %12s %10s %10s %10s %10s %8s %9s\n",
		"design", "cycles", "time(ms)", "compute", "A-read", "B-read", "C-write", "util", "bubbles")
	w, err := sim.NewWorkload(a, b)
	if err != nil {
		log.Fatal(err)
	}
	for _, id := range designs {
		r, err := w.SimulateCtx(context.Background(), sim.GetConfig(id))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10v %12d %12.4f %10d %10d %10d %10d %7.1f%% %9d\n",
			id, r.Cycles, r.Seconds*1e3, r.ComputeCycles, r.AReadCycles, r.BReadCycles,
			r.CWriteCycles, r.PEUtilization*100, r.Bubbles)

		h, err := sim.BuildHostSchedule(sim.GetConfig(id), a, b)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("           host: %d A-words packed, %d tiles, %d host ops, %.1f%% lane padding\n",
			len(h.AWords), len(h.Tiles), h.HostOps, h.PaddingFraction()*100)

		if *timeline {
			if a.NNZ() > 256 {
				fmt.Println("           (timeline skipped: matrix too large; use a toy input)")
				continue
			}
			cfg := sim.GetConfig(id)
			groups := sim.ScheduleA(a, sim.ScheduleOptions{
				PEGs: cfg.PEG, PEsPerPEG: cfg.PEsPerPEG, Traversal: cfg.SchedulerA,
				DepGap: cfg.DepGapCycles, Window: cfg.WindowSize, Trace: true,
			})
			fmt.Fprint(os.Stdout, sim.RenderTimeline(groups, 64))
		}
	}
}

// parse builds a matrix from a generator spec (a subset of misam-run's).
func parse(spec string, seed int64, prev *sparse.CSR) (*sparse.CSR, error) {
	if spec == "self" {
		if prev == nil {
			return nil, fmt.Errorf("'self' only valid for B")
		}
		return prev, nil
	}
	parts := strings.Split(spec, ":")
	rng := rand.New(rand.NewSource(seed))
	atoi := func(i int) (int, error) {
		if i >= len(parts) {
			return 0, fmt.Errorf("spec %q missing field %d", spec, i)
		}
		return strconv.Atoi(parts[i])
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
			return nil, fmt.Errorf("uniform needs a density field")
		}
		dens, err := strconv.ParseFloat(parts[3], 64)
		if err != nil {
			return nil, err
		}
		return sparse.Uniform(rng, rows, cols, dens), nil
	case "dense":
		cols, err := atoi(1)
		if err != nil {
			return nil, err
		}
		rows := cols
		if prev != nil {
			rows = prev.Cols
		}
		return sparse.DenseRandom(rng, rows, cols), nil
	case "powerlaw":
		n, err := atoi(1)
		if err != nil {
			return nil, err
		}
		nnz, err := atoi(2)
		if err != nil {
			return nil, err
		}
		return sparse.PowerLaw(rng, n, n, nnz, 1.9), nil
	case "banded":
		n, err := atoi(1)
		if err != nil {
			return nil, err
		}
		half, err := atoi(2)
		if err != nil {
			return nil, err
		}
		return sparse.Banded(rng, n, n, half, 0.8), nil
	default:
		return nil, fmt.Errorf("unknown generator %q", parts[0])
	}
}
