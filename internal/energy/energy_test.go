package energy

import (
	"context"
	"math/rand"
	"testing"

	"misam/internal/sim"
	"misam/internal/sparse"
)

func TestFPGAPowerBounds(t *testing.T) {
	for _, id := range sim.AllDesigns {
		idle := FPGAPower(id, 0)
		busy := FPGAPower(id, 1)
		if idle < FPGAStaticWatts {
			t.Errorf("%v idle power %.1f below static floor", id, idle)
		}
		if busy <= idle {
			t.Errorf("%v busy power %.1f not above idle %.1f", id, busy, idle)
		}
		if busy > 60 {
			t.Errorf("%v busy power %.1f implausibly high for a U55C", id, busy)
		}
	}
	// Clamping.
	if FPGAPower(sim.Design1, -1) != FPGAPower(sim.Design1, 0) {
		t.Error("negative utilization not clamped")
	}
	if FPGAPower(sim.Design1, 2) != FPGAPower(sim.Design1, 1) {
		t.Error("excess utilization not clamped")
	}
}

func TestBiggerDesignDrawsMore(t *testing.T) {
	// Designs 2/3 instantiate more fabric than Design 4 (Table 2).
	if FPGAPower(sim.Design2, 0.8) <= FPGAPower(sim.Design4, 0.8) {
		t.Error("Design 2 should draw more than Design 4 at equal utilization")
	}
}

func TestGPUPowerInterpolation(t *testing.T) {
	if GPUPower(0) != GPUSparseWatts || GPUPower(1) != GPUDenseWatts {
		t.Error("GPU power endpoints wrong")
	}
	mid := GPUPower(0.5)
	if mid <= GPUSparseWatts || mid >= GPUDenseWatts {
		t.Errorf("GPU mid power %.1f outside range", mid)
	}
	if GPUPower(-1) != GPUSparseWatts || GPUPower(2) != GPUDenseWatts {
		t.Error("GPU density not clamped")
	}
}

func TestEnergyFormula(t *testing.T) {
	if Energy(100, 2.5) != 250 {
		t.Error("energy = power × time")
	}
}

func TestFPGAEnergyUsesResult(t *testing.T) {
	r := sim.Result{Design: sim.Design1, Seconds: 2, PEUtilization: 0.5}
	want := FPGAPower(sim.Design1, 0.5) * 2
	if got := FPGAEnergy(r); got != want {
		t.Errorf("FPGAEnergy = %v, want %v", got, want)
	}
}

func TestFPGAMoreEfficientThanCPUAndGPU(t *testing.T) {
	// The premise of Figure 11: at equal runtime the FPGA draws far less.
	for _, id := range sim.AllDesigns {
		if FPGAPower(id, 1) >= CPUActiveWatts {
			t.Errorf("%v power should undercut the CPU's %v W", id, CPUActiveWatts)
		}
		if FPGAPower(id, 1) >= GPUSparseWatts {
			t.Errorf("%v power should undercut the GPU's sparse %v W", id, GPUSparseWatts)
		}
	}
}

func TestDetailedEnergyComponents(t *testing.T) {
	cfg := sim.GetConfig(sim.Design2)
	r := sim.Result{
		Design:       sim.Design2,
		Seconds:      0.01,
		AReadCycles:  1000,
		BReadCycles:  5000,
		CWriteCycles: 2000,
		Flops:        1_000_000,
	}
	b := DetailedEnergy(cfg, r)
	if b.HBM <= 0 || b.BRAM <= 0 || b.Compute <= 0 || b.Static <= 0 {
		t.Fatalf("all components must be positive: %+v", b)
	}
	if b.Total() != b.HBM+b.BRAM+b.Compute+b.Static {
		t.Error("Total does not sum components")
	}
	// Static power over 10 ms dominates these tiny event counts.
	if b.Static < b.Compute {
		t.Errorf("static %v should dominate compute %v here", b.Static, b.Compute)
	}
}

func TestDetailedEnergyHBMDominatesOnChip(t *testing.T) {
	// Per byte, DRAM costs ~40× more than BRAM — the architectural reason
	// Design 4 compresses B (§3.2.4).
	if HBMPicojoulePerByte < 20*BRAMPicojoulePerByte {
		t.Error("HBM/BRAM energy ratio implausibly small")
	}
}

func TestDetailedEnergyConsistentWithEnvelope(t *testing.T) {
	// On a realistic simulated run, the event-based estimate should land
	// within an order of magnitude of the utilization-scaled envelope.
	rng := rand.New(rand.NewSource(1))
	a := sparse.Uniform(rng, 3000, 3000, 0.01)
	bm := sparse.DenseRandom(rng, 3000, 128)
	w, err := sim.NewWorkload(a, bm)
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.SimulateCtx(context.Background(), sim.GetConfig(sim.Design2))
	if err != nil {
		t.Fatal(err)
	}
	envelope := FPGAEnergy(res)
	detailed := DetailedEnergy(sim.GetConfig(sim.Design2), res).Total()
	ratio := detailed / envelope
	if ratio < 0.1 || ratio > 10 {
		t.Errorf("detailed %.2e J vs envelope %.2e J: ratio %.2f outside [0.1,10]", detailed, envelope, ratio)
	}
}
