// Multi-tenant example (§6.2): Misam's specialized bitstreams leave most
// of the FPGA fabric free, so independent workloads can co-locate —
// unlike a monolithic ASIC that pays for every dataflow's silicon all the
// time. The second half serves a heterogeneous request mix over a fleet
// of devices (§6.3's serving shape): one immutable framework, N devices
// each tracking their own bitstream, requests checked out per device.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"

	"misam"
)

func main() {
	designs := []misam.Design{misam.Design1, misam.Design2, misam.Design3, misam.Design4}

	fmt.Println("Table 2 resource footprints (percent of the U55C):")
	fmt.Printf("%-10s %7s %7s %7s %7s %7s\n", "design", "LUT", "FF", "BRAM", "URAM", "DSP")
	for _, id := range designs {
		r := misam.DesignResources(id)
		fmt.Printf("%-10v %6.1f%% %6.1f%% %6.1f%% %6.1f%% %6.1f%%\n", id, r.LUT, r.FF, r.BRAM, r.URAM, r.DSP)
	}

	fmt.Println("\nreplication (how many copies fit):")
	for _, id := range designs {
		fmt.Printf("  %v: %d at raw fabric limits, %d with 25%% shell/routing reserve\n",
			id, misam.MaxInstances(id, 100), misam.MaxInstances(id, 75))
	}

	fmt.Println("\nco-location feasibility:")
	mixes := [][]misam.Design{
		{misam.Design1, misam.Design4},
		{misam.Design2, misam.Design4},
		{misam.Design2, misam.Design2},
		{misam.Design1, misam.Design2},
		{misam.Design4, misam.Design4, misam.Design4},
	}
	for _, mix := range mixes {
		verdict := "does NOT fit"
		if misam.CanCoLocate(mix, 100) {
			verdict = "fits"
		}
		fmt.Printf("  %v: %s\n", mix, verdict)
	}

	fmt.Println("\nbitstream logistics:")
	for _, id := range designs {
		fmt.Printf("  %v: %d MB bitstream\n", id, misam.BitstreamBytes(id)>>20)
	}
	fmt.Printf("\nDesigns 2 and 3 share a bitstream: swap is free (%v)\n",
		misam.SharedBitstream(misam.Design2, misam.Design3))

	serveFleet()
}

// serveFleet drives a 3-device fleet with a mixed tenant workload: the
// trained models are shared read-only, each request owns one device for
// its duration, and the per-device bitstreams specialize to the traffic.
func serveFleet() {
	fmt.Println("\nfleet serving (3 devices, mixed tenants):")
	fmt.Println("training a small model...")
	fw, err := misam.Train(misam.TrainOptions{CorpusSize: 120, MaxDim: 384, Seed: 2})
	if err != nil {
		log.Fatal(err)
	}
	fl := fw.NewFleet(3)

	// Three tenants with different structure: graph analytics, DNN
	// activations, and sparse-times-sparse.
	type job struct {
		tenant string
		a, b   *misam.Matrix
	}
	var jobs []job
	for i := int64(0); i < 4; i++ {
		jobs = append(jobs,
			job{"graph", misam.RandPowerLaw(i, 4000, 4000, 16000, 1.8), misam.RandDense(i+10, 4000, 32)},
			job{"dnn", misam.RandDNNPruned(i+20, 2048, 1024, 0.2), misam.RandDense(i+30, 1024, 64)},
			job{"spgemm", misam.RandUniform(i+40, 3000, 3000, 0.002), misam.RandUniform(i+50, 3000, 3000, 0.002)},
		)
	}

	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			rep, err := fw.Serve(context.Background(), &misam.Request{A: j.a, B: j.b, Fleet: fl})
			if err != nil {
				log.Fatal(err)
			}
			mu.Lock()
			fmt.Printf("  %-7s on %s → %v (%.3f ms, reconfig %v)\n",
				j.tenant, rep.Device, rep.Design, rep.SimulatedSeconds*1e3, rep.Reconfigured)
			mu.Unlock()
		}(j)
	}
	wg.Wait()

	fmt.Println("\nper-device totals:")
	for _, dev := range fl.Devices() {
		st := dev.Stats()
		loaded := "-"
		if id, ok := dev.Loaded(); ok {
			loaded = id.String()
		}
		fmt.Printf("  %s: %d requests, %d reconfigs (%.1fs), now holding %s\n",
			dev.Name(), st.Requests, st.Reconfigs, st.ReconfigSeconds, loaded)
	}
}
