package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"

	"misam"
	"misam/internal/features"
	"misam/internal/memo"
	"misam/internal/placement"
	"misam/internal/reconfig"
	"misam/internal/registry"
	"misam/internal/sim"
)

// PlacementReportData is the machine-readable placement record
// (BENCH_PR7.json): the FIFO checkout pool versus the bitstream-aware
// placement pool on the same skewed (power-law design mix) request
// stream at equal device count. Placement must cut the fleet's paid
// reconfigurations while leaving every analysis-derived report field
// bit-identical — it changes which device pays, never the result.
type PlacementReportData struct {
	Schema   string `json:"schema"`
	Devices  int    `json:"devices"`
	Requests int    `json:"requests"`
	// DistinctPairs is the candidate pool size behind the stream;
	// BitstreamGroups is how many distinct bitstreams the stream's
	// proposals span (>= 2 or the bench is vacuous).
	DistinctPairs   int `json:"distinct_pairs"`
	BitstreamGroups int `json:"bitstream_groups"`
	// DesignMix is the stream's proposal share per design — the skew the
	// placement layer exploits.
	DesignMix []float64 `json:"design_mix"`

	// FIFO*/Placed* are each pool's fleet-wide switch totals over the
	// identical stream.
	FIFOReconfigs         int64   `json:"fifo_reconfigs"`
	FIFOReconfigSeconds   float64 `json:"fifo_reconfig_seconds"`
	PlacedReconfigs       int64   `json:"placed_reconfigs"`
	PlacedReconfigSeconds float64 `json:"placed_reconfig_seconds"`
	// ReconfigsAvoidedVsFIFO is the headline: the fraction of FIFO's
	// switches placement did not pay. The acceptance bar is >= 0.5.
	ReconfigsAvoidedVsFIFO float64 `json:"reconfigs_avoided_vs_fifo"`

	// AffinityHits/Misses are the placement pool's checkout counters;
	// DeviceReconfigsAvoided sums the per-device avoided counters.
	AffinityHits           int64   `json:"affinity_hits"`
	AffinityMisses         int64   `json:"affinity_misses"`
	AffinityHitRate        float64 `json:"affinity_hit_rate"`
	DeviceReconfigsAvoided int64   `json:"device_reconfigs_avoided"`

	// Rebalancer activity during the placed run (ticked every 8 requests).
	RebalancerTicks int64 `json:"rebalancer_ticks"`
	RebalancerLoads int64 `json:"rebalancer_loads"`

	// ReportsBitIdentical must be true: per request, both pools produced
	// the same analysis — feature vector, all four design Results (so the
	// argmin and the winner's cycles match), baseline statistics — and
	// served from the same model version. Placement changes which device
	// pays, never the analysis result; fields that describe the paying
	// device (device name, reconfigure verdict, switch seconds) are
	// exactly the ones allowed to differ.
	ReportsBitIdentical bool `json:"reports_bit_identical"`
}

// The bench regime: CGRA-mode switching priced at the microsecond end of
// the §6.1 context-switch range, with a permissive hysteresis threshold,
// so the engine actually switches designs at this stream's
// microsecond-predicted workload scale. The paper's FullBitstream
// default (3–4 s) never switches for single-shot small workloads, which
// would leave both pools at zero reconfigurations and nothing to
// compare. Both pools price with the same published snapshot, so the
// regime cannot break the bit-identity contract.
const (
	placementBenchThreshold   = 8.0
	placementBenchCGRASeconds = 1e-6
)

// placementCand is one candidate request: a prebuilt workload plus the
// selector's proposal for it.
type placementCand struct {
	wl       *sim.Workload
	proposed sim.DesignID
}

// canonicalBitstream maps a design to the lowest design sharing its
// bitstream, so designs 2 and 3 (shared, §5.2) fall into one group.
func canonicalBitstream(id sim.DesignID) sim.DesignID {
	for _, o := range sim.AllDesigns {
		if sim.SharedBitstream(o, id) {
			return o
		}
	}
	return id
}

// placementCandidates builds the candidate pool across four matrix
// families and returns the candidates grouped by proposal bitstream.
func placementCandidates(cfg Config, snap *registry.Snapshot) (map[sim.DesignID][]placementCand, int, error) {
	dim := cfg.MaxDim
	if dim < 128 {
		dim = 128
	}
	groups := make(map[sim.DesignID][]placementCand)
	total := 0
	for i := 0; i < 24; i++ {
		s := int64(7000 + i*17)
		n := dim/2 + (i*97)%(dim/2)
		var a, b *misam.Matrix
		switch i % 4 {
		case 0:
			a = misam.RandUniform(s, n, n, 0.02)
			b = misam.RandDense(s+1, n, 64)
		case 1:
			a = misam.RandPowerLaw(s, n, n, n*8, 1.8)
			b = misam.RandUniform(s+1, n, 96, 0.05)
		case 2:
			a = misam.RandBanded(s, n, n, 8, 0.8)
			b = misam.RandDense(s+1, n, 32)
		default:
			a = misam.RandUniform(s, n, n, 0.004)
			b = misam.RandUniform(s+1, n, n, 0.01)
		}
		wl, err := sim.NewWorkload(a, b)
		if err != nil {
			return nil, 0, fmt.Errorf("experiments: placement candidate %d: %w", i, err)
		}
		proposed := snap.Select(features.Extract(a, b))
		key := canonicalBitstream(proposed)
		groups[key] = append(groups[key], placementCand{wl: wl, proposed: proposed})
		total++
	}
	return groups, total, nil
}

// placementStream samples the skewed request stream: bitstream groups
// get power-law weights (8:4:2:1, most-populated group hottest), so the
// traffic concentrates on few bitstreams the way real serving mixes do.
func placementStream(groups map[sim.DesignID][]placementCand, rng *rand.Rand, n int) []placementCand {
	keys := make([]sim.DesignID, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	// Most-populated group first (ties on lower id) takes the heaviest
	// weight, so the hot bitstream has candidate variety behind it.
	sort.Slice(keys, func(i, j int) bool {
		if len(groups[keys[i]]) != len(groups[keys[j]]) {
			return len(groups[keys[i]]) > len(groups[keys[j]])
		}
		return keys[i] < keys[j]
	})
	weights := make([]float64, len(keys))
	w, sum := 8.0, 0.0
	for i := range keys {
		weights[i] = w
		sum += w
		w /= 2
	}
	stream := make([]placementCand, n)
	for i := range stream {
		r := rng.Float64() * sum
		k := keys[len(keys)-1]
		for j, key := range keys {
			if r < weights[j] {
				k = key
				break
			}
			r -= weights[j]
		}
		cands := groups[k]
		stream[i] = cands[rng.Intn(len(cands))]
	}
	return stream
}

// fleetReconfigs sums a fleet's paid switches and switch seconds.
func fleetReconfigs(fl *misam.Fleet) (int64, float64, int64) {
	var n, avoided int64
	var sec float64
	for _, d := range fl.Devices() {
		st := d.Stats()
		n += st.Reconfigs
		sec += st.ReconfigSeconds
		avoided += st.ReconfigsAvoided
	}
	return n, sec, avoided
}

// requestRecord is one served request's pool-comparable outcome: the
// device-independent analysis (features, all four Results, baselines)
// and the model version that served it. The served target and switch
// charge are deliberately absent — hysteresis makes them depend on the
// device's loaded bitstream, which is exactly what placement changes.
type requestRecord struct {
	analysis memo.Analysis
	version  uint64
}

// PlacementReport replays one skewed request stream through a FIFO
// checkout pool and a placement pool at equal device count, checks that
// every analysis-derived report field is bit-identical between the two,
// and writes (then re-reads and validates) the BENCH_PR7 record. The
// placed run also ticks the portfolio rebalancer every 8 requests, fed
// by the framework's live demand EWMA.
func PlacementReport(ctxE *Context, path string, w io.Writer) (PlacementReportData, error) {
	header(w, "Placement report: FIFO checkout pool vs bitstream-aware placement")
	const (
		devices  = 4
		requests = 96
	)
	rep := PlacementReportData{
		Schema:   "misam-placement/1",
		Devices:  devices,
		Requests: requests,
	}
	fw, err := ctxE.Framework()
	if err != nil {
		return rep, err
	}
	// Cache + trace capture: repeats of a distinct pair hit the analysis
	// cache, and every served proposal feeds the demand EWMA the
	// rebalancer reads.
	fw.WithCache(64 << 20)
	fw.WithTraceCapture(4096, 1)

	// Publish the bench regime: same classifier and predictor, CGRA-mode
	// switching at a permissive threshold (see placementBenchThreshold).
	cur := fw.Registry().Current()
	times := cur.Engine().Times.WithMode(reconfig.CGRA)
	times.CGRASeconds = placementBenchCGRASeconds
	cgra := reconfig.NewEngine(cur.Engine().Predictor, times, placementBenchThreshold)
	snap, err := registry.NewSnapshot(cur.Classifier(), cgra, registry.Info{
		Source: registry.SourceTrain,
		Note:   "CGRA pricing for the placement benchmark",
	})
	if err != nil {
		return rep, fmt.Errorf("experiments: placement snapshot: %w", err)
	}
	fw.Registry().Publish(snap)

	groups, distinct, err := placementCandidates(ctxE.Cfg, fw.Registry().Current())
	if err != nil {
		return rep, err
	}
	rep.DistinctPairs = distinct
	rep.BitstreamGroups = len(groups)
	if len(groups) < 2 {
		return rep, fmt.Errorf("experiments: placement stream proposals span %d bitstream group(s); need >= 2", len(groups))
	}
	stream := placementStream(groups, ctxE.RNG(7), requests)
	var mixCount [sim.NumDesigns]int
	for _, c := range stream {
		mixCount[c.proposed]++
	}
	rep.DesignMix = make([]float64, sim.NumDesigns)
	for i, n := range mixCount {
		rep.DesignMix[i] = float64(n) / float64(requests)
	}

	ctx := context.Background()
	// Both fleets start from the identical preloaded portfolio — one
	// design per device round-robin — so Reconfigs counts in-stream
	// switches, not the mandatory first programming of an empty fabric.
	preload := func(fl *misam.Fleet) {
		for j, d := range fl.Devices() {
			d.ForceLoad(sim.AllDesigns[j%len(sim.AllDesigns)])
		}
	}
	run := func(fl *misam.Fleet, placed bool, rb *placement.Rebalancer) ([]requestRecord, error) {
		recs := make([]requestRecord, len(stream))
		for i, c := range stream {
			req := &misam.Request{Workload: c.wl, Fleet: fl}
			if placed {
				req.Placement = &misam.PlacementConfig{}
			}
			r, err := fw.Serve(ctx, req)
			if err != nil {
				return nil, fmt.Errorf("experiments: placement request %d: %w", i, err)
			}
			an := req.Analysis()
			if an == nil {
				return nil, fmt.Errorf("experiments: placement request %d was served without an analysis", i)
			}
			recs[i] = requestRecord{analysis: *an, version: r.ModelVersion}
			if rb != nil && (i+1)%8 == 0 {
				rb.Tick()
			}
		}
		return recs, nil
	}

	// FIFO first: it fills the analysis cache and warms the demand EWMA
	// the placed run's rebalancer reads.
	fifoFleet := fw.NewFleet(devices)
	preload(fifoFleet)
	fifoRecs, err := run(fifoFleet, false, nil)
	if err != nil {
		return rep, err
	}
	rep.FIFOReconfigs, rep.FIFOReconfigSeconds, _ = fleetReconfigs(fifoFleet)

	placedFleet := fw.NewFleet(devices)
	preload(placedFleet)
	rb := placement.NewRebalancer(placedFleet, fw.Traces(), placement.RebalancerConfig{
		MinObservations: 16,
		UniformSlack:    0.05,
	})
	placedRecs, err := run(placedFleet, true, rb)
	if err != nil {
		return rep, err
	}
	rep.PlacedReconfigs, rep.PlacedReconfigSeconds, rep.DeviceReconfigsAvoided = fleetReconfigs(placedFleet)
	fst := placedFleet.Stats()
	rep.AffinityHits, rep.AffinityMisses = fst.AffinityHits, fst.AffinityMisses
	if fst.AffinityHits+fst.AffinityMisses > 0 {
		rep.AffinityHitRate = float64(fst.AffinityHits) / float64(fst.AffinityHits+fst.AffinityMisses)
	}
	rst := rb.Stats()
	rep.RebalancerTicks, rep.RebalancerLoads = rst.Ticks, rst.Loads

	if rep.FIFOReconfigs > 0 {
		rep.ReconfigsAvoidedVsFIFO = float64(rep.FIFOReconfigs-rep.PlacedReconfigs) / float64(rep.FIFOReconfigs)
	}
	rep.ReportsBitIdentical = true
	for i := range fifoRecs {
		if fifoRecs[i] != placedRecs[i] {
			rep.ReportsBitIdentical = false
			break
		}
	}

	fmt.Fprintf(w, "%-10s %10s %14s %13s %13s\n", "pool", "reconfigs", "reconfig sec", "affinity hit", "avoided")
	fmt.Fprintf(w, "%-10s %10d %14.6f %13s %13s\n", "fifo", rep.FIFOReconfigs, rep.FIFOReconfigSeconds, "-", "-")
	fmt.Fprintf(w, "%-10s %10d %14.6f %12.0f%% %12.0f%%\n", "placement",
		rep.PlacedReconfigs, rep.PlacedReconfigSeconds, 100*rep.AffinityHitRate, 100*rep.ReconfigsAvoidedVsFIFO)
	fmt.Fprintf(w, "stream: %d requests over %d pairs in %d bitstream groups, mix %v\n",
		rep.Requests, rep.DistinctPairs, rep.BitstreamGroups, rep.DesignMix)
	fmt.Fprintf(w, "rebalancer: %d ticks, %d preloads; reports bit-identical %v\n",
		rep.RebalancerTicks, rep.RebalancerLoads, rep.ReportsBitIdentical)

	if path != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return rep, err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return rep, fmt.Errorf("experiments: placement report: %w", err)
		}
		// Re-read and validate: the record is a CI artifact, so a half
		// written or contract-breaking file must fail the run that made it.
		back, err := os.ReadFile(path)
		if err != nil {
			return rep, err
		}
		var check PlacementReportData
		if err := json.Unmarshal(back, &check); err != nil {
			return rep, fmt.Errorf("experiments: placement report unreadable: %w", err)
		}
		if check.Schema != "misam-placement/1" {
			return rep, fmt.Errorf("experiments: placement report schema %q", check.Schema)
		}
		if !check.ReportsBitIdentical {
			return rep, fmt.Errorf("experiments: placement changed analysis results — reports are not bit-identical")
		}
		if check.FIFOReconfigs <= 0 {
			return rep, fmt.Errorf("experiments: FIFO pool paid no reconfigurations; the bench regime is vacuous")
		}
		if check.ReconfigsAvoidedVsFIFO < 0.5 {
			return rep, fmt.Errorf("experiments: placement avoided only %.0f%% of FIFO's reconfigurations (need >= 50%%)",
				100*check.ReconfigsAvoidedVsFIFO)
		}
		fmt.Fprintf(w, "wrote %s\n", path)
	}
	return rep, nil
}
