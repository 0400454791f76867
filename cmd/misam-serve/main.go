// Command misam-serve runs the selection service: a host daemon fronting
// a fleet of (simulated) FPGAs that accepts workloads over HTTP and
// answers with the selected design, the reconfiguration verdict, and
// latency/energy estimates. Requests are admitted per device — one
// in-flight analysis per accelerator, devices serving concurrently.
//
// With -online the daemon also runs the continuous-learning loop:
// served analyses are sampled into a bounded trace buffer, drift against
// the training distribution is watched, and POST /v1/models/retrain (or
// the -retrain-interval background loop) trains a candidate on the
// traces, shadow-evaluates it against the live model, and promotes it
// into the versioned registry only when it wins.
//
// With -fastpath, requests whose selector leaf clears -confidence are
// answered from the model alone, and one in -verify-sample of them is
// re-simulated exactly in the background to audit the model. The analyze
// endpoints always accept both JSON and binary (application/x-misam-csr)
// operand bodies.
//
//	misam-serve -model misam.model -addr :8080 -devices 4 -timeout 30s \
//	            -online -trace-sample 4 -retrain-interval 5m
//	curl -s localhost:8080/v1/designs | jq
//	curl -s localhost:8080/v1/fleet | jq
//	curl -s localhost:8080/v1/stats | jq
//	curl -s localhost:8080/v1/models | jq
//	curl -s -X POST localhost:8080/v1/models/retrain | jq
//	curl -s -X POST localhost:8080/v1/models/rollback | jq
//	curl -s -X POST localhost:8080/v1/analyze \
//	     -d '{"a_spec":"powerlaw:20000:80000","b_spec":"dense:64"}' | jq
//	curl -s -X POST localhost:8080/v1/analyze/batch \
//	     -d '{"items":[{"a_spec":"powerlaw:20000:80000","b_spec":"dense:64"},
//	                   {"a_spec":"uniform:3000:3000:0.002","b_spec":"self"}]}' | jq
//	misam-bench -dump-binary 'powerlaw:20000:80000,dense:64' |
//	    curl -s -X POST localhost:8080/v1/analyze \
//	         -H 'Content-Type: application/x-misam-csr' --data-binary @- | jq
//
// With -node-id and -peers the daemon joins a fingerprint-sharded
// cluster: requests route to the member owning their operand pair's
// content key, model promotions/rollbacks replicate to peers, and
// GET /v1/cluster (plus /v1/stats?scope=cluster) expose the ring and
// per-peer counters:
//
//	misam-serve -addr :8080 -node-id http://127.0.0.1:8080 -peers http://127.0.0.1:8081
//	misam-serve -addr :8081 -node-id http://127.0.0.1:8081 -peers http://127.0.0.1:8080
//	curl -s localhost:8080/v1/cluster | jq
//
// SIGINT/SIGTERM drain the server gracefully: in-flight requests get
// -drain to finish before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"misam"
	"misam/internal/cluster"
	"misam/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("misam-serve: ")

	addr := flag.String("addr", ":8080", "listen address")
	model := flag.String("model", "", "trained model file (trains a default model if empty)")
	devices := flag.Int("devices", 1, "accelerators in the fleet")
	timeout := flag.Duration("timeout", 0, "per-request deadline including device admission (0 = none)")
	maxBody := flag.Int64("max-body", 0, "request body cap in bytes (0 = default 8 MiB)")
	cacheBytes := flag.Int64("cache-bytes", 256<<20, "analysis cache budget in bytes (0 disables caching)")
	tileCacheBytes := flag.Int64("tile-cache-bytes", 64<<20, "shared tile-schedule cache budget in bytes (0 = per-workload private caches only)")
	onlineMode := flag.Bool("online", false, "enable trace capture, drift detection and registry-backed retraining")
	traceSample := flag.Int("trace-sample", 1, "record one in N served analyses into the trace buffer")
	traceCap := flag.Int("trace-capacity", 4096, "bounded trace buffer size")
	retrainEvery := flag.Duration("retrain-interval", 0, "background drift-check cadence (0 = retrain on demand only)")
	drain := flag.Duration("drain", 15*time.Second, "graceful-shutdown deadline for in-flight requests")
	fastPath := flag.Bool("fastpath", false, "serve high-confidence requests from the model without simulation")
	confidence := flag.Float64("confidence", 0.9, "fast-path gate: minimum selector leaf confidence (>= 1 disables the fast tier)")
	verifySample := flag.Int("verify-sample", 8, "re-simulate one in N fast-path hits in the background (<= 0 disables)")
	placementOn := flag.Bool("placement", false, "bitstream-aware device selection: route each request to the idle device where serving it is predicted cheapest")
	queueWeight := flag.Float64("queue-weight", 0, "placement cost model queue-pressure weight (<= 0 = package default)")
	rebalanceEvery := flag.Duration("rebalance-interval", 0, "background portfolio rebalancer cadence (0 = off; needs -placement)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (own mux; off when empty)")
	nodeID := flag.String("node-id", "", "this node's advertised base URL in a cluster (e.g. http://10.0.0.1:8080; empty = no cluster)")
	peers := flag.String("peers", "", "comma-separated peer base URLs (requires -node-id)")
	syncEvery := flag.Duration("cluster-sync-interval", 2*time.Second, "registry replication push cadence")
	forwardRetries := flag.Int("forward-retries", 1, "extra forward attempts before a peer-owned request is served locally")
	flag.Parse()

	// Cluster flags fail fast: a malformed, duplicate or self-referential
	// -peers entry kills the process here — before the listener binds —
	// with the cluster package's named error, not at the first forward.
	var clusterCfg cluster.Config
	if *nodeID != "" || *peers != "" {
		if *nodeID == "" {
			log.Fatal("-peers needs -node-id (this node's own advertised URL)")
		}
		var peerList []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
		self, normalized, err := cluster.ValidateConfig(*nodeID, peerList)
		if err != nil {
			log.Fatal(err)
		}
		clusterCfg = cluster.Config{
			Self:           self,
			Peers:          normalized,
			SyncInterval:   *syncEvery,
			ForwardRetries: *forwardRetries,
		}
	}

	var fw *misam.Framework
	var err error
	if *model != "" {
		f, err := os.Open(*model)
		if err != nil {
			log.Fatal(err)
		}
		fw, err = misam.Load(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	} else {
		fmt.Println("no -model given; training a default model...")
		fw, err = misam.Train(misam.DefaultTrainOptions())
		if err != nil {
			log.Fatal(err)
		}
	}

	srv, err := server.NewClustered(fw, server.Config{
		Devices:           *devices,
		RequestTimeout:    *timeout,
		MaxBodyBytes:      *maxBody,
		CacheBytes:        *cacheBytes,
		TileCacheBytes:    *tileCacheBytes,
		Online:            *onlineMode,
		TraceSample:       *traceSample,
		TraceCapacity:     *traceCap,
		RetrainInterval:   *retrainEvery,
		FastPath:          *fastPath,
		Confidence:        *confidence,
		VerifySample:      *verifySample,
		Placement:         *placementOn,
		QueueWeight:       *queueWeight,
		RebalanceInterval: *rebalanceEvery,
		Cluster:           clusterCfg,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	if *pprofAddr != "" {
		// The profiling listener gets its own mux so the pprof handlers
		// (which net/http/pprof registers on http.DefaultServeMux) are
		// never reachable through the public API address.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			host := *pprofAddr
			if host[0] == ':' {
				host = "localhost" + host
			}
			fmt.Printf("pprof on %s (e.g. go tool pprof http://%s/debug/pprof/profile?seconds=15)\n",
				*pprofAddr, host)
			if err := http.ListenAndServe(*pprofAddr, pmux); err != nil {
				log.Printf("pprof listener: %v", err)
			}
		}()
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	mode := ""
	if *onlineMode {
		mode = ", online adaptation on"
	}
	if *fastPath {
		mode += fmt.Sprintf(", fast path at %.2f confidence", *confidence)
	}
	if *placementOn {
		mode += ", placement on"
		if *rebalanceEvery > 0 {
			mode += fmt.Sprintf(", rebalancing every %s", *rebalanceEvery)
		}
	}
	if clusterCfg.Self != "" {
		mode += fmt.Sprintf(", cluster node %s with %d peer(s), syncing every %s",
			clusterCfg.Self, len(clusterCfg.Peers), *syncEvery)
	}
	fmt.Printf("serving %d device(s) on %s%s (GET /healthz /v1/designs /v1/fleet /v1/stats /v1/models /v1/cluster, POST /v1/analyze /v1/analyze/batch /v1/models/retrain /v1/models/rollback /v1/models/sync)\n",
		*devices, *addr, mode)

	// Graceful shutdown: trap SIGINT/SIGTERM and drain in-flight requests
	// through http.Server.Shutdown instead of dying mid-request.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	case <-ctx.Done():
		stop()
		fmt.Printf("signal received; draining for up to %s...\n", *drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("drain deadline exceeded: %v", err)
		}
		if st, ok := fw.TileCacheStats(); ok {
			fmt.Printf("slow tier: tile cache %d hits / %d misses (%.1f%% hit rate), %d evictions, %d bound aborts, %d coarse skips\n",
				st.Hits, st.Misses, 100*st.HitRate, st.Evictions, st.BoundAborts, st.CoarseSkips)
		}
		fmt.Println("shut down cleanly")
	}
}
