package server

// Cluster serving. With Config.Cluster populated the server joins a
// fingerprint-sharded cluster: each analyze item's content key
// (misam.Framework.RequestKey — the exact key the memo cache shards
// on) is hashed onto a consistent-hash ring, and an item owned by a
// peer is proxied there byte for byte, so every repetition of an
// operand pair lands on one node's warm cache no matter which member
// the client hit. Forwarding degrades gracefully: when the owner is
// unreachable after the retry budget the request is served locally
// (correct, just without the owner's cache) and the fallback counter
// records it. Model promotions and rollbacks replicate through
// POST /v1/models/sync (see internal/cluster.Replicator).

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"misam/internal/cluster"
)

// startCluster wires the ring, peer table and replicator during
// construction. Called only when cfg.Cluster.Self is set.
func (s *Server) startCluster() error {
	cl, err := cluster.New(s.cfg.Cluster)
	if err != nil {
		return err
	}
	s.cluster = cl
	s.replicator = cluster.NewReplicator(cl,
		s.fw.SnapshotModelBytes,
		s.fw.PublishSyncedModels,
		func() uint64 { return s.fw.Registry().Current().Version() },
	)
	ctx, cancel := context.WithCancel(context.Background())
	s.syncCancel = cancel
	go s.replicator.Run(ctx)
	return nil
}

// nodeID is this node's member ID, or "" outside a cluster.
func (s *Server) nodeID() string {
	if s.cluster == nil {
		return ""
	}
	return s.cluster.Self()
}

// syncAfterModelChange pushes the current snapshot to every peer right
// after an operator action (retrain promotion, rollback), so the
// cluster converges without waiting out the sync interval.
func (s *Server) syncAfterModelChange() {
	if s.replicator == nil {
		return
	}
	go s.replicator.SyncNow(context.Background())
}

// forwardedIn reports whether r already crossed a forwarding hop (and
// counts it). Such requests are always served locally.
func (s *Server) forwardedIn(r *http.Request) bool {
	if s.cluster == nil || r.Header.Get(cluster.ForwardedHeader) == "" {
		return false
	}
	s.cluster.NoteForwardedIn()
	return true
}

// route is the routing stage in front of Serve: when a peer owns the
// item's content key (misam.Framework.RequestKey, memoized on the
// request, so serving it here later costs no second fingerprint), the
// item's raw bytes are proxied through the peer's single-analyze
// endpoint and ok reports the peer's answer. A forward that exhausts its
// retries, or whose answer accept rejects, counts a fallback and the
// caller serves the item locally. Items without raw bytes — outside a
// cluster, or already forwarded once — are never routed.
func (s *Server) route(ctx context.Context, ctype string, it item, accept func(status int, body []byte) bool) (status int, ct string, body []byte, ok bool) {
	if it.raw == nil {
		return 0, "", nil, false
	}
	owner, self := s.cluster.Owner(s.fw.RequestKey(it.req))
	if self {
		s.cluster.NoteServedLocal()
		return 0, "", nil, false
	}
	status, ct, body, err := s.cluster.Forward(ctx, owner, "/v1/analyze", ctype, it.raw)
	if err != nil || !accept(status, body) {
		s.cluster.NoteFallback(owner)
		return 0, "", nil, false
	}
	return status, ct, body, true
}

// replicationInfo is the replication corner of the /v1/cluster report.
type replicationInfo struct {
	// Seq and Origin are the Lamport stamp of the model content this node
	// serves; Applies counts sync pushes applied.
	Seq     uint64 `json:"seq"`
	Origin  string `json:"origin"`
	Applies int64  `json:"applies"`
	// CurrentVersion is this node's local registry version (per-node —
	// replicated content mints fresh local versions).
	CurrentVersion uint64 `json:"current_version"`
}

// clusterResponse is the GET /v1/cluster body.
type clusterResponse struct {
	Enabled bool `json:"enabled"`
	// SyncIntervalMs is the replication push cadence.
	SyncIntervalMs float64          `json:"sync_interval_ms,omitempty"`
	Stats          *cluster.Stats   `json:"stats,omitempty"`
	Replication    *replicationInfo `json:"replication,omitempty"`
}

func (s *Server) handleCluster(w http.ResponseWriter, _ *http.Request) {
	if s.cluster == nil {
		writeJSON(w, http.StatusOK, clusterResponse{Enabled: false})
		return
	}
	st := s.cluster.Stats()
	seq, origin, applies := s.replicator.Stamp()
	writeJSON(w, http.StatusOK, clusterResponse{
		Enabled:        true,
		SyncIntervalMs: s.cluster.SyncInterval().Seconds() * 1e3,
		Stats:          &st,
		Replication: &replicationInfo{
			Seq:            seq,
			Origin:         origin,
			Applies:        applies,
			CurrentVersion: s.fw.Registry().Current().Version(),
		},
	})
}

// syncResponse is the POST /v1/models/sync verdict.
type syncResponse struct {
	// Applied reports whether the push carried newer content; Current is
	// the receiver's registry version after the call.
	Applied bool   `json:"applied"`
	Current uint64 `json:"current"`
}

func (s *Server) handleModelSync(w http.ResponseWriter, r *http.Request) {
	if s.replicator == nil {
		writeErr(w, http.StatusConflict, fmt.Errorf("this node is not part of a cluster"))
		return
	}
	var p cluster.SyncPayload
	if herr := s.decodeBody(w, r, &p); herr != nil {
		writeErr(w, herr.status, herr.err)
		return
	}
	applied, err := s.replicator.HandleSync(p)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("applying synced models: %w", err))
		return
	}
	writeJSON(w, http.StatusOK, syncResponse{
		Applied: applied,
		Current: s.fw.Registry().Current().Version(),
	})
}

// clusterNodeStats is one member's slice of the fleet-wide stats
// report: its local statsResponse, or the error that kept it out.
type clusterNodeStats struct {
	Node  string          `json:"node"`
	Stats json.RawMessage `json:"stats,omitempty"`
	Error string          `json:"error,omitempty"`
}

// clusterStatsResponse is /v1/stats?scope=cluster: every member's local
// stats, gathered by fan-out from the node the client hit.
type clusterStatsResponse struct {
	Scope string             `json:"scope"`
	Nodes []clusterNodeStats `json:"nodes"`
}

// handleClusterStats fans /v1/stats out to every peer and aggregates.
// Peer requests carry the forwarded header so each peer answers with
// its local view (no fan-out recursion).
func (s *Server) handleClusterStats(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	local, err := json.Marshal(s.localStats())
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	out := clusterStatsResponse{
		Scope: "cluster",
		Nodes: []clusterNodeStats{{Node: s.cluster.Self(), Stats: local}},
	}
	type peerResult struct {
		idx int
		row clusterNodeStats
	}
	ids := s.cluster.PeerIDs()
	results := make(chan peerResult, len(ids))
	for i, id := range ids {
		go func(i int, id string) {
			row := clusterNodeStats{Node: id}
			status, body, err := s.cluster.Get(ctx, id, "/v1/stats")
			switch {
			case err != nil:
				row.Error = err.Error()
			case status != http.StatusOK:
				row.Error = fmt.Sprintf("peer returned status %d", status)
			default:
				row.Stats = json.RawMessage(body)
			}
			results <- peerResult{i, row}
		}(i, id)
	}
	rows := make([]clusterNodeStats, len(ids))
	for range ids {
		pr := <-results
		rows[pr.idx] = pr.row
	}
	out.Nodes = append(out.Nodes, rows...)
	writeJSON(w, http.StatusOK, out)
}
