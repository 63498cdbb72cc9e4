package serve

import (
	"encoding/json"
	"io"
	"net/http"

	"fdiam/internal/cluster"
	"fdiam/internal/obs"
)

// Cluster request plumbing: a node that does not own a graph forwards the
// whole request to the owner and relays the answer; every failure edge on
// that path degrades to a local solve — counted, logged, never surfaced to
// the client as an error. DESIGN.md §15 has the full failure matrix.
const (
	// forwardedHeader marks a peer-to-peer hop. A forwarded request is
	// always served locally, which terminates routing even if two nodes
	// momentarily disagree about ownership, and is exempt from tenant
	// quotas (the entry node already charged the tenant).
	forwardedHeader = "X-Fdiamd-Forwarded"

	// ownerHeader tells the client which node actually answered a
	// forwarded request — the observable trace of the ring.
	ownerHeader = "X-Fdiamd-Owner"
)

// forwarded reports whether r arrived from a peer rather than a client.
func forwarded(r *http.Request) bool {
	return r.Header.Get(forwardedHeader) != ""
}

// forward is the pipeline's stage 3: in cluster mode, a request for a key
// another peer owns is relayed — with its original query, so timeouts and
// anytime parameters survive the hop — to that owner. It reports whether a
// response was written; false means serve locally: standalone, self-owned,
// already forwarded once, or the owner unreachable after retries (counted
// as a fallback). The request ID and tenant header propagate so the
// owner's logs join the entry node's and quotas are charged exactly once.
func (s *Server) forward(w http.ResponseWriter, r *http.Request, key string, body []byte) bool {
	if s.cluster == nil || forwarded(r) {
		return false
	}
	owner := s.cluster.Owner(key)
	if owner == s.cluster.Self() {
		return false
	}
	lg := obs.LoggerFrom(r.Context())
	hdr := make(http.Header)
	hdr.Set(forwardedHeader, "1")
	hdr.Set("Content-Type", "application/octet-stream")
	if id := obs.RequestIDFrom(r.Context()); id != "" {
		hdr.Set(requestIDHeader, id)
	}
	if s.cfg.TenantHeader != "" {
		if v := r.Header.Get(s.cfg.TenantHeader); v != "" {
			hdr.Set(s.cfg.TenantHeader, v)
		}
	}
	pathQuery := r.URL.Path
	if r.URL.RawQuery != "" {
		pathQuery += "?" + r.URL.RawQuery
	}
	resp, err := s.cluster.Forward(r.Context(), owner, r.Method, pathQuery, hdr, body)
	if err != nil {
		s.mPeerFallback.Inc()
		lg.Warn("peer_fallback", obs.KeyPeer, owner, obs.KeyPath, r.URL.Path, obs.KeyError, err.Error())
		return false
	}
	defer resp.Body.Close()
	s.mPeerForwards.Inc()
	lg.Debug("peer_forward", obs.KeyPeer, owner, obs.KeyPath, r.URL.Path, obs.KeyStatus, resp.StatusCode)
	w.Header().Set(ownerHeader, owner)
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
	return true
}

// handleClusterStatus serves GET /cluster: the ring membership with live
// health, and — with ?key=<sha256> — which peer owns that key. The owner
// lookup is what lets operators (and the CI smoke) locate a graph's home
// node from the content hash alone.
func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	if s.cluster == nil {
		http.Error(w, "cluster mode disabled (no -peers configured)", http.StatusNotFound)
		return
	}
	out := struct {
		Self  string               `json:"self"`
		Peers []cluster.PeerStatus `json:"peers"`
		Owner string               `json:"owner,omitempty"`
	}{Self: s.cluster.Self(), Peers: s.cluster.Status()}
	if key := r.URL.Query().Get("key"); key != "" {
		out.Owner = s.cluster.Owner(key)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}
