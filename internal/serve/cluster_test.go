package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"fdiam/internal/cluster"
	"fdiam/internal/fault"
	"fdiam/internal/obs"
)

// testCluster is an in-process 3-node (or n-node) fdiamd ring over real TCP
// listeners. Construction pre-binds every listener first so each node's
// cluster.Config can name the full membership before any server exists.
type testCluster struct {
	urls    []string
	servers []*Server
	ts      []*httptest.Server
	regs    []*obs.Registry
}

func newTestCluster(t *testing.T, n int, mutate func(i int, cfg *Config)) *testCluster {
	t.Helper()
	tc := &testCluster{}
	listeners := make([]net.Listener, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		tc.urls = append(tc.urls, "http://"+ln.Addr().String())
	}
	for i := range listeners {
		reg := obs.NewRegistry()
		cl, err := cluster.New(cluster.Config{
			Self:          tc.urls[i],
			Peers:         tc.urls,
			Attempts:      2,
			FailThreshold: 2,
			CoolDown:      200 * time.Millisecond,
			Registry:      reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Workers: 1, Cluster: cl, Registry: reg}
		if mutate != nil {
			mutate(i, &cfg)
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewUnstartedServer(s)
		_ = ts.Listener.Close()
		ts.Listener = listeners[i]
		ts.Start()
		t.Cleanup(ts.Close)
		tc.servers = append(tc.servers, s)
		tc.ts = append(tc.ts, ts)
		tc.regs = append(tc.regs, reg)
	}
	return tc
}

// ownerOf returns the node index owning body's content key, plus the key.
func (tc *testCluster) ownerOf(body []byte) (int, string) {
	sum := sha256.Sum256(body)
	key := hex.EncodeToString(sum[:])
	owner := tc.servers[0].cluster.Owner(key)
	for i, u := range tc.urls {
		if u == owner {
			return i, key
		}
	}
	return -1, key
}

// entryOtherThan returns any node index that is not owner.
func (tc *testCluster) entryOtherThan(owner int) int {
	for i := range tc.urls {
		if i != owner {
			return i
		}
	}
	return -1
}

func postTo(t *testing.T, url string, query string, body []byte) (*http.Response, response) {
	t.Helper()
	resp, err := http.Post(url+"/diameter"+query, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out response
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	return resp, out
}

func TestClusterForwardsToOwner(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	body := pathGraphBytes(t, 120)
	owner, _ := tc.ownerOf(body)
	entry := tc.entryOtherThan(owner)

	resp, out := postTo(t, tc.urls[entry], "", body)
	if resp.StatusCode != http.StatusOK || out.Diameter != 119 {
		t.Fatalf("status %d, diameter %d; want 200 and 119", resp.StatusCode, out.Diameter)
	}
	if got := resp.Header.Get(ownerHeader); got != tc.urls[owner] {
		t.Errorf("%s header = %q, want owner %q", ownerHeader, got, tc.urls[owner])
	}
	if fwd := tc.regs[entry].Counter("fdiamd_peer_forwards_total", "").Value(); fwd != 1 {
		t.Errorf("entry forwards = %d, want 1", fwd)
	}
	// The solve ran (and cached) on the owner, not the entry node.
	if n := tc.regs[owner].Counter("fdiamd_graph_cache_misses_total", "").Value(); n != 1 {
		t.Errorf("owner solves = %d, want 1", n)
	}
	if n := tc.regs[entry].Counter("fdiamd_graph_cache_misses_total", "").Value(); n != 0 {
		t.Errorf("entry solved locally %d times, want 0", n)
	}

	// A repeat through a different non-owner hits the owner's result cache.
	resp2, out2 := postTo(t, tc.urls[tc.entryOtherThan(owner)], "", body)
	if resp2.StatusCode != http.StatusOK || !out2.ResultCacheHit {
		t.Errorf("repeat via non-owner: status %d, result_cache_hit=%v; want the owner's cached answer", resp2.StatusCode, out2.ResultCacheHit)
	}

	// The owner serves its own graphs without forwarding.
	if resp3, out3 := postTo(t, tc.urls[owner], "", body); resp3.StatusCode != http.StatusOK ||
		!out3.ResultCacheHit || resp3.Header.Get(ownerHeader) != "" {
		t.Errorf("owner request: status %d hit=%v owner-header=%q; want direct cached answer",
			resp3.StatusCode, out3.ResultCacheHit, resp3.Header.Get(ownerHeader))
	}
}

func TestClusterDeadOwnerFallsBackToLocalSolve(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	body := pathGraphBytes(t, 80)
	owner, _ := tc.ownerOf(body)
	entry := tc.entryOtherThan(owner)

	tc.ts[owner].Close() // the owner process dies

	resp, out := postTo(t, tc.urls[entry], "", body)
	if resp.StatusCode != http.StatusOK || out.Diameter != 79 {
		t.Fatalf("status %d, diameter %d; a dead owner must degrade to a local solve, not an error", resp.StatusCode, out.Diameter)
	}
	if resp.Header.Get(ownerHeader) != "" {
		t.Error("fallback response must not claim the owner answered")
	}
	if fb := tc.regs[entry].Counter("fdiamd_peer_fallback_total", "").Value(); fb != 1 {
		t.Errorf("fdiamd_peer_fallback_total = %d, want 1", fb)
	}
	// The entry node solved and cached locally; a repeat answers from its
	// own cache without re-dialing the corpse.
	if _, out2 := postTo(t, tc.urls[entry], "", body); !out2.ResultCacheHit {
		t.Error("repeat after fallback should hit the local result cache")
	}
	// POST /jobs consults the same local result cache before routing: the
	// cached answer completes the job at once, without dialing the corpse.
	jresp, job := postJob(t, tc.urls[entry], "", body)
	if jresp.StatusCode != http.StatusOK || job.State != jobDone {
		t.Fatalf("job after fallback: status %d state %q, want 200 done", jresp.StatusCode, job.State)
	}
	if fb := tc.regs[entry].Counter("fdiamd_peer_fallback_total", "").Value(); fb != 1 {
		t.Errorf("fdiamd_peer_fallback_total = %d after the job, want 1: the cached job re-dialed the dead owner", fb)
	}
}

func TestClusterFaultKilledOwnerFallsBack(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	body := pathGraphBytes(t, 60)
	owner, _ := tc.ownerOf(body)
	entry := tc.entryOtherThan(owner)

	// The owner is up but every forwarded response is degraded to a 502 by
	// the injected fault (times=2 covers the entry node's full retry
	// budget).
	if err := fault.Configure("cluster.forward_5xx:times=2"); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()

	resp, out := postTo(t, tc.urls[entry], "", body)
	if resp.StatusCode != http.StatusOK || out.Diameter != 59 {
		t.Fatalf("status %d diameter %d; want the local fallback answer", resp.StatusCode, out.Diameter)
	}
	if fb := tc.regs[entry].Counter("fdiamd_peer_fallback_total", "").Value(); fb != 1 {
		t.Errorf("fdiamd_peer_fallback_total = %d, want 1", fb)
	}
}

func TestClusterForwardedRequestIsNotReforwarded(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	body := pathGraphBytes(t, 40)
	owner, _ := tc.ownerOf(body)
	wrong := tc.entryOtherThan(owner)

	// A request already marked as forwarded must be served where it lands —
	// even on a non-owner — or two disagreeing nodes could bounce a request
	// forever.
	req, err := http.NewRequest(http.MethodPost, tc.urls[wrong]+"/diameter", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(forwardedHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if fwd := tc.regs[wrong].Counter("fdiamd_peer_forwards_total", "").Value(); fwd != 0 {
		t.Errorf("forwarded request was re-forwarded %d times", fwd)
	}
	if n := tc.regs[wrong].Counter("fdiamd_graph_cache_misses_total", "").Value(); n != 1 {
		t.Errorf("forwarded request must solve locally, solves = %d", n)
	}
}

func TestClusterStatusEndpoint(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	body := pathGraphBytes(t, 30)
	ownerIdx, key := tc.ownerOf(body)

	resp, err := http.Get(tc.urls[0] + "/cluster?key=" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Self  string               `json:"self"`
		Peers []cluster.PeerStatus `json:"peers"`
		Owner string               `json:"owner"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Self != tc.urls[0] || len(out.Peers) != 3 || out.Owner != tc.urls[ownerIdx] {
		t.Fatalf("GET /cluster = %+v; want self=%s, 3 peers, owner=%s", out, tc.urls[0], tc.urls[ownerIdx])
	}

	// Standalone servers 404 the endpoint.
	_, ts, _ := newTestServer(t, Config{Workers: 1})
	r2, err := http.Get(ts.URL + "/cluster")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Errorf("standalone GET /cluster = %d, want 404", r2.StatusCode)
	}
}

// TestClusterForwardUnderDrain races forwards against a draining entry
// node; run with -race this pins down the forward path's shutdown safety.
func TestClusterForwardUnderDrain(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	body := pathGraphBytes(t, 200)
	owner, _ := tc.ownerOf(body)
	entry := tc.entryOtherThan(owner)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(tc.urls[entry]+"/diameter", "application/octet-stream", bytes.NewReader(body))
			if err == nil {
				_ = resp.Body.Close()
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := tc.servers[entry].Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
}
