package serve

import (
	"bytes"
	"net/http"
	"strconv"
	"testing"
	"time"
)

func TestTenantLimiterBucketMechanics(t *testing.T) {
	l := newTenantLimiter(1, 2) // 1 token/s, burst 2
	now := time.Unix(1000, 0)

	for i := 0; i < 2; i++ {
		if _, ok := l.admit("acme", now); !ok {
			t.Fatalf("burst request %d rejected", i)
		}
	}
	retry, ok := l.admit("acme", now)
	if ok {
		t.Fatal("third instant request must exhaust the burst")
	}
	if retry < 1 || retry > 2 {
		t.Fatalf("Retry-After = %d, want ~1s (+jitter) for a 1 rps bucket", retry)
	}
	// A different tenant has its own bucket.
	if _, ok := l.admit("other", now); !ok {
		t.Fatal("an exhausted tenant must not starve others")
	}
	// Time refills: 1.5s later one token accrued.
	if _, ok := l.admit("acme", now.Add(1500*time.Millisecond)); !ok {
		t.Fatal("refill after 1.5s at 1 rps must admit")
	}
	if _, ok := l.admit("acme", now.Add(1500*time.Millisecond)); ok {
		t.Fatal("the refilled token was already spent")
	}
	// Refill clamps at the burst, not unbounded accrual.
	lateNow := now.Add(time.Hour)
	for i := 0; i < 2; i++ {
		if _, ok := l.admit("acme", lateNow); !ok {
			t.Fatalf("post-idle request %d rejected", i)
		}
	}
	if _, ok := l.admit("acme", lateNow); ok {
		t.Fatal("an hour idle must refill to burst, not beyond")
	}
}

// TestTenantLimiterPrunesRefilledBuckets pins the memory bound: buckets of
// tenants that rotated away are dropped once they have refilled to burst,
// so distinct X-Tenant values cannot grow the map forever.
func TestTenantLimiterPrunesRefilledBuckets(t *testing.T) {
	const rate, burst = 2.0, 4
	l := newTenantLimiter(rate, burst)
	t0 := time.Unix(1000, 0)
	for i := 0; i < burst; i++ {
		l.admit("hog", t0)
	}
	for i := 0; i < 10000; i++ {
		if _, ok := l.admit("tenant-"+strconv.Itoa(i), t0); !ok {
			t.Fatalf("first request of tenant %d rejected", i)
		}
	}
	if len(l.buckets) != 10001 {
		t.Fatalf("buckets = %d after 10001 tenants at t0, want 10001 (none has refilled yet)", len(l.buckets))
	}
	// The sweeps the flood triggered kept the exhausted bucket.
	if _, ok := l.admit("hog", t0); ok {
		t.Fatal("a sweep reset an exhausted tenant's bucket")
	}
	refilled := t0.Add(time.Duration(burst/rate*float64(time.Second)) + time.Second)
	if _, ok := l.admit("late", refilled); !ok {
		t.Fatal("late tenant rejected")
	}
	if n := len(l.buckets); n > 2 {
		t.Fatalf("buckets = %d after every t0 tenant refilled, want ≤ 2", n)
	}
	// A pruned tenant comes back to a full burst, exactly as if its bucket
	// had been kept.
	for i := 0; i < burst; i++ {
		if _, ok := l.admit("tenant-0", refilled); !ok {
			t.Fatalf("returning tenant request %d rejected", i)
		}
	}
	if _, ok := l.admit("tenant-0", refilled); ok {
		t.Fatal("returning tenant got more than its burst")
	}
}

// TestTenantLimiterPruneKeepsUpWithFlood covers the doubling trigger: with
// a refill period far longer than the flood, one-shot tenants refill
// after 1/rate seconds and the map-doubling sweeps drop them long before
// the period-based sweep would.
func TestTenantLimiterPruneKeepsUpWithFlood(t *testing.T) {
	l := newTenantLimiter(1, 1000) // refill period 1000s
	t0 := time.Unix(1000, 0)
	for i := 0; i < 10000; i++ {
		l.admit("tenant-"+strconv.Itoa(i), t0.Add(time.Duration(i)*10*time.Millisecond))
	}
	// About 100 tenants arrived in the last second; the rest are full.
	if n := len(l.buckets); n > 1000 {
		t.Fatalf("buckets = %d after a 100 s flood of one-shot tenants, want ≤ 1000", n)
	}
}

func TestTenantQuota429WithRetryAfter(t *testing.T) {
	_, ts, reg := newTestServer(t, Config{Workers: 1, TenantHeader: "X-Tenant", TenantRate: 0.5, TenantBurst: 2})
	body := pathGraphBytes(t, 20)

	post := func(tenant string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/diameter", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if tenant != "" {
			req.Header.Set("X-Tenant", tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	for i := 0; i < 2; i++ {
		if resp := post("acme"); resp.StatusCode != http.StatusOK {
			t.Fatalf("burst request %d: status %d", i, resp.StatusCode)
		}
	}
	resp := post("acme")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer of seconds", resp.Header.Get("Retry-After"))
	}
	if reg.Counter("fdiamd_tenant_rejected_total", "").Value() != 1 {
		t.Error("tenant rejection not counted")
	}
	// Another tenant — and the anonymous bucket — are unaffected.
	if resp := post("globex"); resp.StatusCode != http.StatusOK {
		t.Errorf("other tenant rejected: %d", resp.StatusCode)
	}
	if resp := post(""); resp.StatusCode != http.StatusOK {
		t.Errorf("anonymous bucket rejected: %d", resp.StatusCode)
	}
}

func TestTenantQuotaExemptsForwardedRequests(t *testing.T) {
	_, ts, reg := newTestServer(t, Config{Workers: 1, TenantHeader: "X-Tenant", TenantRate: 0.001, TenantBurst: 1})
	body := pathGraphBytes(t, 20)

	// Drain the tenant's only token.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/diameter", bytes.NewReader(body))
	req.Header.Set("X-Tenant", "acme")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// A peer-forwarded request from the same tenant passes for free.
	req2, _ := http.NewRequest(http.MethodPost, ts.URL+"/diameter", bytes.NewReader(body))
	req2.Header.Set("X-Tenant", "acme")
	req2.Header.Set(forwardedHeader, "1")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("forwarded request status %d, want 200 (quota charged at the entry node)", resp2.StatusCode)
	}
	if reg.Counter("fdiamd_tenant_rejected_total", "").Value() != 0 {
		t.Error("forwarded request was charged quota")
	}
}

func TestRetryAfterSecondsScalesWithQueue(t *testing.T) {
	s, _, _ := newTestServer(t, Config{Workers: 1, MaxConcurrent: 2, MaxQueue: 20})
	// Idle server: the hint is ~1s (1 plus up to 50% jitter, so 1).
	if got := s.retryAfterSeconds(); got < 1 || got > 2 {
		t.Errorf("idle retryAfterSeconds = %d, want 1..2", got)
	}
	// 10 queued beyond the 2 running: 1 + 10/2 = 6 base, jittered up to 9.
	s.admitted.Add(12)
	defer s.admitted.Add(-12)
	for i := 0; i < 20; i++ {
		if got := s.retryAfterSeconds(); got < 6 || got > 9 {
			t.Fatalf("queued retryAfterSeconds = %d, want 6..9", got)
		}
	}
}
