package serve

import (
	"net/url"
	"testing"
)

// FuzzParseAnytime feeds arbitrary ?epsilon=, ?mode= and ?sweeps= strings
// to the anytime query parser, two requests per input. For each: parsing
// never panics; an accepted request has 0 ≤ epsilon ≤ maxEpsilon, approx
// set exactly when mode is "approx", sweeps in [1, maxApproxSweeps] for
// approx and 0 otherwise, a cache key distinct from the bare content key,
// and solverEpsilon() == -1 whenever no anytime tier is enabled. When both
// are accepted, their cache keys are equal exactly when their
// (approx, sweeps, epsilon) are.
func FuzzParseAnytime(f *testing.F) {
	f.Add("", "", "", "0", "exact", "")
	f.Add("5", "approx", "3", "5", "approx", "03")
	f.Add("+7", "", "", "7", "exact", "9")
	f.Add("1073741824", "approx", "64", "99999999999", "approx", "")
	f.Add("-1", "approx", "0", "abc", "bogus", "65")
	f.Add("3", "approx", "", "3", "approx", "4")
	f.Fuzz(func(t *testing.T, eps1, mode1, sweeps1, eps2, mode2, sweeps2 string) {
		a, ok1 := checkAnytime(t, eps1, mode1, sweeps1)
		b, ok2 := checkAnytime(t, eps2, mode2, sweeps2)
		if !ok1 || !ok2 {
			return
		}
		if same, sameKey := a == b, a.cacheKey("k") == b.cacheKey("k"); same != sameKey {
			t.Fatalf("%+v and %+v: equal=%v but cache keys %q, %q", a, b, same, a.cacheKey("k"), b.cacheKey("k"))
		}
	})
}

// checkAnytime parses one request and asserts the per-request invariants
// of an accepted one; it reports whether the request was accepted.
func checkAnytime(t *testing.T, eps, mode, sweeps string) (anytime, bool) {
	t.Helper()
	a, err := parseAnytime(url.Values{"epsilon": {eps}, "mode": {mode}, "sweeps": {sweeps}})
	if err != nil {
		return a, false
	}
	if a.epsilon < 0 || a.epsilon > maxEpsilon {
		t.Fatalf("epsilon=%q: accepted tolerance %d outside [0, %d]", eps, a.epsilon, maxEpsilon)
	}
	if a.approx != (mode == "approx") {
		t.Fatalf("mode=%q: approx=%v", mode, a.approx)
	}
	if a.approx && (a.sweeps < 1 || a.sweeps > maxApproxSweeps) {
		t.Fatalf("sweeps=%q: accepted budget %d outside [1, %d]", sweeps, a.sweeps, maxApproxSweeps)
	}
	if !a.approx && a.sweeps != 0 {
		t.Fatalf("mode=%q: exact request carries sweeps %d", mode, a.sweeps)
	}
	if a.cacheKey("k") == "k" {
		t.Fatalf("%+v: cache key equals the exact-result key", a)
	}
	if !a.enabled() && a.solverEpsilon() != -1 {
		t.Fatalf("%+v: not enabled but solverEpsilon %d", a, a.solverEpsilon())
	}
	return a, true
}
