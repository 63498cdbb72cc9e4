package serve

import (
	"math"
	"math/rand/v2"
	"sync"
	"time"
)

// tenantLimiter is the per-tenant admission layer above the solve
// semaphore: one token bucket per tenant-header value, refilled at a
// sustained rate with a burst cap. The semaphore bounds what the *node*
// can run; the buckets bound what each *tenant* may ask of it, so one
// client flooding POST /diameter cannot occupy every queue slot. Requests
// forwarded from a peer are exempt — the entry node already charged the
// tenant.
type tenantLimiter struct {
	mu      sync.Mutex
	rate    float64 // tokens per second
	burst   float64
	buckets map[string]*tokenBucket

	// Pruning state (see prune): the next sweep is due once the map has
	// grown to sweepLen or a full refill period has passed since sweptAt.
	sweepLen int
	sweptAt  time.Time
}

// minSweepLen is the map size below which only the refill-period trigger
// sweeps, so a handful of tenants never pay a sweep per admit.
const minSweepLen = 64

type tokenBucket struct {
	tokens float64
	last   time.Time
}

func newTenantLimiter(rate float64, burst int) *tenantLimiter {
	if rate <= 0 {
		rate = 1
	}
	if burst <= 0 {
		burst = 5
	}
	return &tenantLimiter{rate: rate, burst: float64(burst), buckets: make(map[string]*tokenBucket)}
}

// admit spends one token from tenant's bucket (requests without the
// configured header share the "" bucket, so anonymous traffic is one
// tenant, not a bypass). When the bucket is empty, ok is false and
// retryAfter is the whole-second wait until a token accrues, stretched by
// up to 50% jitter so a synchronized client herd spreads its retries
// instead of stampeding the refill instant.
func (l *tenantLimiter) admit(tenant string, now time.Time) (retryAfter int, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.prune(now)
	b := l.buckets[tenant]
	if b == nil {
		b = &tokenBucket{tokens: l.burst, last: now}
		l.buckets[tenant] = b
	}
	elapsed := now.Sub(b.last).Seconds()
	if elapsed > 0 {
		b.tokens = math.Min(l.burst, b.tokens+elapsed*l.rate)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return 0, true
	}
	wait := (1 - b.tokens) / l.rate
	wait *= 1 + rand.Float64()/2
	return max(1, int(math.Ceil(wait))), false
}

// prune drops every bucket that has refilled to the full burst. A full
// bucket behaves exactly like the fresh one admit would create in its
// place, so pruning changes no admission decision; it only keeps a client
// that rotates tenant-header values from growing the map without bound.
// A sweep runs when the map has doubled since the last one (so a flood of
// new tenants pays O(1) amortized per admit) or when a full refill period
// has passed (by then every bucket untouched since the last sweep is full,
// so an idle map shrinks on the next admit).
func (l *tenantLimiter) prune(now time.Time) {
	if len(l.buckets) < l.sweepLen && now.Sub(l.sweptAt).Seconds() < l.burst/l.rate {
		return
	}
	for tenant, b := range l.buckets {
		if b.tokens+now.Sub(b.last).Seconds()*l.rate >= l.burst {
			delete(l.buckets, tenant)
		}
	}
	l.sweptAt = now
	l.sweepLen = max(minSweepLen, 2*len(l.buckets))
}
