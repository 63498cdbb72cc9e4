package serve

import (
	"net/http/httptest"
	"net/url"
	"testing"
	"time"
)

// FuzzRequestTimeout feeds arbitrary ?timeout= strings, under arbitrary
// non-negative DefaultTimeout/MaxTimeout settings, to Server.requestTimeout.
// Parsing never panics; an accepted timeout is non-negative and, when
// MaxTimeout is set, at most MaxTimeout; and a request without the
// parameter gets DefaultTimeout, clamped to MaxTimeout exactly as an
// explicit one would be.
func FuzzRequestTimeout(f *testing.F) {
	f.Add("", int64(0), int64(0))
	f.Add("30s", int64(0), int64(0))
	f.Add("1h", int64(time.Minute), int64(10*time.Minute))
	f.Add("0", int64(time.Second), int64(time.Minute))
	f.Add("-5s", int64(time.Second), int64(0))
	f.Add("1.5ms", int64(0), int64(time.Millisecond))
	f.Add("9223372036854775807ns", int64(time.Hour), int64(time.Minute))
	f.Add("bogus", int64(0), int64(time.Second))
	f.Fuzz(func(t *testing.T, param string, def, max int64) {
		if def < 0 || max < 0 {
			return
		}
		s := &Server{cfg: Config{DefaultTimeout: time.Duration(def), MaxTimeout: time.Duration(max)}}
		req := httptest.NewRequest("POST", "/diameter?"+url.Values{"timeout": {param}}.Encode(), nil)
		if d, err := s.requestTimeout(req); err == nil {
			if d < 0 || (max > 0 && d > time.Duration(max)) {
				t.Fatalf("timeout=%q (default %d, max %d): accepted %v", param, def, max, d)
			}
		}

		d, err := s.requestTimeout(httptest.NewRequest("POST", "/diameter", nil))
		want := time.Duration(def)
		if max > 0 && (def == 0 || def > max) {
			want = time.Duration(max)
		}
		if err != nil || d != want {
			t.Fatalf("no timeout parameter (default %d, max %d): got %v, %v; want %v", def, max, d, err, want)
		}
	})
}
