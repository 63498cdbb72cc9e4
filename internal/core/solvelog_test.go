package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"fdiam/internal/gen"
	"fdiam/internal/graph"
	"fdiam/internal/obs"
)

// TestSolveDoneLoggedOnce: every solve — including the empty graph and
// edgeless graphs, which finish before any BFS — logs exactly one
// solve_start and one solve_done, and the solve_done line carries the
// outcome, the diameter and the witness pair.
func TestSolveDoneLoggedOnce(t *testing.T) {
	noVertex := float64(graph.NoVertex)
	cases := []struct {
		name   string
		g      *graph.Graph
		diam   float64
		wa, wb float64
	}{
		{"n=0", graph.NewBuilder(0).Build(), 0, noVertex, noVertex},
		{"n=1", graph.NewBuilder(1).Build(), 0, noVertex, noVertex},
		{"n=5", graph.NewBuilder(5).Build(), 0, noVertex, noVertex},
		{"path50", gen.Path(50), 49, -1, -1},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		lg, err := obs.NewLogger(&buf, "json", "info")
		if err != nil {
			t.Fatal(err)
		}
		res := DiameterCtx(obs.ContextWithLogger(context.Background(), lg), c.g, Options{Workers: 1})
		counts := map[string]int{}
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			var rec map[string]any
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("%s: unparseable log line %q: %v", c.name, line, err)
			}
			msg := fmt.Sprint(rec["msg"])
			counts[msg]++
			if msg != "solve_done" {
				continue
			}
			wa, wb := c.wa, c.wb
			if wa < 0 {
				wa, wb = float64(res.WitnessA), float64(res.WitnessB)
			}
			if rec[obs.KeyOutcome] != "ok" || rec[obs.KeyDiameter] != c.diam ||
				rec[obs.KeyWitnessA] != wa || rec[obs.KeyWitnessB] != wb {
				t.Errorf("%s: solve_done fields wrong: %s", c.name, line)
			}
		}
		if counts["solve_start"] != 1 || counts["solve_done"] != 1 {
			t.Errorf("%s: %d solve_start and %d solve_done lines, want 1 each",
				c.name, counts["solve_start"], counts["solve_done"])
		}
	}
}
