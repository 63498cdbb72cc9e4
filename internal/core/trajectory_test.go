package core

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"testing"

	"fdiam/internal/gen"
	"fdiam/internal/graph"
)

// trajectoryGolden holds one line per (graph, mode): the Result fields and
// every non-time Stats counter of a Workers: 1 solve.
const trajectoryGolden = "testdata/trajectory.golden"

// trajectoryGraphs rebuilds the shapes TestTakesKostersTrajectoryPinned
// pins in internal/baseline: known shapes, random connected graphs,
// disconnected unions, a preferential-attachment graph, a core with
// whiskers and a subdivided road network.
func trajectoryGraphs() []struct {
	name string
	g    *graph.Graph
} {
	type named = struct {
		name string
		g    *graph.Graph
	}
	gs := []named{
		{"empty", graph.NewBuilder(0).Build()},
		{"singleton", graph.NewBuilder(1).Build()},
		{"edge", gen.Path(2)},
		{"path50", gen.Path(50)},
		{"cycle33", gen.Cycle(33)},
		{"cycle34", gen.Cycle(34)},
		{"star20", gen.Star(20)},
		{"complete10", gen.Complete(10)},
		{"grid7x9", gen.Grid2D(7, 9)},
		{"tree5", gen.BinaryTree(5)},
		{"lollipop", gen.Lollipop(6, 9)},
		{"barbell", gen.Barbell(5, 4)},
		{"caterpillar", gen.Caterpillar(12, 2)},
	}
	for seed := uint64(0); seed < 12; seed++ {
		gs = append(gs, named{fmt.Sprintf("rand-%d", seed),
			gen.RandomConnected(20+int(seed*11)%120, int(seed*5)%50, seed)})
	}
	gs = append(gs,
		named{"disjoint-0", gen.Disjoint(gen.Path(12), gen.Cycle(20))},
		named{"disjoint-1", gen.Disjoint(gen.Star(8), graph.NewBuilder(4).Build())},
		named{"disjoint-2", gen.Disjoint(gen.RandomConnected(30, 10, 1), gen.RandomTree(25, 2))},
		named{"ba2000", gen.BarabasiAlbert(2000, 3, 7)},
		named{"whiskers5000", gen.CoreWhiskers(5000, 5, 0.2, 6, 3)},
		named{"road60sub2", gen.Subdivide(gen.RoadNetwork(60, 60, 0.3, 4), 2)},
	)
	return gs
}

// trajectoryModes are the solver configurations the golden file pins: the
// exact run, the ε-early-exit, approximation mode, the forced-batching main
// loop, and the four algorithmic ablations.
func trajectoryModes() []struct {
	name string
	opt  Options
} {
	return []struct {
		name string
		opt  Options
	}{
		{"exact", Options{Workers: 1}},
		{"eps2", Options{Workers: 1, Epsilon: 2}},
		{"approx4", Options{Workers: 1, Approx: ApproxOptions{Sweeps: 4, Seed: 7}}},
		{"batched", forcedBatching(Options{Workers: 1})},
		{"noWinnow", Options{Workers: 1, DisableWinnow: true}},
		{"noEliminate", Options{Workers: 1, DisableEliminate: true}},
		{"noChain", Options{Workers: 1, DisableChain: true}},
		{"noU", Options{Workers: 1, StartAtVertexZero: true}},
	}
}

// trajectoryLine renders every deterministic field of a Result: the
// corridor, the witnesses and all Stats counters except the timings.
func trajectoryLine(graphName, mode string, r Result) string {
	s := r.Stats
	return fmt.Sprintf("%s %s: d=%d ub=%d gap=%d approx=%v inf=%v w=%d,%d "+
		"v=%d ecc=%d winnow=%d elim=%d visited=%d improve=%d dirsw=%d "+
		"rm=%d,%d,%d,%d computed=%d ckpt=%d msbfs=%d,%d,%d",
		graphName, mode, r.Diameter, r.Upper, r.Gap, r.Approximate, r.Infinite,
		r.WitnessA, r.WitnessB,
		s.Vertices, s.EccBFS, s.WinnowCalls, s.EliminateCalls, s.EliminateVisited,
		s.BoundImprovements, s.DirSwitches,
		s.RemovedWinnow, s.RemovedEliminate, s.RemovedChain, s.RemovedDegree0,
		s.Computed, s.Checkpoints, s.MSBFSBatches, s.MSBFSSources, s.MSBFSDiscarded)
}

// TestSolverTrajectoryPinned pins the whole solve trajectory — answer,
// corridor, witnesses and every non-time counter — per graph and mode. A
// refactor of the solver's stages must reproduce it bit for bit.
func TestSolverTrajectoryPinned(t *testing.T) {
	f, err := os.Open(trajectoryGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	var got []string
	for _, c := range trajectoryGraphs() {
		for _, m := range trajectoryModes() {
			got = append(got, trajectoryLine(c.name, m.name, Diameter(c.g, m.opt)))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d trajectories for %d pinned lines", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("trajectory moved:\n got: %s\nwant: %s", got[i], want[i])
		}
	}
}
