package baseline

import (
	"fmt"
	"testing"

	"fdiam/internal/ecc"
	"fdiam/internal/gen"
	"fdiam/internal/graph"
)

type algo struct {
	name string
	run  func(*graph.Graph, Options) Result
}

var algos = []algo{
	{"ifub", IFUB},
	{"bounding", Bounding},
	{"takeskosters", TakesKosters},
	{"korf", Korf},
	{"naive", Naive},
	{"vertexcentric", VertexCentric},
}

func checkAll(t *testing.T, name string, g *graph.Graph) {
	t.Helper()
	want := ecc.Diameter(g, 0)
	for _, a := range algos {
		for _, workers := range []int{1, 4} {
			got := a.run(g, Options{Workers: workers})
			if got.Diameter != want {
				t.Errorf("%s/%s(workers=%d): diameter = %d, want %d", name, a.name, workers, got.Diameter, want)
			}
			if got.TimedOut {
				t.Errorf("%s/%s: unexpected timeout", name, a.name)
			}
		}
	}
}

type namedGraph struct {
	name string
	g    *graph.Graph
}

func knownShapes() []namedGraph {
	return []namedGraph{
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
}

func randomConnected(seed uint64) *graph.Graph {
	return gen.RandomConnected(20+int(seed*11)%120, int(seed*5)%50, seed)
}

func disconnected() []*graph.Graph {
	return []*graph.Graph{
		gen.Disjoint(gen.Path(12), gen.Cycle(20)),
		gen.Disjoint(gen.Star(8), graph.NewBuilder(4).Build()),
		gen.Disjoint(gen.RandomConnected(30, 10, 1), gen.RandomTree(25, 2)),
	}
}

func TestBaselinesKnownShapes(t *testing.T) {
	for _, c := range knownShapes() {
		t.Run(c.name, func(t *testing.T) { checkAll(t, c.name, c.g) })
	}
}

func TestBaselinesRandom(t *testing.T) {
	for seed := uint64(0); seed < 12; seed++ {
		checkAll(t, fmt.Sprintf("rand-%d", seed), randomConnected(seed))
	}
}

func TestBaselinesDisconnected(t *testing.T) {
	for i, g := range disconnected() {
		want := ecc.Diameter(g, 0)
		for _, a := range algos {
			got := a.run(g, Options{Workers: 1})
			if got.Diameter != want {
				t.Errorf("case %d/%s: diameter = %d, want %d", i, a.name, got.Diameter, want)
			}
			if !got.Infinite {
				t.Errorf("case %d/%s: expected Infinite", i, a.name)
			}
		}
	}
}

func TestBaselinesPowerLaw(t *testing.T) {
	g := gen.BarabasiAlbert(400, 3, 7)
	checkAll(t, "ba", g)
	g2 := gen.RMAT(8, 6, gen.DefaultRMAT, 8)
	checkAll(t, "rmat", g2)
}

func TestSweepBoundsAreValidLowerBounds(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		g := gen.RandomConnected(60+int(seed*9)%100, int(seed*3)%40, seed+50)
		diam := ecc.Diameter(g, 0)
		start := g.MaxDegreeVertex()
		four, center := FourSweepLB(g, start, Options{Workers: 1})
		if four > diam || four < 1 {
			t.Errorf("seed %d: 4-sweep bound %d outside (0, %d]", seed, four, diam)
		}
		if int(center) >= g.NumVertices() {
			t.Errorf("seed %d: invalid center %d", seed, center)
		}
	}
}

func TestIFUBTraversalAccounting(t *testing.T) {
	g := gen.BarabasiAlbert(500, 3, 9)
	res := IFUB(g, Options{Workers: 1})
	if res.BFSTraversals < 5 { // component scan + 4-sweep alone is ≥ 6
		t.Errorf("implausible traversal count %d", res.BFSTraversals)
	}
	if res.BFSTraversals > int64(g.NumVertices()+10) {
		t.Errorf("traversal count %d exceeds vertex count", res.BFSTraversals)
	}
}

func TestKorfMatchesNaiveTraversals(t *testing.T) {
	g := gen.RandomConnected(80, 40, 3)
	korf := Korf(g, Options{})
	naive := Naive(g, Options{})
	if korf.BFSTraversals != naive.BFSTraversals {
		t.Errorf("korf traversals %d != naive %d (both should be one per non-isolated vertex)",
			korf.BFSTraversals, naive.BFSTraversals)
	}
}

func TestBoundingFewerTraversalsThanNaive(t *testing.T) {
	g := gen.BarabasiAlbert(600, 3, 11)
	bound := Bounding(g, Options{Workers: 1})
	if bound.BFSTraversals >= int64(g.NumVertices()) {
		t.Errorf("bounding used %d traversals on %d vertices — pruning is broken",
			bound.BFSTraversals, g.NumVertices())
	}
}

func TestBaselineTimeout(t *testing.T) {
	g := gen.Cycle(5000)
	for _, a := range algos {
		res := a.run(g, Options{Workers: 1, Timeout: 1})
		if !res.TimedOut {
			t.Errorf("%s: expected timeout with 1ns budget", a.name)
		}
	}
}

// TestTakesKostersTrajectoryPinned pins the Takes–Kosters answer and BFS
// count per graph. The values were recorded from the standalone
// BoundingDiameters loop before it was folded onto ecc's bounding kernel;
// the diameter-only pruning rule must keep reproducing them at every
// worker count.
func TestTakesKostersTrajectoryPinned(t *testing.T) {
	type want struct {
		diam     int32
		infinite bool
		bfs      int64
	}
	wants := map[string]want{
		"empty": {0, false, 0}, "singleton": {0, false, 0}, "edge": {1, false, 2},
		"path50": {49, false, 3}, "cycle33": {16, false, 33}, "cycle34": {17, false, 34},
		"star20": {2, false, 2}, "complete10": {1, false, 10}, "grid7x9": {14, false, 7},
		"tree5": {8, false, 3}, "lollipop": {10, false, 3}, "barbell": {7, false, 3}, "caterpillar": {13, false, 3},
		"rand-0": {9, false, 3}, "rand-1": {9, false, 4}, "rand-2": {11, false, 6},
		"rand-3": {12, false, 6}, "rand-4": {9, false, 7}, "rand-5": {10, false, 15},
		"rand-6": {10, false, 10}, "rand-7": {10, false, 10}, "rand-8": {9, false, 39},
		"rand-9": {11, false, 17}, "rand-10": {15, false, 3}, "rand-11": {6, false, 7},
		"disjoint-0": {11, true, 19}, "disjoint-1": {2, true, 2}, "disjoint-2": {10, true, 6},
		"ba2000": {6, false, 398}, "whiskers5000": {18, false, 62}, "road60sub2": {240, false, 12},
	}
	graphs := knownShapes()
	for seed := uint64(0); seed < 12; seed++ {
		graphs = append(graphs, namedGraph{fmt.Sprintf("rand-%d", seed), randomConnected(seed)})
	}
	for i, g := range disconnected() {
		graphs = append(graphs, namedGraph{fmt.Sprintf("disjoint-%d", i), g})
	}
	graphs = append(graphs,
		namedGraph{"ba2000", gen.BarabasiAlbert(2000, 3, 7)},
		namedGraph{"whiskers5000", gen.CoreWhiskers(5000, 5, 0.2, 6, 3)},
		namedGraph{"road60sub2", gen.Subdivide(gen.RoadNetwork(60, 60, 0.3, 4), 2)},
	)
	if len(graphs) != len(wants) {
		t.Fatalf("%d graphs for %d pinned values", len(graphs), len(wants))
	}
	for _, c := range graphs {
		w := wants[c.name]
		for _, workers := range []int{1, 2} {
			got := TakesKosters(c.g, Options{Workers: workers})
			if got.Diameter != w.diam || got.Infinite != w.infinite || got.BFSTraversals != w.bfs {
				t.Errorf("%s (workers=%d): got diameter %d infinite %v in %d BFS, want %d %v in %d",
					c.name, workers, got.Diameter, got.Infinite, got.BFSTraversals, w.diam, w.infinite, w.bfs)
			}
		}
	}
}
