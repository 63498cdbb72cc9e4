package fdiam

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"fdiam/internal/ecc"
	"fdiam/internal/gen"
)

func TestQuickstartShape(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	res := Diameter(b.Build())
	if res.Diameter != 3 || res.Infinite {
		t.Fatalf("got %+v, want diameter 3, connected", res)
	}
}

func TestPublicDiameterAgreesWithBaselines(t *testing.T) {
	g := NewRandomConnected(800, 600, 3)
	want := Diameter(g).Diameter
	if got := DiameterWithOptions(g, Options{Workers: 1}).Diameter; got != want {
		t.Errorf("serial: %d, want %d", got, want)
	}
	if got := DiameterIFUB(g, BaselineOptions{}).Diameter; got != want {
		t.Errorf("ifub: %d, want %d", got, want)
	}
	if got := DiameterBounding(g, BaselineOptions{}).Diameter; got != want {
		t.Errorf("bounding: %d, want %d", got, want)
	}
	if got := DiameterKorf(g, BaselineOptions{}).Diameter; got != want {
		t.Errorf("korf: %d, want %d", got, want)
	}
	if got := DiameterNaive(g, BaselineOptions{}).Diameter; got != want {
		t.Errorf("naive: %d, want %d", got, want)
	}
}

func TestEccentricityHelpers(t *testing.T) {
	g := NewPath(7)
	eccs := Eccentricities(g, 0)
	if eccs[0] != 6 || eccs[3] != 3 {
		t.Fatalf("eccs = %v", eccs)
	}
	r, center := RadiusAndCenter(g, 0)
	if r != 3 || len(center) != 1 || center[0] != 3 {
		t.Fatalf("radius=%d center=%v", r, center)
	}
	p := Periphery(g, 0)
	if len(p) != 2 {
		t.Fatalf("periphery = %v", p)
	}
	// The helpers run on eccentricity bounding; they must return exactly
	// the brute-force values, disconnected inputs included.
	for _, g := range []*Graph{
		NewRandomConnected(300, 150, 9),
		gen.Disjoint(gen.Grid2D(9, 11), gen.Path(30)),
	} {
		want := ecc.Summarize(g, ecc.All(context.Background(), g, 0).Eccs)
		if eccs := Eccentricities(g, 0); !slices.Equal(eccs, want.Eccs) {
			t.Fatalf("eccs %v, want %v", eccs, want.Eccs)
		}
		r, center := RadiusAndCenter(g, 0)
		if r != want.Radius || !slices.Equal(center, want.Center) {
			t.Fatalf("radius %d center %v, want %d %v", r, center, want.Radius, want.Center)
		}
		if p := Periphery(g, 0); !slices.Equal(p, want.Periphery) {
			t.Fatalf("periphery %v, want %v", p, want.Periphery)
		}
	}
}

func TestComponentsHelpers(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	g := b.Build()
	cc := ConnectedComponents(g)
	if cc.Count != 3 { // {0,1}, {2,3,4}, {5}
		t.Fatalf("components = %d", cc.Count)
	}
	lc, orig := LargestComponent(g)
	if lc.NumVertices() != 3 || len(orig) != 3 {
		t.Fatalf("largest component n=%d", lc.NumVertices())
	}
	s := ComputeGraphStats(g)
	if s.Degree0 != 1 || s.Components != 3 {
		t.Fatalf("stats %+v", s)
	}
}

func TestGeneratorsExposeExpectedShapes(t *testing.T) {
	if d := Diameter(NewGrid2D(6, 6)).Diameter; d != 10 {
		t.Errorf("grid diameter %d, want 10", d)
	}
	if d := Diameter(NewPath(20)).Diameter; d != 19 {
		t.Errorf("path diameter %d, want 19", d)
	}
	if d := Diameter(NewCycle(12)).Diameter; d != 6 {
		t.Errorf("cycle diameter %d, want 6", d)
	}
	if g := NewRMAT(8, 6, 1); g.NumVertices() != 256 {
		t.Errorf("rmat n = %d", g.NumVertices())
	}
	if g := NewKronecker(8, 6, 1); g.NumVertices() != 256 {
		t.Errorf("kron n = %d", g.NumVertices())
	}
	if g := NewBarabasiAlbert(100, 3, 1); g.NumVertices() != 100 {
		t.Errorf("ba n = %d", g.NumVertices())
	}
	if g := NewTriangularGrid(5, 5); g.NumVertices() != 25 {
		t.Errorf("trigrid n = %d", g.NumVertices())
	}
	if g := NewRoadNetwork(10, 10, 0.2, 1); !ConnectedComponents(g).IsConnected() {
		t.Error("road network disconnected")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := NewRandomConnected(60, 40, 9)
	for _, name := range []string{"g.txt", "g.bin", "g.mtx", "g.gr"} {
		path := filepath.Join(dir, name)
		if err := SaveFile(path, g); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		got, err := LoadFile(path)
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		if got.NumEdges() != g.NumEdges() {
			t.Errorf("%s: edges %d, want %d", name, got.NumEdges(), g.NumEdges())
		}
		if Diameter(got).Diameter != Diameter(g).Diameter {
			t.Errorf("%s: diameter changed across round trip", name)
		}
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("expected error for missing file")
	}
}

func TestSaveFileBadPath(t *testing.T) {
	if err := SaveFile(filepath.Join(t.TempDir(), "no", "such", "dir", "g.txt"), NewPath(3)); err == nil {
		t.Error("expected error for unwritable path")
	}
	_ = os.ErrNotExist
}

func TestResultStatsExposed(t *testing.T) {
	g := NewBarabasiAlbert(3000, 4, 5)
	res := Diameter(g)
	if res.Stats.BFSTraversals() <= 0 {
		t.Error("stats not populated")
	}
	if res.Stats.PctWinnow() <= 0 {
		t.Error("winnow percentage missing")
	}
}

func TestFromEdges(t *testing.T) {
	g := FromEdges(3, []Edge{{A: 0, B: 1}, {A: 1, B: 2}})
	if Diameter(g).Diameter != 2 {
		t.Error("FromEdges broken")
	}
}

func TestExtensionBaselines(t *testing.T) {
	g := NewRandomConnected(400, 300, 11)
	want := Diameter(g).Diameter
	if got := DiameterTakesKosters(g, BaselineOptions{}).Diameter; got != want {
		t.Errorf("takes-kosters: %d, want %d", got, want)
	}
	if got := DiameterVertexCentric(g, BaselineOptions{}).Diameter; got != want {
		t.Errorf("vertex-centric: %d, want %d", got, want)
	}
}

func TestAnalyzeNetwork(t *testing.T) {
	g := NewPath(9)
	info := AnalyzeNetwork(g, 0)
	if info.Diameter != 8 || info.Radius != 4 {
		t.Fatalf("info: %+v", info)
	}
	if len(info.Center) != 1 || info.Center[0] != 4 {
		t.Fatalf("center: %v", info.Center)
	}
	eccs, traversals := AllEccentricities(g, 0)
	if len(eccs) != 9 || eccs[0] != 8 || traversals < 1 {
		t.Fatalf("eccs=%v traversals=%d", eccs, traversals)
	}
}

func TestReorderingPreservesDiameter(t *testing.T) {
	g := NewSocialNetwork(2000, 4, 0.2, 6, 13)
	want := Diameter(g).Diameter
	for _, r := range []*Graph{ReorderBFS(g), ReorderByDegree(g)} {
		if got := Diameter(r).Diameter; got != want {
			t.Errorf("reordered diameter %d, want %d", got, want)
		}
		if r.NumArcs() != g.NumArcs() {
			t.Error("reordering changed the edge count")
		}
	}
}

func TestMETISSaveLoad(t *testing.T) {
	dir := t.TempDir()
	g := NewRandomConnected(50, 30, 4)
	path := filepath.Join(dir, "g.metis")
	if err := SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEdges() != g.NumEdges() || Diameter(got).Diameter != Diameter(g).Diameter {
		t.Fatal("METIS round trip lost structure")
	}
}

func TestFloydWarshallAndApproxPublicAPI(t *testing.T) {
	g := NewRandomConnected(300, 200, 17)
	want := Diameter(g).Diameter
	if got := DiameterFloydWarshall(g, BaselineOptions{}).Diameter; got != want {
		t.Errorf("floyd-warshall: %d, want %d", got, want)
	}
	est := EstimateDiameter(g, 0, 1)
	if est > want || est < 2*want/3 {
		t.Errorf("estimate %d outside [2D/3, D] for D=%d", est, want)
	}
}

func TestObservabilityFacade(t *testing.T) {
	srv, err := ServeObservability("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var trace bytes.Buffer
	run := NewTraceRun(TraceConfig{ChromeTrace: &trace})
	if CurrentTraceRun() != run {
		t.Error("NewTraceRun did not install the current run")
	}
	res := DiameterWithOptions(NewGrid2D(8, 8), Options{Trace: run})
	if err := run.Finish(); err != nil {
		t.Fatal(err)
	}
	if res.Diameter != 14 {
		t.Fatalf("traced diameter = %d, want 14", res.Diameter)
	}
	var evs []map[string]any
	if err := json.Unmarshal(trace.Bytes(), &evs); err != nil {
		t.Fatalf("facade trace not a JSON array: %v", err)
	}
	if len(evs) == 0 {
		t.Error("facade trace is empty")
	}
	var snap RunSnapshot = run.Snapshot()
	if snap.State != "done" || snap.Bound != 14 {
		t.Errorf("snapshot = %+v, want done/14", snap)
	}
	var metrics bytes.Buffer
	if err := DefaultMetrics().WriteText(&metrics); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics.String(), "fdiam_bfs_traversals_total") {
		t.Error("default metrics missing fdiam_bfs_traversals_total")
	}
}
