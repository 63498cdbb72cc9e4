package ecc

import (
	"context"
	"testing"

	"fdiam/internal/gen"
	"fdiam/internal/graph"
)

func TestAllOnPath(t *testing.T) {
	g := gen.Path(5) // eccs: 4 3 2 3 4
	want := []int32{4, 3, 2, 3, 4}
	got := All(context.Background(), g, 0).Eccs
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ecc = %v, want %v", got, want)
		}
	}
}

func TestAllOnStar(t *testing.T) {
	g := gen.Star(6)
	eccs := All(context.Background(), g, 2).Eccs
	if eccs[0] != 1 {
		t.Errorf("hub ecc = %d, want 1", eccs[0])
	}
	for v := 1; v < 6; v++ {
		if eccs[v] != 2 {
			t.Errorf("leaf %d ecc = %d, want 2", v, eccs[v])
		}
	}
}

func TestComputeInfoPath(t *testing.T) {
	info := bruteInfo(gen.Path(7))
	if info.Diameter != 6 || info.Radius != 3 {
		t.Fatalf("diam=%d radius=%d", info.Diameter, info.Radius)
	}
	if len(info.Center) != 1 || info.Center[0] != 3 {
		t.Fatalf("center = %v, want [3]", info.Center)
	}
	if len(info.Periphery) != 2 {
		t.Fatalf("periphery = %v, want the two endpoints", info.Periphery)
	}
}

func TestComputeEmpty(t *testing.T) {
	info := bruteInfo(graph.NewBuilder(0).Build())
	if info.Diameter != 0 || info.Radius != 0 {
		t.Fatalf("empty: %+v", info)
	}
}

// TestTheorem1AdjacentEccsDifferByAtMostOne property-checks the paper's
// Theorem 1 on random connected graphs.
func TestTheorem1AdjacentEccsDifferByAtMostOne(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		g := gen.RandomConnected(80+int(seed*7)%80, int(seed*13)%100, seed)
		eccs := All(context.Background(), g, 0).Eccs
		for _, e := range g.Edges() {
			d := eccs[e.A] - eccs[e.B]
			if d < -1 || d > 1 {
				t.Fatalf("seed %d: edge %d-%d has eccs %d vs %d (Theorem 1 violated)",
					seed, e.A, e.B, eccs[e.A], eccs[e.B])
			}
		}
	}
}

// TestTheorem2AtLeastTwoPeripheralVertices property-checks Theorem 2:
// every connected graph with ≥2 vertices has ≥2 vertices of maximum
// eccentricity.
func TestTheorem2AtLeastTwoPeripheralVertices(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		g := gen.RandomConnected(30+int(seed*11)%100, int(seed*5)%60, seed+100)
		info := bruteInfo(g)
		if len(info.Periphery) < 2 {
			t.Fatalf("seed %d: periphery %v has fewer than 2 vertices (Theorem 2 violated)",
				seed, info.Periphery)
		}
	}
}

// TestTheorem3RadiusAtLeastHalfDiameter property-checks Theorem 3:
// min ecc ≥ diam/2.
func TestTheorem3RadiusAtLeastHalfDiameter(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		g := gen.RandomConnected(30+int(seed*9)%100, int(seed*3)%60, seed+200)
		info := bruteInfo(g)
		if 2*info.Radius < info.Diameter {
			t.Fatalf("seed %d: radius %d < diameter %d / 2 (Theorem 3 violated)",
				seed, info.Radius, info.Diameter)
		}
	}
}

func TestDiameterMatchesComputeAcrossWorkers(t *testing.T) {
	g := gen.RandomConnected(150, 80, 7)
	d1 := Diameter(g, 1)
	d4 := Diameter(g, 4)
	if d1 != d4 {
		t.Fatalf("worker counts disagree: %d vs %d", d1, d4)
	}
	if d1 != bruteInfo(g).Diameter {
		t.Fatalf("Diameter and Summarize disagree")
	}
}

func TestDisconnectedEccsArePerComponent(t *testing.T) {
	g := gen.Disjoint(gen.Path(4), gen.Cycle(6))
	eccs := All(context.Background(), g, 0).Eccs
	if eccs[0] != 3 { // path endpoint
		t.Errorf("path endpoint ecc = %d, want 3", eccs[0])
	}
	for v := 4; v < 10; v++ {
		if eccs[v] != 3 { // cycle of 6: ecc 3 everywhere
			t.Errorf("cycle vertex %d ecc = %d, want 3", v, eccs[v])
		}
	}
}

// All counts one traversal per non-isolated source and stops before its
// first source under a cancelled context.
func TestAllCountsSourcesAndCancels(t *testing.T) {
	g := gen.Disjoint(gen.Path(5), graph.NewBuilder(3).Build())
	for _, workers := range []int{1, 2} {
		res := All(context.Background(), g, workers)
		if res.BFSTraversals != 5 || res.Truncated {
			t.Fatalf("workers=%d: %d traversals, truncated=%v; want 5, false",
				workers, res.BFSTraversals, res.Truncated)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		res = All(ctx, g, workers)
		if !res.Truncated || res.BFSTraversals != 0 {
			t.Fatalf("workers=%d cancelled: %d traversals, truncated=%v; want 0, true",
				workers, res.BFSTraversals, res.Truncated)
		}
	}
}
