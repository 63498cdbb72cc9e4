package baseline

import (
	"sort"

	"fdiam/internal/bfs"
	"fdiam/internal/gen"
	"fdiam/internal/graph"
)

// ApproxResult is the outcome of an approximation algorithm: Estimate is a
// certified lower bound on the diameter (every value is the exact
// eccentricity of some vertex).
type ApproxResult struct {
	// Estimate is the returned diameter estimate (a lower bound).
	Estimate int32
	// BFSTraversals counts the full BFS calls performed.
	BFSTraversals int64
}

// RodittyWilliams estimates the diameter with the sampling algorithm of
// Roditty & Vassilevska Williams (STOC 2013), cited in the paper's
// introduction: with high probability the estimate Ď satisfies
// ⌊2D/3⌋ ≤ Ď ≤ D using Õ(s + n/s)·m time instead of O(nm). The practical
// formulation implemented here:
//
//  1. sample s random vertices, compute their eccentricities (lower
//     bounds);
//  2. find the vertex w maximizing the distance to the sample (the sample
//     "covers" everything closer), and compute ecc(w);
//  3. compute the eccentricities of the s vertices closest to w.
//
// The estimate is the largest eccentricity seen. s defaults to ⌈√n⌉.
// Exact solvers (F-Diam) make this mostly of historical interest, but it
// is the natural accuracy/throughput baseline for an approximation-quality
// experiment.
func RodittyWilliams(g *graph.Graph, s int, seed uint64, opt Options) ApproxResult {
	var res ApproxResult
	n := g.NumVertices()
	if n == 0 {
		return res
	}
	if s <= 0 {
		s = 1
		for s*s < n {
			s++
		}
	}
	e := bfs.New(g, opt.Workers)
	rng := gen.NewRNG(seed)

	// Phase 1: eccentricities of a random sample; track each vertex's
	// distance to the whole sample via a multi-source BFS.
	sample := make([]graph.Vertex, 0, s)
	for i := 0; i < s; i++ {
		v := graph.Vertex(rng.Intn(n))
		if g.Degree(v) > 0 {
			sample = append(sample, v)
		}
	}
	if len(sample) == 0 {
		// No edges in reach of the sample; fall back to any non-isolated
		// vertex or return 0 for edgeless graphs.
		for v := 0; v < n; v++ {
			if g.Degree(graph.Vertex(v)) > 0 {
				sample = append(sample, graph.Vertex(v))
				break
			}
		}
		if len(sample) == 0 {
			return res
		}
	}
	for _, v := range sample {
		ecc := e.Eccentricity(v)
		res.BFSTraversals++
		if ecc > res.Estimate {
			res.Estimate = ecc
		}
	}

	// Distance to the sample (multi-source partial BFS over the whole
	// component set reachable from the sample).
	distToSample := make([]int32, n)
	for i := range distToSample {
		distToSample[i] = -1
	}
	for _, v := range sample {
		distToSample[v] = 0
	}
	e.Partial(sample, -1, opt.Workers != 1, nil, func(level int32, frontier []graph.Vertex) {
		for _, v := range frontier {
			distToSample[v] = level
		}
	})

	// Phase 2: the farthest vertex from the sample.
	w := sample[0]
	for v := 0; v < n; v++ {
		if distToSample[v] > distToSample[w] {
			w = graph.Vertex(v)
		}
	}
	dist := make([]int32, n)
	ecc := e.Distances(w, dist)
	res.BFSTraversals++
	if ecc > res.Estimate {
		res.Estimate = ecc
	}

	// Phase 3: the s vertices closest to w.
	type cand struct {
		v graph.Vertex
		d int32
	}
	cands := make([]cand, 0, n)
	for v := 0; v < n; v++ {
		if dist[v] > 0 {
			cands = append(cands, cand{graph.Vertex(v), dist[v]})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].d != cands[j].d {
			return cands[i].d < cands[j].d
		}
		return cands[i].v < cands[j].v
	})
	if len(cands) > s {
		cands = cands[:s]
	}
	for _, c := range cands {
		ecc := e.Eccentricity(c.v)
		res.BFSTraversals++
		if ecc > res.Estimate {
			res.Estimate = ecc
		}
	}
	return res
}
