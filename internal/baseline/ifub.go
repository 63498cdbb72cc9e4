package baseline

import (
	"fdiam/internal/bfs"
	"fdiam/internal/graph"
)

// IFUB computes the exact diameter with the iFUB algorithm (Crescenzi et
// al., "On computing the diameter of real-world undirected graphs", 2013).
//
// Per component: a 4-SWEEP finds a central starting vertex u and an initial
// lower bound. A BFS from u partitions the component into fringe sets
// F_i(u) (vertices at distance i). Processing fringes from the farthest
// level inward, the eccentricity of every fringe vertex is computed; once
// the lower bound exceeds 2·(i−1), no deeper vertex pair can beat it
// (every pair both below level i has distance ≤ 2·(i−1) through u) and the
// algorithm stops. Parallelism, as in the paper's evaluation, is inside
// each BFS.
func IFUB(g *graph.Graph, opt Options) Result {
	ctx, cancel := opt.context()
	defer cancel()
	res := Result{Infinite: isInfinite(g)}
	n := g.NumVertices()
	if n == 0 {
		return res
	}
	e := bfs.New(g, opt.Workers)
	dist := make([]int32, n)
	seen := make([]bool, n)

	for s := 0; s < n; s++ {
		if seen[s] || g.Degree(graph.Vertex(s)) == 0 {
			seen[s] = true
			continue
		}
		// Choose the max-degree vertex of this component as the
		// 4-sweep anchor (scanning the component via one BFS).
		ecc0 := e.Distances(graph.Vertex(s), dist)
		res.BFSTraversals++
		_ = ecc0
		anchor := graph.Vertex(s)
		bestDeg := g.Degree(anchor)
		for v := s; v < n; v++ {
			if dist[v] >= 0 && !seen[v] {
				seen[v] = true
				if d := g.Degree(graph.Vertex(v)); d > bestDeg {
					bestDeg = d
					anchor = graph.Vertex(v)
				}
			}
		}
		if ctx.Err() != nil {
			res.TimedOut = true
			return res
		}

		u, lb := fourSweep(g, e, anchor, &res.BFSTraversals)
		if lb > res.Diameter {
			res.Diameter = lb
		}

		// Fringe decomposition from u.
		eccU := e.Distances(u, dist)
		res.BFSTraversals++
		if eccU > res.Diameter {
			res.Diameter = eccU
		}
		fringes := make([][]graph.Vertex, eccU+1)
		for v := s; v < n; v++ {
			if dist[v] >= 0 {
				fringes[dist[v]] = append(fringes[dist[v]], graph.Vertex(v))
			}
		}
		// Process fringes from the deepest level inward. Before
		// fringe i is processed, every unprocessed pair has both
		// endpoints at levels ≤ i and hence distance ≤ 2·i through u;
		// once the lower bound reaches that ceiling, nothing deeper
		// can beat it.
		for i := eccU; i >= 1; i-- {
			if int64(res.Diameter) >= 2*int64(i) {
				break
			}
			for _, v := range fringes[i] {
				if ctx.Err() != nil {
					res.TimedOut = true
					return res
				}
				ecc := e.Eccentricity(v)
				res.BFSTraversals++
				if ecc > res.Diameter {
					res.Diameter = ecc
				}
			}
		}
	}
	return res
}

// FourSweepLB returns the 4-SWEEP lower bound and the central vertex it
// discovers (used by iFUB).
func FourSweepLB(g *graph.Graph, start graph.Vertex, opt Options) (lb int32, center graph.Vertex) {
	if g.NumVertices() == 0 || g.Degree(start) == 0 {
		return 0, start
	}
	e := bfs.New(g, opt.Workers)
	var traversals int64
	center, lb = fourSweep(g, e, start, &traversals)
	return lb, center
}

// fourSweep performs the 4-SWEEP heuristic: two double sweeps whose path
// midpoints converge toward a central vertex; returns that vertex and the
// largest eccentricity observed (a diameter lower bound).
func fourSweep(g *graph.Graph, e *bfs.Engine, r graph.Vertex, traversals *int64) (center graph.Vertex, lb int32) {
	a1, _ := farthestFrom(g, e, r, traversals)
	b1, d1, mid1 := sweepWithMidpoint(g, a1, traversals)
	_ = b1
	a2, _ := farthestFrom(g, e, mid1, traversals)
	_, d2, mid2 := sweepWithMidpoint(g, a2, traversals)
	lb = d1
	if d2 > lb {
		lb = d2
	}
	return mid2, lb
}

// farthestFrom returns a vertex maximally far from v and its distance.
func farthestFrom(g *graph.Graph, e *bfs.Engine, v graph.Vertex, traversals *int64) (graph.Vertex, int32) {
	ecc := e.Eccentricity(v)
	*traversals++
	return e.LastFrontier()[0], ecc
}

// sweepWithMidpoint runs a serial parent-recording BFS from a, returning a
// farthest vertex b, the distance d(a,b), and the midpoint of one shortest
// a–b path (the 4-SWEEP "third vertex selected along the path").
func sweepWithMidpoint(g *graph.Graph, a graph.Vertex, traversals *int64) (b graph.Vertex, d int32, mid graph.Vertex) {
	*traversals++
	n := g.NumVertices()
	parent := make([]graph.Vertex, n)
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[a] = 0
	parent[a] = a
	queue := make([]graph.Vertex, 1, 1024)
	queue[0] = a
	far := a
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		if dist[v] > dist[far] {
			far = v
		}
		for _, w := range g.Neighbors(v) {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				parent[w] = v
				queue = append(queue, w)
			}
		}
	}
	b, d = far, dist[far]
	mid = b
	for step := int32(0); step < d/2; step++ {
		mid = parent[mid]
	}
	return b, d, mid
}
