package ecc

import (
	"context"

	"fdiam/internal/bfs"
	"fdiam/internal/bitset"
	"fdiam/internal/graph"
)

// AllResult is the outcome of an all-eccentricities computation.
type AllResult struct {
	// Eccs holds the exact eccentricity of every vertex (per connected
	// component).
	Eccs []int32
	// BFSTraversals counts the full BFS calls performed; the point of
	// the bounding algorithm is that this stays far below n.
	BFSTraversals int64
	// Truncated reports that the context was cancelled before every
	// vertex resolved. The Eccs of unresolved vertices then hold their
	// best-known lower bounds (sound: the triangle-inequality bounds only
	// ever tighten), not exact eccentricities.
	Truncated bool
}

// BoundedAll computes the exact eccentricity of every vertex with the
// Takes–Kosters eccentricity-bounding algorithm: per-vertex lower and upper
// bounds are tightened from every BFS via the triangle inequality
// (max(d, ecc−d) ≤ ecc(w) ≤ ecc+d), and a vertex is resolved the moment its
// bounds meet. Sources alternate between the largest upper bound and the
// smallest lower bound among unresolved vertices. On core–periphery graphs
// this resolves all n eccentricities in a handful of traversals — the
// natural companion to F-Diam when the full eccentricity distribution
// (center, periphery, per-vertex closeness) is wanted rather than just the
// diameter.
//
// Cancelling ctx stops the computation at the next traversal boundary; the
// result then carries Truncated=true with lower bounds in place of the
// unresolved eccentricities.
func BoundedAll(ctx context.Context, g *graph.Graph, workers int) AllResult {
	res, _ := bounding(ctx, g, workers, false)
	return res
}

// BoundedDiameter runs BoundedAll's loop in diameter-only mode — the
// BoundingDiameters algorithm of Takes & Kosters (2011): it additionally
// drops every vertex whose upper bound cannot beat the diameter lower
// bound, so it stops once no remaining vertex can raise the diameter
// rather than once every eccentricity is exact. It returns that diameter
// (the largest eccentricity over all components), the BFS traversals
// spent, and whether cancelling ctx truncated the run (the diameter is
// then a lower bound).
func BoundedDiameter(ctx context.Context, g *graph.Graph, workers int) (diameter int32, traversals int64, truncated bool) {
	res, diameter := bounding(ctx, g, workers, true)
	return diameter, res.BFSTraversals, res.Truncated
}

// bounding is the one Takes–Kosters kernel behind BoundedAll and
// BoundedDiameter. It returns the eccentricity vector and the diameter
// lower bound, the largest eccentricity computed. That bound is TK's
// max-lower-bound rule: every lo[v] = max(d, ecc−d) is at most the ecc of
// the BFS that set it, so no lo[v] can exceed the bound. In diameterOnly
// mode a vertex leaves once hi[v] ≤ bound; its Eccs entry then holds lo[v].
func bounding(ctx context.Context, g *graph.Graph, workers int, diameterOnly bool) (AllResult, int32) {
	n := g.NumVertices()
	res := AllResult{Eccs: make([]int32, n)}
	var bound int32
	if n == 0 {
		return res, bound
	}
	e := bfs.New(g, workers)
	defer e.Close()
	dist := make([]int32, n)
	lo := make([]int32, n)
	hi := make([]int32, n)
	unresolved := bitset.New(n)
	remaining := 0
	for v := 0; v < n; v++ {
		if g.Degree(graph.Vertex(v)) == 0 {
			continue // isolated: eccentricity 0, already resolved
		}
		hi[v] = int32(n)
		unresolved.Set(v)
		remaining++
	}

	pickHigh := true
	for remaining > 0 {
		if ctx.Err() != nil {
			// Cancelled: report the surviving lower bounds — valid
			// (if loose) eccentricity statements — instead of hanging on
			// for up to n more traversals.
			unresolved.ForEach(func(v int) { res.Eccs[v] = lo[v] })
			res.Truncated = true
			return res, bound
		}
		// Select the next source among unresolved vertices.
		sel := -1
		unresolved.ForEach(func(v int) {
			if sel < 0 {
				sel = v
				return
			}
			// Largest upper bound, or smallest lower bound; ties go to
			// the higher degree, then to the lower id.
			key, selKey := hi[v], hi[sel]
			if !pickHigh {
				key, selKey = -lo[v], -lo[sel]
			}
			if key > selKey || (key == selKey && g.Degree(graph.Vertex(v)) > g.Degree(graph.Vertex(sel))) {
				sel = v
			}
		})
		pickHigh = !pickHigh

		ecc := e.Distances(graph.Vertex(sel), dist)
		res.BFSTraversals++
		res.Eccs[sel] = ecc
		bound = max(bound, ecc)
		unresolved.Clear(sel)
		remaining--

		for v := 0; v < n; v++ {
			if !unresolved.Test(v) {
				continue
			}
			d := dist[v]
			if d < 0 {
				continue // other component
			}
			lo[v] = max(lo[v], d, ecc-d)
			hi[v] = min(hi[v], ecc+d)
			if lo[v] == hi[v] || (diameterOnly && hi[v] <= bound) {
				res.Eccs[v] = lo[v]
				unresolved.Clear(v)
				remaining--
			}
		}
	}
	return res, bound
}
