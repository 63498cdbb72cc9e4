package baseline

import (
	"fdiam/internal/bfs"
	"fdiam/internal/graph"
)

// VertexCentric computes the diameter in the style of Pennycuff & Weninger
// (2015), discussed in the paper's related work: the eccentricity of every
// vertex is computed "simultaneously" by propagating per-source reach
// information along edges until no message moves. This implementation uses
// the bit-parallel MS-BFS formulation (64 sources per machine word per
// sweep), which is the memory-sane equivalent of their per-message
// histories — the paper notes the original runs out of memory on larger
// graphs, and either way the approach performs Θ(n·m/64) work, so it is
// only competitive on small graphs (their own observation).
func VertexCentric(g *graph.Graph, opt Options) Result {
	// The context also lets the MS-BFS engine abort mid-sweep (truncated
	// level counts are still valid lower bounds).
	ctx, cancel := opt.context()
	defer cancel()
	res := Result{Infinite: isInfinite(g)}
	n := g.NumVertices()
	if n == 0 {
		return res
	}
	// Process sources in batches so the timeout can take effect between
	// sweeps; each batch counts as its 64 traversals for Table 3-style
	// comparisons (the work performed is equivalent).
	batch := make([]graph.Vertex, 0, 64)
	for v := 0; v < n; v++ {
		if g.Degree(graph.Vertex(v)) == 0 {
			continue
		}
		batch = append(batch, graph.Vertex(v))
		if len(batch) < 64 && v != n-1 {
			continue
		}
		if ctx.Err() != nil {
			res.TimedOut = true
			return res
		}
		for _, e := range bfs.MultiSourceEccentricities(ctx, g, batch, opt.Workers) {
			if e > res.Diameter {
				res.Diameter = e
			}
		}
		res.BFSTraversals += int64(len(batch))
		batch = batch[:0]
	}
	if len(batch) > 0 {
		for _, e := range bfs.MultiSourceEccentricities(ctx, g, batch, opt.Workers) {
			if e > res.Diameter {
				res.Diameter = e
			}
		}
		res.BFSTraversals += int64(len(batch))
	}
	return res
}
