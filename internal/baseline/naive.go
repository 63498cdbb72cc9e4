package baseline

import (
	"fdiam/internal/ecc"
	"fdiam/internal/graph"
)

// Naive computes the diameter by running a full BFS from every vertex —
// the APSP-by-BFS approach the paper's introduction starts from,
// parallelized over sources by ecc.All. O(nm); ground truth for tests and
// the yardstick that makes Table 3's traversal counts meaningful.
func Naive(g *graph.Graph, opt Options) Result {
	ctx, cancel := opt.context()
	defer cancel()
	all := ecc.All(ctx, g, opt.Workers)
	res := Result{Infinite: isInfinite(g), BFSTraversals: all.BFSTraversals, TimedOut: all.Truncated}
	for _, e := range all.Eccs {
		res.Diameter = max(res.Diameter, e)
	}
	return res
}
