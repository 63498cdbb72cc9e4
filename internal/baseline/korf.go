package baseline

import (
	"fdiam/internal/graph"
)

// Korf computes the exact diameter with Korf's partial-BFS algorithm
// (SoCS 2021), discussed in the paper's related work: a set S of active
// vertices starts with every vertex; each BFS may terminate as soon as all
// remaining members of S have been visited, because a larger distance can
// only be realized between two vertices that have not yet been BFS
// sources. After each BFS the source leaves S. For every vertex pair, the
// earlier-processed endpoint still has the other in S, so the pair's
// distance is observed and the maximum over all runs is the diameter.
//
// The algorithm still issues one (partial) BFS per vertex, which is why the
// paper's authors chose not to adopt it — its early termination conflicts
// with Winnowing. It is implemented serially; it serves as an extension
// baseline, not a headline competitor.
func Korf(g *graph.Graph, opt Options) Result {
	ctx, cancel := opt.context()
	defer cancel()
	res := Result{Infinite: isInfinite(g)}
	n := g.NumVertices()
	if n == 0 {
		return res
	}
	inS := make([]bool, n)
	remaining := 0
	for v := 0; v < n; v++ {
		if g.Degree(graph.Vertex(v)) > 0 {
			inS[v] = true
			remaining++
		}
	}
	// Per-traversal visited epochs (same counter trick as the engine).
	cnt := make([]uint32, n)
	var epoch uint32
	wl1 := make([]graph.Vertex, 0, n)
	wl2 := make([]graph.Vertex, 0, n)

	for s := 0; s < n; s++ {
		if !inS[s] {
			continue
		}
		if ctx.Err() != nil {
			res.TimedOut = true
			return res
		}
		epoch++
		cnt[s] = epoch
		wl1 = append(wl1[:0], graph.Vertex(s))
		// The source is in S and counts as visited.
		sVisited := 1
		var level int32
		for len(wl1) > 0 && sVisited < remaining {
			level++
			wl2 = wl2[:0]
			for _, v := range wl1 {
				for _, w := range g.Neighbors(v) {
					if cnt[w] == epoch {
						continue
					}
					cnt[w] = epoch
					if inS[w] {
						sVisited++
						if level > res.Diameter {
							res.Diameter = level
						}
					}
					wl2 = append(wl2, w)
				}
			}
			wl1, wl2 = wl2, wl1
		}
		res.BFSTraversals++
		inS[s] = false
		remaining--
	}
	return res
}
