package baseline

import (
	"fdiam/internal/graph"
	"fdiam/internal/par"
)

// fwInf is the "no path" distance. Small enough that inf+inf cannot
// overflow int32.
const fwInf int32 = 1 << 29

// FloydWarshall computes the diameter via blocked (tiled) Floyd–Warshall
// APSP — the CPU analog of Takafuji et al.'s GPU "single kernel"
// implementation discussed in the paper's related work. The n×n distance
// matrix is partitioned into B×B tiles processed in the classic three
// phases per round (diagonal tile, its row/column, the remainder), with
// phases 2 and 3 parallelized over tiles.
//
// Θ(n³) time and Θ(n²) memory: exactly why the paper's approach exists.
// Refuses graphs beyond maxFloydWarshallVertices; the original tops out at
// 32,768 vertices on a GPU.
func FloydWarshall(g *graph.Graph, opt Options) Result {
	ctx, cancel := opt.context()
	defer cancel()
	res := Result{Infinite: isInfinite(g)}
	n := g.NumVertices()
	if n == 0 {
		return res
	}
	if n > MaxFloydWarshallVertices {
		res.TimedOut = true // out of this algorithm's reach, like the paper's T/O
		return res
	}
	workers := opt.Workers
	if workers < 1 {
		workers = par.DefaultWorkers()
	}

	// Pad to a multiple of the tile size so every tile is full.
	const B = 64
	nb := (n + B - 1) / B
	np := nb * B
	dist := make([]int32, np*np)
	for i := range dist {
		dist[i] = fwInf
	}
	for v := 0; v < n; v++ {
		dist[v*np+v] = 0
		for _, w := range g.Neighbors(graph.Vertex(v)) {
			dist[v*np+int(w)] = 1
		}
	}

	// relaxTile relaxes tile (ti,tj) through tile round k:
	// d[i][j] = min(d[i][j], d[i][kk] + d[kk][j]) for kk in k's block.
	relaxTile := func(ti, tj, k int) {
		iBase, jBase, kBase := ti*B, tj*B, k*B
		for kk := kBase; kk < kBase+B; kk++ {
			kRow := kk * np
			for i := iBase; i < iBase+B; i++ {
				dik := dist[i*np+kk]
				if dik >= fwInf {
					continue
				}
				row := i * np
				for j := jBase; j < jBase+B; j++ {
					if via := dik + dist[kRow+j]; via < dist[row+j] {
						dist[row+j] = via
					}
				}
			}
		}
	}

	for k := 0; k < nb; k++ {
		if ctx.Err() != nil {
			res.TimedOut = true
			return res
		}
		// Phase 1: the diagonal tile, self-dependent.
		relaxTile(k, k, k)
		// Phase 2: the k-th tile row and column (2·(nb−1) independent
		// tiles).
		par.For(nb, workers, 1, func(t int) {
			if t == k {
				return
			}
			relaxTile(k, t, k) // row
			relaxTile(t, k, k) // column
		})
		// Phase 3: all remaining tiles, independent given phases 1–2.
		par.For(nb*nb, workers, nb, func(idx int) {
			ti, tj := idx/nb, idx%nb
			if ti == k || tj == k {
				return
			}
			relaxTile(ti, tj, k)
		})
	}

	// The diameter is the largest finite distance (per component).
	var diam int32
	for i := 0; i < n; i++ {
		row := i * np
		for j := 0; j < n; j++ {
			if d := dist[row+j]; d < fwInf && d > diam {
				diam = d
			}
		}
	}
	res.Diameter = diam
	// Matrix-based APSP has no BFS traversals; report the n "sources" it
	// implicitly solves so Table-3-style comparisons stay meaningful.
	res.BFSTraversals = int64(n)
	return res
}

// MaxFloydWarshallVertices bounds the Θ(n²) distance matrix (32 k vertices
// = 4 GiB padded; the default keeps it ≤ 1 GiB).
var MaxFloydWarshallVertices = 16384
