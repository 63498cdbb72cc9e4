// Package fdiam computes the exact diameter of large, undirected,
// unweighted, sparse graphs with the F-Diam algorithm (Bradley,
// Mongandampulath Akathoott, Burtscher: "Fast Exact Diameter Computation of
// Sparse Graphs", ICPP 2025).
//
// F-Diam avoids the O(nm) all-pairs approach by removing vertices from
// consideration before their eccentricity is ever computed: a 2-sweep
// initial bound, the novel Winnowing technique (discarding the ball of
// radius bound/2 around a central vertex, justified by the theorems that
// every connected graph has two diameter-attaining vertices and no
// eccentricity below half the diameter), Chain Processing for degree-1
// pendants and degree-2 chains, and partial-BFS Eliminate passes. The few
// remaining eccentricities are computed with a parallel, level-synchronous,
// direction-optimized BFS.
//
// Quick start:
//
//	b := fdiam.NewBuilder(4)
//	b.AddEdge(0, 1)
//	b.AddEdge(1, 2)
//	b.AddEdge(2, 3)
//	res := fdiam.Diameter(b.Build())
//	fmt.Println(res.Diameter) // 3
//
// For disconnected inputs Result.Infinite is true and Result.Diameter
// reports the largest eccentricity over all connected components, the same
// convention as the paper's implementation.
package fdiam

import (
	"bytes"
	"context"
	"fmt"
	"os"

	"fdiam/internal/baseline"
	"fdiam/internal/core"
	"fdiam/internal/ecc"
	"fdiam/internal/gen"
	"fdiam/internal/graph"
	"fdiam/internal/graphio"
	"fdiam/internal/obs"
)

// Graph is an immutable undirected graph in compressed-sparse-row form.
// Build one with a Builder, a generator, or a loader.
type Graph = graph.Graph

// Builder accumulates edges and produces a clean Graph (self-loops removed,
// parallel edges deduplicated, adjacency sorted).
type Builder = graph.Builder

// Edge is an undirected edge.
type Edge = graph.Edge

// Vertex is a dense vertex identifier in [0, NumVertices).
type Vertex = graph.Vertex

// Options configures a Diameter computation; the zero value runs the full
// parallel algorithm. See the fields for the paper's ablation toggles.
type Options = core.Options

// CheckpointOptions (the Options.Checkpoint field) makes a long solve
// crash-safe: the solver periodically snapshots its state to Dir and a later
// run resuming via ResumeFrom redoes at most one checkpoint interval of
// work. Snapshots are CRC-guarded, bound to the graph's content hash, and
// any resume failure degrades to a fresh — still exact — solve.
type CheckpointOptions = core.CheckpointOptions

// Result is the outcome of a diameter computation, including the per-stage
// statistics (BFS counts, removal percentages, stage timings) the paper
// reports in its evaluation.
type Result = core.Result

// Stats holds the evaluation metrics of a run.
type Stats = core.Stats

//
// Observability — structured run tracing, Chrome trace export, metrics, and
// live progress (see internal/obs).
//

// TraceConfig selects the event sinks of an observability run: a Chrome
// trace-event JSON writer (Perfetto / chrome://tracing), an NDJSON event-log
// writer, and the metrics registry (nil selects DefaultMetrics).
type TraceConfig = obs.Config

// TraceRun is an observability run. Set it as Options.Trace to receive
// run/stage/traversal/level spans and live progress from a Diameter
// computation; call Finish when done to flush the sinks. A nil *TraceRun
// disables all instrumentation with zero overhead.
type TraceRun = obs.Run

// RunSnapshot is the live progress view of a TraceRun (current stage, bound,
// active vertices, elapsed time) — the /progress JSON document.
type RunSnapshot = obs.Snapshot

// MetricsRegistry is a named counter/gauge set with Prometheus text-format
// exposition.
type MetricsRegistry = obs.Registry

// ObservabilityServer is a live /metrics + /progress + /debug/pprof endpoint.
type ObservabilityServer = obs.Server

// NewTraceRun creates an observability run and installs it as the
// process-wide current run (read by /progress).
func NewTraceRun(cfg TraceConfig) *TraceRun { return obs.NewRun(cfg) }

// CurrentTraceRun returns the most recently created TraceRun (possibly
// already finished), or nil.
func CurrentTraceRun() *TraceRun { return obs.Current() }

// DefaultMetrics returns the process-wide metrics registry, where the BFS
// and worker-pool instruments register.
func DefaultMetrics() *MetricsRegistry { return obs.Default() }

// ServeObservability serves /metrics (Prometheus text), /progress (JSON
// snapshot of the current run), and /debug/pprof on addr (e.g. ":6060", or
// "127.0.0.1:0" for a free port — read it back with Addr). Close the
// returned server to stop.
func ServeObservability(addr string) (*ObservabilityServer, error) { return obs.Serve(addr, nil) }

// NewBuilder creates a Builder for a graph with n vertices (the graph grows
// automatically if larger vertex ids are added).
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromEdges builds a graph with n vertices from an edge list.
func FromEdges(n int, edges []Edge) *Graph { return graph.FromEdges(n, edges) }

// Diameter computes the exact diameter of g with the full parallel F-Diam
// algorithm.
func Diameter(g *Graph) Result { return core.Diameter(g, core.Options{}) }

// DiameterWithOptions computes the exact diameter with explicit options
// (serial mode, ablations, worker count, timeout).
func DiameterWithOptions(g *Graph, opt Options) Result { return core.Diameter(g, opt) }

// DiameterCtx computes the exact diameter under a context: cancelling ctx
// (or exceeding Options.Timeout) aborts the computation at the next BFS
// level boundary and returns the best lower bound established so far with
// Result.Cancelled (and, for deadlines, Result.TimedOut) set. This is the
// entry point for deadline-bound callers — interactive tools and serving
// layers that must not overshoot a request budget.
func DiameterCtx(ctx context.Context, g *Graph, opt Options) Result {
	return core.DiameterCtx(ctx, g, opt)
}

// Eccentricities computes the exact eccentricity of every vertex with
// Takes–Kosters eccentricity bounding (see AllEccentricities) —
// typically a small fraction of n BFS traversals.
func Eccentricities(g *Graph, workers int) []int32 {
	eccs, _ := AllEccentricities(g, workers)
	return eccs
}

// RadiusAndCenter computes the graph radius (smallest eccentricity within
// the largest connected component) and the center vertices attaining it,
// from the bounded eccentricities of AnalyzeNetwork.
func RadiusAndCenter(g *Graph, workers int) (int32, []Vertex) {
	info := AnalyzeNetwork(g, workers)
	return info.Radius, info.Center
}

// Periphery computes the largest connected component's vertices attaining
// its diameter, from the bounded eccentricities of AnalyzeNetwork.
func Periphery(g *Graph, workers int) []Vertex {
	return AnalyzeNetwork(g, workers).Periphery
}

// BaselineResult is the outcome of one of the prior-work algorithms.
type BaselineResult = baseline.Result

// BaselineOptions configures a baseline run.
type BaselineOptions = baseline.Options

// DiameterIFUB computes the exact diameter with the iFUB algorithm
// (Crescenzi et al. 2013), the primary comparison code in the paper.
func DiameterIFUB(g *Graph, opt BaselineOptions) BaselineResult { return baseline.IFUB(g, opt) }

// DiameterBounding computes the exact diameter with the Graph-Diameter /
// BoundingDiameters eccentricity-bounding scheme (Akiba et al. 2015,
// undirected restriction).
func DiameterBounding(g *Graph, opt BaselineOptions) BaselineResult { return baseline.Bounding(g, opt) }

// DiameterKorf computes the exact diameter with Korf's partial-BFS
// algorithm (2021).
func DiameterKorf(g *Graph, opt BaselineOptions) BaselineResult { return baseline.Korf(g, opt) }

// DiameterNaive computes the exact diameter with one BFS per vertex — the
// O(nm) reference.
func DiameterNaive(g *Graph, opt BaselineOptions) BaselineResult { return baseline.Naive(g, opt) }

// DiameterTakesKosters computes the exact diameter with the adaptive
// BoundingDiameters algorithm (Takes & Kosters 2011) — a stronger selection
// strategy than the paper's Graph-Diameter baseline, provided as an
// extension.
func DiameterTakesKosters(g *Graph, opt BaselineOptions) BaselineResult {
	return baseline.TakesKosters(g, opt)
}

// DiameterVertexCentric computes the diameter with a bit-parallel
// multi-source BFS over every vertex — the vertex-centric scheme of
// Pennycuff & Weninger (2015) from the paper's related work. Θ(n·m/64)
// work: small graphs only.
func DiameterVertexCentric(g *Graph, opt BaselineOptions) BaselineResult {
	return baseline.VertexCentric(g, opt)
}

// DiameterFloydWarshall computes the diameter via blocked Floyd–Warshall
// APSP (the CPU analog of the GPU implementation in the paper's related
// work). Θ(n³) time, Θ(n²) memory: small graphs only; larger inputs are
// refused with TimedOut set.
func DiameterFloydWarshall(g *Graph, opt BaselineOptions) BaselineResult {
	return baseline.FloydWarshall(g, opt)
}

// EstimateDiameter returns the Roditty–Vassilevska Williams sampling
// estimate: a certified lower bound that is at least ⌊2D/3⌋ with high
// probability, using about 2√n BFS traversals. sampleSize ≤ 0 selects ⌈√n⌉.
func EstimateDiameter(g *Graph, sampleSize int, seed uint64) int32 {
	return baseline.RodittyWilliams(g, sampleSize, seed, baseline.Options{}).Estimate
}

// NetworkInfo bundles the eccentricity distribution of a graph: diameter,
// radius, center, periphery, and per-vertex eccentricities.
type NetworkInfo = ecc.Info

// AnalyzeNetwork computes NetworkInfo with the Takes–Kosters bounded
// all-eccentricities algorithm — typically a small fraction of n BFS
// traversals instead of the brute-force n. Cancellable callers use
// AnalyzeNetworkCtx.
func AnalyzeNetwork(g *Graph, workers int) NetworkInfo {
	//fdiamlint:ignore ctxflow the facade's whole point is synthesizing the root ctx for AnalyzeNetworkCtx
	return AnalyzeNetworkCtx(context.Background(), g, workers)
}

// AnalyzeNetworkCtx is AnalyzeNetwork under a context: cancelling ctx stops
// the computation at the next BFS boundary, and the aggregates then reflect
// the (sound but inexact) lower bounds established so far — use
// AllEccentricitiesCtx directly when the truncation verdict matters.
func AnalyzeNetworkCtx(ctx context.Context, g *Graph, workers int) NetworkInfo {
	return ecc.Summarize(g, ecc.BoundedAll(ctx, g, workers).Eccs)
}

// AllEccentricities computes the exact eccentricity of every vertex with
// eccentricity bounding, returning the values and the number of BFS
// traversals spent. Cancellable callers use AllEccentricitiesCtx.
func AllEccentricities(g *Graph, workers int) ([]int32, int64) {
	//fdiamlint:ignore ctxflow the facade's whole point is synthesizing the root ctx for AllEccentricitiesCtx
	eccs, traversals, _ := AllEccentricitiesCtx(context.Background(), g, workers)
	return eccs, traversals
}

// AllEccentricitiesCtx is AllEccentricities under a context, additionally
// reporting whether cancellation truncated the computation (mirroring
// ecc.AllResult.Truncated: unresolved entries then hold valid lower bounds,
// not exact eccentricities).
func AllEccentricitiesCtx(ctx context.Context, g *Graph, workers int) (eccs []int32, traversals int64, truncated bool) {
	res := ecc.BoundedAll(ctx, g, workers)
	return res.Eccs, res.BFSTraversals, res.Truncated
}

// ReorderBFS relabels g in BFS discovery order from the max-degree vertex,
// which improves CSR locality for traversal-heavy workloads. Distances and
// the diameter are invariant under relabeling.
func ReorderBFS(g *Graph) *Graph { return graph.Permute(g, graph.BFSOrder(g)) }

// ReorderByDegree relabels g by descending degree.
func ReorderByDegree(g *Graph) *Graph { return graph.Permute(g, graph.DegreeOrder(g)) }

// ConnectedComponents labels the connected components of g.
func ConnectedComponents(g *Graph) *graph.Components { return graph.ConnectedComponents(g) }

// LargestComponent extracts the largest connected component (new ids) and
// the mapping back to original ids.
func LargestComponent(g *Graph) (*Graph, []Vertex) { return graph.LargestComponent(g) }

// GraphStats summarizes structural properties (Table 1's columns).
type GraphStats = graph.Stats

// ComputeGraphStats gathers GraphStats in O(n+m).
func ComputeGraphStats(g *Graph) GraphStats { return graph.ComputeStats(g) }

//
// Generators — deterministic synthetic graphs (see internal/gen for the
// full set; these cover the topology classes of the paper's inputs).
//

// NewGrid2D returns the w×h 4-neighbor grid.
func NewGrid2D(w, h int) *Graph { return gen.Grid2D(w, h) }

// NewTriangularGrid returns the w×h triangulated grid (avg degree ≈ 6).
func NewTriangularGrid(w, h int) *Graph { return gen.TriangularGrid(w, h) }

// NewPath returns the path graph on n vertices.
func NewPath(n int) *Graph { return gen.Path(n) }

// NewCycle returns the cycle graph on n vertices.
func NewCycle(n int) *Graph { return gen.Cycle(n) }

// NewRMAT returns a recursive-matrix power-law graph with 2^scale vertices
// and about edgeFactor·2^scale edges.
func NewRMAT(scale, edgeFactor int, seed uint64) *Graph {
	return gen.RMAT(scale, edgeFactor, gen.DefaultRMAT, seed)
}

// NewKronecker returns a Graph500-style Kronecker graph.
func NewKronecker(scale, edgeFactor int, seed uint64) *Graph {
	return gen.Kronecker(scale, edgeFactor, seed)
}

// NewBarabasiAlbert returns a preferential-attachment graph (n vertices,
// k edges per new vertex). Note that pure preferential attachment yields
// ultra-small diameters (~log n); real social/web networks — and the
// paper's inputs — have larger diameters from their sparse periphery, which
// NewSocialNetwork models.
func NewBarabasiAlbert(n, k int, seed uint64) *Graph { return gen.BarabasiAlbert(n, k, seed) }

// NewSocialNetwork returns a power-law graph with the core–periphery
// structure of real social/web networks: a preferential-attachment core
// plus sparse tree "whiskers" of the given depth, which set the diameter to
// roughly 2·whiskerDepth + core diameter. whiskerFrac is the fraction of
// vertices in the periphery.
func NewSocialNetwork(n, k int, whiskerFrac float64, whiskerDepth int, seed uint64) *Graph {
	return gen.CoreWhiskers(n, k, whiskerFrac, whiskerDepth, seed)
}

// NewRoadNetwork returns a road-map-like graph: a random spanning tree of
// the w×h grid plus extraFrac of the remaining grid edges.
func NewRoadNetwork(w, h int, extraFrac float64, seed uint64) *Graph {
	return gen.RoadNetwork(w, h, extraFrac, seed)
}

// NewRandomConnected returns a connected random graph (random tree plus
// extra uniform edges).
func NewRandomConnected(n, extra int, seed uint64) *Graph {
	return gen.RandomConnected(n, extra, seed)
}

//
// I/O — edge list, DIMACS, Matrix Market, and binary CSR.
//

// LoadFile reads a graph file. ".metis"/".graph" files are parsed as METIS
// (their header is ambiguous with edge lists, so the extension decides);
// everything else is sniffed (binary CSR, Matrix Market, DIMACS, or plain
// edge list).
func LoadFile(path string) (*Graph, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fdiam: %w", err)
	}
	if hasSuffix(path, ".metis") || hasSuffix(path, ".graph") {
		return graphio.ReadMETIS(bytes.NewReader(data))
	}
	return graphio.ReadAuto(data)
}

// SaveFile writes a graph in the format implied by the extension:
// ".bin" → binary CSR, ".mtx" → Matrix Market, ".gr" → DIMACS,
// ".metis"/".graph" → METIS, anything else → edge list.
func SaveFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("fdiam: %w", err)
	}
	defer f.Close()
	switch {
	case hasSuffix(path, ".bin"):
		err = graphio.WriteBinary(f, g)
	case hasSuffix(path, ".mtx"):
		err = graphio.WriteMatrixMarket(f, g)
	case hasSuffix(path, ".gr"):
		err = graphio.WriteDIMACS(f, g)
	case hasSuffix(path, ".metis"), hasSuffix(path, ".graph"):
		err = graphio.WriteMETIS(f, g)
	default:
		err = graphio.WriteEdgeList(f, g)
	}
	if err != nil {
		return err
	}
	return f.Close()
}

func hasSuffix(s, suf string) bool {
	return len(s) >= len(suf) && s[len(s)-len(suf):] == suf
}
