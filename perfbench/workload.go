package main

import (
	"fdiam/internal/gen"
	"fdiam/internal/graph"
)

// workload is one input set the benchmark runs. The rationale below is
// recorded next to each definition, as the seeds are: DefaultSeed makes the
// numbers line up with the stand-in catalog (internal/bench/catalog.go),
// and HeldOutSeed is reserved for confirming a claimed gain on a seed not
// used while the change was written.
type workload struct {
	Name        string
	DefaultSeed uint64
	HeldOutSeed uint64
	Why         string
	// build generates the workload's input from a seed (CLI workloads
	// only; serve-mix builds its pool in servemix.go).
	build func(seed uint64) *graph.Graph
	// binary selects fdiam's binary CSR encoding over a SNAP edge list.
	binary bool
	// inputs is how many graphs of the workload's shape a run generates:
	// the seed's own, then sub-seeds'. Answers cycle through them, so one
	// seed's quirks do not decide the run. Road graphs need more: the
	// number of eccentricity BFS, which sets the solve time, varies by
	// ±15% from seed to seed.
	inputs int
}

var workloads = []workload{
	{
		Name:        "social-text",
		DefaultSeed: 113,
		HeldOutSeed: 9113,
		// soc-LiveJournal1 stand-in: 187,500 vertices, 1.7 M edges,
		// diameter 21, written as a 20 MB SNAP edge list.
		Why: "Ingest is about two thirds of each answer (parse ≈500 ms, of which CSR build ≈115 ms, " +
			"against a ≈200–250 ms solve). It is the only catalog input where MS-BFS batching fires " +
			"(2 batches) and the BFS direction switches (6 switches), so it loads graphio, graph, " +
			"batching and direction optimisation.",
		build:  func(seed uint64) *graph.Graph { return gen.CoreWhiskers(187500, 10, 0.10, 7, seed) },
		inputs: 3,
	},
	{
		Name:        "serve-mix",
		DefaultSeed: 117,
		HeldOutSeed: 9117,
		Why: "Only this workload loads serve: upload, SHA-256, the two caches, admission with 2 " +
			"clients on 1 slot, and encode. Cold and repeat requests use ingest differently (a full " +
			"parse versus hash only), so a caching gain and its cost on the cold path both show.",
	},
}

// extraWorkloads run only when named (not by --workload all) and are not
// in BENCHMARK.json. road-bin left the benchmark's set to fit its time
// limit with longer runs: with three workloads a run could measure only
// 20 s, with two it measures 35 s, and each workload fewer is one fewer
// set of latencies that host drift can push past its bound. serve-mix's
// road graphs still load per-level cost, Eliminate and Chain, and its
// traced run reports those layers from them.
var extraWorkloads = []workload{
	{
		Name:        "road-bin",
		DefaultSeed: 116,
		HeldOutSeed: 9116,
		// USA-road-d.USA stand-in at full scale: 654,710 vertices,
		// diameter 2044, stored in binary CSR.
		Why: "Parsing is ≈3% of the answer and the solver ≈96%: ≈2,045 levels per traversal, " +
			"≈5,400 Eliminate calls and chain processing, zero batches and zero direction switches. " +
			"It loads per-level cost in bfs/par and core Eliminate/Chain, and is the workload that " +
			"skips ingest and batching changes, so for those the prediction is no change.",
		build:  func(seed uint64) *graph.Graph { return gen.Subdivide(gen.RoadNetwork(512, 512, 0.5, seed), 2) },
		binary: true,
		inputs: 6,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range append(append([]workload(nil), workloads...), extraWorkloads...) {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// subSeed derives an independent generator seed from a workload seed and
// a path of small integers (client, graph, ...) with the SplitMix64
// finalizer, so neighbouring workload seeds do not share sub-seeds.
func subSeed(seed uint64, path ...uint64) uint64 {
	z := seed
	for _, p := range path {
		z += 0x9e3779b97f4a7c15 * (p + 1)
		z ^= z >> 30
		z *= 0xbf58476d1ce4b009
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
	}
	return z
}
