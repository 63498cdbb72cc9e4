package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"fdiam/internal/bfs"
	"fdiam/internal/core"
	"fdiam/internal/gen"
	"fdiam/internal/graph"
	"fdiam/internal/obs"
	"fdiam/internal/serve"
)

// probeReps is how often each probe call is repeated per graph.
const probeReps = 3

// probeGraphs times single layers directly on already-built graphs:
// graph.FromEdges on the graph's own edge set, bfs.Engine.Eccentricity,
// one 64-source MultiSourceRun, and the solver plain, with histograms
// armed (as fdiamd runs it) and with a Chrome trace attached (as
// fdiam -trace runs it). It leaves the process-wide histograms disarmed.
func probeGraphs(L map[string]value, tr *tracer, gs []*graph.Graph, cfg runConfig) {
	var build, trav, levels, levelUS, marcs, sw, msb, msl, armedR, tracedR, wait []float64
	reg := obs.Default()
	hWait := reg.Histogram("fdiam_par_dispatch_wait_seconds", "", obs.HistogramOpts{})
	timed := func(name string, f func()) float64 {
		t0 := time.Now()
		f()
		t1 := time.Now()
		tr.record(tr.newTrace(), 0, name, t0, t1)
		return float64(t1.Sub(t0).Nanoseconds()) / 1e6
	}
	for gi, g := range gs {
		n := g.NumVertices()
		edges := g.Edges()
		for i := 0; i < probeReps; i++ {
			build = append(build, timed("probe.graph.FromEdges", func() { graph.FromEdges(n, edges) }))
		}
		edges = nil

		// Arcs a traversal scans: those of the vertices it reaches, i.e.
		// of the source's component.
		cc := graph.ConnectedComponents(g)
		compArcs := make([]int64, cc.Count)
		for v := 0; v < n; v++ {
			compArcs[cc.ID[v]] += int64(g.Degree(graph.Vertex(v)))
		}
		e := bfs.New(g, cfg.workers)
		rng := gen.NewRNG(subSeed(cfg.seed, 99, uint64(gi)))
		srcs := []graph.Vertex{g.MaxDegreeVertex()}
		for len(srcs) < probeReps {
			srcs = append(srcs, graph.Vertex(rng.Uint32n(uint32(n))))
		}
		for _, s := range srcs {
			var ecc int32
			d := timed("probe.bfs", func() { ecc = e.Eccentricity(s) })
			lv := float64(ecc + 1)
			trav = append(trav, d)
			levels = append(levels, lv)
			levelUS = append(levelUS, d*1e3/lv)
			marcs = append(marcs, float64(compArcs[cc.ID[s]])/1e6/(d/1e3))
			sw = append(sw, float64(e.LastTraversalSwitches()))
		}
		batch := make([]graph.Vertex, 64)
		for i := range batch {
			batch[i] = graph.Vertex(rng.Uint32n(uint32(n)))
		}
		// One batch per graph: on a road graph a 64-source batch walks
		// thousands of levels and takes seconds.
		var r bfs.MultiSourceResult
		msb = append(msb, timed("probe.msbfs", func() { r = e.MultiSourceRun(batch, false) }))
		msl = append(msl, float64(r.Levels))
		e.Close()

		var plain, armed, traced []float64
		solve := func(opt core.Options) float64 {
			opt.Workers = cfg.workers
			t0 := time.Now()
			core.Diameter(g, opt)
			return float64(time.Since(t0).Nanoseconds()) / 1e6
		}
		for i := 0; i < probeReps; i++ {
			reg.ArmHistograms(false)
			plain = append(plain, solve(core.Options{}))
			reg.ArmHistograms(true)
			w0 := hWait.Sum()
			armed = append(armed, solve(core.Options{}))
			wait = append(wait, float64(hWait.Sum()-w0)/1e6)
			reg.ArmHistograms(false)
			run := obs.NewRun(obs.Config{ChromeTrace: io.Discard})
			traced = append(traced, solve(core.Options{Trace: run}))
			_ = run.Finish() // the sink discards; nothing to report
		}
		armedR = append(armedR, median(armed)/median(plain))
		tracedR = append(tracedR, median(traced)/median(plain))
	}
	L["graph.build_ms"] = medianOf(build)
	L["bfs.traversal_ms"] = medianOf(trav)
	L["bfs.levels"] = medianOf(levels)
	L["bfs.level_us"] = medianOf(levelUS)
	L["bfs.marcs_per_s"] = medianOf(marcs)
	L["bfs.dir_switches"] = medianOf(sw)
	L["msbfs.batch_ms"] = medianOf(msb)
	L["msbfs.levels"] = medianOf(msl)
	L["obs.armed_ratio"] = value{V: median(armedR), Samples: probeReps * len(gs), Note: "armed solve over plain solve"}
	L["obs.traced_ratio"] = value{V: median(tracedR), Samples: probeReps * len(gs), Note: "Chrome-traced solve over plain solve"}
	L["par.dispatch_wait_ms"] = value{V: median(wait), Samples: len(wait), Note: "per armed solve"}
}

// serveProbeRequests is the CLI workloads' fdiamd probe: one cold upload of
// the workload's file, then result-cache hits, enough for a p90 with ten
// samples beyond it.
const serveProbeRequests = 110

// probeServe uploads the CLI workload's file to a private in-process
// fdiamd with its own metrics registry (so the process-wide histograms
// stay disarmed), once cold and then as repeats.
func probeServe(L map[string]value, rep *report, cfg runConfig, path string, ref int32) error {
	body, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	hs, _, err := startServer(serve.Config{Workers: cfg.workers, MaxConcurrent: 1, Registry: reg})
	if err != nil {
		return err
	}
	defer hs.stop()
	c := newClient()
	defer c.CloseIdleConnections()
	var lat []float64
	var cold reply
	for i := 0; i < serveProbeRequests; i++ {
		rep.attempted++
		r, err := post(c, hs.base+"/diameter", body)
		if err == nil {
			err = checkExact(r.answer, ref)
		}
		if err != nil {
			rep.fail(fmt.Errorf("serve probe: %v", err))
			continue
		}
		if i == 0 {
			cold = r
		}
		lat = append(lat, r.latencyMS)
	}
	p90, err := percentile(lat, 90)
	if err != nil {
		return fmt.Errorf("serve probe: %v", err)
	}
	L["serve.cold_solve_ms"] = value{V: float64(cold.ElapsedNS) / 1e6, Samples: 1, Note: "response elapsed_ns"}
	L["serve.cold_overhead_ms"] = value{V: cold.latencyMS - float64(cold.ElapsedNS)/1e6, Samples: 1}
	L["serve.req_p90_ms"] = value{V: p90, Samples: len(lat)}
	counterLayers(L, readServe(reg)) // a private registry starts at zero
	rep.notes = append(rep.notes, fmt.Sprintf("serve.* come from a probe fdiamd: 1 cold upload of this file, then %d repeats",
		serveProbeRequests-1))
	return nil
}
