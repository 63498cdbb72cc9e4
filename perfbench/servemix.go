package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"fdiam/internal/gen"
	"fdiam/internal/graph"
	"fdiam/internal/graphio"
	"fdiam/internal/obs"
	"fdiam/internal/serve"
)

// Request classes of the serve-mix script. The script fixes each request's
// class: what the server's caches hold when it arrives follows from the
// order alone.
const (
	classCold      = "cold"       // first exact upload of a graph: parse and solve
	classApprox    = "approx"     // first upload, ?mode=approx&sweeps=4
	classGraphHit  = "graph_hit"  // exact upload of a graph an approx request parsed
	classResultHit = "result_hit" // re-upload of an answered graph: hash only
	classStaged    = "staged"     // ?path= naming an answered, staged graph
)

const (
	mixClients     = 2 // closed-loop callers, one per core (nproc here)
	graphsPerKind  = 3 // social and road graphs each client owns
	repeatsPerGrph = 8 // result_hit re-uploads per graph
	stagedPerPass  = 4 // staged requests per client
	approxPerPass  = 2 // approx first requests per client
	untracedPasses = 3 // the traced run's untraced tail, for trace.overhead_ratio
	// poolsPerRun is how many pools of 12 graphs a run draws from its
	// seed; passes cycle through them, so one seed's quirks weigh a third.
	poolsPerRun = 3
)

type request struct {
	Class string
	Graph int // the client's graph: 0..2 social, 3..5 road
}

// makeScript returns one client's 60 requests for one pass, a pure
// function of the seed and the client. Every graph's first request comes
// first; an approx graph's exact graph_hit comes next; only then come the
// repeats (8 result_hit per graph and 4 staged), shuffled together.
//
// The approx requests go to road graphs. A social stand-in's hub often
// sits at its centre, where 2·ecc equals an even diameter: the corridor
// then closes, the answer is cached as exact, and the scripted graph_hit
// would be served as a result hit. The staged requests name social graphs,
// so the median over all requests falls inside the social repeat cluster
// instead of the gap between the road and social clusters.
func makeScript(seed uint64, client int) []request {
	rng := gen.NewRNG(subSeed(seed, 7, uint64(client)))
	approx := map[int]bool{}
	for _, r := range rng.Perm(graphsPerKind)[:approxPerPass] {
		approx[graphsPerKind+r] = true
	}
	var s []request
	for _, g := range rng.Perm(2 * graphsPerKind) {
		if approx[g] {
			s = append(s, request{classApprox, g})
		} else {
			s = append(s, request{classCold, g})
		}
	}
	for _, g := range rng.Perm(2 * graphsPerKind) {
		if approx[g] {
			s = append(s, request{classGraphHit, g})
		}
	}
	var rest []request
	for g := 0; g < 2*graphsPerKind; g++ {
		for i := 0; i < repeatsPerGrph; i++ {
			rest = append(rest, request{classResultHit, g})
		}
	}
	for i := 0; i < stagedPerPass; i++ {
		rest = append(rest, request{classStaged, rng.Intn(graphsPerKind)})
	}
	for _, i := range rng.Perm(len(rest)) {
		s = append(s, rest[i])
	}
	return s
}

// poolGraph is one graph a client owns, staged on disk and kept as the
// bytes the client uploads. The graph itself is not kept: the server's
// collector would pace itself against that extra live heap, which a real
// fdiamd does not carry.
type poolGraph struct {
	social bool
	name   string // file name in the staged directory
	body   []byte
	ref    int32
}

// load parses the upload body again, for the checks and probes that need
// the graph after the timed loop.
func (pg poolGraph) load() (*graph.Graph, error) { return graphio.ReadAuto(pg.body) }

// buildPools generates poolsPerRun pools, each with 6 graphs per client,
// stages them as edge lists in dir and computes their reference diameters.
func buildPools(cfg runConfig, dir string) ([][][]poolGraph, error) {
	pools := make([][][]poolGraph, poolsPerRun)
	for k := range pools {
		pools[k] = make([][]poolGraph, mixClients)
		for c := range pools[k] {
			for j := 0; j < 2*graphsPerKind; j++ {
				s := subSeed(cfg.seed, uint64(k), uint64(c), uint64(j))
				pg := poolGraph{social: j < graphsPerKind, name: fmt.Sprintf("p%d-c%d-g%d.txt", k, c, j)}
				var g *graph.Graph
				if pg.social {
					g = gen.CoreWhiskers(50000, 10, 0.10, 7, s)
				} else {
					g = gen.Subdivide(gen.RoadNetwork(160, 160, 0.5, s), 2)
				}
				path := filepath.Join(dir, pg.name)
				if err := writeGraph(path, g, false); err != nil {
					return nil, err
				}
				body, err := os.ReadFile(path)
				if err != nil {
					return nil, err
				}
				pg.body = body
				if pg.ref, err = reference(g, cfg.workers); err != nil {
					return nil, fmt.Errorf("%s: %w", pg.name, err)
				}
				pools[k][c] = append(pools[k][c], pg)
			}
		}
	}
	return pools, nil
}

// sample is one answered request.
type sample struct {
	class     string
	social    bool
	latencyMS float64
	elapsedMS float64
}

// mixState accumulates one run's samples; the clients of a pass append
// concurrently.
type mixState struct {
	mu      sync.Mutex
	samples []sample
	last    map[string]answer // last exact answer per graph, for the witness check
}

func newMixState() *mixState { return &mixState{last: map[string]answer{}} }

// runPass starts a fresh server (cold caches), drives the two clients'
// scripts to completion and stops the server. It returns the set-up time.
func runPass(cfg runConfig, pool [][]poolGraph, dir string, st *mixState, rep *report, tr *tracer) (time.Duration, error) {
	hs, setup, err := startServer(serve.Config{Workers: cfg.workers, MaxConcurrent: 1, GraphDir: dir})
	if err != nil {
		return 0, err
	}
	defer hs.stop()
	var wg sync.WaitGroup
	for c := 0; c < mixClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient()
			defer cl.CloseIdleConnections()
			for _, rq := range makeScript(cfg.seed, c) {
				st.do(cl, hs.base, c, rq, pool[c][rq.Graph], rep, tr)
			}
		}(c)
	}
	wg.Wait()
	return setup, nil
}

// expectedFlags is what a correct server reports for each class:
// (graph_cache_hit, result_cache_hit).
var expectedFlags = map[string][2]bool{
	classCold:      {false, false},
	classApprox:    {false, false},
	classGraphHit:  {true, false},
	classResultHit: {true, true},
	classStaged:    {true, true},
}

func (st *mixState) do(cl *http.Client, base string, c int, rq request, pg poolGraph, rep *report, tr *tracer) {
	url, body := base+"/diameter", pg.body
	switch rq.Class {
	case classApprox:
		url += "?mode=approx&sweeps=4"
	case classStaged:
		url += "?path=" + pg.name
		body = nil
	}
	t0 := time.Now()
	r, err := post(cl, url, body)
	t1 := time.Now()
	if err == nil {
		if rq.Class == classApprox {
			err = checkCorridor(r.answer, pg.ref)
		} else {
			err = checkExact(r.answer, pg.ref)
		}
	}
	// A reply served from other caches than its class names would be
	// timed in the wrong class: the class medians would mix costs.
	if f := expectedFlags[rq.Class]; err == nil && (r.GraphCacheHit != f[0] || r.ResultCacheHit != f[1]) {
		err = fmt.Errorf("cache flags graph=%v result=%v, want %v for the class", r.GraphCacheHit, r.ResultCacheHit, f)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	rep.attempted++
	if err != nil {
		rep.fail(fmt.Errorf("client %d %s %s: %v", c, rq.Class, pg.name, err))
		return
	}
	if rq.Class != classApprox {
		st.last[pg.name] = r.answer
	}
	st.samples = append(st.samples, sample{rq.Class, pg.social, r.latencyMS, float64(r.ElapsedNS) / 1e6})
	if tr != nil {
		id := tr.record(tr.newTrace(), 0, "request", t0, t1)
		tr.attr(id, "class", rq.Class)
		tr.attr(id, "graph", pg.name)
		tr.measured(id, "elapsed", r.ElapsedNS)
	}
}

// serveCounters are a registry's fdiamd_* counters, read as deltas.
type serveCounters struct {
	requests, resultHits, graphHits, rejected, cancelled, waitSum, waitCount int64
}

func readServe(reg *obs.Registry) serveCounters {
	h := reg.Histogram("fdiamd_queue_wait_seconds", "", obs.HistogramOpts{})
	return serveCounters{
		reg.Counter("fdiamd_requests_total", "").Value(),
		reg.Counter("fdiamd_result_cache_hits_total", "").Value(),
		reg.Counter("fdiamd_graph_cache_hits_total", "").Value(),
		reg.Counter("fdiamd_rejected_total", "").Value(),
		reg.Counter("fdiamd_solves_cancelled_total", "").Value(),
		h.Sum(), h.Count(),
	}
}

func (a serveCounters) sub(b serveCounters) serveCounters {
	return serveCounters{a.requests - b.requests, a.resultHits - b.resultHits, a.graphHits - b.graphHits,
		a.rejected - b.rejected, a.cancelled - b.cancelled, a.waitSum - b.waitSum, a.waitCount - b.waitCount}
}

// counterLayers sets the serve metrics that come from the counters.
func counterLayers(L map[string]value, d serveCounters) {
	req := float64(d.requests)
	L["serve.queue_wait_ms"] = value{V: float64(d.waitSum) / 1e6 / float64(max(d.waitCount, 1)), Samples: int(d.waitCount),
		Note: "mean per admitted solve"}
	L["serve.result_hit_ratio"] = value{V: float64(d.resultHits) / req, Samples: int(req)}
	L["serve.graph_hit_ratio"] = value{V: float64(d.graphHits) / req, Samples: int(req)}
	L["serve.rejected"] = value{V: float64(d.rejected), Samples: int(req)}
	L["serve.cancelled"] = value{V: float64(d.cancelled), Samples: int(req)}
}

// runServeMix runs serve-mix: passes of the script against a fresh
// in-process fdiamd each, for cfg.seconds.
func runServeMix(cfg runConfig, tr *tracer) (*report, error) {
	rep := newReport()
	dir := filepath.Join(cfg.workDir, "staged")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	pools, err := buildPools(cfg, dir)
	if err != nil {
		return nil, err
	}
	L := rep.layer
	if tr != nil {
		// Probes run first, while the process-wide histograms are still
		// disarmed (serve.New arms them): the CLI pipeline over the first
		// pool's road graphs, then the single-layer probes on two of them.
		// Road graphs, because social-text reports the social layers: here
		// core.*, bfs.* and par.* show per-level cost, Eliminate and Chain.
		var passes []pass
		var buf bytes.Buffer
		for _, pgs := range pools[0] {
			for _, pg := range pgs[graphsPerKind:] {
				rep.attempted++
				p, err := answerFile(context.Background(), filepath.Join(dir, pg.name), cfg.workers, &buf, true)
				if err == nil {
					err = checkExact(p.Answer, pg.ref)
				}
				if err != nil {
					rep.fail(fmt.Errorf("probe pass %s: %v", pg.name, err))
					continue
				}
				passes = append(passes, p)
				traceAnswer(tr, &passes[len(passes)-1])
			}
		}
		passLayers(L, tr, passes)
		var probe []*graph.Graph
		for _, pg := range []poolGraph{pools[0][0][graphsPerKind], pools[0][1][graphsPerKind]} {
			g, err := pg.load()
			if err != nil {
				return nil, err
			}
			probe = append(probe, g)
		}
		probeGraphs(L, tr, probe, cfg)
		rep.notes = append(rep.notes, "cli.*, graphio.*, core.* come from one CLI-pipeline pass over the first pool's 6 road graphs")
	}

	st := newMixState()
	var setups []float64
	var ms0, ms1 runtime.MemStats
	var par0, parDelta parCounters
	var sv0, sv serveCounters // sv is the loop's delta
	limit := time.Duration(cfg.seconds * float64(time.Second))
	var loop time.Duration
	runtime.ReadMemStats(&ms0)
	par0, sv0 = readPar(), readServe(obs.Default())
	for pass := 0; ; pass++ {
		t0 := time.Now()
		setup, err := runPass(cfg, pools[pass%poolsPerRun], dir, st, rep, tr)
		if err != nil {
			return nil, err
		}
		loop += time.Since(t0)
		setups = append(setups, setup.Seconds())
		// Stop after a whole cycle of pools, so each weighs the same.
		if loop >= limit && (pass+1)%poolsPerRun == 0 {
			break
		}
	}
	runtime.ReadMemStats(&ms1)
	parDelta = readPar().sub(par0)
	sv = readServe(obs.Default()).sub(sv0)
	// The server's own counters must show the scripted class mix (104 of
	// each pass's 120 requests are result-cache hits), none rejected.
	var perPass, hitsPerPass int64
	for c := 0; c < mixClients; c++ {
		for _, rq := range makeScript(cfg.seed, c) {
			perPass++
			if f := expectedFlags[rq.Class]; f[1] {
				hitsPerPass++
			}
		}
	}
	rep.attempted++
	if passes := int64(len(setups)); sv.requests != perPass*passes || sv.resultHits != hitsPerPass*passes || sv.rejected != 0 {
		rep.fail(fmt.Errorf("server counted %d requests, %d result-cache hits, %d rejected; the script gives %d, %d, 0",
			sv.requests, sv.resultHits, sv.rejected, perPass*passes, hitsPerPass*passes))
	}
	for _, pool := range pools {
		for _, pgs := range pool {
			for _, pg := range pgs {
				rep.attempted++
				g, err := pg.load()
				if err == nil {
					err = checkWitness(g, st.last[pg.name], cfg.workers)
				}
				if err != nil {
					rep.fail(fmt.Errorf("%s: %v", pg.name, err))
				}
			}
		}
	}

	var all, cold, hitSocial, hitRoad, coldSolve, coldOver []float64
	solves := 0
	for _, s := range st.samples {
		all = append(all, s.latencyMS)
		switch s.class {
		case classCold:
			cold = append(cold, s.latencyMS)
			coldSolve = append(coldSolve, s.elapsedMS)
			coldOver = append(coldOver, s.latencyMS-s.elapsedMS)
		case classResultHit:
			if s.social {
				hitSocial = append(hitSocial, s.latencyMS)
			} else {
				hitRoad = append(hitRoad, s.latencyMS)
			}
		}
		if s.class == classCold || s.class == classApprox || s.class == classGraphHit {
			solves++
		}
	}
	n := len(all)
	p50, err := percentile(all, 50)
	if err != nil {
		return nil, fmt.Errorf("request latency: %v", err)
	}
	coldP50, err := percentile(cold, 50)
	if err != nil {
		return nil, fmt.Errorf("cold latency: %v", err)
	}
	hs, err := percentile(hitSocial, 50)
	if err != nil {
		return nil, fmt.Errorf("social hit latency: %v", err)
	}
	hr, err := percentile(hitRoad, 50)
	if err != nil {
		return nil, fmt.Errorf("road hit latency: %v", err)
	}
	rep.e2e["setup_s"] = value{V: median(setups), Samples: len(setups), Note: "serve.New to the first /healthz 200, one per pass"}
	rep.e2e["answer_p50_ms"] = value{V: p50, Samples: n, Note: "all requests"}
	rep.e2e["answers_per_s"] = value{V: float64(n) / loop.Seconds(), Samples: n, Note: "requests per second"}
	rep.e2e["alloc_mb_per_answer"] = value{V: float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6 / float64(n), Samples: n,
		Note: "client and server, per request"}
	rep.e2e["cold_p50_ms"] = value{V: coldP50, Samples: len(cold)}
	rep.e2e["hit_p50_ms"] = value{V: (hs + hr) / 2, Samples: len(hitSocial) + len(hitRoad),
		Note: fmt.Sprintf("mean of the social (%.1f ms) and road (%.1f ms) result_hit medians", hs, hr)}
	rep.e2e["ok_ratio"] = value{V: 1 - float64(rep.failed)/float64(rep.attempted), Samples: rep.attempted}
	rep.notes = append(rep.notes, fmt.Sprintf("%d passes of %d requests", len(setups), perPass))
	if tr == nil {
		return rep, nil
	}

	p90, err := percentile(all, 90)
	if err != nil {
		return nil, fmt.Errorf("request latency: %v", err)
	}
	L["serve.cold_solve_ms"] = medianOf(coldSolve)
	L["serve.cold_overhead_ms"] = medianOf(coldOver)
	L["serve.req_p90_ms"] = value{V: p90, Samples: n}
	counterLayers(L, sv)
	L["par.dispatches"] = value{V: float64(parDelta.dispatches) / float64(solves), Samples: solves, Note: "per solve"}
	L["par.spawn_fallbacks"] = value{V: float64(parDelta.fallbacks) / float64(solves), Samples: solves, Note: "per solve"}
	L["par.inline_runs"] = value{V: float64(parDelta.inline) / float64(solves), Samples: solves, Note: "per solve"}
	L["runtime.gc_cycles"] = value{V: float64(ms1.NumGC-ms0.NumGC) / float64(n), Samples: n, Note: "per request"}
	L["runtime.gc_pause_ms"] = value{V: float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6 / float64(n), Samples: n, Note: "per request"}

	// Untraced tail passes: the same script with no spans recorded.
	tailState := newMixState()
	for i := 0; i < untracedPasses; i++ {
		if _, err := runPass(cfg, pools[i%poolsPerRun], dir, tailState, rep, nil); err != nil {
			return nil, err
		}
	}
	var plain []float64
	for _, s := range tailState.samples {
		plain = append(plain, s.latencyMS)
	}
	L["trace.overhead_ratio"] = value{V: median(all) / median(plain), Samples: len(plain),
		Note: "traced request median over untraced requests of the same run"}
	rep.e2e["ok_ratio"] = value{V: 1 - float64(rep.failed)/float64(rep.attempted), Samples: rep.attempted}
	return rep, nil
}
