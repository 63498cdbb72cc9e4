package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"fdiam/internal/baseline"
	"fdiam/internal/graph"
	"fdiam/internal/graphio"
	"fdiam/internal/obs"
)

const (
	// setups is how many inputs are also answered once in a fresh process.
	setups = 3
	// minSamples keeps the timed loop going past --seconds until the
	// median has minBeyond samples above it, for at most maxLoop.
	minSamples = 2 * minBeyond
	maxLoop    = 2 * time.Minute
	// untracedTail is how many untraced answers the traced run adds after
	// its loop, to measure what the tracing itself costs.
	untracedTail = 5
)

// parCounters are the process-wide pool counters of internal/par, read as
// deltas because obs.Default() outlives any one measurement.
type parCounters struct{ dispatches, fallbacks, inline int64 }

func readPar() parCounters {
	reg := obs.Default()
	return parCounters{
		reg.Counter("fdiam_par_pool_dispatches_total", "").Value(),
		reg.Counter("fdiam_par_spawn_fallbacks_total", "").Value(),
		reg.Counter("fdiam_par_inline_runs_total", "").Value(),
	}
}

func (a parCounters) sub(b parCounters) parCounters {
	return parCounters{a.dispatches - b.dispatches, a.fallbacks - b.fallbacks, a.inline - b.inline}
}

// writeGraph stores g as fdiam binary CSR or as a SNAP edge list, synced,
// so the kernel's write-back of tens of megabytes happens now and not
// under the timed loop.
func writeGraph(path string, g *graph.Graph, binary bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if binary {
		err = graphio.WriteBinary(f, g)
	} else {
		err = graphio.WriteEdgeList(f, g)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// reference computes the diameter with the independent bounding baseline.
func reference(g *graph.Graph, workers int) (int32, error) {
	ref := baseline.Bounding(g, baseline.Options{Workers: workers})
	if ref.Infinite || ref.TimedOut {
		return 0, fmt.Errorf("reference solve: infinite=%v timed_out=%v", ref.Infinite, ref.TimedOut)
	}
	return ref.Diameter, nil
}

// cliInput is one generated input: its file and its reference diameter.
// The graph itself is not kept: a CLI process holds only the graph it
// parses, and extra live heap would slow the collector's pace.
type cliInput struct {
	path string
	ref  int32
}

// load parses the input again, for the checks and probes that need the
// graph after the timed loop.
func (in cliInput) load() (*graph.Graph, error) {
	data, err := os.ReadFile(in.path)
	if err != nil {
		return nil, err
	}
	return graphio.ReadAuto(data)
}

// timeSetup answers in once in a fresh process — what a user of the CLI
// pays per invocation — and returns the wall time from start to exit.
func timeSetup(cfg runConfig, in cliInput) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var stdout bytes.Buffer
	cmd := exec.Command(exe, "--answer-once", in.path)
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	t0 := time.Now()
	err = cmd.Run()
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	var a answer
	if err := json.Unmarshal(stdout.Bytes(), &a); err != nil {
		return 0, err
	}
	return d, checkExact(a, in.ref)
}

// runCLI runs social-text or road-bin: one closed-loop caller answering
// the workload's file through the CLI pipeline for cfg.seconds.
func runCLI(cfg runConfig, tr *tracer) (*report, error) {
	rep := newReport()
	w := cfg.w
	// Fixture: inputs and reference answers, before any clock starts.
	ext := ".txt"
	if w.binary {
		ext = ".bin"
	}
	var inputs []cliInput
	for k := 0; k < w.inputs; k++ {
		seed := cfg.seed
		if k > 0 {
			seed = subSeed(cfg.seed, uint64(k))
		}
		g := w.build(seed)
		in := cliInput{path: filepath.Join(cfg.workDir, fmt.Sprintf("graph%d%s", k, ext))}
		if err := writeGraph(in.path, g, w.binary); err != nil {
			return nil, err
		}
		ref, err := reference(g, cfg.workers)
		if err != nil {
			return nil, err
		}
		in.ref = ref
		inputs = append(inputs, in)
		rep.notes = append(rep.notes, fmt.Sprintf("input %d (seed %d): %d vertices, %d edges, reference diameter %d",
			k, seed, g.NumVertices(), g.NumEdges(), ref))
	}

	// Set-up: the first inputs answered once each in a fresh process.
	var setupTimes []float64
	for _, in := range inputs[:min(setups, len(inputs))] {
		rep.attempted++
		d, err := timeSetup(cfg, in)
		if err != nil {
			rep.fail(fmt.Errorf("set-up %s: %v", in.path, err))
			continue
		}
		setupTimes = append(setupTimes, d.Seconds())
	}
	if len(setupTimes) == 0 {
		return nil, fmt.Errorf("no set-up succeeded")
	}
	rep.e2e["setup_s"] = value{V: median(setupTimes), Samples: len(setupTimes),
		Note: "median answer-once in a fresh process"}

	// One untimed in-process answer, so lazy set-up (heap growth, the
	// worker pool) is done before the loop.
	ctx := context.Background()
	var buf bytes.Buffer
	rep.attempted++
	if p, err := answerFile(ctx, inputs[0].path, cfg.workers, &buf, false); err != nil {
		rep.fail(fmt.Errorf("warm-up: %v", err))
	} else if err := checkExact(p.Answer, inputs[0].ref); err != nil {
		rep.fail(fmt.Errorf("warm-up: %v", err))
	}

	var passes []pass
	var lat []float64
	var ms0, ms1 runtime.MemStats
	par0 := readPar()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	limit := time.Duration(cfg.seconds * float64(time.Second))
	last := make([]answer, len(inputs))
	i := 0
	// The loop ends on a whole cycle of inputs, so each weighs the same.
	for el := time.Duration(0); i%len(inputs) != 0 || el < limit || (len(lat) < minSamples && el < maxLoop); el = time.Since(start) {
		k := i % len(inputs)
		i++
		rep.attempted++
		p, err := answerFile(ctx, inputs[k].path, cfg.workers, &buf, tr != nil)
		if err != nil {
			rep.fail(err)
			continue
		}
		if err := checkExact(p.Answer, inputs[k].ref); err != nil {
			rep.fail(err)
			continue
		}
		lat = append(lat, float64(p.latency().Nanoseconds())/1e6)
		last[k] = p.Answer
		passes = append(passes, p)
		traceAnswer(tr, &passes[len(passes)-1])
	}
	loop := time.Since(start)
	runtime.ReadMemStats(&ms1)
	parDelta := readPar().sub(par0)
	if len(passes) == 0 {
		return nil, fmt.Errorf("no answer succeeded")
	}
	// Each input's last witness pair must realise its diameter.
	for k, in := range inputs {
		rep.attempted++
		g, err := in.load()
		if err == nil {
			err = checkWitness(g, last[k], cfg.workers)
		}
		if err != nil {
			rep.fail(fmt.Errorf("%s: %v", in.path, err))
		}
	}

	n := len(lat)
	p50, err := percentile(lat, 50)
	if err != nil {
		return nil, fmt.Errorf("answer latency: %v", err)
	}
	rep.e2e["answer_p50_ms"] = value{V: p50, Samples: n}
	rep.e2e["answers_per_s"] = value{V: float64(n) / loop.Seconds(), Samples: n}
	rep.e2e["alloc_mb_per_answer"] = value{V: float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6 / float64(n), Samples: n}
	rep.e2e["cold_p50_ms"] = value{V: p50, Samples: n, Note: "the CLI has no cache: every answer parses"}
	rep.e2e["hit_p50_ms"] = value{V: p50, Samples: n, Note: "the CLI has no cache: a repeat answer costs a full one"}
	rep.e2e["ok_ratio"] = value{V: 1 - float64(rep.failed)/float64(rep.attempted), Samples: rep.attempted}

	if tr == nil {
		return rep, nil
	}

	// Traced run: per-layer metrics from the spans, the counters and the
	// probes.
	L := rep.layer
	passLayers(L, tr, passes)
	per := float64(n)
	L["par.dispatches"] = value{V: float64(parDelta.dispatches) / per, Samples: n, Note: "per solve"}
	L["par.spawn_fallbacks"] = value{V: float64(parDelta.fallbacks) / per, Samples: n, Note: "per solve"}
	L["par.inline_runs"] = value{V: float64(parDelta.inline) / per, Samples: n, Note: "per solve"}
	L["runtime.gc_cycles"] = value{V: float64(ms1.NumGC-ms0.NumGC) / per, Samples: n, Note: "per answer"}
	L["runtime.gc_pause_ms"] = value{V: float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6 / per, Samples: n, Note: "per answer"}

	var plain []float64
	for j := 0; j < untracedTail; j++ {
		in := inputs[(i+j)%len(inputs)]
		rep.attempted++
		p, err := answerFile(ctx, in.path, cfg.workers, &buf, false)
		if err != nil {
			rep.fail(err)
			continue
		}
		if err := checkExact(p.Answer, in.ref); err != nil {
			rep.fail(err)
			continue
		}
		plain = append(plain, float64(p.latency().Nanoseconds())/1e6)
	}
	L["trace.overhead_ratio"] = value{V: median(lat) / median(plain), Samples: len(plain),
		Note: "traced answer median over untraced answers of the same run"}

	g0, err := inputs[0].load()
	if err != nil {
		return nil, err
	}
	probeGraphs(L, tr, []*graph.Graph{g0}, cfg)
	if err := probeServe(L, rep, cfg, inputs[0].path, inputs[0].ref); err != nil {
		return nil, err
	}
	rep.e2e["ok_ratio"] = value{V: 1 - float64(rep.failed)/float64(rep.attempted), Samples: rep.attempted}
	return rep, nil
}

func medianOf(xs []float64) value { return value{V: median(xs), Samples: len(xs)} }

// passLayers derives the cli, graphio and core metrics from pipeline
// passes and their answer spans.
func passLayers(L map[string]value, tr *tracer, passes []pass) {
	L["cli.answer_ms"] = medianOf(tr.durations("answer"))
	L["cli.read_ms"] = medianOf(tr.durations("read"))
	L["cli.encode_ms"] = medianOf(tr.durations("encode"))
	L["graphio.parse_ms"] = medianOf(tr.durations("parse"))
	L["trace.answer_coverage"] = medianOf(tr.childCoverage("answer"))
	n := len(passes)
	var alloc, rate, solve []float64
	st := map[string][]float64{}
	for i := range passes {
		p := &passes[i]
		parse := p.Parse.Sub(p.ParseStart).Seconds()
		alloc = append(alloc, float64(p.ParseAlloc)/1e6)
		rate = append(rate, float64(p.Bytes)/1e6/parse)
		solve = append(solve, float64(p.Solve.Sub(p.SolveStart).Nanoseconds())/1e6)
		s := &p.Stats
		staged := s.TimeInit + s.TimeEcc + s.TimeWinnow + s.TimeChain + s.TimeEliminate
		for k, v := range map[string]float64{
			"core.init_ms":      ms(s.TimeInit),
			"core.ecc_ms":       ms(s.TimeEcc),
			"core.winnow_ms":    ms(s.TimeWinnow),
			"core.chain_ms":     ms(s.TimeChain),
			"core.eliminate_ms": ms(s.TimeEliminate),
			"core.other_ms":     ms(max(s.TimeTotal-staged, 0)),

			"core.ecc_bfs":            float64(s.EccBFS),
			"core.winnow_calls":       float64(s.WinnowCalls),
			"core.eliminate_calls":    float64(s.EliminateCalls),
			"core.eliminate_visited":  float64(s.EliminateVisited),
			"core.bound_improvements": float64(s.BoundImprovements),
			"core.msbfs_batches":      float64(s.MSBFSBatches),
			"core.msbfs_sources":      float64(s.MSBFSSources),
		} {
			st[k] = append(st[k], v)
		}
		useful := 0.0
		if s.MSBFSSources > 0 {
			useful = 1 - float64(s.MSBFSDiscarded)/float64(s.MSBFSSources)
		}
		st["core.msbfs_useful_ratio"] = append(st["core.msbfs_useful_ratio"], useful)
	}
	L["graphio.parse_alloc_mb"] = value{V: median(alloc), Samples: n}
	L["graphio.parse_mb_per_s"] = value{V: median(rate), Samples: n}
	L["core.solve_ms"] = value{V: median(solve), Samples: n}
	for k, xs := range st {
		L[k] = value{V: median(xs), Samples: n}
	}
	if v := L["core.msbfs_sources"]; v.V == 0 {
		L["core.msbfs_useful_ratio"] = value{V: 0, Samples: n, Note: "no batch ran"}
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
