package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"fdiam/internal/core"
	"fdiam/internal/graph"
	"fdiam/internal/graphio"
)

// cliResult mirrors cmd/fdiam's -json output for the fdiam algorithm, so
// the encode step costs what the CLI's does.
type cliResult struct {
	Algorithm   string      `json:"algorithm"`
	Graph       string      `json:"graph"`
	Diameter    int32       `json:"diameter"`
	Upper       int32       `json:"upper"`
	Gap         int32       `json:"gap"`
	Approximate bool        `json:"approximate"`
	Infinite    bool        `json:"infinite"`
	TimedOut    bool        `json:"timed_out"`
	Cancelled   bool        `json:"cancelled"`
	WitnessA    int64       `json:"witness_a"`
	WitnessB    int64       `json:"witness_b"`
	ElapsedNS   int64       `json:"elapsed_ns"`
	Stats       *core.Stats `json:"stats,omitempty"`
}

// pass is one trip through the CLI pipeline: os.ReadFile →
// graphio.ReadAuto → core.DiameterCtx → JSON encode, as cmd/fdiam runs it.
type pass struct {
	Answer answer
	Stats  core.Stats
	Bytes  int
	// Start and End bound the answer; each step runs from its start mark
	// to its end mark. The marks differ only by the allocation reads of
	// the traced run, which no step span covers.
	Start, Read       time.Time
	ParseStart, Parse time.Time
	SolveStart, Solve time.Time
	End               time.Time
	ParseAlloc        uint64 // bytes allocated by ReadAuto; set only when asked for
}

func (p *pass) latency() time.Duration { return p.End.Sub(p.Start) }

// answerFile runs the pipeline once and decodes the encoded reply back,
// after the clock stops, so the checks see exactly what was written.
// measureAlloc brackets ReadAuto with runtime.ReadMemStats, which stops the
// world twice: only the traced run asks for it.
func answerFile(ctx context.Context, path string, workers int, out *bytes.Buffer, measureAlloc bool) (pass, error) {
	var p pass
	var ms runtime.MemStats
	p.Start = time.Now()
	data, err := os.ReadFile(path)
	if err != nil {
		return p, err
	}
	p.Read = time.Now()
	if measureAlloc {
		runtime.ReadMemStats(&ms)
		p.ParseAlloc = ms.TotalAlloc
	}
	p.ParseStart = time.Now()
	g, err := graphio.ReadAuto(data)
	if err != nil {
		return p, err
	}
	p.Parse = time.Now()
	if measureAlloc {
		runtime.ReadMemStats(&ms)
		p.ParseAlloc = ms.TotalAlloc - p.ParseAlloc
	}
	p.SolveStart = time.Now()
	res := core.DiameterCtx(ctx, g, core.Options{Workers: workers})
	p.Solve = time.Now()
	out.Reset()
	err = json.NewEncoder(out).Encode(cliResult{
		Algorithm: "fdiam", Graph: path,
		Diameter: res.Diameter, Upper: res.Upper, Gap: res.Upper - res.Diameter,
		Approximate: res.Approximate, Infinite: res.Infinite,
		TimedOut: res.TimedOut, Cancelled: res.Cancelled,
		WitnessA: witness(res.WitnessA), WitnessB: witness(res.WitnessB),
		ElapsedNS: p.Solve.Sub(p.SolveStart).Nanoseconds(), Stats: &res.Stats,
	})
	p.End = time.Now()
	if err != nil {
		return p, fmt.Errorf("encode: %w", err)
	}
	p.Bytes = len(data)
	p.Stats = res.Stats
	if err := json.Unmarshal(out.Bytes(), &p.Answer); err != nil {
		return p, fmt.Errorf("decode own reply: %w", err)
	}
	return p, nil
}

func witness(v uint32) int64 {
	if v == graph.NoVertex {
		return -1
	}
	return int64(v)
}

// traceAnswer records a pass as an answer span with read, parse, solve and
// encode children; the solver's own stage totals ride on the solve span.
func traceAnswer(t *tracer, p *pass) {
	if t == nil {
		return
	}
	tr := t.newTrace()
	root := t.record(tr, 0, "answer", p.Start, p.End)
	t.record(tr, root, "read", p.Start, p.Read)
	t.record(tr, root, "parse", p.ParseStart, p.Parse)
	solve := t.record(tr, root, "solve", p.SolveStart, p.Solve)
	t.record(tr, root, "encode", p.Solve, p.End)
	st := &p.Stats
	for k, d := range map[string]time.Duration{
		"init": st.TimeInit, "ecc": st.TimeEcc, "winnow": st.TimeWinnow,
		"chain": st.TimeChain, "eliminate": st.TimeEliminate, "total": st.TimeTotal,
	} {
		t.measured(solve, k, d.Nanoseconds())
	}
}
