// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It times the calls a user's answer passes through — reading
// the file, graphio.ReadAuto, core.DiameterCtx and the JSON encode that
// cmd/fdiam performs, or an HTTP request into serve.New's handler as fdiamd
// runs it — and checks every answer against an independent reference.
//
//	bash perfbench/run.sh --workload social-text --seed 113 --seconds 35 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate run
// that records spans around each call into a layer and reports the
// per-layer metrics. --workload all runs every workload, each in a fresh
// process. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. README.md describes the
// workloads, the metrics and which layer each one loads.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

type runConfig struct {
	w       workload
	seed    uint64
	seconds float64
	trace   bool
	workers int
	workDir string // scratch space for this run's inputs, removed at exit
	outDir  string // where span files are written
}

// hostInfo is recorded with every run: results are only comparable on the
// same cores.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	Seed       uint64 `json:"seed"`
	HeldOut    uint64 `json:"held_out_seed"`
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// report is the outcome of one run.
type report struct {
	attempted, failed int
	e2e, layer        map[string]value
	problems          []string // first few failure reasons
	notes             []string // facts a reader needs to interpret the numbers
}

func newReport() *report {
	return &report{e2e: map[string]value{}, layer: map[string]value{}}
}

func (r *report) fail(err error) {
	r.failed++
	if len(r.problems) < 10 {
		r.problems = append(r.problems, err.Error())
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: social-text, road-bin, serve-mix, or all")
	seed := fs.Int64("seed", -1, "input seed (-1 = the workload's default seed)")
	seconds := fs.Float64("seconds", 35, "how long the timed loop runs")
	traceFlag := fs.Int("trace", 0, "1 = the traced run, which reports the per-layer metrics")
	outDir := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for inputs and span files")
	answerOnce := fs.String("answer-once", "", "internal: answer this file once and print the reply (one set-up)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// The solver runs one worker per GOMAXPROCS thread, as fdiam and
	// fdiamd do by default.
	workers := runtime.GOMAXPROCS(0)
	if *answerOnce != "" {
		var buf bytes.Buffer
		if _, err := answerFile(context.Background(), *answerOnce, workers, &buf, false); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		_, _ = stdout.Write(buf.Bytes())
		return 0
	}
	if err := checkHost(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	if *name == "all" {
		return runAll(stdout, "--seed", fmt.Sprint(*seed), "--seconds", fmt.Sprint(*seconds),
			"--trace", fmt.Sprint(*traceFlag), "--out", *outDir)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q\n", *name)
		return 2
	}
	cfg := runConfig{w: w, seed: w.DefaultSeed, seconds: *seconds, trace: *traceFlag == 1,
		workers: workers, outDir: *outDir}
	if *seed >= 0 {
		cfg.seed = uint64(*seed)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(cfg.outDir, "run-"+w.Name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg.workDir = dir

	var rep *report
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	if w.Name == "serve-mix" {
		rep, err = runServeMix(cfg, tr)
	} else {
		rep, err = runCLI(cfg, tr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	host := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: cfg.workers,
		GoVersion: runtime.Version(), CPU: cpuModel(), Seed: cfg.seed, HeldOut: w.HeldOutSeed}
	if tr != nil {
		path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.json", w.Name, cfg.seed))
		if err := tr.write(path, struct {
			Host     hostInfo `json:"host"`
			Workload string   `json:"workload"`
		}{host, w.Name}); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		rep.notes = append(rep.notes, "spans written to "+path)
	}
	if err := printReport(stdout, cfg, host, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// checkHost refuses a GOMAXPROCS above the CPUs the process can run on:
// the solver's workers, one per GOMAXPROCS thread, would then time-slice
// instead of running on real cores.
func checkHost() error {
	if nproc, procs := runtime.NumCPU(), runtime.GOMAXPROCS(0); procs > nproc {
		return fmt.Errorf("GOMAXPROCS %d > nproc %d: the parallel kernels would time-slice", procs, nproc)
	}
	return nil
}

// runAll runs every workload in a fresh child process — serve.New arms the
// process-wide histograms, so a CLI workload sharing a process with
// serve-mix would silently measure the armed path — and prints each
// child's output followed by one combined result line.
func runAll(stdout io.Writer, flags ...string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	total := result{Correct: true, Metrics: map[string]metricOut{}}
	for _, w := range workloads {
		var out bytes.Buffer
		cmd := exec.Command(exe, append([]string{"--workload", w.Name}, flags...)...)
		cmd.Stdout = io.MultiWriter(stdout, &out)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.Name, err)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: bad result line: %v\n", w.Name, err)
			return 1
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[w.Name+"/"+k] = v
		}
	}
	return writeResult(stdout, total)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func writeResult(w io.Writer, res result) int {
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(w, string(b))
	return 0
}

// printReport prints a human-readable table (every metric with its unit
// and sample count), a JSON record with the host block, and finally the
// result line. It fails if a declared metric is missing.
func printReport(w io.Writer, cfg runConfig, host hostInfo, rep *report) error {
	defs := e2eDefs
	if cfg.trace {
		defs = append(append([]metricDef(nil), e2eDefs...), layerDefs...)
	}
	fmt.Fprintf(w, "# perfbench %s seed=%d (held-out seed %d) trace=%v\n", cfg.w.Name, cfg.seed, cfg.w.HeldOutSeed, cfg.trace)
	fmt.Fprintf(w, "# why: %s\n", cfg.w.Why)
	fmt.Fprintf(w, "# host: nproc=%d gomaxprocs=%d workers=%d %s %q\n",
		host.NProc, host.GOMAXPROCS, host.Workers, host.GoVersion, host.CPU)
	type recMetric struct {
		Name    string  `json:"name"`
		Value   float64 `json:"value"`
		Unit    string  `json:"unit"`
		Samples int     `json:"samples,omitempty"`
		Note    string  `json:"note,omitempty"`
	}
	var recs []recMetric
	var missing []string
	for _, d := range defs {
		v, ok := rep.e2e[d.Name]
		if !ok {
			v, ok = rep.layer[d.Name]
		}
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		fmt.Fprintf(w, "%-26s %14.4f %-8s n=%-5d %s\n", d.Name, v.V, d.Unit, v.Samples, v.Note)
		recs = append(recs, recMetric{d.Name, v.V, d.Unit, v.Samples, v.Note})
	}
	errorRate := float64(rep.failed) / float64(max(rep.attempted, 1))
	fmt.Fprintf(w, "%-26s %14.4f %-8s n=%-5d failed/attempted\n", "error_rate", errorRate, "ratio", rep.attempted)
	for _, p := range rep.problems {
		fmt.Fprintln(w, "# FAILED:", p)
	}
	sort.Strings(rep.notes)
	for _, n := range rep.notes {
		fmt.Fprintln(w, "# note:", n)
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	rec, err := json.Marshal(struct {
		Workload  string      `json:"workload"`
		Trace     bool        `json:"trace"`
		Host      hostInfo    `json:"host"`
		Seconds   float64     `json:"seconds"`
		Attempted int         `json:"attempted"`
		Failed    int         `json:"failed"`
		ErrorRate float64     `json:"error_rate"`
		Metrics   []recMetric `json:"metrics"`
	}{cfg.w.Name, cfg.trace, host, cfg.seconds, rep.attempted, rep.failed, errorRate, recs})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# record %s\n", rec)

	res := result{Correct: rep.failed == 0 && rep.attempted > 0, Attempted: rep.attempted,
		Failed: rep.failed, Metrics: map[string]metricOut{}}
	out := e2eDefs
	if cfg.trace {
		out = layerDefs
	}
	for _, d := range out {
		v := rep.e2e[d.Name]
		if cfg.trace {
			v = rep.layer[d.Name]
		}
		res.Metrics[d.Name] = metricOut{v.V, d.Unit}
	}
	if writeResult(w, res) != 0 {
		return errors.New("writing the result line failed")
	}
	return nil
}
