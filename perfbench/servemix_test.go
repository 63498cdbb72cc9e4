package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fdiam/internal/gen"
)

func TestScriptIsAFunctionOfTheSeed(t *testing.T) {
	for c := 0; c < mixClients; c++ {
		if a, b := makeScript(116, c), makeScript(116, c); !reflect.DeepEqual(a, b) {
			t.Fatalf("client %d: two scripts for one seed differ", c)
		}
	}
	if reflect.DeepEqual(makeScript(116, 0), makeScript(117, 0)) {
		t.Error("seeds 116 and 117 give the same script")
	}
	if reflect.DeepEqual(makeScript(116, 0), makeScript(116, 1)) {
		t.Error("both clients run the same script")
	}
}

func TestScriptClassCounts(t *testing.T) {
	for _, seed := range []uint64{113, 116, 117, 9117, 1} {
		counts := map[string]int{}
		for c := 0; c < mixClients; c++ {
			s := makeScript(seed, c)
			if len(s) != 60 {
				t.Fatalf("seed %d client %d: %d requests, want 60", seed, c, len(s))
			}
			for _, r := range s {
				counts[r.Class]++
			}
		}
		want := map[string]int{classCold: 8, classApprox: 4, classGraphHit: 4, classResultHit: 96, classStaged: 8}
		if !reflect.DeepEqual(counts, want) {
			t.Errorf("seed %d: class counts %v, want %v", seed, counts, want)
		}
		// The server sees result-cache hits on the result_hit and staged
		// requests: 104 of 120.
		if hits := counts[classResultHit] + counts[classStaged]; hits != 104 {
			t.Errorf("seed %d: %d scripted result-cache hits, want 104", seed, hits)
		}
	}
}

// TestScriptOrderFixesClasses replays a script against a model of the two
// caches and checks that each request finds them in the state its class
// names.
func TestScriptOrderFixesClasses(t *testing.T) {
	for _, seed := range []uint64{113, 116, 117} {
		for c := 0; c < mixClients; c++ {
			parsed, exact := map[int]bool{}, map[int]bool{}
			perGraph := map[int]int{}
			for i, r := range makeScript(seed, c) {
				var ok bool
				switch r.Class {
				case classCold, classApprox:
					ok = !parsed[r.Graph] && !exact[r.Graph]
				case classGraphHit:
					ok = parsed[r.Graph] && !exact[r.Graph]
				case classResultHit, classStaged:
					ok = exact[r.Graph]
				}
				if !ok {
					t.Fatalf("seed %d client %d request %d: %s on graph %d in the wrong cache state",
						seed, c, i, r.Class, r.Graph)
				}
				if r.Class == classApprox && r.Graph < graphsPerKind {
					t.Errorf("approx request on social graph %d", r.Graph)
				}
				if r.Class == classStaged && r.Graph >= graphsPerKind {
					t.Errorf("staged request on road graph %d", r.Graph)
				}
				parsed[r.Graph] = true
				if r.Class != classApprox {
					exact[r.Graph] = true
				}
				if r.Class == classResultHit {
					perGraph[r.Graph]++
				}
			}
			for g := 0; g < 2*graphsPerKind; g++ {
				if perGraph[g] != repeatsPerGrph {
					t.Errorf("graph %d: %d result_hit requests, want %d", g, perGraph[g], repeatsPerGrph)
				}
			}
		}
	}
}

// TestRunPassAgainstServer drives one pass of both clients' scripts into a
// real in-process server (run it with -race: the clients share mixState).
// Cycles keep every approx corridor open, so each reply's cache flags must
// match its scripted class exactly.
func TestRunPassAgainstServer(t *testing.T) {
	dir := t.TempDir()
	cfg := runConfig{seed: 116, workers: 1}
	pool := make([][]poolGraph, mixClients)
	for c := range pool {
		for j := 0; j < 2*graphsPerKind; j++ {
			n := 40 + 2*(c*2*graphsPerKind+j)
			pg := poolGraph{social: j < graphsPerKind, name: fmt.Sprintf("c%d-g%d.txt", c, j), ref: int32(n / 2)}
			path := filepath.Join(dir, pg.name)
			if err := writeGraph(path, gen.Cycle(n), false); err != nil {
				t.Fatal(err)
			}
			body, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			pg.body = body
			pool[c] = append(pool[c], pg)
		}
	}
	st, rep := newMixState(), newReport()
	if _, err := runPass(cfg, pool, dir, st, rep, newTracer()); err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 {
		t.Fatalf("%d failed requests: %v", rep.failed, rep.problems)
	}
	if len(st.samples) != 2*60 {
		t.Fatalf("%d samples, want 120", len(st.samples))
	}
	for _, pgs := range pool {
		for _, pg := range pgs {
			g, err := pg.load()
			if err == nil {
				err = checkWitness(g, st.last[pg.name], 1)
			}
			if err != nil {
				t.Errorf("%s: %v", pg.name, err)
			}
		}
	}
}
