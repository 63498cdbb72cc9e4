package main

import (
	"fmt"

	"fdiam/internal/bfs"
	"fdiam/internal/graph"
)

// answer is what the benchmark checks of one reply, whether it came from
// the in-process CLI pipeline or from an fdiamd response.
type answer struct {
	Diameter    int32 `json:"diameter"`
	Upper       int32 `json:"upper"`
	Approximate bool  `json:"approximate"`
	Infinite    bool  `json:"infinite"`
	TimedOut    bool  `json:"timed_out"`
	Cancelled   bool  `json:"cancelled"`
	WitnessA    int64 `json:"witness_a"`
	WitnessB    int64 `json:"witness_b"`
}

// checkExact reports why a, the reply to an exact request, is not the
// reference diameter ref, or nil when it is.
func checkExact(a answer, ref int32) error {
	switch {
	case a.TimedOut || a.Cancelled:
		return fmt.Errorf("exact answer cut short (timed_out=%v cancelled=%v)", a.TimedOut, a.Cancelled)
	case a.Approximate || a.Upper != a.Diameter:
		return fmt.Errorf("exact request answered with corridor [%d, %d]", a.Diameter, a.Upper)
	case a.Diameter != ref:
		return fmt.Errorf("diameter %d, reference %d", a.Diameter, ref)
	}
	return nil
}

// checkCorridor reports why a, the reply to an approximate request, does
// not bracket the reference diameter (diameter ≤ ref ≤ upper), or nil.
func checkCorridor(a answer, ref int32) error {
	switch {
	case a.TimedOut || a.Cancelled:
		return fmt.Errorf("approximate answer cut short (timed_out=%v cancelled=%v)", a.TimedOut, a.Cancelled)
	case a.Diameter > a.Upper:
		return fmt.Errorf("inverted corridor [%d, %d]", a.Diameter, a.Upper)
	case a.Diameter > ref || ref > a.Upper:
		return fmt.Errorf("corridor [%d, %d] excludes reference %d", a.Diameter, a.Upper, ref)
	}
	return nil
}

// checkWitness confirms with one BFS that the reported witness pair is at
// distance a.Diameter in g.
func checkWitness(g *graph.Graph, a answer, workers int) error {
	n := int64(g.NumVertices())
	if a.WitnessA < 0 || a.WitnessA >= n || a.WitnessB < 0 || a.WitnessB >= n {
		return fmt.Errorf("witness pair (%d, %d) outside [0, %d)", a.WitnessA, a.WitnessB, n)
	}
	e := bfs.New(g, workers)
	defer e.Close()
	dist := make([]int32, n)
	e.Distances(graph.Vertex(a.WitnessA), dist)
	if d := dist[a.WitnessB]; d != a.Diameter {
		return fmt.Errorf("d(witness_a=%d, witness_b=%d) = %d, diameter %d", a.WitnessA, a.WitnessB, d, a.Diameter)
	}
	return nil
}
