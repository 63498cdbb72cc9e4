package core

import (
	"fdiam/internal/graph"
	"fdiam/internal/obs"
)

// This file implements the double sweep (§4.1) — the exact run's initial
// 2-sweep — and sampled approximation mode (Options.Approx), which repeats
// it: a budgeted multi-double-sweep estimator in the spirit of
// Magnien–Latapy–Habib, whose corridors are empirically tight after a
// handful of traversals. Every bound is routed through raiseLB/capUB, so the
// corridor is sound by the same arguments in both uses: the lower bound is
// realized by a witness pair, and ub ≤ min(2·ecc(src), n−1) holds on
// connected graphs by the triangle inequality through src.

// sweep runs one double sweep from src: ecc(src), then the eccentricity of
// a vertex farthest from src. With closeEarly the second leg is skipped once
// the corridor has closed (approximation mode's stopping rule); the exact
// run always takes both legs. A cancelled run stops after the leg in
// flight.
func (s *solver) sweep(src graph.Vertex, closeEarly bool) {
	far := s.sweepLeg(src)
	if far == src || s.cancelled() || (closeEarly && s.corridorClosed()) {
		return
	}
	s.sweepLeg(far)
}

// sweepLeg runs one eccentricity BFS from src and folds it into the
// corridor: the lower bound rises to ecc(src), witnessed by src and the
// farthest vertex, which is returned (src itself when the BFS was aborted).
// The first completed BFS of the run also decides connectivity and opens
// the corridor at the trivial n−1 cap; on a connected graph the triangle
// inequality through src then caps it at 2·ecc(src). In the exact run that
// cap can only come from ecc(u): ecc(w) ≥ d(u, w) = ecc(u).
func (s *solver) sweepLeg(src graph.Vertex) graph.Vertex {
	ecc, far, ok := s.eccentricity(src)
	if !ok {
		return src
	}
	if s.ubCap < 0 {
		// No cap yet, so this is the first completed BFS. It reached
		// exactly src's component; together with the isolated-vertex
		// count that decides connectivity with no extra pass.
		n := s.g.NumVertices()
		s.infinite = n > 1 &&
			(s.stats.RemovedDegree0 > 0 || s.e.Reached() < int64(n)-s.stats.RemovedDegree0)
		s.capUB(int32(n) - 1)
	}
	if s.ecc[src] == Active {
		s.setComputed(src, ecc)
	}
	s.raiseLB(ecc, src, far)
	if ub := 2 * int64(ecc); !s.infinite && ub < int64(s.ubCap) {
		s.capUB(int32(ub))
	}
	s.publishBounds()
	return far
}

// splitmix64 advances state and returns the next value of the SplitMix64
// sequence — the deterministic source sampler for sweeps after the first.
// Inlined rather than imported so core stays free of the generator package.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z ^= z >> 30
	z *= 0xbf58476d1ce4b009
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// approxRun executes Options.Approx.Sweeps double sweeps and leaves the
// resulting corridor in the solver's bound state for finish() to report.
// The first sweep starts where the exact run would (s.start); later sweeps
// start from sampled non-isolated vertices, preferring ones no earlier
// sweep computed. The estimator stops early when the corridor collapses to
// gap ≤ max(Epsilon, 0) or the run is cancelled.
func (s *solver) approxRun(firstNonIsolated int) {
	sp := s.begin(spanStage, "approx", nil, obs.I("sweeps", int64(s.opt.Approx.Sweeps)))
	s.earlyExit = exitApprox
	rng := s.opt.Approx.Seed
	for i := 0; i < s.opt.Approx.Sweeps; i++ {
		src := s.start
		if i > 0 {
			src = s.sampleSource(&rng, firstNonIsolated)
		}
		s.sweep(src, true)
		if s.cancelled() || s.corridorClosed() {
			break
		}
	}
	if checkedBuild {
		s.checkStateConsistency("approx")
	}
	sp.end(obs.I("bound", int64(s.bound)), obs.I("upper", int64(s.ubCap)))
}

// sampleSource draws a non-isolated sweep source from the SplitMix64
// stream, preferring vertices no earlier sweep resolved; after a bounded
// number of rejections it falls back to the first non-isolated vertex
// (always a valid source) so pathological degree distributions cannot stall
// the estimator.
func (s *solver) sampleSource(rng *uint64, firstNonIsolated int) graph.Vertex {
	n := uint64(len(s.ecc))
	fallback := graph.Vertex(firstNonIsolated)
	for attempt := 0; attempt < 64; attempt++ {
		cand := graph.Vertex(splitmix64(rng) % n)
		if s.g.Degree(cand) == 0 {
			continue
		}
		if s.ecc[cand] == Active {
			return cand
		}
		// Already computed by an earlier sweep: usable, but keep looking
		// for a fresh vertex first.
		fallback = cand
	}
	return fallback
}
