package serve

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"fdiam/internal/checkpoint"
	"fdiam/internal/core"
	"fdiam/internal/graph"
	"fdiam/internal/graphio"
	"fdiam/internal/obs"
)

// The serving pipeline (DESIGN.md §9). Every solve the daemon runs — a
// /diameter request, a /jobs submission, an orphan adopted at boot — goes
// through the stages below. Each is written once, and every entry point
// calls the ones it uses in this order:
//
//	1 front           count, drain check, tenant quota, parameters,
//	                  graph bytes, SHA-256 → key
//	2 lookupResult    result cache: exact bare key, then the anytime key
//	3 forward         hand the request to the ring owner
//	4 loadGraph       graph cache, else parse
//	5 admit           running+queued ledger: 429 with Retry-After when full
//	6 persistGraph    checkpoint directory, then drop the graph bytes
//	7 waitSlot        execution slot, observed as queue wait
//	8 runSolver       layered solve context and the one core.Options
//	9 publishOutcome  caches, counters, checkpoint retirement
//
// /diameter runs 1–9 inline (?stream=bounds skips 3). /jobs runs 1–6,
// answers 202 and runs 7–9 in runJob. Boot recovery reads its checkpoint
// copy and runs 4 and 6–9: an orphan is not a request, so it pays no ledger
// entry.

// solveReq is one graph on its way through the pipeline; each stage fills
// in what the later ones read.
type solveReq struct {
	key     string            // hex content hash: cache key, job ID, checkpoint dir name
	sum     [sha256.Size]byte // content hash; zero for boot recovery, which never runs approx
	at      anytime
	timeout time.Duration
	data    []byte // the serialized graph, until persistGraph drops it

	g        *graph.Graph
	graphHit bool
	ck       core.CheckpointOptions

	// lg and requestID are re-attached to the solve context, which is
	// deliberately not a child of any request context.
	lg        *slog.Logger
	requestID string
}

// front is stage 1, everything a request does before its key is known:
// count it, refuse it while draining, charge the tenant, validate the
// parameters, read the graph bytes and hash them. paramErr is the
// endpoint's own parameter check, answered as a 400 alongside the shared
// ones. On false the response has been written.
func (s *Server) front(w http.ResponseWriter, r *http.Request, paramErr error) (*solveReq, bool) {
	s.mRequests.Inc()
	if faultHandlerPanic.Hit() {
		panic("injected handler panic (serve.handler_panic)")
	}
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return nil, false
	}
	if !s.tenantAdmit(w, r) {
		return nil, false
	}
	at, err := parseAnytime(r.URL.Query())
	if err == nil {
		err = paramErr
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	timeout, err := s.requestTimeout(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	lg := obs.LoggerFrom(r.Context())
	data, status, err := s.requestGraphBytes(w, r)
	if err != nil {
		// The access log records the status; this line adds the cause
		// (staged-read failures especially), still under this request_id.
		lg.Warn("graph_read_failed", obs.KeyError, err.Error())
		http.Error(w, err.Error(), status)
		return nil, false
	}
	sr := &solveReq{sum: sha256.Sum256(data), at: at, timeout: timeout, data: data,
		lg: lg, requestID: obs.RequestIDFrom(r.Context())}
	sr.key = hex.EncodeToString(sr.sum[:])
	return sr, true
}

// lookupResult is stage 2. A finished diameter is a pure function of the
// graph content, so a hit skips everything after it. An exact entry under
// the bare key satisfies every request (its gap is 0 ≤ any ε); an anytime
// request additionally accepts an approximate entry cached under its own
// parameter-qualified key. A hit is counted.
func (s *Server) lookupResult(sr *solveReq) (core.Result, bool) {
	res, ok := s.results.get(sr.key)
	if !ok && sr.at.enabled() {
		res, ok = s.results.get(sr.at.cacheKey(sr.key))
	}
	if ok {
		s.mResultHits.Inc()
	}
	return res, ok
}

// loadGraph is stage 4: the parsed graph from the graph cache, else parsed
// from sr.data.
func (s *Server) loadGraph(sr *solveReq) error {
	if g, ok := s.graphs.get(sr.key); ok {
		sr.g, sr.graphHit = g, true
		return nil
	}
	g, err := graphio.ReadAuto(sr.data)
	if err != nil {
		return err
	}
	sr.g = g
	return nil
}

// admit is stage 5: running plus queued solves may not exceed
// MaxConcurrent+MaxQueue, so a flood gets 429s with a Retry-After hint
// rather than an unbounded pile of waiters. It runs before persistGraph so
// a rejected request leaves nothing on disk for boot recovery to adopt. On
// true the caller holds one ledger entry and one inflight count, both
// returned by release.
func (s *Server) admit(w http.ResponseWriter) bool {
	if s.admitted.Add(1) > int64(s.cfg.MaxConcurrent+s.cfg.MaxQueue) {
		s.admitted.Add(-1)
		s.mRejected.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		http.Error(w, "solver queue full", http.StatusTooManyRequests)
		return false
	}
	s.inflight.Add(1)
	return true
}

func (s *Server) release() {
	s.admitted.Add(-1)
	s.inflight.Done()
}

// persistGraph is stage 6. With a checkpoint directory configured it
// prepares <CheckpointDir>/<key>/: the raw graph bytes are persisted beside
// the future snapshot (write-then-rename, so a crash mid-write never leaves
// a torn copy), and a snapshot left by an earlier process is selected for
// resume. A failure disables checkpointing for this solve rather than
// failing it. Either way the bytes are dropped: the CSR form is all that
// is retained past this point, so a queued solve does not hold its upload.
func (s *Server) persistGraph(sr *solveReq) {
	data := sr.data
	sr.data = nil
	if s.cfg.CheckpointDir == "" {
		return
	}
	dir := filepath.Join(s.cfg.CheckpointDir, sr.key)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	gpath := filepath.Join(dir, graphFileName)
	if _, err := os.Stat(gpath); err != nil {
		tmp := gpath + ".tmp"
		if err := os.WriteFile(tmp, data, 0o644); err != nil {
			return
		}
		if err := os.Rename(tmp, gpath); err != nil {
			return
		}
	}
	sr.ck = core.CheckpointOptions{Dir: dir, Every: s.cfg.CheckpointEvery}
	if snap := filepath.Join(dir, checkpoint.FileName); fileExists(snap) {
		sr.ck.ResumeFrom = snap
	}
}

// waitSlot is stage 7: block until an execution slot frees, counted in
// fdiamd_queued_solves while waiting and in fdiamd_queue_wait_seconds once
// granted. false means ctx or the server ended first and no slot is held;
// on true the caller returns the slot with releaseSlot.
func (s *Server) waitSlot(ctx context.Context) bool {
	s.gQueued.Add(1)
	defer s.gQueued.Add(-1)
	start := s.hQueueWait.StartTimer()
	select {
	case s.slots <- struct{}{}:
		s.hQueueWait.ObserveSince(start)
		return true
	case <-ctx.Done():
	case <-s.baseCtx.Done():
	}
	return false
}

func (s *Server) releaseSlot() { <-s.slots }

// runSolver is stage 8: solve sr's graph in a slot the caller holds. The
// solve context layers server shutdown (baseCtx) and parent — the client
// connection, or the boot-recovery bound: whichever fires first stops the
// run at its next BFS level boundary. It is a child of baseCtx with parent
// bridged in, not the other way round, because a drain must not wait on
// slow clients; the request's logger and ID are re-attached for the same
// reason. run, when set, observes the solve and is finished with it.
func (s *Server) runSolver(parent context.Context, sr *solveReq, run *obs.Run) core.Result {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	defer context.AfterFunc(parent, cancel)()
	ctx = obs.ContextWithRequestID(obs.ContextWithLogger(ctx, sr.lg), sr.requestID)

	opt := core.Options{Workers: s.cfg.Workers, Timeout: sr.timeout, Checkpoint: sr.ck, Trace: run,
		Epsilon: sr.at.solverEpsilon()}
	if sr.at.approx {
		// The estimator's sampling seed derives from the graph's content
		// hash: the same graph with the same budget produces the same
		// corridor on every request and every endpoint, matching the
		// cache's promise.
		opt.Approx = core.ApproxOptions{Sweeps: sr.at.sweeps, Seed: binary.BigEndian.Uint64(sr.sum[:8])}
	}
	s.gInflight.Add(1)
	defer s.gInflight.Add(-1)
	res := core.DiameterCtx(ctx, sr.g, opt)
	// Finish closes every bound subscriber, which is what ends a streaming
	// request's event loop.
	_ = run.Finish()
	return res
}

// publishOutcome is stage 9: it settles a finished solve into the caches
// and counters. A cancelled run leaves its checkpoint directory for
// resume; a completed one publishes to both caches (unless the injected
// cache-write fault drops the publication) and retires its checkpoint
// directory.
func (s *Server) publishOutcome(sr *solveReq, res core.Result) {
	if res.Cancelled {
		// A cancelled checkpointed solve deliberately leaves its directory
		// behind: the snapshot inside is exactly what ResumeOrphans (or a
		// retrying client) continues from.
		s.mCancelled.Inc()
		return
	}
	if res.Resumed {
		s.mResumes.Inc()
	}
	if faultCacheWrite.Hit() {
		// Injected cache-write failure: the result is still served,
		// only the caches stay cold for the next request.
	} else {
		if sr.graphHit {
			s.mGraphHits.Inc()
		} else {
			s.mGraphMisses.Inc()
			s.graphs.add(sr.key, sr.g)
			s.gGraphBytes.Set(s.graphs.bytes())
		}
		if res.Approximate {
			// An open corridor is cached only under its parameter-qualified
			// key: the bare content key is the exact-diameter promise, and
			// an approximate entry must never be served against it.
			s.results.addAnytime(sr.at.cacheKey(sr.key), res)
		} else {
			s.results.add(sr.key, res)
		}
	}
	if res.Approximate && !res.TimedOut {
		// An ε-stopped solve left a positioned snapshot behind; a later
		// exact (or tighter-ε) request for the same graph resumes from it
		// instead of restarting. Timed-out runs keep the pre-existing
		// retirement behavior.
		return
	}
	s.clearCheckpointDir(sr.key)
}
