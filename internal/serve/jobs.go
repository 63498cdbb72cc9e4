package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/url"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"fdiam/internal/core"
	"fdiam/internal/fault"
	"fdiam/internal/obs"
)

// Injection point for webhook chaos: serve.webhook_fail fails a delivery
// attempt, exercising the retry loop and the final-failure counter.
var faultWebhookFail = fault.Register("serve.webhook_fail")

// Async job API: POST /jobs submits the same request POST /diameter takes
// and returns immediately with a job ID; GET /jobs/{id} polls it; an
// optional ?webhook= URL receives the finished result. The job ID is the
// graph's content SHA-256 — the same key the caches and the per-graph
// checkpoint directories use — which is what makes jobs crash-safe without
// any job journal: a process death mid-solve leaves the checkpoint
// directory behind, the next boot's ResumeOrphans finishes the solve and
// publishes the result under the key, and GET /jobs/{id} finds it in the
// result cache as if nothing had happened. Webhook registrations are
// in-memory only and do not survive a restart; polling does.
type jobRecord struct {
	id        string
	requestID string
	webhook   string
	at        anytime

	// Guarded by jobTable.mu after publication.
	state string // jobRunning | jobDone | jobCancelled
	res   core.Result
}

const (
	jobRunning   = "running"
	jobDone      = "done"
	jobCancelled = "cancelled"
	jobUnknown   = "unknown"
)

type jobTable struct {
	mu sync.Mutex
	m  map[string]*jobRecord
}

func newJobTable() *jobTable { return &jobTable{m: make(map[string]*jobRecord)} }

// claim registers a job for id unless one is already live; the existing
// record is returned so duplicate submissions are idempotent.
func (t *jobTable) claim(j *jobRecord) (existing *jobRecord, claimed bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cur, ok := t.m[j.id]; ok {
		return cur, false
	}
	t.m[j.id] = j
	return j, true
}

func (t *jobTable) get(id string) (*jobRecord, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.m[id]
	return j, ok
}

func (t *jobTable) drop(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.m, id)
}

// finish publishes the job's outcome and returns a snapshot of the record.
func (t *jobTable) finish(j *jobRecord, state string, res core.Result) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j.state = state
	j.res = res
}

// view reads the record's mutable fields under the table lock. It works
// for any record — table-resident or a cache-hit record that never entered
// the map — because it locks the table, not the map entry.
func (t *jobTable) view(j *jobRecord) (state string, res core.Result) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return j.state, j.res
}

// jobResponse is the /jobs reply schema, shared by submit, poll and
// webhook deliveries.
type jobResponse struct {
	JobID string `json:"job_id"`
	State string `json:"state"`
	// Result carries the full /diameter response once the job is done; for
	// a cancelled job it holds the best proven bounds at cancellation.
	Result *response `json:"result,omitempty"`
}

// validJobID accepts exactly the 64-hex-char SHA-256 content keys jobs are
// addressed by.
func validJobID(id string) bool {
	if len(id) != 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// handleJobs serves POST /jobs: the pipeline's stages 1–6, then a 202 with
// the job ID while runJob finishes the solve in the background under the
// same slot pool request solves use. Like /diameter it answers from the
// local result cache before routing; otherwise a non-owner forwards the
// submission to the owner so the checkpoint directory (and therefore crash
// recovery) lands on the node that owns the graph, and falls back to
// running the job locally when the owner is unreachable.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST a graph file to submit an async job; poll GET /jobs/{id}", http.StatusMethodNotAllowed)
		return
	}
	webhook := r.URL.Query().Get("webhook")
	var paramErr error
	if webhook != "" {
		if u, err := url.Parse(webhook); err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			paramErr = fmt.Errorf("webhook: %q is not an http(s) URL", webhook)
		}
	}
	sr, ok := s.front(w, r, paramErr)
	if !ok {
		return
	}
	j := &jobRecord{id: sr.key, requestID: sr.requestID, webhook: webhook, at: sr.at, state: jobRunning}

	// An already-known answer completes the job instantly (and still
	// honors the webhook contract: the client asked to be told).
	if res, ok := s.lookupResult(sr); ok {
		j.state, j.res = jobDone, res
		if webhook != "" {
			s.inflight.Add(1)
			//fdiamlint:ignore nakedgo webhook delivery for an already-cached result; bounded retries, joined via inflight on drain
			go func() {
				defer s.inflight.Done()
				s.deliverWebhook(j)
			}()
		}
		writeJSON(w, http.StatusOK, s.jobResponseFor(j))
		return
	}
	if s.forward(w, r, sr.key, sr.data) {
		return
	}
	// The job runs here: this node owns the key, or the owner is
	// unreachable. Crash recovery still works in the latter case — the
	// checkpoint lands in this node's directory and this node's boot adopts
	// it; only cache locality is lost until the owner heals.
	cur, claimed := s.jobs.claim(j)
	if !claimed {
		// A live submission for the same graph: return its ID — the solve,
		// checkpoint dir and result are all keyed by content, so there is
		// nothing a second run could add.
		state, _ := s.jobs.view(cur)
		code := http.StatusAccepted
		if state != jobRunning {
			code = http.StatusOK
		}
		writeJSON(w, code, s.jobResponseFor(cur))
		return
	}
	if err := s.loadGraph(sr); err != nil {
		s.jobs.drop(sr.key)
		http.Error(w, "parse: "+err.Error(), http.StatusBadRequest)
		return
	}
	if !s.admit(w) {
		s.jobs.drop(sr.key)
		return
	}
	// The graph copy is persisted before the 202 goes out: from this point
	// on, even kill -9 leaves enough on disk for the next boot to finish
	// the job.
	s.persistGraph(sr)
	sr.lg = s.lg.With(obs.KeyJobID, sr.key)
	s.mJobsSubmitted.Inc()
	obs.LoggerFrom(r.Context()).Info("job_submitted", obs.KeyJobID, sr.key, obs.KeyWebhook, webhook)
	//fdiamlint:ignore nakedgo async job solve, bounded by the admission ledger and slot pool, joined via inflight on drain
	go s.runJob(j, sr)
	writeJSON(w, http.StatusAccepted, s.jobResponseFor(j))
}

// runJob runs the pipeline's stages 7–9 for one admitted job. The solve
// context is the server's base context (a job outlives its submitting
// request by design) plus the job's own timeout.
func (s *Server) runJob(j *jobRecord, sr *solveReq) {
	defer s.release()
	if !s.waitSlot(s.baseCtx) {
		// Drained before the job got a slot: nothing ran, nothing is lost
		// — the persisted graph copy makes the next boot re-run it.
		s.jobs.finish(j, jobCancelled, core.Result{Cancelled: true})
		s.mJobsCancelled.Inc()
		return
	}
	defer s.releaseSlot()
	res := s.runSolver(s.baseCtx, sr, nil)
	s.publishOutcome(sr, res)

	if res.Cancelled {
		// The snapshot stays behind (publishOutcome never retires a
		// cancelled solve's directory); a restart or re-submission resumes
		// from it.
		s.jobs.finish(j, jobCancelled, res)
		s.mJobsCancelled.Inc()
		s.lg.Warn("job_cancelled", obs.KeyJobID, j.id, obs.KeyBound, res.Diameter)
		return
	}
	s.jobs.finish(j, jobDone, res)
	s.mJobsCompleted.Inc()
	s.lg.Info("job_done", obs.KeyJobID, j.id, obs.KeyDiameter, res.Diameter)
	if j.webhook != "" {
		s.deliverWebhook(j)
	}
}

// handleJobGet serves GET /jobs/{id}. Lookup order is local-first — the
// in-memory record, then the result cache (which a restarted node's orphan
// resume repopulates), then a live checkpoint directory (an adopted solve
// still running) — and only then forwards to the ring owner, so a job that
// fell back to a local solve is found where it actually ran.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET /jobs/{id}", http.StatusMethodNotAllowed)
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/jobs/")
	if !validJobID(id) {
		http.Error(w, "job id must be a 64-hex-char graph content hash", http.StatusBadRequest)
		return
	}
	if j, ok := s.jobs.get(id); ok {
		writeJSON(w, http.StatusOK, s.jobResponseFor(j))
		return
	}
	// No record: this node may have restarted since the submission. The
	// result cache holds completed jobs (orphan resume publishes exactly
	// like a request solve would); a checkpoint directory means the
	// adopted solve is still running.
	if res, ok := s.results.get(id); ok {
		rr := s.buildResponse(obs.RequestIDFrom(r.Context()), id, res, 0, true, true, anytime{})
		writeJSON(w, http.StatusOK, jobResponse{JobID: id, State: jobDone, Result: &rr})
		return
	}
	if s.cfg.CheckpointDir != "" && fileExists(filepath.Join(s.cfg.CheckpointDir, id, graphFileName)) {
		writeJSON(w, http.StatusOK, jobResponse{JobID: id, State: jobRunning})
		return
	}
	if s.forward(w, r, id, nil) {
		return
	}
	writeJSON(w, http.StatusNotFound, jobResponse{JobID: id, State: jobUnknown})
}

// jobResponseFor snapshots a record into the wire schema.
func (s *Server) jobResponseFor(j *jobRecord) jobResponse {
	state, res := s.jobs.view(j)
	out := jobResponse{JobID: j.id, State: state}
	if state == jobDone || state == jobCancelled {
		rr := s.buildResponse(j.requestID, j.id, res, 0, false, state == jobDone, j.at)
		out.Result = &rr
	}
	return out
}

// Webhook delivery policy: same capped-backoff-with-full-jitter shape as
// the staged-read and forward retries. A webhook that stays down after the
// budget is counted and logged, never re-queued — the client can always
// poll GET /jobs/{id}.
const (
	webhookAttempts  = 3
	webhookBaseDelay = 100 * time.Millisecond
	webhookMaxDelay  = time.Second
	webhookTimeout   = 10 * time.Second
)

// deliverWebhook POSTs the finished job to its webhook URL.
func (s *Server) deliverWebhook(j *jobRecord) {
	body, err := json.Marshal(s.jobResponseFor(j))
	if err != nil {
		return
	}
	delay := webhookBaseDelay
	var lastErr error
	for attempt := 1; attempt <= webhookAttempts; attempt++ {
		if err := s.postWebhook(j.webhook, body); err == nil {
			s.lg.Info("webhook_delivered", obs.KeyJobID, j.id, obs.KeyWebhook, j.webhook)
			return
		} else {
			lastErr = err
		}
		if attempt == webhookAttempts {
			break
		}
		time.Sleep(delay/2 + rand.N(delay/2))
		delay *= 2
		if delay > webhookMaxDelay {
			delay = webhookMaxDelay
		}
	}
	s.mWebhookFails.Inc()
	s.lg.Warn("webhook_failed", obs.KeyJobID, j.id, obs.KeyWebhook, j.webhook, obs.KeyError, lastErr.Error())
}

func (s *Server) postWebhook(url string, body []byte) error {
	if err := faultWebhookFail.Err(); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, webhookTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(string(body)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.webhookClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= http.StatusMultipleChoices {
		return fmt.Errorf("webhook: %s answered %d", url, resp.StatusCode)
	}
	return nil
}
