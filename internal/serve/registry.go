package serve

// The async-job machinery both job kinds share: placement search
// (jobs.go) and ensemble generation (genjobs.go). One generic registry
// indexes a kind's jobs by id (polling) and by content key
// (coalescing), retains finished jobs up to Options.JobRetention, and
// owns the shutdown handshake; one runner, startJob, gives every job
// its deadline, its own trace, a watcher that surfaces the deadline
// and Close promptly, and one inflight evaluation slot. A kind adds
// only its own fields, its work function and the success step that
// records the work's result.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"compoundthreat/internal/hash64"
	"compoundthreat/internal/obs"
)

// Job states as reported by the poll endpoints.
const (
	jobRunning  = "running"
	jobDone     = "done"
	jobFailed   = "failed"
	jobCanceled = "canceled"
)

// JobTraceHeader carries a job's execution trace ID on submit and poll
// responses, so submit → run → poll is one navigable story: the client
// reads the header and fetches GET /v1/traces/{id} for the job run.
// The router forwards it verbatim.
const JobTraceHeader = "X-Job-Trace-Id"

// jobBase is the state every job kind embeds. id, key, created,
// traceID, submitTrace and cancel are written once before the job is
// published; mu guards state, err and the kind's own mutable fields.
type jobBase struct {
	id      string
	key     string // content key: identical submissions coalesce on it
	created time.Time
	// traceID is the job execution's own trace ID ("" with tracing
	// off); submitTrace links back to the request that submitted the
	// job.
	traceID     string
	submitTrace string

	cancel context.CancelFunc
	done   chan struct{} // closed once the job reaches a terminal state

	mu    sync.Mutex
	state string
	err   error
}

func (b *jobBase) base() *jobBase { return b }

// jobHandle is a pointer to a job kind; every kind satisfies it by
// embedding jobBase.
type jobHandle interface {
	comparable
	base() *jobBase
}

// jobMetrics are one job kind's instruments. Each construction site
// registers them under literal names, so the metric-name lint sees
// every one.
type jobMetrics struct {
	submitted, coalesced   *obs.Counter
	done, failed, canceled *obs.Counter
	running                *obs.Gauge
}

// registry indexes one kind's jobs by id and by content key.
type registry[J jobHandle] struct {
	retention int
	m         jobMetrics

	mu       sync.Mutex
	byID     map[string]J
	byKey    map[string]J
	finished []J // eviction order, oldest first
	closed   bool
}

func newRegistry[J jobHandle](retention int, m jobMetrics) *registry[J] {
	return &registry[J]{
		retention: retention,
		m:         m,
		byID:      make(map[string]J),
		byKey:     make(map[string]J),
	}
}

// errShuttingDown rejects submissions after Close.
func errShuttingDown() error {
	return &apiError{status: http.StatusServiceUnavailable, code: "shutting_down", message: "server is shutting down"}
}

// jobID derives a stable id from the content key (FNV-1a, rendered as
// 16 hex digits), so resubmitting the same work names the same job.
func jobID(key string) string {
	return fmt.Sprintf("%016x", hash64.String(key))
}

// idForLocked returns key's job id: jobID(key), re-hashed while a
// different key holds it (astronomically unlikely). Callers hold g.mu.
func (g *registry[J]) idForLocked(key string) string {
	id := jobID(key)
	for {
		prev, taken := g.byID[id]
		if !taken || prev.base().key == key {
			return id
		}
		id = jobID(id)
	}
}

// submit returns the job for key, creating it with create on first
// sight. The bool reports whether the submission coalesced onto an
// existing job.
func (g *registry[J]) submit(key string, create func(id string) J) (J, bool, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		var zero J
		return zero, false, errShuttingDown()
	}
	if j, ok := g.byKey[key]; ok {
		g.m.coalesced.Inc()
		return j, true, nil
	}
	id := g.idForLocked(key)
	j := create(id)
	g.byID[id] = j
	g.byKey[key] = j
	g.m.submitted.Inc()
	g.m.running.Inc()
	return j, false, nil
}

// get returns the job by id.
func (g *registry[J]) get(id string) (J, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	j, ok := g.byID[id]
	return j, ok
}

// ensureDone returns the job for key, running or done, and otherwise
// registers the finished job build makes under a fresh id: a synthetic
// job for work that is already done (an ensemble a warm restart
// re-served), so resubmitting clients poll a consistent job id.
func (g *registry[J]) ensureDone(key string, build func(id string) J) J {
	g.mu.Lock()
	defer g.mu.Unlock()
	if j, ok := g.byKey[key]; ok {
		return j
	}
	id := g.idForLocked(key)
	j := build(id)
	g.byID[id] = j
	g.byKey[key] = j
	g.retainLocked(j)
	return j
}

// importDone registers an inherited finished job under its own id for
// polling and — by content key — as a coalescing result-cache hit,
// exactly like a locally finished job. Existing ids and keys win over
// imports, and a closed registry refuses them.
func (g *registry[J]) importDone(j J) bool {
	b := j.base()
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return false
	}
	if _, taken := g.byID[b.id]; taken {
		return false
	}
	if _, taken := g.byKey[b.key]; taken {
		return false
	}
	g.byID[b.id] = j
	g.byKey[b.key] = j
	g.retainLocked(j)
	return true
}

// finish records a job's terminal state. Idempotent: the first caller
// (the runner or the watcher) wins. On success onDone records the
// kind's result; it runs under the job's lock. Failed and canceled jobs
// leave the coalescing index so identical resubmissions retry; done
// jobs stay coalescable as a result cache until retention evicts them.
// The registry lock is held throughout, so a client that has seen a
// job fail and resubmits always starts a fresh job, and the job's
// counters move under its lock, with its state.
func (g *registry[J]) finish(j J, err error, onDone func()) {
	b := j.base()
	g.mu.Lock()
	defer g.mu.Unlock()
	b.mu.Lock()
	if b.state != jobRunning {
		b.mu.Unlock()
		return
	}
	switch {
	case err == nil:
		b.state = jobDone
		onDone()
		g.m.done.Inc()
	case errors.Is(err, context.Canceled):
		b.state, b.err = jobCanceled, err
		g.m.canceled.Inc()
	default:
		b.state, b.err = jobFailed, err
		g.m.failed.Inc()
	}
	g.m.running.Dec()
	state := b.state
	b.mu.Unlock()
	close(b.done)

	if state != jobDone && g.byKey[b.key] == j {
		delete(g.byKey, b.key)
	}
	g.retainLocked(j)
}

// retainLocked appends a finished job and evicts the oldest beyond the
// retention bound. Callers hold g.mu.
func (g *registry[J]) retainLocked(j J) {
	g.finished = append(g.finished, j)
	for len(g.finished) > g.retention {
		old := g.finished[0]
		g.finished = g.finished[1:]
		ob := old.base()
		delete(g.byID, ob.id)
		if g.byKey[ob.key] == old {
			delete(g.byKey, ob.key)
		}
	}
}

// close stops accepting submissions and cancels every running job.
func (g *registry[J]) close() {
	g.mu.Lock()
	g.closed = true
	var cancels []context.CancelFunc
	for _, j := range g.byID {
		b := j.base()
		b.mu.Lock()
		if b.state == jobRunning && b.cancel != nil {
			cancels = append(cancels, b.cancel)
		}
		b.mu.Unlock()
	}
	g.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

// Close cancels all running placement and generation jobs and rejects
// new submissions and uploads; poll endpoints keep answering (canceled
// jobs report their state) and /v1/readyz starts failing. Call after
// Run returns, before process exit, so job goroutines stop
// deterministically.
func (s *Server) Close() {
	s.closed.Store(true)
	s.jobs.close()
	s.genjobs.close()
}

// startJob launches a submitted job: a runner that holds one inflight
// evaluation slot while work runs, so jobs and interactive queries
// share one work bound, and a watcher that finishes the job as soon as
// its deadline passes or Close cancels it, even while work is stuck in
// a phase that cannot observe its context (an ensemble source that
// blocks during matrix compile). Whichever finishes the job first
// wins; on success the runner's finish calls onDone to record the
// result. The job runs under its own trace, traceName, linked to the
// submitting request's trace by annotation: the submit request
// finishes long before the job does, so sharing one trace would tie
// the job's spans to an already-published tree.
func startJob[J jobHandle](s *Server, g *registry[J], j J, traceName string, work func(ctx context.Context) error, onDone func()) {
	b := j.base()
	ctx, cancel := context.WithTimeout(context.Background(), s.opt.JobTimeout)
	b.cancel = cancel
	tr := s.tracer.Start(traceName)
	if tr != nil {
		ctx = obs.ContextWithSpan(obs.ContextWithTrace(ctx, tr), tr.Root())
		b.traceID = tr.ID()
		tr.Root().Annotate("job_id", b.id)
		if b.submitTrace != "" {
			tr.Root().Annotate("submit_trace_id", b.submitTrace)
		}
	}
	go func() {
		select {
		case <-ctx.Done():
			err := ctx.Err()
			if errors.Is(err, context.DeadlineExceeded) {
				s.timeouts.Inc()
				err = fmt.Errorf("job exceeded its %v deadline: %w", s.opt.JobTimeout, err)
			}
			g.finish(j, err, nil)
		case <-b.done:
		}
	}()
	go func() {
		defer cancel()
		release, err := s.acquire(ctx)
		if err == nil {
			err = work(ctx)
			release()
		}
		g.finish(j, err, onDone)
		tr.Finish()
	}()
}
