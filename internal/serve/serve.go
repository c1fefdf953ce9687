// Package serve is the hardened model-serving layer behind cmd/cmpserve.
//
// Requests flow through a bounded admission queue into a single coalescing
// dispatcher: concurrently arriving requests are merged into micro-batches
// and scored through the compiled batch inference path, amortizing
// per-request overhead the same way BENCH_infer shows batch mode beating
// the serial walk. Every stage is built to degrade instead of collapse:
//
//   - Admission is bounded. When the queue is full the request is shed
//     immediately with 429 + Retry-After; no unbounded goroutines, no
//     unbounded memory.
//   - Every request carries a deadline. The HTTP handlers compute it once
//     (request start + RequestTimeout) and store it on the queued job next
//     to the request's context, so no per-request timer context is built.
//     The waiting handler gives up when either ends, and the dispatcher
//     checks both when the micro-batch is picked up and between scoring
//     chunks, so an expired request stops consuming CPU at the next
//     bounded step.
//   - The model registry is versioned and swapped through one atomic
//     pointer. A reload loads, compiles, and probe-validates the new model
//     before the swap; in-flight micro-batches finish on the version they
//     started with and zero requests are dropped. A corrupt or truncated
//     file fails closed — the old version keeps serving, the failure is
//     counted, and cmpdt.ErrBadModel distinguishes "this file will never
//     load" from transient I/O worth retrying.
//   - Drain is graceful: admission stops (readyz goes 503), queued work is
//     flushed within the caller's drain budget, and the dispatcher joins
//     before the process exits.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cmpdt"
	"cmpdt/internal/obs"
)

// Errors surfaced by Submit, mapped onto HTTP statuses by the handlers.
var (
	// ErrShed is returned when the bounded admission queue is full: the
	// request was rejected before consuming any prediction resources.
	ErrShed = errors.New("serve: admission queue full")
	// ErrDraining is returned once Drain began: the server is shutting
	// down and accepts no new work.
	ErrDraining = errors.New("serve: draining")
	// ErrNotReady is returned before the first model load completes.
	ErrNotReady = errors.New("serve: no model loaded")
	// ErrSchemaMismatch is returned when a record's width does not match
	// the serving model's attribute count (checked again at scoring time,
	// since a hot reload may land between admission and scoring).
	ErrSchemaMismatch = errors.New("serve: record width does not match model schema")
)

// scoreChunk bounds how many records are scored between context checks, so
// an expired deadline stops a large batch within one bounded slice.
const scoreChunk = 512

// Config tunes a Server. Zero values select serving defaults.
type Config struct {
	// Loader loads a model from a path (default cmpdt.LoadPredictor).
	// Tests inject fault-wrapped loaders here.
	Loader func(path string) (cmpdt.Predictor, error)
	// Workers shards each micro-batch across this many goroutines inside
	// PredictBatchWorkers (<= 0 selects GOMAXPROCS).
	Workers int
	// MaxBatch caps the records coalesced into one micro-batch (default
	// 256).
	MaxBatch int
	// MaxBatchRecords caps a single /predict/batch request (default
	// 16384); larger requests are rejected with 413 before parsing costs
	// accrue.
	MaxBatchRecords int
	// QueueDepth bounds the admission queue in queued requests (default
	// 256). A full queue sheds with ErrShed.
	QueueDepth int
	// RequestTimeout is the per-request deadline (default 5s; negative
	// disables).
	RequestTimeout time.Duration
	// RetryAfter is the backoff hint attached to shed responses (default
	// 1s).
	RetryAfter time.Duration
	// Probe, when non-nil, validates every loaded model before it is
	// swapped in (see Probe).
	Probe *Probe
	// Registry receives the serving metrics (default: a fresh registry).
	Registry *obs.Registry
	// ScoreDelay sleeps this long before scoring each micro-batch. It
	// exists for the overload benchmark and tests, which need a
	// deterministically slow service rate to provoke shedding; production
	// configs leave it zero.
	ScoreDelay time.Duration
}

func (c Config) withDefaults() Config {
	if c.Loader == nil {
		c.Loader = cmpdt.LoadPredictor
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.MaxBatchRecords <= 0 {
		c.MaxBatchRecords = 16384
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	return c
}

// Model is one loaded, validated model version. Versions are assigned
// sequentially from 1; a failed reload does not consume a version number.
type Model struct {
	Predictor cmpdt.Predictor
	Schema    cmpdt.Schema
	Version   int64
	Path      string
	LoadedAt  time.Time

	classJSON [][]byte // each class name JSON-encoded, for the responses
}

// Kind names the model's concrete type for operators.
func (m *Model) Kind() string {
	switch m.Predictor.(type) {
	case *cmpdt.Tree:
		return "tree"
	case *cmpdt.Forest:
		return "forest"
	default:
		return "predictor"
	}
}

// job is one admitted request waiting to be coalesced.
type job struct {
	ctx      context.Context
	deadline time.Time // zero: ctx alone bounds the job
	records  [][]float64
	enqueued time.Time
	done     chan jobResult // buffered 1: the dispatcher never blocks on it
}

// expired reports why j can no longer be answered with predictions at
// now: its context ended, or its deadline passed.
func (j *job) expired(now time.Time) error {
	if err := j.ctx.Err(); err != nil {
		return err
	}
	if !j.deadline.IsZero() && !now.Before(j.deadline) {
		return context.DeadlineExceeded
	}
	return nil
}

type jobResult struct {
	classes []int
	model   *Model
	err     error
}

// Server is the serving pipeline: registry + queue + dispatcher + metrics.
// Create one with New, install a model with Load/Reload, serve HTTP via
// Handler, and stop with Drain.
type Server struct {
	cfg Config

	model       atomic.Pointer[Model]
	reloadMu    sync.Mutex // serializes Load/Reload; the swap itself is atomic
	nextVersion int64      // guarded by reloadMu

	queue          chan *job
	admitMu        sync.RWMutex // admissions hold R; Drain holds W to flip draining
	draining       bool
	dispatcherDone chan struct{}

	// Metrics, captured once at construction (registry lookups lock).
	mPredictReqs, mBatchReqs, mRecords    *obs.Counter
	mShed, mExpired, mNotReady, mBadInput *obs.Counter
	mReloadOK, mReloadFail, mReloadBad    *obs.Counter
	mQueueDepth, mModelVersion            *obs.Gauge
	hRequestNs, hQueueWaitNs, hBatchNs    *obs.Histogram
	hBatchRecords                         *obs.Histogram
}

// batchSizeBounds buckets the micro-batch record counts (power-of-two up
// to the default MaxBatchRecords cap).
var batchSizeBounds = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384}

// New builds a Server and starts its dispatcher. No model is loaded yet:
// the server reports not-ready (and sheds predictions with ErrNotReady)
// until Load succeeds, which is what lets /readyz gate rollout traffic
// during startup.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	s := &Server{
		cfg:            cfg,
		queue:          make(chan *job, cfg.QueueDepth),
		dispatcherDone: make(chan struct{}),

		mPredictReqs:  reg.Counter("serve_predict_requests"),
		mBatchReqs:    reg.Counter("serve_batch_requests"),
		mRecords:      reg.Counter("serve_records"),
		mShed:         reg.Counter("serve_shed"),
		mExpired:      reg.Counter("serve_deadline_expired"),
		mNotReady:     reg.Counter("serve_not_ready"),
		mBadInput:     reg.Counter("serve_bad_requests"),
		mReloadOK:     reg.Counter("serve_reload_success"),
		mReloadFail:   reg.Counter("serve_reload_failure"),
		mReloadBad:    reg.Counter("serve_reload_bad_model"),
		mQueueDepth:   reg.Gauge("serve_queue_depth"),
		mModelVersion: reg.Gauge("serve_model_version"),
		hRequestNs:    reg.Histogram("serve_request_ns", obs.DefaultLatencyBounds),
		hQueueWaitNs:  reg.Histogram("serve_queue_wait_ns", obs.DefaultLatencyBounds),
		hBatchNs:      reg.Histogram("serve_predict_batch_ns", obs.DefaultLatencyBounds),
		hBatchRecords: reg.Histogram("serve_batch_records", batchSizeBounds),
	}
	go s.dispatch()
	return s
}

// Model returns the currently serving model version, or nil before the
// first successful load.
func (s *Server) Model() *Model { return s.model.Load() }

// Ready reports whether the server accepts prediction traffic: a model is
// loaded and drain has not begun.
func (s *Server) Ready() bool { return s.model.Load() != nil && !s.isDraining() }

func (s *Server) isDraining() bool {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	return s.draining
}

// Load installs the model at path. It is Reload without a previous
// version: on failure nothing serves and the error is returned.
func (s *Server) Load(path string) (*Model, error) { return s.Reload(path) }

// Reload loads, validates, and atomically swaps in the model at path,
// returning the new version. On any failure — unreadable file, corrupt
// bytes, failed probe — the previous model keeps serving untouched
// ("fail closed") and the failure counters record whether the cause was
// structural (cmpdt.ErrBadModel: retrying is pointless) or transient.
// In-flight micro-batches finish on the version they captured; no request
// observes a half-swapped model.
func (s *Server) Reload(path string) (*Model, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	p, err := s.cfg.Loader(path)
	if err != nil {
		s.mReloadFail.Inc()
		if errors.Is(err, cmpdt.ErrBadModel) {
			s.mReloadBad.Inc()
		}
		return nil, fmt.Errorf("serve: loading %s: %w", path, err)
	}
	schema := p.ModelSchema()
	if s.cfg.Probe != nil {
		if err := s.cfg.Probe.check(p, schema); err != nil {
			// A model that fails its probe is structurally unfit to
			// serve, whatever its file looked like.
			s.mReloadFail.Inc()
			s.mReloadBad.Inc()
			return nil, fmt.Errorf("serve: probe rejected %s: %w", path, err)
		}
	}
	classJSON := make([][]byte, len(schema.Classes))
	for i, name := range schema.Classes {
		classJSON[i], _ = json.Marshal(name) // a string always marshals
	}
	s.nextVersion++
	m := &Model{Predictor: p, Schema: schema, Version: s.nextVersion, Path: path, LoadedAt: time.Now(), classJSON: classJSON}
	s.model.Store(m)
	s.mReloadOK.Inc()
	s.mModelVersion.Set(m.Version)
	return m, nil
}

// Submit admits records into the serving pipeline and blocks until they
// are scored, the context expires, or the request is shed. It returns the
// class indexes and the model version that produced them.
func (s *Server) Submit(ctx context.Context, records [][]float64) ([]int, *Model, error) {
	return s.submit(ctx, time.Time{}, records)
}

// submit is Submit with an absolute deadline (zero for none) that the
// dispatcher checks alongside ctx.
func (s *Server) submit(ctx context.Context, deadline time.Time, records [][]float64) ([]int, *Model, error) {
	m := s.model.Load()
	if m == nil {
		s.mNotReady.Inc()
		return nil, nil, ErrNotReady
	}
	if err := checkWidth(records, len(m.Schema.Attrs)); err != nil {
		s.mBadInput.Inc()
		return nil, nil, err
	}
	j := &job{ctx: ctx, deadline: deadline, records: records, enqueued: time.Now(), done: make(chan jobResult, 1)}
	s.admitMu.RLock()
	if s.draining {
		s.admitMu.RUnlock()
		return nil, nil, ErrDraining
	}
	select {
	case s.queue <- j:
		s.mQueueDepth.Set(int64(len(s.queue)))
		s.admitMu.RUnlock()
	default:
		s.admitMu.RUnlock()
		s.mShed.Inc()
		return nil, nil, ErrShed
	}
	// On an early return the dispatcher notices the dead context or the
	// passed deadline and drops the job's remaining work at its next
	// bounded check.
	if deadline.IsZero() {
		select {
		case res := <-j.done:
			return res.classes, res.model, res.err
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
	t := getTimer(time.Until(deadline))
	select {
	case res := <-j.done:
		putTimer(t, false)
		return res.classes, res.model, res.err
	case <-ctx.Done():
		putTimer(t, false)
		return nil, nil, ctx.Err()
	case <-t.C:
		putTimer(t, true)
		return nil, nil, context.DeadlineExceeded
	}
}

// timerPool reuses the timers submit waits on.
var timerPool sync.Pool

func getTimer(d time.Duration) *time.Timer {
	if t, ok := timerPool.Get().(*time.Timer); ok {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// putTimer stops t and pools it; fired says whether its value was
// received. go.mod's go 1.22 line keeps the pre-1.23 timer semantics: a
// timer that fired unreceived holds (or is about to hold) its value after
// Stop returns false, and Reset would not clear it, so the receive is
// blocking. Under go 1.23 or later semantics Stop leaves no value behind
// and that receive would block forever; the drain must go with the bump.
func putTimer(t *time.Timer, fired bool) {
	if !t.Stop() && !fired {
		<-t.C
	}
	timerPool.Put(t)
}

// Drain stops admissions and flushes the queue: new Submits fail with
// ErrDraining, queued jobs are scored and answered, and the dispatcher
// joins. It returns nil when the flush finished within ctx's budget.
// Idempotent: later calls just wait on the same flush.
func (s *Server) Drain(ctx context.Context) error {
	s.admitMu.Lock()
	first := !s.draining
	s.draining = true
	s.admitMu.Unlock()
	if first {
		// No admitter can be between its draining check and its send now
		// (both happen under the read lock), so closing is safe.
		close(s.queue)
	}
	select {
	case <-s.dispatcherDone:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain budget exceeded with work queued: %w", ctx.Err())
	}
}

// dispatch is the coalescing loop: take one job, greedily fold in whatever
// else is already queued up to MaxBatch records, and score the micro-batch
// through one PredictBatchWorkers call. Runs until the queue is closed and
// empty.
func (s *Server) dispatch() {
	defer close(s.dispatcherDone)
	batch := make([]*job, 0, 64)
	for {
		j, ok := <-s.queue
		if !ok {
			return
		}
		batch = append(batch[:0], j)
		n := len(j.records)
	coalesce:
		for n < s.cfg.MaxBatch {
			select {
			case j2, ok2 := <-s.queue:
				if !ok2 {
					break coalesce
				}
				batch = append(batch, j2)
				n += len(j2.records)
			default:
				break coalesce
			}
		}
		s.mQueueDepth.Set(int64(len(s.queue)))
		s.scoreBatch(batch)
	}
}

// scoreBatch scores one micro-batch against the model version current at
// pick-up time. Jobs whose context ended or deadline passed are answered
// with that error without touching the predictor.
func (s *Server) scoreBatch(batch []*job) {
	m := s.model.Load()
	now := time.Now()
	live := batch[:0]
	total := 0
	for _, j := range batch {
		if err := j.expired(now); err != nil {
			s.mExpired.Inc()
			j.done <- jobResult{err: err}
			continue
		}
		if err := checkWidth(j.records, len(m.Schema.Attrs)); err != nil {
			j.done <- jobResult{err: err}
			continue
		}
		s.hQueueWaitNs.Observe(now.Sub(j.enqueued).Nanoseconds())
		live = append(live, j)
		total += len(j.records)
	}
	if total == 0 {
		return
	}
	if s.cfg.ScoreDelay > 0 {
		time.Sleep(s.cfg.ScoreDelay)
	}
	records := make([][]float64, 0, total)
	for _, j := range live {
		records = append(records, j.records...)
	}
	dst := make([]int, total)
	start := time.Now()
	answered := s.predictChunked(live, m, dst, records)
	s.hBatchNs.Observe(time.Since(start).Nanoseconds())
	s.hBatchRecords.Observe(int64(total))
	off := 0
	delivered := int64(0)
	for i, j := range live {
		if !answered[i] {
			j.done <- jobResult{classes: dst[off : off+len(j.records)], model: m}
			delivered += int64(len(j.records))
		}
		off += len(j.records)
	}
	s.mRecords.Add(delivered)
}

// predictChunked drives PredictBatchWorkers in bounded chunks, re-checking
// the participating jobs' contexts and deadlines between chunks — this is
// how a per-request deadline propagates into the batch scoring path. A job
// whose deadline fires mid-batch is answered immediately with its own
// context error; the other jobs are unaffected and keep scoring (the
// expired job's records may still be scored in passing — wasted work
// bounded by one micro-batch). Returns which jobs were already answered
// here; the caller distributes results to the rest. Scoring stops early
// once every job has expired.
func (s *Server) predictChunked(live []*job, m *Model, dst []int, records [][]float64) []bool {
	answered := make([]bool, len(live))
	remaining := len(live)
	for off := 0; off < len(records); off += scoreChunk {
		now := time.Now()
		for i, j := range live {
			if answered[i] {
				continue
			}
			if err := j.expired(now); err != nil {
				s.mExpired.Inc()
				answered[i] = true
				remaining--
				j.done <- jobResult{err: err}
			}
		}
		if remaining == 0 {
			return answered
		}
		end := off + scoreChunk
		if end > len(records) {
			end = len(records)
		}
		m.Predictor.PredictBatchWorkers(dst[off:end], records[off:end], s.cfg.Workers)
	}
	return answered
}

// checkWidth validates record widths against the serving schema. Widths
// are checked at admission against the then-current model, but a reload
// can land in between, so the dispatcher re-checks before indexing.
func checkWidth(records [][]float64, attrs int) error {
	for _, r := range records {
		if len(r) != attrs {
			return fmt.Errorf("%w: got %d values, model has %d attributes", ErrSchemaMismatch, len(r), attrs)
		}
	}
	return nil
}
