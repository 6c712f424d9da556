// Package server turns the mstx engines into a multi-tenant job
// service: a bounded scheduler with per-tenant weighted fair queueing
// and admission control, a content-addressed single-flight result
// cache keyed by the engines' FNV-1a stimulus identity, per-job
// observability registries streamed as server-sent events, and a
// checkpointed job ledger so a killed server resumes in-flight work
// bit-identically on restart. cmd/mstxd wraps it in an HTTP binary.
//
// The package is deliberately not an engine package (no //mstxvet:engine
// tag): a service legitimately reads wall clocks for timeouts, SSE
// cadence and Retry-After hints. Everything deterministic stays in the
// engines it dispatches to.
package server

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"mstx/internal/obs"
	"mstx/internal/resilient"
)

// Job states. queued and running are live (a queued job may be
// waiting in the fair queue or backing off before a retry); the rest
// are terminal — see terminal() in supervise.go, the one place that
// enumerates them.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StatePartial  = "partial" // finished with quarantined work
	StateFailed   = "failed"
	StateCanceled = "canceled"
	StateDeadline = "deadline_exceeded" // wall budget expired (partial result salvaged when the engine had one)
)

// Error types carried in typed error bodies and job views.
const (
	ErrTypeBadRequest  = "bad_request"
	ErrTypeNotFound    = "not_found"
	ErrTypeQueueFull   = "queue_full"
	ErrTypeCanceled    = "canceled"
	ErrTypeDeadline    = "deadline"
	ErrTypePanic       = "panic"
	ErrTypeEngine      = "engine"
	ErrTypeShutdown    = "shutdown"
	ErrTypeBreakerOpen = "breaker_open"
)

// ErrQueueFull is returned by Submit when admission control rejects
// the job; the HTTP layer maps it to 429 with Retry-After.
var ErrQueueFull = errors.New("server: queue full")

// ErrStopped is returned by Submit after Close/Kill.
var ErrStopped = errors.New("server: stopped")

// BreakerOpenError is returned by Submit while the job kind's circuit
// breaker is shedding load; the HTTP layer maps it to 503 with
// Retry-After = the remaining open interval.
type BreakerOpenError struct {
	Kind       string
	RetryAfter time.Duration
}

func (e *BreakerOpenError) Error() string {
	return fmt.Sprintf("server: %s breaker open (retry in %s)", e.Kind, e.RetryAfter.Round(time.Millisecond))
}

// Config parameterizes a Server. Zero values take the stated defaults.
type Config struct {
	// Workers is the number of concurrent jobs (scheduler slots).
	// Default 2.
	Workers int
	// EngineWorkers is the per-job engine fan-out passed to the
	// campaign/MC engines (0 = each engine's own default).
	EngineWorkers int

	// MaxQueuedPerTenant and MaxQueuedTotal bound the backlog; a
	// submission over either bound is rejected with ErrQueueFull.
	// Defaults 16 and 64.
	MaxQueuedPerTenant int
	MaxQueuedTotal     int
	// Weights sets per-tenant scheduling weights (jobs started per
	// fair-queue cycle). Unlisted tenants get weight 1.
	Weights map[string]int
	// RetryAfter is the backoff hint attached to queue-full
	// rejections. Default 1s.
	RetryAfter time.Duration

	// CheckpointDir enables durability: the job ledger and each job's
	// engine snapshots live under it. Empty = in-memory only.
	CheckpointDir string
	// CheckpointEvery is the engine snapshot cadence in engine units
	// (round barriers / batches). <= 1 saves at every unit.
	CheckpointEvery int
	// Resume replays the ledger found in CheckpointDir on startup:
	// terminal jobs are served from the ledger, live ones re-enqueued
	// against their saved engine checkpoints.
	Resume bool

	// Registry is the server's own ops registry (/metrics, /trace).
	// nil = a fresh obs.New().
	Registry *obs.Registry
	// JobRing is each job's span-ring capacity (SSE event source).
	// Default 256.
	JobRing int
	// EventPoll is the SSE poll cadence. Default 200ms.
	EventPoll time.Duration
	// Heartbeat is the SSE comment-ping cadence keeping idle streams
	// alive through proxies. Default 15s.
	Heartbeat time.Duration

	// DefaultDeadline is applied to jobs that submit no deadline_ms
	// (0 = unlimited); MaxDeadline caps every job's budget, including
	// unlimited ones (0 = no cap). The budget is a wall clock over the
	// job's whole supervised run: every attempt and every retry
	// backoff, measured from first dispatch.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration

	// RetryMax is how many automatic retries a retryable failure
	// (engine error, panic quarantine) gets before the job lands in
	// failed. Default 0: retries are opt-in, a failure is a failure.
	RetryMax int
	// RetryBase/RetryCap shape the capped exponential backoff between
	// attempts (defaults 100ms / 5s); RetrySeed (default 1) drives the
	// deterministic jitter, so a fixed configuration has a fixed retry
	// timeline.
	RetryBase time.Duration
	RetryCap  time.Duration
	RetrySeed int64

	// Per-kind circuit breaker policy: a sliding window of
	// BreakerWindow engine-attempt outcomes (default 16) opens the
	// kind's breaker when at least BreakerMinSamples outcomes (default
	// 8) show a failure rate ≥ BreakerThreshold (default 0.5). An open
	// breaker sheds submissions of that kind for BreakerOpenFor
	// (default 5s), then admits BreakerProbes probe jobs (default 1)
	// whose outcome closes or re-opens it.
	BreakerWindow     int
	BreakerMinSamples int
	BreakerThreshold  float64
	BreakerOpenFor    time.Duration
	BreakerProbes     int
}

func (c *Config) withDefaults() Config {
	o := *c
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.MaxQueuedPerTenant <= 0 {
		o.MaxQueuedPerTenant = 16
	}
	if o.MaxQueuedTotal <= 0 {
		o.MaxQueuedTotal = 64
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.Registry == nil {
		o.Registry = obs.New()
	}
	if o.JobRing <= 0 {
		o.JobRing = 256
	}
	if o.EventPoll <= 0 {
		o.EventPoll = 200 * time.Millisecond
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = 15 * time.Second
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 100 * time.Millisecond
	}
	if o.RetryCap <= 0 {
		o.RetryCap = 5 * time.Second
	}
	if o.RetrySeed == 0 {
		o.RetrySeed = 1
	}
	if o.BreakerWindow <= 0 {
		o.BreakerWindow = 16
	}
	if o.BreakerMinSamples <= 0 {
		o.BreakerMinSamples = 8
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 0.5
	}
	if o.BreakerOpenFor <= 0 {
		o.BreakerOpenFor = 5 * time.Second
	}
	if o.BreakerProbes <= 0 {
		o.BreakerProbes = 1
	}
	return o
}

// Job is one submitted unit of work. Mutable fields are guarded by the
// owning Server's mutex; done closes exactly once on reaching a
// terminal state (or never, if the server is killed first).
type Job struct {
	ID     string
	Tenant string
	Spec   Spec

	state    string
	errType  string
	errMsg   string
	result   *Result
	identity uint64
	hasIdent bool
	cacheHit bool

	task   task
	reg    *obs.Registry
	cancel context.CancelFunc
	// cancelRequested distinguishes a client DELETE from other
	// interruptions when classifying the run error.
	cancelRequested bool
	done            chan struct{}

	// attempts counts completed engine attempts that ended in a
	// retryable failure (i.e. retries scheduled so far); deadlineAt is
	// the job's wall budget, fixed at first dispatch so retries and
	// backoffs spend from the same allowance. deadlineSet marks jobs
	// with no budget so the resolution runs once.
	attempts    int
	deadlineAt  time.Time
	deadlineSet bool
}

// Server is the job scheduler. New starts its workers immediately;
// Close (graceful) or Kill (abrupt, for crash tests) stops them.
type Server struct {
	cfg Config
	reg *obs.Registry

	mu       sync.Mutex
	cond     *sync.Cond
	q        *fairQueue
	jobs     map[string]*Job
	order    []string // job IDs in submission order, for the ledger
	nextID   int64
	stopping bool
	killed   bool

	cache  *resultCache
	ledger *resilient.Journal
	// ledgerHook, when set, runs under mu after every ledger write;
	// tests use it to check the files against the live state.
	ledgerHook func()

	// breakers is one circuit breaker per job kind (fixed at New).
	breakers map[string]*breaker
	// retryTimers holds the pending backoff timer of every job waiting
	// to be re-queued; guarded by mu, drained on shutdown and cancel.
	retryTimers map[string]*time.Timer
	// avgAttempt is an EWMA of recent attempt wall times, the drain
	// rate behind the 429 Retry-After hint. Guarded by mu.
	avgAttempt time.Duration

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	// Metrics (registered once; obsnil: server_* names are owned here).
	mSubmitted *obs.Counter
	mCompleted *obs.Counter
	mFailed    *obs.Counter
	mCanceled  *obs.Counter
	mDeadline  *obs.Counter
	mRetries   *obs.Counter
	mCacheHit  *obs.Counter
	mCacheMiss *obs.Counter
	mRejected  *obs.Counter
	mLedgerB   *obs.Counter
	mCompact   *obs.Counter
	gQueued    *obs.Gauge
	gRunning   *obs.Gauge
}

const ledgerName = "mstxd_jobs"
const ledgerVersion = 1

// ledgerRecord is one job's durable state; Result rides along for
// terminal jobs so a restarted server can still serve them.
// Identity too is persisted only with a terminal state: a live job
// recomputes it when its resumed run starts.
type ledgerRecord struct {
	ID       string
	Tenant   string
	Spec     Spec
	State    string
	ErrType  string
	ErrMsg   string
	Identity string
	CacheHit bool
	Attempts int
	Result   *Result
}

// ledgerState is the ledger snapshot (mstxd_jobs.ckpt): every job in
// submission order.
type ledgerState struct {
	NextID int64
	Jobs   []ledgerRecord
}

// ledgerEntry is one record of the ledger log (mstxd_jobs.log),
// appended on every transition: the job's whole new state, plus the
// ID counter at that instant.
type ledgerEntry struct {
	NextID int64
	Job    ledgerRecord
}

// New builds and starts a server. With Resume set it replays the
// ledger first, so previously queued/running jobs are dispatched again
// (their engine checkpoints make the replay bit-identical) before any
// new submissions.
func New(cfg Config) (*Server, error) {
	c := cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:         c,
		reg:         c.Registry,
		q:           newFairQueue(c.MaxQueuedPerTenant, c.MaxQueuedTotal, c.Weights),
		jobs:        make(map[string]*Job),
		cache:       newResultCache(),
		breakers:    make(map[string]*breaker),
		retryTimers: make(map[string]*time.Timer),
		baseCtx:     ctx,
		stop:        cancel,
	}
	s.cond = sync.NewCond(&s.mu)
	bcfg := breakerConfig{
		window:     c.BreakerWindow,
		minSamples: c.BreakerMinSamples,
		threshold:  c.BreakerThreshold,
		openFor:    c.BreakerOpenFor,
		probes:     c.BreakerProbes,
	}
	for _, kind := range jobKinds {
		s.breakers[kind] = newBreaker(kind, bcfg, s.reg, time.Now)
	}
	s.mSubmitted = s.reg.Counter("server_jobs_submitted_total")
	s.mCompleted = s.reg.Counter("server_jobs_completed_total")
	s.mFailed = s.reg.Counter("server_jobs_failed_total")
	s.mCanceled = s.reg.Counter("server_jobs_canceled_total")
	s.mDeadline = s.reg.Counter("server_jobs_deadline_total")
	s.mRetries = s.reg.Counter("server_retries_total")
	s.mCacheHit = s.reg.Counter("server_cache_hits_total")
	s.mCacheMiss = s.reg.Counter("server_cache_misses_total")
	s.mRejected = s.reg.Counter("server_queue_rejections_total")
	s.mLedgerB = s.reg.Counter("server_ledger_bytes_total")
	s.mCompact = s.reg.Counter("server_ledger_compactions_total")
	s.gQueued = s.reg.Gauge("server_jobs_queued")
	s.gRunning = s.reg.Gauge("server_jobs_running")
	if err := s.openLedger(); err != nil {
		cancel()
		return nil, err
	}
	for i := 0; i < c.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// openLedger opens the durable job ledger in CheckpointDir. With
// Resume it first restores the jobs that the snapshot plus the log
// hold; either way it then writes a fresh snapshot and empties the
// log, so a directory written by any earlier server starts clean.
func (s *Server) openLedger() error {
	if s.cfg.CheckpointDir == "" {
		return nil
	}
	s.ledger = resilient.NewJournal(s.cfg.CheckpointDir, ledgerName, ledgerVersion)
	if s.cfg.Resume {
		st, err := loadLedger(s.ledger)
		if err != nil {
			return fmt.Errorf("server: resume: %w", err)
		}
		s.restore(&st)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	//mstxvet:ignore lockorder resume snapshot is saved under s.mu by design so no transition can interleave
	if err := s.compactLocked(); err != nil {
		return fmt.Errorf("server: ledger: %w", err)
	}
	return nil
}

// loadLedger replays the ledger: the snapshot, then every log record
// over it. The last record per job ID wins, and a job's first
// appearance fixes its place in submission order.
func loadLedger(jn *resilient.Journal) (ledgerState, error) {
	var st ledgerState
	if _, err := jn.Load(&st); err != nil {
		return st, err
	}
	pos := make(map[string]int, len(st.Jobs))
	for i := range st.Jobs {
		pos[st.Jobs[i].ID] = i
	}
	err := jn.Replay(func(decode func(any) error) error {
		var e ledgerEntry
		if err := decode(&e); err != nil {
			return err
		}
		st.NextID = max(st.NextID, e.NextID)
		if i, ok := pos[e.Job.ID]; ok {
			st.Jobs[i] = e.Job
		} else {
			pos[e.Job.ID] = len(st.Jobs)
			st.Jobs = append(st.Jobs, e.Job)
		}
		return nil
	})
	return st, err
}

// restore rebuilds the jobs of a replayed ledger: terminal records
// become servable jobs, live ones are validated and re-enqueued in
// submission order.
func (s *Server) restore(st *ledgerState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID = st.NextID
	for i := range st.Jobs {
		rec := &st.Jobs[i]
		j := &Job{
			ID:       rec.ID,
			Tenant:   rec.Tenant,
			Spec:     rec.Spec,
			state:    rec.State, //mstxvet:ignore errclass ledger round-trip: values were classified before persisting (trust boundary)
			errType:  rec.ErrType,
			errMsg:   rec.ErrMsg,
			result:   rec.Result,
			cacheHit: rec.CacheHit,
			attempts: rec.Attempts,
			reg:      obs.NewWithRing(s.cfg.JobRing),
			done:     make(chan struct{}),
		}
		if id, err := strconv.ParseUint(rec.Identity, 16, 64); err == nil && rec.Identity != "" {
			j.identity, j.hasIdent = id, true
			if rec.Result != nil && !rec.Result.Partial && rec.State == StateDone {
				s.cache.succeed(id, rec.Result)
			}
		}
		switch rec.State {
		case StateQueued, StateRunning:
			// A job caught mid-flight by the crash: rebuild its task
			// and run it again. Its engine checkpoints under
			// job_<id>/ make the re-run a resume, not a restart.
			t, err := newTask(&j.Spec)
			if err != nil {
				j.state = StateFailed
				j.errType, j.errMsg = ErrTypeEngine, fmt.Sprintf("resume: %v", err)
				close(j.done)
				break
			}
			j.task = t
			j.state = StateQueued
			if !s.q.push(j) {
				j.state = StateFailed
				j.errType, j.errMsg = ErrTypeQueueFull, "resume: queue full"
				close(j.done)
			}
		default:
			close(j.done)
		}
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
	}
	s.gQueued.Set(float64(s.q.queued))
}

// Submit validates spec, admits the job for tenant and wakes a worker.
// The returned Job is live; poll it via Get or stream via SSE.
func (s *Server) Submit(tenant string, spec Spec) (*Job, error) {
	if tenant == "" {
		tenant = "default"
	}
	t, err := newTask(&spec) // normalizes spec in place
	if err != nil {
		return nil, err
	}
	if b := s.breakers[spec.Kind]; b != nil {
		if ok, retryIn := b.admit(); !ok {
			return nil, &BreakerOpenError{Kind: spec.Kind, RetryAfter: retryIn}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopping {
		return nil, ErrStopped
	}
	s.nextID++
	j := &Job{
		ID:     "j" + strconv.FormatInt(s.nextID, 10),
		Tenant: tenant,
		Spec:   spec,
		state:  StateQueued,
		task:   t,
		reg:    obs.NewWithRing(s.cfg.JobRing),
		done:   make(chan struct{}),
	}
	if !s.q.push(j) {
		s.mRejected.Inc()
		return nil, ErrQueueFull
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.mSubmitted.Inc()
	s.gQueued.Set(float64(s.q.queued))
	//mstxvet:ignore lockorder transitions append their own ledger record under s.mu by design so records land in transition order
	s.persistLocked(j)
	s.cond.Signal()
	return j, nil
}

// Get returns the job by ID.
func (s *Server) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel requests cancellation: a queued job terminates immediately, a
// running one has its context canceled and terminates when the engine
// unwinds. Terminal jobs are left alone. Reports whether the job
// exists.
func (s *Server) Cancel(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return false
	}
	switch j.state {
	case StateQueued:
		// Either waiting in the fair queue or backing off before a
		// retry; stop whichever is holding it.
		s.q.remove(j)
		if t := s.retryTimers[j.ID]; t != nil {
			t.Stop()
			delete(s.retryTimers, j.ID)
		}
		s.gQueued.Set(float64(s.q.queued))
		//mstxvet:ignore lockorder terminal transitions persist their own ledger record under s.mu by design
		s.finishLocked(j, StateCanceled, ErrTypeCanceled, "canceled before start")
	case StateRunning:
		j.cancelRequested = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	return true
}

// Close stops the server gracefully: no new admissions, running jobs
// are interrupted, workers drained. Interrupted jobs keep their last
// persisted ledger state (queued/running), so a Resume restart picks
// them back up.
func (s *Server) Close() { s.shutdown() }

// Kill is the crash-test stop: identical interruption semantics to
// Close (the ledger is already saved transition-by-transition, like a
// process that lost power), kept separate so tests read as intended.
func (s *Server) Kill() { s.shutdown() }

func (s *Server) shutdown() {
	s.mu.Lock()
	if s.stopping {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.stopping = true
	s.killed = true
	// Backoff jobs stay StateQueued in the ledger: a Resume restart
	// re-dispatches them against their checkpoints, no timer needed.
	for id, t := range s.retryTimers {
		t.Stop()
		delete(s.retryTimers, id)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.stop()
	s.wg.Wait()
	// killed stops every later ledger write, so the log can be closed
	// without the lock.
	if s.ledger != nil {
		s.ledger.Close()
	}
}

// Registry returns the server's ops registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// worker is one scheduler slot: pop by weighted round-robin, run,
// repeat.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for s.q.queued == 0 && !s.stopping {
			s.cond.Wait()
		}
		if s.stopping {
			s.mu.Unlock()
			return
		}
		j := s.q.pop()
		if j == nil {
			s.mu.Unlock()
			continue
		}
		j.state = StateRunning
		if !j.deadlineSet {
			// The wall budget starts at first dispatch and is shared
			// by every subsequent attempt and backoff.
			if d := jobDeadline(&j.Spec, s.cfg.DefaultDeadline, s.cfg.MaxDeadline); d > 0 {
				j.deadlineAt = time.Now().Add(d)
			}
			j.deadlineSet = true
		}
		var ctx context.Context
		var cancel context.CancelFunc
		if !j.deadlineAt.IsZero() {
			ctx, cancel = context.WithDeadline(s.baseCtx, j.deadlineAt)
		} else {
			ctx, cancel = context.WithCancel(s.baseCtx)
		}
		j.cancel = cancel
		s.gQueued.Set(float64(s.q.queued))
		s.gRunning.Add(1)
		s.persistLocked(j)
		s.mu.Unlock()

		start := time.Now()
		s.runJob(ctx, j)
		cancel()
		dur := time.Since(start)

		s.mu.Lock()
		if s.avgAttempt == 0 {
			s.avgAttempt = dur
		} else {
			s.avgAttempt = (3*s.avgAttempt + dur) / 4
		}
		s.gRunning.Add(-1)
		s.mu.Unlock()
	}
}

// runJob computes j: content identity, single-flight claim, engine
// run under the job's own obs registry, terminal classification.
func (s *Server) runJob(ctx context.Context, j *Job) {
	jctx := obs.WithRegistry(ctx, j.reg)
	id, err := j.task.prepare(jctx)
	if err != nil {
		s.finish(j, StateFailed, ErrTypeEngine, err.Error())
		return
	}
	s.mu.Lock()
	j.identity, j.hasIdent = id, true
	s.mu.Unlock()

	for {
		leader, cached, wait := s.cache.begin(id)
		if cached != nil {
			s.mCacheHit.Inc()
			s.finishResult(j, cached, true)
			return
		}
		if leader {
			break
		}
		select {
		case <-wait:
			// Leader finished (or failed); re-check the cache, or
			// claim the vacated leadership.
		case <-jctx.Done():
			s.finishInterrupted(j, jctx, resilient.CtxErr(jctx), nil)
			return
		}
	}
	s.mCacheMiss.Inc()

	env := taskEnv{workers: s.cfg.EngineWorkers}
	if s.cfg.CheckpointDir != "" {
		env.ckpt = &resilient.Checkpointer{
			Dir:    filepath.Join(s.cfg.CheckpointDir, "job_"+j.ID),
			Every:  s.cfg.CheckpointEvery,
			Resume: true,
		}
	}
	res, err := j.task.run(jctx, env)
	if res != nil {
		res.Identity = fmt.Sprintf("%016x", id)
	}
	b := s.breakers[j.Spec.Kind]
	if err != nil {
		s.cache.fail(id)
		var pe *resilient.PanicError
		switch {
		case errors.As(err, &pe):
			b.record(true)
			s.failOrRetry(j, ErrTypePanic, pe.Error())
		case resilient.Interrupted(err):
			// Cancel/deadline/shutdown say nothing about engine
			// health; no breaker outcome.
			s.finishInterrupted(j, jctx, err, res)
		default:
			b.record(true)
			s.failOrRetry(j, ErrTypeEngine, err.Error())
		}
		return
	}
	b.record(false)
	if res.Partial {
		// A degraded result is real but not canonical: serve it to
		// this job, release followers to recompute their own.
		s.cache.fail(id)
	} else {
		s.cache.succeed(id, res)
	}
	s.finishResult(j, res, false)
}

// finishInterrupted classifies an interruption: client cancel, job
// deadline, or server shutdown (which leaves the job resumable). An
// expired deadline is a first-class terminal state, and whatever
// partial result the engine salvaged on the way out (res may be nil)
// is served with it.
func (s *Server) finishInterrupted(j *Job, ctx context.Context, err error, res *Result) {
	s.mu.Lock()
	stopping := s.stopping
	requested := j.cancelRequested
	s.mu.Unlock()
	switch {
	case requested:
		s.finish(j, StateCanceled, ErrTypeCanceled, "canceled by request")
	case errors.Is(err, resilient.ErrDeadline) || errors.Is(ctx.Err(), context.DeadlineExceeded):
		s.mu.Lock()
		if res != nil {
			j.result = res
		}
		s.finishLocked(j, StateDeadline, ErrTypeDeadline, "job deadline exceeded")
		s.mu.Unlock()
	case stopping:
		// Server going down: no transition. The ledger still says
		// queued/running, which is exactly what resume needs.
	default:
		s.finish(j, StateCanceled, ErrTypeCanceled, err.Error())
	}
}

// failOrRetry handles a retryable engine failure: schedule another
// attempt under the retry policy, or land the job in failed when the
// policy (or the job's deadline budget) is exhausted. The retry keeps
// the job's StateQueued outside the fair queue while its backoff timer
// runs; requeueRetry puts it back when the timer fires.
func (s *Server) failOrRetry(j *Job, errType, errMsg string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if terminal(j.state) {
		return
	}
	// No retry scheduling while stopping — the shutdown path already
	// drained the timers; the failure lands as-is.
	if !s.stopping && s.cfg.RetryMax > 0 && j.attempts < s.cfg.RetryMax && retryable(errType) {
		delay := retryDelay(s.cfg.RetryBase, s.cfg.RetryCap, s.cfg.RetrySeed, j.ID, j.attempts+1)
		if j.deadlineAt.IsZero() || time.Now().Add(delay).Before(j.deadlineAt) {
			j.attempts++
			j.state = StateQueued
			j.errType, j.errMsg = errType, errMsg // last error, visible while backing off
			j.cancel = nil
			s.mRetries.Inc()
			s.persistLocked(j)
			id := j.ID
			s.retryTimers[id] = time.AfterFunc(delay, func() { s.requeueRetry(id) })
			return
		}
		errMsg += "; retry budget exhausted"
	}
	s.finishLocked(j, StateFailed, errType, errMsg)
}

// requeueRetry moves a backed-off job back into the fair queue. The
// push bypasses admission bounds: the job was admitted once and never
// left the server's accounting.
func (s *Server) requeueRetry(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.retryTimers, id)
	j := s.jobs[id]
	if j == nil || s.stopping || j.state != StateQueued {
		return
	}
	s.q.forcePush(j)
	s.gQueued.Set(float64(s.q.queued))
	s.cond.Signal()
}

// retryAfterSeconds is the live 429 Retry-After hint: the estimated
// backlog drain time, floored by the configured static value.
func (s *Server) retryAfterSeconds() int {
	s.mu.Lock()
	queued := s.q.queued
	avg := s.avgAttempt
	s.mu.Unlock()
	return ceilSeconds(retryAfterHint(queued, avg, s.cfg.Workers, s.cfg.RetryAfter))
}

func (s *Server) finishResult(j *Job, res *Result, cacheHit bool) {
	state := StateDone
	if res.Partial {
		state = StatePartial
	}
	s.mu.Lock()
	j.result = res
	j.cacheHit = cacheHit
	s.finishLocked(j, state, "", "")
	s.mu.Unlock()
}

func (s *Server) finish(j *Job, state, errType, errMsg string) {
	s.mu.Lock()
	s.finishLocked(j, state, errType, errMsg)
	s.mu.Unlock()
}

// finishLocked moves j to a terminal state, bumps metrics, folds the
// job's counters into the server registry (so /metrics aggregates
// engine work across jobs), persists the ledger and releases waiters.
func (s *Server) finishLocked(j *Job, state, errType, errMsg string) {
	if terminal(j.state) {
		return
	}
	j.state = state
	j.errType, j.errMsg = errType, errMsg
	switch state {
	case StateDone, StatePartial:
		s.mCompleted.Inc()
	case StateFailed:
		s.mFailed.Inc()
	case StateCanceled:
		s.mCanceled.Inc()
	case StateDeadline:
		s.mDeadline.Inc()
	}
	for name, v := range j.reg.Counters() {
		if v != 0 {
			s.reg.Counter(name).Add(v)
		}
	}
	s.persistLocked(j)
	close(j.done)
}

// persistLocked appends j's new state to the ledger log. Called with
// s.mu held on every transition, so records land in transition order;
// when the log has outgrown the snapshot it is compacted on the spot.
// A write failure is non-fatal for the live server (jobs keep running)
// but loses resumability until the next compaction succeeds, so it is
// surfaced as a server_ledger_errors_total bump rather than silently
// dropped.
func (s *Server) persistLocked(j *Job) {
	if s.ledger == nil || s.killed {
		return
	}
	n, err := s.ledger.Append(ledgerEntry{NextID: s.nextID, Job: recordLocked(j)})
	if err != nil {
		s.reg.Counter("server_ledger_errors_total").Inc()
	}
	s.mLedgerB.Add(int64(n))
	if s.ledger.Due() {
		if err := s.compactLocked(); err != nil {
			s.reg.Counter("server_ledger_errors_total").Inc()
		}
	}
	if s.ledgerHook != nil {
		s.ledgerHook()
	}
}

// compactLocked rewrites the ledger snapshot from the live jobs and
// empties the log.
func (s *Server) compactLocked() error {
	st := s.ledgerStateLocked()
	if err := s.ledger.Compact(&st); err != nil {
		return err
	}
	s.mCompact.Inc()
	return nil
}

// recordLocked is j's durable state.
func recordLocked(j *Job) ledgerRecord {
	rec := ledgerRecord{
		ID:       j.ID,
		Tenant:   j.Tenant,
		Spec:     j.Spec,
		State:    j.state,
		ErrType:  j.errType,
		ErrMsg:   j.errMsg,
		CacheHit: j.cacheHit,
		Attempts: j.attempts,
		Result:   j.result,
	}
	if j.hasIdent && terminal(j.state) {
		rec.Identity = fmt.Sprintf("%016x", j.identity)
	}
	return rec
}

// ledgerStateLocked is the full ledger snapshot: every job ever
// submitted, in submission order.
func (s *Server) ledgerStateLocked() ledgerState {
	st := ledgerState{NextID: s.nextID, Jobs: make([]ledgerRecord, 0, len(s.order))}
	for _, id := range s.order {
		st.Jobs = append(st.Jobs, recordLocked(s.jobs[id]))
	}
	return st
}

// Snapshot is a point-in-time public view of a job.
type Snapshot struct {
	ID       string     `json:"id"`
	Tenant   string     `json:"tenant"`
	Kind     string     `json:"kind"`
	State    string     `json:"state"`
	Identity string     `json:"identity,omitempty"`
	CacheHit bool       `json:"cache_hit,omitempty"`
	Attempts int        `json:"attempts,omitempty"`
	Error    *ErrorBody `json:"error,omitempty"`
	Result   *Result    `json:"result,omitempty"`
}

// ErrorBody is the typed error payload used in job views and HTTP
// error responses.
type ErrorBody struct {
	Type    string `json:"type"`
	Message string `json:"message"`
}

// Snapshot returns j's current public view.
func (s *Server) Snapshot(j *Job) Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := Snapshot{
		ID:       j.ID,
		Tenant:   j.Tenant,
		Kind:     j.Spec.Kind,
		State:    j.state,
		CacheHit: j.cacheHit,
		Attempts: j.attempts,
		Result:   j.result,
	}
	if j.hasIdent {
		v.Identity = fmt.Sprintf("%016x", j.identity)
	}
	if j.errType != "" {
		v.Error = &ErrorBody{Type: j.errType, Message: j.errMsg}
	}
	return v
}

// Done exposes the job's terminal-notification channel (closed when
// the job reaches a terminal state).
func (j *Job) Done() <-chan struct{} { return j.done }

// Events exposes the job's private obs registry, the SSE event
// source.
func (j *Job) Events() *obs.Registry { return j.reg }
