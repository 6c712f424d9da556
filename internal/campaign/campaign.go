// Package campaign is the pooled stuck-at fault-campaign engine. One
// campaign runs every fault of a universe against one period of a
// coherent stimulus; the detection predicate is a fault.Detector, so
// the same engine runs the paper's ideal-input exact-compare campaign
// (fault.ExactDetector) and its through-the-analog-path spectral
// campaign (spectest.Detector). It pipelines 63-lane gate-level record
// generation into a bounded pool of detection workers. A detector that
// implements fault.WorkerDetector is bound once per worker, so the
// spectral workers each own a reusable FFT scratch (window table,
// complex work buffer, float conversion buffer) keyed off the shared
// dsp plan cache and the per-fault hot path allocates nothing.
//
// The engine also applies a zero-diff screen: a faulty record that is
// identical to the good record gets the good record's own verdict,
// Detect(good, good) — computed once — and the per-fault detection
// (for the spectral detector, the FFT) is skipped entirely. On
// high-coverage stimuli a large fraction of the residual faults never
// toggle the output, so the screen removes a matching fraction of the
// detection work while leaving the campaign Report bit-identical to
// the serial reference path (fault.SerialSimulate with the same
// detector).
//
// The per-record spectral steady state is a zero-allocation contract,
// pinned by testing.AllocsPerRun regression tests in dsp and spectest
// and by the BENCH_dsp.json / BENCH_campaign.json perf trajectories
// recorded by scripts/check.sh: once a worker's scratch is warm, the
// record → window → FFT → power spectrum → screen path allocates
// nothing. The same contract is available outside this engine —
// fault.SerialSimulate binds the detector the same way, and
// dsp.SpectrumScratch carries scratch-backed Welch, Analyze,
// NoiseFloor and CoherentAverage variants for streaming callers.
//
// Two further campaign-level reuses exploit that every batch drives
// the same stimulus. Record generation is differential: the fault-free
// machine's net values are captured once per step (digital.Baseline)
// and each batch re-evaluates only the fanout cone of its 63 faults —
// a small fraction of the circuit — instead of the whole netlist.
// And detection is memoized: structurally inequivalent faults often
// produce byte-identical output records, whose verdicts are
// necessarily identical too (the good record is fixed for the run), so
// each distinct record pays for at most one detection. Both reuses
// are exact (no verdict can change) and both can be disabled in
// Options for A/B measurement.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mstx/internal/digital"
	"mstx/internal/fault"
	"mstx/internal/obs"
	"mstx/internal/resilient"
)

// Failpoint sites for the deterministic fault-injection harness: one
// per pipeline stage, fired once per batch. Disabled (nil registry)
// they cost one atomic load.
var (
	fpSimBatch = resilient.Site("campaign.sim_batch")
	fpDetBatch = resilient.Site("campaign.detect_batch")
)

// lanesPerBatch is the simulator's fault-lane capacity: 64 bit-lanes
// with lane 0 reserved for the good machine.
const lanesPerBatch = 63

// Options configures the engine's pipeline shape.
type Options struct {
	// SimWorkers bounds the concurrent 63-lane simulator passes.
	// Defaults to GOMAXPROCS.
	SimWorkers int
	// DetectWorkers bounds the detection pool (one bound detector —
	// for the spectral detector, one FFT scratch — per worker).
	// Defaults to GOMAXPROCS.
	DetectWorkers int
	// Queue is the number of simulated batches allowed in flight
	// between the two stages; it bounds the records held in memory.
	// Defaults to DetectWorkers.
	Queue int
	// DisableScreen turns the zero-diff screen off (every lane pays
	// its detection); the screen is on by default and changes no
	// verdict.
	DisableScreen bool
	// DisableDifferential turns cone-differential record generation
	// off (every batch re-evaluates the full netlist per step). The
	// differential path is on by default whenever the circuit compiles
	// and the baseline snapshot fits the memory budget; it changes no
	// record bit.
	DisableDifferential bool
	// DisableMemo turns record-verdict memoization off (byte-identical
	// faulty records each pay their own detection); memoization is on
	// by default and changes no verdict.
	DisableMemo bool
	// Quarantine recovers a panicking batch (either stage), marks its
	// faults Quarantined in the Report, and continues the campaign.
	// Without it the recovered panic aborts the run as an ordinary
	// error — the process never crashes either way.
	Quarantine bool
	// Checkpoint, when enabled, snapshots the batch ledger every
	// Checkpoint.Every batch completions so a killed campaign resumes
	// instead of restarting. The resumed Report is bit-identical; the
	// Memoized/Spectra split in Stats may shift (the memo table is
	// rebuilt on resume).
	Checkpoint *resilient.Checkpointer
	// CheckpointName names this campaign's snapshot inside
	// Checkpoint.Dir. Default "campaign".
	CheckpointName string
}

// maxBaselineBytes caps the differential baseline snapshot (one bit
// per net per record step); campaigns exceeding it fall back to full
// per-batch simulation rather than ballooning memory.
const maxBaselineBytes = 256 << 20

// Stats reports what the engine actually did.
type Stats struct {
	// Faults is the universe size.
	Faults int
	// Batches is the number of 63-lane simulator passes.
	Batches int
	// Screened counts lanes resolved by the zero-diff screen.
	Screened int
	// Memoized counts lanes resolved by record-verdict memoization (a
	// byte-identical record was already detected).
	Memoized int
	// Spectra counts detector evaluations actually performed — spectra
	// computed, for the spectral detector — including the one
	// good-record evaluation backing the screen.
	Spectra int
	// Differential reports whether record generation replayed fault
	// cones against a shared baseline (false: full per-batch runs).
	Differential bool
	// Quarantined counts faults whose batch panicked and was isolated
	// under Options.Quarantine (their Results carry no verdict).
	Quarantined int
}

// campCkptVersion guards the campCkpt layout.
const campCkptVersion = 1

// campCkpt is the batch-ledger snapshot of a campaign run: which
// batches completed, every completed batch's results, the engine
// counters those batches contributed, and the campaign identity the
// ledger is only valid for. Spectra excludes the good-record verdict
// (recomputed on every run, including resumes).
type campCkpt struct {
	NF          int
	Patterns    int
	StimHash    uint64
	Done        []bool
	Results     []fault.Result
	Screened    int64
	Memoized    int64
	Spectra     int64
	Quarantined int64
}

// Engine runs stuck-at campaigns for one universe/detector pair. It is
// cheap to construct; all heavy state is per-Run.
type Engine struct {
	U *fault.Universe
	// Det is the detection predicate. It must be deterministic: the
	// memo and the screen reuse one evaluation for equal records.
	Det  fault.Detector
	Opts Options
}

// New builds an engine. A spectral detector must already be
// calibrated; construction validates nothing about the stimulus, which
// is supplied per Run.
func New(u *fault.Universe, det fault.Detector, opts Options) (*Engine, error) {
	if u == nil {
		return nil, fmt.Errorf("campaign: nil universe")
	}
	if det == nil {
		return nil, fmt.Errorf("campaign: nil detector")
	}
	if opts.SimWorkers <= 0 {
		opts.SimWorkers = runtime.GOMAXPROCS(0)
	}
	if opts.DetectWorkers <= 0 {
		opts.DetectWorkers = runtime.GOMAXPROCS(0)
	}
	if opts.Queue <= 0 {
		opts.Queue = opts.DetectWorkers
	}
	return &Engine{U: u, Det: det, Opts: opts}, nil
}

// job is one simulated batch handed from the record-generation stage
// to the detection pool.
type job struct {
	batch int
	lo    int
	good  []int64
	lanes [][]int64
}

// Run executes the campaign over one period of the (coherent) stimulus
// xs and returns the per-fault Report — identical to
// fault.SerialSimulate(u, xs, det) — together with engine statistics.
// Detector errors abort the run and surface as campaign errors; the
// first error in batch order is returned.
//
// Cancellation and deadlines on ctx are honored at batch granularity:
// an interrupted run drains its pipeline, returns the partial Report
// (completed batches carry verdicts; the rest keep the fault identity
// with FirstDiff -1) and an error satisfying errors.Is against
// resilient.ErrCanceled or resilient.ErrDeadline.
func (e *Engine) Run(ctx context.Context, xs []int64) (*fault.Report, *Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(xs) == 0 {
		return nil, nil, fmt.Errorf("campaign: empty input record")
	}
	nf := len(e.U.Faults)
	results := make([]fault.Result, nf)
	// Prefill the fault identity so partial (canceled) and quarantined
	// entries still say which fault they cover. The tap lookup scans
	// every tap net, so later stages reuse the prefilled Tap.
	for i, f := range e.U.Faults {
		results[i] = fault.Result{Fault: f, Tap: e.U.FIR.TapOfNet(f.Net), FirstDiff: -1}
	}
	nBatches := (nf + lanesPerBatch - 1) / lanesPerBatch
	stats := &Stats{Faults: nf, Batches: nBatches}

	// cctx is the internal drain signal: the first stage error (or the
	// caller's own cancellation) stops sim workers from claiming new
	// batches and unblocks any worker parked on the bounded jobs send,
	// so the pipeline never leaks goroutines on early error.
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Observability: resolve every handle once per run, preferring a
	// registry carried by ctx (a job server records each job into its
	// own span ring) over the process default. With neither installed
	// all handles are nil, every use below is a nil-receiver no-op, and
	// none of the timing branches take a clock reading — the disabled
	// path is benchmarked to stay within noise of the uninstrumented
	// engine.
	reg := obs.For(ctx)
	var (
		runCtx      context.Context
		runSp       *obs.SpanHandle
		verdictHist *obs.Histogram
		genCounter  *obs.Counter
		busyNanos   int64
	)
	if reg != nil {
		runCtx, runSp = reg.Span(ctx, "campaign.run")
		defer runSp.End()
		verdictHist = reg.Histogram("campaign_verdict_seconds", 0, 0.1, 64)
		genCounter = reg.Counter("campaign_records_generated_total")
	}

	// The screen's shared verdict: a zero-diff lane's record is the
	// good record, so its verdict is Detect(good, good). The good
	// record is the same for every batch (lane 0 of each pass), so
	// compute it — and its verdict — once up front. This also
	// surfaces stimulus/detector length mismatches before any batch
	// spins up. When the differential path is viable the same pass
	// captures the per-step baseline snapshots every batch replays its
	// fault cones against.
	goodSim := digital.NewFIRSim(e.U.FIR)
	var (
		good   []int64
		base   *digital.Baseline
		err    error
		baseSp *obs.SpanHandle
	)
	if reg != nil {
		_, baseSp = reg.Span(runCtx, "campaign.baseline")
	}
	useDiff := !e.Opts.DisableDifferential && goodSim.Compiled() &&
		digital.BaselineBytes(e.U.FIR, len(xs)) <= maxBaselineBytes
	if useDiff {
		base, err = goodSim.CaptureBaseline(xs)
		if err != nil {
			return nil, nil, err
		}
		good = base.Good
	} else {
		good, err = goodSim.RunPeriodic(xs)
		if err != nil {
			return nil, nil, err
		}
	}
	stats.Differential = useDiff
	goodDetected, err := e.Det.Detect(good, good)
	baseSp.End()
	if err != nil {
		return nil, nil, err
	}
	stats.Spectra++

	var (
		screened    int64
		memoized    int64
		spectra     int64
		quarantined int64
		failed      int32 // fast-fail flag; completion still drains cleanly
	)
	simErrs := make([]error, nBatches)
	detErrs := make([]error, nBatches)
	jobs := make(chan job, e.Opts.Queue)

	// Checkpoint ledger: completed batches' results and counter
	// contributions are copied into mutex-guarded shadow state at
	// completion, so a snapshot never reads lanes another worker is
	// still writing.
	ckName := e.Opts.CheckpointName
	if ckName == "" {
		ckName = "campaign"
	}
	stimHash := fault.HashRecord(xs)
	var (
		ledgerMu   sync.Mutex
		done       []bool
		ledger     []fault.Result
		sinceSave  int
		doneAtLoad []bool
		ckptErr    error
	)
	if e.Opts.Checkpoint.Enabled() {
		done = make([]bool, nBatches)
		ledger = make([]fault.Result, nf)
		copy(ledger, results)
		var st campCkpt
		loaded, err := e.Opts.Checkpoint.Load(ckName, campCkptVersion, &st)
		if err != nil {
			return nil, nil, err
		}
		if loaded {
			if st.NF != nf || st.Patterns != len(xs) || st.StimHash != stimHash {
				return nil, nil, fmt.Errorf(
					"campaign: checkpoint %q is from a different campaign (nf=%d patterns=%d, want nf=%d patterns=%d)",
					ckName, st.NF, st.Patterns, nf, len(xs))
			}
			copy(results, st.Results)
			copy(ledger, st.Results)
			copy(done, st.Done)
			doneAtLoad = append([]bool(nil), st.Done...)
			screened, memoized = st.Screened, st.Memoized
			spectra, quarantined = st.Spectra, st.Quarantined
		}
	}
	saveLedgerLocked := func() error {
		return e.Opts.Checkpoint.Save(ckName, campCkptVersion, campCkpt{
			NF: nf, Patterns: len(xs), StimHash: stimHash,
			Done:        append([]bool(nil), done...),
			Results:     append([]fault.Result(nil), ledger...),
			Screened:    atomic.LoadInt64(&screened),
			Memoized:    atomic.LoadInt64(&memoized),
			Spectra:     atomic.LoadInt64(&spectra),
			Quarantined: atomic.LoadInt64(&quarantined),
		})
	}
	// commitBatch publishes one completed batch: its counter deltas go
	// into the run totals and — when checkpointing — its lanes go into
	// the ledger under the same lock that snapshots, so a saved state
	// never counts a batch it doesn't mark done.
	commitBatch := func(b, lo, hi int, scr, mem, spec, quar int64) {
		if !e.Opts.Checkpoint.Enabled() {
			atomic.AddInt64(&screened, scr)
			atomic.AddInt64(&memoized, mem)
			atomic.AddInt64(&spectra, spec)
			atomic.AddInt64(&quarantined, quar)
			return
		}
		ledgerMu.Lock()
		defer ledgerMu.Unlock()
		atomic.AddInt64(&screened, scr)
		atomic.AddInt64(&memoized, mem)
		atomic.AddInt64(&spectra, spec)
		atomic.AddInt64(&quarantined, quar)
		copy(ledger[lo:hi], results[lo:hi])
		done[b] = true
		sinceSave++
		if sinceSave >= e.Opts.Checkpoint.Interval() {
			sinceSave = 0
			//mstxvet:ignore lockorder deliberate snapshot under the ledger lock: the save must serialize with batch commits
			if err := saveLedgerLocked(); err != nil && ckptErr == nil {
				ckptErr = err
				atomic.StoreInt32(&failed, 1)
				cancel()
			}
		}
	}
	// quarantineBatch isolates a panicked batch: its lanes revert to
	// the bare fault identity (the panic may have left them
	// half-written) and the campaign continues.
	quarantineBatch := func(b, lo, hi int) {
		for i := lo; i < hi; i++ {
			f := e.U.Faults[i]
			results[i] = fault.Result{Fault: f, Tap: results[i].Tap, FirstDiff: -1, Quarantined: true}
		}
		commitBatch(b, lo, hi, 0, 0, 0, int64(hi-lo))
	}
	// Panic safety net for the pool goroutines themselves: a panic
	// outside the per-batch resilient.Call (engine bookkeeping, not
	// batch work) is recovered, recorded, and aborts the run instead
	// of crashing the process.
	var (
		poolOnce sync.Once
		poolErr  error
	)
	onPool := func(err error) {
		poolOnce.Do(func() { poolErr = err })
		atomic.StoreInt32(&failed, 1)
		cancel()
	}

	var (
		pipeSp    *obs.SpanHandle
		pipeStart time.Time
	)
	if reg != nil {
		_, pipeSp = reg.Span(runCtx, "campaign.pipeline")
		pipeStart = time.Now()
	}

	// Stage 1: bounded record-generation pool. Batches are claimed
	// from an atomic counter so at most SimWorkers goroutines exist.
	var simWG sync.WaitGroup
	simWorkers := e.Opts.SimWorkers
	if simWorkers > nBatches {
		simWorkers = nBatches
	}
	nextBatch := int64(-1)
	for w := 0; w < simWorkers; w++ {
		resilient.Go(&simWG, "campaign.sim_worker", func() error {
			for {
				b := int(atomic.AddInt64(&nextBatch, 1))
				if b >= nBatches {
					return nil
				}
				if atomic.LoadInt32(&failed) != 0 || cctx.Err() != nil {
					return nil
				}
				if doneAtLoad != nil && doneAtLoad[b] {
					continue // restored from the checkpoint ledger
				}
				lo := b * lanesPerBatch
				hi := lo + lanesPerBatch
				if hi > nf {
					hi = nf
				}
				var lanes [][]int64
				genErr := resilient.Call(fpSimBatch, func() error {
					if err := resilient.Fire(fpSimBatch); err != nil {
						return err
					}
					var err error
					if useDiff {
						lanes, err = fault.RecordsFromBaseline(e.U, base, e.U.Faults[lo:hi])
					} else {
						_, lanes, err = fault.Records(e.U, xs, e.U.Faults[lo:hi])
					}
					return err
				})
				if genErr != nil {
					var pe *resilient.PanicError
					if e.Opts.Quarantine && errors.As(genErr, &pe) {
						quarantineBatch(b, lo, hi)
						continue
					}
					simErrs[b] = genErr
					atomic.StoreInt32(&failed, 1)
					cancel()
					continue
				}
				genCounter.Add(int64(len(lanes)))
				// The bounded send must also watch the drain signal, or
				// a full queue would park this worker forever once the
				// detection pool stops consuming after an error.
				select {
				case jobs <- job{batch: b, lo: lo, good: good, lanes: lanes}:
				case <-cctx.Done():
					return nil
				}
			}
		}, onPool)
	}
	// The closer must run unconditionally — even after cancellation —
	// or the detection pool would park forever on a never-closed jobs
	// channel; it is the one goroutine here that ignores ctx on purpose.
	var closerWG sync.WaitGroup
	//mstxvet:ignore ctxflow closer must outlive cancellation to close the jobs channel
	resilient.Go(&closerWG, "campaign.jobs_closer", func() error {
		simWG.Wait()
		close(jobs)
		return nil
	}, nil)

	// Stage 2: detection pool. Each worker binds its own detect
	// function (a WorkerDetector's scratch-backed one); lanes whose
	// record matches the good record take the screened verdict without
	// detecting, and byte-identical records share one memoized verdict.
	var memo *memoTable
	if !e.Opts.DisableMemo {
		memo = newMemoTable()
	}
	var detWG sync.WaitGroup
	for w := 0; w < e.Opts.DetectWorkers; w++ {
		resilient.Go(&detWG, "campaign.detect_worker", func() error {
			var detect func(good, faulty []int64) (bool, error)
			process := func(j job) {
				if atomic.LoadInt32(&failed) != 0 || cctx.Err() != nil {
					return
				}
				if detect == nil {
					var err error
					if detect, err = fault.BindDetector(e.Det); err != nil {
						detErrs[j.batch] = err
						atomic.StoreInt32(&failed, 1)
						cancel()
						return
					}
				}
				var bScreened, bMemoized, bSpectra int64
				detErr := resilient.Call(fpDetBatch, func() error {
					if err := resilient.Fire(fpDetBatch); err != nil {
						return err
					}
					for i, rec := range j.lanes {
						res := fault.Result{Fault: e.U.Faults[j.lo+i], Tap: results[j.lo+i].Tap}
						res.FirstDiff, res.MaxAbsDiff = fault.DiffStats(j.good, rec)
						if !e.Opts.DisableScreen && res.MaxAbsDiff == 0 {
							res.Detected = goodDetected
							bScreened++
							results[j.lo+i] = res
							continue
						}
						var h uint64
						if memo != nil {
							h = fault.HashRecord(rec)
							if d, ok := memo.lookup(h, rec); ok {
								res.Detected = d
								bMemoized++
								results[j.lo+i] = res
								continue
							}
						}
						var t0 time.Time
						if verdictHist != nil {
							t0 = time.Now()
						}
						det, err := detect(j.good, rec)
						if verdictHist != nil {
							verdictHist.Observe(time.Since(t0).Seconds())
						}
						if err != nil {
							return err
						}
						if memo != nil {
							memo.insert(h, rec, det)
						}
						res.Detected = det
						bSpectra++
						results[j.lo+i] = res
					}
					return nil
				})
				if detErr != nil {
					var pe *resilient.PanicError
					if e.Opts.Quarantine && errors.As(detErr, &pe) {
						quarantineBatch(j.batch, j.lo, j.lo+len(j.lanes))
						return
					}
					detErrs[j.batch] = detErr
					atomic.StoreInt32(&failed, 1)
					cancel()
					return
				}
				commitBatch(j.batch, j.lo, j.lo+len(j.lanes), bScreened, bMemoized, bSpectra, 0)
			}
			for j := range jobs {
				if reg != nil {
					t := time.Now()
					process(j)
					atomic.AddInt64(&busyNanos, int64(time.Since(t)))
				} else {
					process(j)
				}
			}
			return nil
		}, onPool)
	}
	detWG.Wait()
	// The detection pool only exits once jobs is closed, so the closer
	// (and transitively every sim worker) is already past its final
	// send; this join is what lets a caller prove quiescence.
	closerWG.Wait()
	pipeSp.End()

	if ckptErr != nil {
		return nil, nil, ckptErr
	}
	for b := 0; b < nBatches; b++ {
		if simErrs[b] != nil {
			return nil, nil, simErrs[b]
		}
		if detErrs[b] != nil {
			return nil, nil, detErrs[b]
		}
	}
	if poolErr != nil {
		return nil, nil, fmt.Errorf("campaign: worker pool: %w", poolErr)
	}
	stats.Screened = int(screened)
	stats.Memoized = int(memoized)
	stats.Spectra += int(spectra)
	stats.Quarantined = int(quarantined)
	if err := resilient.CtxErr(ctx); err != nil {
		// Interrupted: persist the ledger so a later resume continues
		// from here, then hand back the partial report.
		if e.Opts.Checkpoint.Enabled() {
			ledgerMu.Lock()
			saveErr := saveLedgerLocked()
			ledgerMu.Unlock()
			if saveErr != nil {
				return nil, nil, saveErr
			}
		}
		return &fault.Report{Results: results, Patterns: len(xs)}, stats, err
	}
	if e.Opts.Checkpoint.Enabled() {
		ledgerMu.Lock()
		err := saveLedgerLocked()
		ledgerMu.Unlock()
		if err != nil {
			return nil, nil, err
		}
	}
	if reg != nil {
		reg.Counter("campaign_runs_total").Inc()
		reg.Counter("campaign_faults_total").Add(int64(nf))
		reg.Counter("campaign_batches_total").Add(int64(nBatches))
		reg.Counter("campaign_screened_total").Add(screened)
		if quarantined > 0 {
			reg.Counter("campaign_quarantined_total").Add(quarantined)
		}
		reg.Counter("campaign_memo_hits_total").Add(memoized)
		if memo != nil {
			// A miss is a lane that paid its own detection while the
			// memo was on — exactly the evaluations made in the pool.
			reg.Counter("campaign_memo_misses_total").Add(spectra)
		}
		reg.Counter("campaign_spectra_total").Add(int64(stats.Spectra))
		if wall := time.Since(pipeStart).Seconds(); wall > 0 {
			busy := float64(atomic.LoadInt64(&busyNanos)) / 1e9
			reg.Gauge("campaign_fft_worker_utilization").
				Set(busy / (wall * float64(e.Opts.DetectWorkers)))
		}
	}
	return &fault.Report{Results: results, Patterns: len(xs)}, stats, nil
}

// memoTable memoizes detection verdicts by record content. Hash
// collisions are resolved by full record comparison, so a hit is an
// exact byte-identical match and reusing its verdict cannot change any
// result (with the good record fixed for the run, the detector is a
// pure function of the faulty record). Two workers
// racing on the same record may both compute it — the table then keeps
// one entry and the campaign merely loses one skip, never correctness.
type memoTable struct {
	mu      sync.Mutex
	buckets map[uint64][]memoEntry
	bytes   int
}

// memoEntry keeps a copy of a retained record in the narrowest exact
// form: int32 when every sample fits (filter outputs usually do, and
// the table is what bounds a campaign's peak memory), int64 otherwise.
// It is a copy because a batch's records share one backing array,
// which a reference would keep alive whole. Exactly one of rec32 and
// rec64 is set.
type memoEntry struct {
	rec32    []int32
	rec64    []int64
	detected bool
}

// maxMemoBytes caps the records the table keeps alive; beyond it,
// lookups continue but new records are no longer retained.
const maxMemoBytes = 256 << 20

func newMemoTable() *memoTable {
	return &memoTable{buckets: make(map[uint64][]memoEntry)}
}

// newMemoEntry stores rec in the narrowest form that holds it exactly.
func newMemoEntry(rec []int64, detected bool) memoEntry {
	rec32 := make([]int32, len(rec))
	for i, v := range rec {
		if v != int64(int32(v)) {
			return memoEntry{rec64: append([]int64(nil), rec...), detected: detected}
		}
		rec32[i] = int32(v)
	}
	return memoEntry{rec32: rec32, detected: detected}
}

// size is the entry's record storage in bytes.
func (e *memoEntry) size() int { return 4*len(e.rec32) + 8*len(e.rec64) }

// equal reports whether the entry holds exactly rec.
func (e *memoEntry) equal(rec []int64) bool {
	if e.rec64 != nil {
		return slices.Equal(e.rec64, rec)
	}
	if len(e.rec32) != len(rec) {
		return false
	}
	for i, v := range e.rec32 {
		if int64(v) != rec[i] {
			return false
		}
	}
	return true
}

func (m *memoTable) lookup(h uint64, rec []int64) (detected, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.buckets[h] {
		if e.equal(rec) {
			return e.detected, true
		}
	}
	return false, false
}

func (m *memoTable) insert(h uint64, rec []int64, detected bool) {
	e := newMemoEntry(rec, detected) // copied before taking the lock
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.bytes+e.size() > maxMemoBytes {
		return
	}
	for _, old := range m.buckets[h] {
		if old.equal(rec) {
			return
		}
	}
	m.buckets[h] = append(m.buckets[h], e)
	m.bytes += e.size()
}
