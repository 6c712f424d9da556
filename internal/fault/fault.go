// Package fault provides the stuck-at fault-simulation engine for
// gate-level FIR filters: fault-universe management, 63-fault-per-pass
// parallel simulation over sample records, exact (output-compare)
// detection with fault dropping, full per-fault output-record capture
// for spectral testing, and coverage accounting.
package fault

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"mstx/internal/digital"
	"mstx/internal/netlist"
	"mstx/internal/obs"
	"mstx/internal/resilient"
)

// fpBatch is the failpoint evaluated before every simulation batch;
// the chaos suite arms it to inject batch errors, panics and delays.
var fpBatch = resilient.Site("fault.batch")

// Universe holds a fault list for a FIR circuit together with the
// bookkeeping needed for reports.
type Universe struct {
	// FIR is the circuit under test.
	FIR *digital.FIR
	// Faults is the fault list being simulated.
	Faults []netlist.Fault
	// Collapsed records whether structural equivalence collapsing was
	// applied.
	Collapsed bool
}

// NewUniverse enumerates the single-stuck-at universe of the FIR,
// optionally collapsed by structural equivalence.
func NewUniverse(f *digital.FIR, collapse bool) *Universe {
	all := netlist.AllFaults(f.Circuit)
	if collapse {
		all = netlist.CollapseFaults(f.Circuit, all)
	}
	return &Universe{FIR: f, Faults: all, Collapsed: collapse}
}

// Size returns the number of faults in the universe.
func (u *Universe) Size() int { return len(u.Faults) }

// Result is the outcome of simulating one fault.
type Result struct {
	// Fault is the simulated fault.
	Fault netlist.Fault
	// Detected reports whether the detection predicate fired.
	Detected bool
	// FirstDiff is the sample index of the first output difference, or
	// -1 when the faulty record equals the good record.
	FirstDiff int
	// MaxAbsDiff is the largest |faulty - good| output difference.
	MaxAbsDiff int64
	// Tap is the index of the tap whose cone contains the fault site,
	// or -1 for the shared sum tree.
	Tap int
	// Quarantined marks a fault whose simulation batch panicked while
	// quarantine was enabled: the panic was recovered, the batch was
	// excluded, and the campaign continued. A quarantined fault is
	// never counted as detected — its verdict is unknown, not clean.
	Quarantined bool
}

// Report aggregates a fault-simulation campaign.
type Report struct {
	// Results holds one entry per fault, in universe order.
	Results []Result
	// Patterns is the record length simulated.
	Patterns int
}

// Detected returns the number of detected faults.
func (r *Report) Detected() int {
	n := 0
	for _, res := range r.Results {
		if res.Detected {
			n++
		}
	}
	return n
}

// Quarantined returns the number of quarantined faults — batches whose
// worker panicked and was isolated rather than crashing the campaign.
func (r *Report) Quarantined() int {
	n := 0
	for _, res := range r.Results {
		if res.Quarantined {
			n++
		}
	}
	return n
}

// Coverage returns the fault coverage in percent.
func (r *Report) Coverage() float64 {
	if len(r.Results) == 0 {
		return 0
	}
	return 100 * float64(r.Detected()) / float64(len(r.Results))
}

// Undetected returns the undetected faults.
func (r *Report) Undetected() []netlist.Fault {
	var out []netlist.Fault
	for _, res := range r.Results {
		if !res.Detected {
			out = append(out, res.Fault)
		}
	}
	return out
}

// UndetectedResults returns the Result entries for undetected faults.
func (r *Report) UndetectedResults() []Result {
	var out []Result
	for _, res := range r.Results {
		if !res.Detected {
			out = append(out, res)
		}
	}
	return out
}

// String summarizes the report.
func (r *Report) String() string {
	return fmt.Sprintf("%d/%d faults detected (%.1f%%) with %d patterns",
		r.Detected(), len(r.Results), r.Coverage(), r.Patterns)
}

// Detector decides, given the good and faulty output records, whether
// the fault is considered detected. ExactDetector is the ideal-input
// case; package spectest provides the spectral detector used when the
// stimulus arrives through a noisy analog front end. A detector error
// aborts the campaign: a verdict the detector could not actually reach
// must fail loudly rather than be counted as an undetected fault and
// silently skew coverage.
type Detector interface {
	// Detect reports whether the faulty record is distinguishable from
	// the good record.
	Detect(good, faulty []int64) (bool, error)
}

// WorkerDetector is implemented by detectors that keep reusable
// per-goroutine scratch state (spectest.Detector is the one in-tree):
// NewWorkerDetect returns a Detect-shaped function bound to a fresh
// scratch for exclusive use by one worker goroutine, with verdicts
// bit-identical to Detect's. Simulate and SerialSimulate detect
// through it when available, so the per-record spectral path allocates
// nothing in steady state instead of rebuilding window tables and FFT
// buffers per fault.
type WorkerDetector interface {
	Detector
	NewWorkerDetect() (func(good, faulty []int64) (bool, error), error)
}

// detectFunc adapts a bound worker-detect function back into the
// Detector interface the batch code consumes.
type detectFunc func(good, faulty []int64) (bool, error)

// Detect implements Detector.
func (f detectFunc) Detect(good, faulty []int64) (bool, error) { return f(good, faulty) }

// workerDetector returns a detector for one worker goroutine: a
// scratch-bound instance when det supports it, det itself otherwise.
func workerDetector(det Detector) (Detector, error) {
	wd, ok := det.(WorkerDetector)
	if !ok {
		return det, nil
	}
	fn, err := wd.NewWorkerDetect()
	if err != nil {
		return nil, err
	}
	return detectFunc(fn), nil
}

// ExactDetector declares a fault detected when any output sample
// differs by more than Threshold LSBs (0 = any difference). This is
// the classical known-input, known-output digital test assumption.
type ExactDetector struct {
	// Threshold is the per-sample absolute difference that must be
	// exceeded. Zero detects any difference.
	Threshold int64
}

// Detect implements Detector.
func (d ExactDetector) Detect(good, faulty []int64) (bool, error) {
	for i := range good {
		diff := faulty[i] - good[i]
		if diff < 0 {
			diff = -diff
		}
		if diff > d.Threshold {
			return true, nil
		}
	}
	return false, nil
}

// DiffStats returns the sample index of the first difference between
// the good and faulty records (-1 when identical) and the largest
// absolute difference. It is the shared diff accounting of the batch,
// serial, and campaign engines — the campaign zero-diff screen keys
// off maxAbs == 0.
func DiffStats(good, faulty []int64) (firstDiff int, maxAbs int64) {
	firstDiff = -1
	for n := range good {
		d := faulty[n] - good[n]
		if d < 0 {
			d = -d
		}
		if d > 0 && firstDiff < 0 {
			firstDiff = n
		}
		if d > maxAbs {
			maxAbs = d
		}
	}
	return firstDiff, maxAbs
}

// runBatches runs fn(worker, batch) for every batch in [0, nBatches)
// on a bounded pool of at most `workers` goroutines and returns the
// first error in batch order. The worker index (0 ≤ worker < workers)
// identifies the claiming goroutine so callers can hand each worker
// exclusive scratch state. Unlike the seed implementation — which spawned
// every batch goroutine up front and only then gated them on a
// semaphore, and whose error channel surfaced whichever failing batch
// lost the race — the pool never holds more than `workers` goroutines
// alive and its error choice is deterministic.
//
// The pool fast-fails: after the first error no further batches start
// (in-flight batches finish), so an erroring campaign settles its
// goroutines promptly instead of grinding through the remaining work.
// Cancellation is honored at batch granularity — when ctx is
// interrupted workers stop claiming and the typed
// resilient.ErrCanceled/ErrDeadline is returned (batch errors win).
// Worker goroutines run under resilient.Go, so a panic escaping fn's
// own guards degrades to a returned error, never a process crash.
func runBatches(ctx context.Context, nBatches, workers int, fn func(worker, batch int) error) error {
	if nBatches <= 0 {
		return nil
	}
	if workers > nBatches {
		workers = nBatches
	}
	if workers < 1 {
		workers = 1
	}
	errs := make([]error, nBatches)
	next := int64(-1)
	var (
		failed   int32
		wg       sync.WaitGroup
		poolOnce sync.Once
		poolErr  error
	)
	onPool := func(err error) {
		poolOnce.Do(func() { poolErr = err })
		atomic.StoreInt32(&failed, 1)
	}
	for w := 0; w < workers; w++ {
		worker := w
		resilient.Go(&wg, "fault.worker", func() error {
			for {
				b := int(atomic.AddInt64(&next, 1))
				if b >= nBatches {
					return nil
				}
				if atomic.LoadInt32(&failed) != 0 {
					continue
				}
				if ctx.Err() != nil {
					return nil
				}
				if err := fn(worker, b); err != nil {
					errs[b] = err
					atomic.StoreInt32(&failed, 1)
				}
			}
		}, onPool)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if poolErr != nil {
		return fmt.Errorf("fault: worker pool: %w", poolErr)
	}
	return resilient.CtxErr(ctx)
}

// SimOptions configures a resilient Simulate run. The zero value is
// the plain campaign: no checkpointing, no quarantine, GOMAXPROCS
// workers.
type SimOptions struct {
	// Workers bounds the batch pool. Defaults to GOMAXPROCS.
	Workers int
	// Checkpoint, when enabled, snapshots the batch ledger (which
	// batches completed and their results) every Checkpoint.Every
	// completions, so a killed campaign resumes instead of restarting.
	Checkpoint *resilient.Checkpointer
	// CheckpointName names this campaign's snapshot inside
	// Checkpoint.Dir. Default "fault".
	CheckpointName string
	// Quarantine recovers a panicking simulation batch, marks its
	// faults Quarantined in the Report, and continues the campaign.
	// Without it the recovered panic aborts the run as an ordinary
	// error — the process never crashes either way.
	Quarantine bool
}

// simCkptVersion guards the simCkpt layout.
const simCkptVersion = 1

// simCkpt is the batch-ledger snapshot of a Simulate run: which
// batches completed and every completed batch's results, plus the
// campaign identity (fault count, record length, stimulus hash) the
// ledger is only valid for.
type simCkpt struct {
	NF       int
	Patterns int
	StimHash uint64
	Done     []bool
	Results  []Result
}

// HashRecord is FNV-1a over the record words. It is the engines'
// stimulus identity: checkpoint resume refuses a snapshot taken on a
// different stimulus, and the service layer's content-addressed result
// cache keys off it. The campaign memo table also buckets records by
// it; collisions are fine there (lookup compares records in full), so
// word granularity suffices.
func HashRecord(xs []int64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range xs {
		h ^= uint64(v)
		h *= 1099511628211
	}
	return h
}

// Simulate runs every fault in the universe against the input record
// xs — treated as one period of a periodic (coherent) stimulus, so the
// delay line is warmed and records are steady-state — and applies the
// detector to each (good, faulty) record pair.
// Faults are packed 63 per simulator pass (lane 0 is the good
// machine); batches run concurrently on all CPUs. The good and faulty
// records are exact gate-level outputs.
//
// Cancellation and deadlines on ctx are honored at batch granularity:
// an interrupted run returns the partial Report (completed batches
// carry their verdicts; the rest keep the fault identity with
// FirstDiff -1 and no verdict) together with a typed error satisfying
// errors.Is(err, resilient.ErrCanceled) or resilient.ErrDeadline.
func Simulate(ctx context.Context, u *Universe, xs []int64, det Detector) (*Report, error) {
	return SimulateOpts(ctx, u, xs, det, SimOptions{})
}

// SimulateOpts is Simulate with the resilience knobs exposed:
// checkpoint/resume over the batch ledger and panic quarantine. The
// Report is bit-identical to Simulate's for any worker count and any
// kill/resume split — batch b's results depend only on (universe, xs,
// b), never on scheduling.
func SimulateOpts(ctx context.Context, u *Universe, xs []int64, det Detector, opts SimOptions) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(xs) == 0 {
		return nil, fmt.Errorf("fault: empty input record")
	}
	if det == nil {
		return nil, fmt.Errorf("fault: nil detector")
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nf := len(u.Faults)
	nWorkerDets := (nf + 62) / 63 // batches; runBatches clamps workers the same way
	if nWorkerDets > workers {
		nWorkerDets = workers
	}
	// One detector per pool worker: scratch-backed when the detector
	// supports it (the spectral record → spectrum → screen path is then
	// allocation-free in steady state), det itself otherwise.
	workerDets := make([]Detector, nWorkerDets)
	for w := range workerDets {
		d, err := workerDetector(det)
		if err != nil {
			return nil, err
		}
		workerDets[w] = d
	}
	results := make([]Result, nf)
	// Prefill the fault identity so partial (canceled) and quarantined
	// entries still say WHICH fault they cover. The tap lookup scans
	// every tap net, so the batches reuse the prefilled Tap.
	for i, f := range u.Faults {
		results[i] = Result{Fault: f, Tap: u.FIR.TapOfNet(f.Net), FirstDiff: -1}
	}
	const lanesPerBatch = 63
	nBatches := (nf + lanesPerBatch - 1) / lanesPerBatch
	batchBounds := func(b int) (int, int) {
		lo := b * lanesPerBatch
		hi := lo + lanesPerBatch
		if hi > nf {
			hi = nf
		}
		return lo, hi
	}

	// Checkpoint ledger: results of completed batches are copied into
	// a mutex-guarded shadow slice at completion, so a snapshot never
	// reads lanes another worker is still writing.
	ckName := opts.CheckpointName
	if ckName == "" {
		ckName = "fault"
	}
	stimHash := HashRecord(xs)
	var (
		ledgerMu   sync.Mutex
		done       []bool
		ledger     []Result
		sinceSave  int
		doneAtLoad []bool
	)
	if opts.Checkpoint.Enabled() {
		done = make([]bool, nBatches)
		ledger = make([]Result, nf)
		copy(ledger, results)
		var st simCkpt
		loaded, err := opts.Checkpoint.Load(ckName, simCkptVersion, &st)
		if err != nil {
			return nil, err
		}
		if loaded {
			if st.NF != nf || st.Patterns != len(xs) || st.StimHash != stimHash {
				return nil, fmt.Errorf(
					"fault: checkpoint %q is from a different campaign (nf=%d patterns=%d, want nf=%d patterns=%d)",
					ckName, st.NF, st.Patterns, nf, len(xs))
			}
			copy(results, st.Results)
			copy(ledger, st.Results)
			copy(done, st.Done)
			doneAtLoad = append([]bool(nil), st.Done...)
		}
	}
	saveLedgerLocked := func() error {
		return opts.Checkpoint.Save(ckName, simCkptVersion, simCkpt{
			NF: nf, Patterns: len(xs), StimHash: stimHash,
			Done:    append([]bool(nil), done...),
			Results: append([]Result(nil), ledger...),
		})
	}
	completeBatch := func(b int) error {
		if !opts.Checkpoint.Enabled() {
			return nil
		}
		lo, hi := batchBounds(b)
		ledgerMu.Lock()
		defer ledgerMu.Unlock()
		copy(ledger[lo:hi], results[lo:hi])
		done[b] = true
		sinceSave++
		if sinceSave >= opts.Checkpoint.Interval() {
			sinceSave = 0
			//mstxvet:ignore lockorder deliberate snapshot under the ledger lock: the save must serialize with batch commits
			return saveLedgerLocked()
		}
		return nil
	}

	// Observability: one span and three counter bumps per campaign —
	// all no-ops when no registry is installed.
	reg := obs.For(ctx)
	var sp *obs.SpanHandle
	if reg != nil {
		_, sp = reg.Span(ctx, "fault.simulate")
		defer sp.End()
	}
	var quarantined int64
	err := runBatches(ctx, nBatches, workers, func(worker, batch int) error {
		if doneAtLoad != nil && doneAtLoad[batch] {
			return nil // restored from the checkpoint ledger
		}
		lo, hi := batchBounds(batch)
		err := resilient.Call(fpBatch, func() error {
			if err := resilient.Fire(fpBatch); err != nil {
				return err
			}
			return simulateBatch(u, xs, workerDets[worker], results[lo:hi], u.Faults[lo:hi])
		})
		if err != nil {
			var pe *resilient.PanicError
			if !opts.Quarantine || !errors.As(err, &pe) {
				return err
			}
			// Quarantine: reset the batch's lanes to the bare fault
			// identity (the panic may have left them half-written) and
			// mark them; the campaign continues.
			for i := lo; i < hi; i++ {
				f := u.Faults[i]
				results[i] = Result{Fault: f, Tap: results[i].Tap, FirstDiff: -1, Quarantined: true}
			}
			atomic.AddInt64(&quarantined, int64(hi-lo))
		}
		return completeBatch(batch)
	})
	rep := &Report{Results: results, Patterns: len(xs)}
	if err != nil {
		if resilient.Interrupted(err) {
			// Persist the ledger so a later -resume continues from here.
			if opts.Checkpoint.Enabled() {
				ledgerMu.Lock()
				saveErr := saveLedgerLocked()
				ledgerMu.Unlock()
				if saveErr != nil {
					return rep, saveErr
				}
			}
			return rep, err
		}
		return nil, err
	}
	if opts.Checkpoint.Enabled() {
		ledgerMu.Lock()
		err = saveLedgerLocked()
		ledgerMu.Unlock()
		if err != nil {
			return rep, err
		}
	}
	if reg != nil {
		reg.Counter("fault_sim_runs_total").Inc()
		reg.Counter("fault_sim_faults_total").Add(int64(nf))
		reg.Counter("fault_sim_batches_total").Add(int64(nBatches))
		if q := atomic.LoadInt64(&quarantined); q > 0 {
			reg.Counter("fault_sim_quarantined_total").Add(q)
		}
	}
	return rep, nil
}

// simulateBatch simulates up to 63 faults in one pass and fills out,
// whose entries arrive prefilled with each fault's Tap.
func simulateBatch(u *Universe, xs []int64, det Detector, out []Result, faults []netlist.Fault) error {
	sim := digital.NewFIRSim(u.FIR)
	for i, f := range faults {
		if err := sim.InjectFault(f, 1<<uint(i+1)); err != nil {
			return err
		}
	}
	lanes, err := sim.RunLanesPeriodic(xs, len(faults)+1)
	if err != nil {
		return err
	}
	good := lanes[0]
	for i, f := range faults {
		faulty := lanes[i+1]
		res := Result{Fault: f, Tap: out[i].Tap}
		res.FirstDiff, res.MaxAbsDiff = DiffStats(good, faulty)
		res.Detected, err = det.Detect(good, faulty)
		if err != nil {
			return err
		}
		out[i] = res
	}
	return nil
}

// Records captures the full good and per-fault output records for the
// given faults (at most 63) in a single pass. Spectral detection needs
// whole records to transform; callers batch larger universes
// themselves or use SimulateRecords.
func Records(u *Universe, xs []int64, faults []netlist.Fault) (good []int64, faulty [][]int64, err error) {
	if len(faults) > 63 {
		return nil, nil, fmt.Errorf("fault: Records limited to 63 faults per pass, got %d", len(faults))
	}
	sim := digital.NewFIRSim(u.FIR)
	for i, f := range faults {
		if err := sim.InjectFault(f, 1<<uint(i+1)); err != nil {
			return nil, nil, err
		}
	}
	lanes, err := sim.RunLanesPeriodic(xs, len(faults)+1)
	if err != nil {
		return nil, nil, err
	}
	return lanes[0], lanes[1:], nil
}

// RecordsFromBaseline is Records replayed differentially against a
// fault-free baseline captured from the same periodic stimulus (see
// digital.CaptureBaseline): per step only the fanout cone of the
// batch's faults is re-evaluated, which on typical FIR universes is a
// small fraction of the circuit. The returned faulty records are
// bit-identical to Records' (the good record is base.Good).
func RecordsFromBaseline(u *Universe, base *digital.Baseline, faults []netlist.Fault) ([][]int64, error) {
	if len(faults) > 63 {
		return nil, fmt.Errorf("fault: RecordsFromBaseline limited to 63 faults per pass, got %d", len(faults))
	}
	sim := digital.NewFIRSim(u.FIR)
	for i, f := range faults {
		if err := sim.InjectFault(f, 1<<uint(i+1)); err != nil {
			return nil, err
		}
	}
	lanes, err := sim.RunLanesCone(base, len(faults)+1)
	if err != nil {
		return nil, err
	}
	return lanes[1:], nil
}

// RecordDetector is a Detector that additionally wants the record pair
// for bookkeeping; SimulateRecords streams record pairs to it. (The
// plain Detector interface is already record-based; this alias keeps
// the call sites explicit.)
type RecordDetector = Detector

// SimulateRecords is Simulate, but guarantees the detector sees exact
// full-length records (it always does; this entry point exists so
// spectral detection campaigns read naturally at call sites).
func SimulateRecords(ctx context.Context, u *Universe, xs []int64, det RecordDetector) (*Report, error) {
	return Simulate(ctx, u, xs, det)
}

// SerialSimulate runs faults one at a time (one fault in all lanes per
// pass). It produces identical results to Simulate and exists as the
// baseline for the parallel-vs-serial ablation benchmark.
func SerialSimulate(u *Universe, xs []int64, det Detector) (*Report, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("fault: empty input record")
	}
	if det == nil {
		return nil, fmt.Errorf("fault: nil detector")
	}
	// The serial reference path detects through the same scratch-bound
	// function the pool workers use, so its verdicts — bit-identical by
	// the WorkerDetector contract — are also allocation-free per fault.
	det, err := workerDetector(det)
	if err != nil {
		return nil, err
	}
	results := make([]Result, len(u.Faults))
	sim := digital.NewFIRSim(u.FIR)
	goodRec, err := sim.RunPeriodic(xs)
	if err != nil {
		return nil, err
	}
	for i, f := range u.Faults {
		fsim := digital.NewFIRSim(u.FIR)
		if err := fsim.InjectFault(f, ^uint64(0)); err != nil {
			return nil, err
		}
		faulty, err := fsim.RunPeriodic(xs)
		if err != nil {
			return nil, err
		}
		res := Result{Fault: f, Tap: u.FIR.TapOfNet(f.Net)}
		res.FirstDiff, res.MaxAbsDiff = DiffStats(goodRec, faulty)
		res.Detected, err = det.Detect(goodRec, faulty)
		if err != nil {
			return nil, err
		}
		results[i] = res
	}
	return &Report{Results: results, Patterns: len(xs)}, nil
}

// DetectOnly runs the exact-compare (any-difference) campaign and
// returns only the per-fault detection flags, with per-batch early
// abort: a batch stops clocking as soon as every one of its fault
// lanes has diverged from the good lane. For high-coverage stimuli
// most faults fall within the first few samples, making this several
// times faster than Simulate at the cost of the diagnostic fields.
func DetectOnly(u *Universe, xs []int64) ([]bool, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("fault: empty input record")
	}
	// Two-pass screening: most faults fall within a short prefix (any
	// difference there implies detection on the full record), so the
	// expensive full-record batches only run for the survivors.
	const prefix = 64
	if len(xs) > 4*prefix {
		// The prefix pass is warmed from the FULL record's tail, so it
		// simulates exactly the first steps of the periodic run and a
		// prefix detection strictly implies full-record detection.
		early, err := detectOnlyOnePass(u, xs[:prefix], xs)
		if err != nil {
			return nil, err
		}
		var hardIdx []int
		var hard []netlist.Fault
		for i, d := range early {
			if !d {
				hardIdx = append(hardIdx, i)
				hard = append(hard, u.Faults[i])
			}
		}
		if len(hard) > 0 {
			sub := &Universe{FIR: u.FIR, Faults: hard, Collapsed: u.Collapsed}
			rest, err := detectOnlyOnePass(sub, xs, xs)
			if err != nil {
				return nil, err
			}
			for j, idx := range hardIdx {
				early[idx] = rest[j]
			}
		}
		return early, nil
	}
	return detectOnlyOnePass(u, xs, xs)
}

// detectOnlyOnePass is DetectOnly without the prefix screen; warmSrc
// supplies the periodic warm-up tail (the full record).
func detectOnlyOnePass(u *Universe, xs, warmSrc []int64) ([]bool, error) {
	nf := len(u.Faults)
	detected := make([]bool, nf)
	const lanesPerBatch = 63
	nBatches := (nf + lanesPerBatch - 1) / lanesPerBatch
	err := runBatches(context.Background(), nBatches, runtime.GOMAXPROCS(0), func(_, batch int) error {
		lo := batch * lanesPerBatch
		hi := lo + lanesPerBatch
		if hi > nf {
			hi = nf
		}
		return detectBatch(u, xs, warmSrc, detected[lo:hi], u.Faults[lo:hi])
	})
	if err != nil {
		return nil, err
	}
	return detected, nil
}

// detectBatch clocks one 63-fault batch with early abort.
func detectBatch(u *Universe, xs, warmSrc []int64, out []bool, faults []netlist.Fault) error {
	sim := digital.NewFIRSim(u.FIR)
	for i, f := range faults {
		if err := sim.InjectFault(f, 1<<uint(i+1)); err != nil {
			return err
		}
	}
	// Periodic warm-up from the full record's tail, as in Simulate.
	warm := u.FIR.Taps() - 1
	if warm > len(warmSrc) {
		warm = len(warmSrc)
	}
	if err := sim.Warm(warmSrc[len(warmSrc)-warm:]); err != nil {
		return err
	}
	allLanes := uint64(0)
	for i := range faults {
		allLanes |= 1 << uint(i+1)
	}
	var diverged uint64
	for _, x := range xs {
		words, err := sim.Step(x)
		if err != nil {
			return err
		}
		// A lane differs from the good machine when any output bit
		// word disagrees with the broadcast of its lane-0 bit.
		for _, w := range words {
			ref := uint64(0)
			if w&1 == 1 {
				ref = ^uint64(0)
			}
			diverged |= w ^ ref
			if diverged&allLanes == allLanes {
				break
			}
		}
		if diverged&allLanes == allLanes {
			break
		}
	}
	for i := range faults {
		out[i] = diverged>>uint(i+1)&1 == 1
	}
	return nil
}

// LSBConfinement checks the paper's observation about residual faults:
// it returns the fraction of the given undetected faults whose maximum
// output perturbation is confined to the lowest `lsbs` output bits
// (|diff| < 2^lsbs). Faults that never perturb the output count as
// confined.
func LSBConfinement(results []Result, lsbs int) float64 {
	if len(results) == 0 {
		return 1
	}
	bound := int64(1) << uint(lsbs)
	n := 0
	for _, r := range results {
		if r.MaxAbsDiff < bound {
			n++
		}
	}
	return float64(n) / float64(len(results))
}
