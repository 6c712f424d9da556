// Package fault provides the stuck-at fault-simulation building
// blocks for gate-level FIR filters: fault-universe management,
// 63-fault-per-pass record capture (full-netlist or cone-differential
// against a fault-free baseline), the detection predicates (exact
// output compare here, spectral in package spectest), the serial
// reference campaign, the early-abort detect-only campaign, and
// coverage accounting. Full campaigns — exact or spectral — run on the
// pooled engine in package campaign.
package fault

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"mstx/internal/digital"
	"mstx/internal/netlist"
	"mstx/internal/resilient"
)

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
// bit-identical to Detect's. The campaign engine's detect workers and
// SerialSimulate detect through it when available (see BindDetector),
// so the per-record spectral path allocates nothing in steady state
// instead of rebuilding window tables and FFT buffers per fault.
type WorkerDetector interface {
	Detector
	NewWorkerDetect() (func(good, faulty []int64) (bool, error), error)
}

// BindDetector returns the detect function one worker goroutine should
// use: the scratch-bound NewWorkerDetect function when det is a
// WorkerDetector, det.Detect otherwise.
func BindDetector(det Detector) (func(good, faulty []int64) (bool, error), error) {
	if wd, ok := det.(WorkerDetector); ok {
		return wd.NewWorkerDetect()
	}
	return det.Detect, nil
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
// absolute difference. It is the shared diff accounting of the serial
// reference and the campaign engine — the campaign zero-diff screen
// keys off maxAbs == 0.
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

// runBatches runs fn(batch) for every batch in [0, nBatches) on a
// bounded pool of at most `workers` goroutines and returns the first
// error in batch order. Unlike the seed implementation — which spawned
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
func runBatches(ctx context.Context, nBatches, workers int, fn func(batch int) error) error {
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
				if err := fn(b); err != nil {
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

// Records captures the full good and per-fault output records for the
// given faults (at most 63) in a single pass. Detection needs whole
// records; the campaign engine batches larger universes.
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

// SerialSimulate runs faults one at a time (one fault in all lanes per
// pass). It is the reference the campaign engine's reports are tested
// against and the baseline of the parallel-vs-serial ablation
// benchmark.
func SerialSimulate(u *Universe, xs []int64, det Detector) (*Report, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("fault: empty input record")
	}
	if det == nil {
		return nil, fmt.Errorf("fault: nil detector")
	}
	// The serial reference path detects through the same scratch-bound
	// function the campaign's detect workers use, so its verdicts —
	// bit-identical by the WorkerDetector contract — are also
	// allocation-free per fault.
	detect, err := BindDetector(det)
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
		res.Detected, err = detect(goodRec, faulty)
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
// most faults fall within the first few samples, making this faster
// than a full campaign at the cost of the diagnostic fields.
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
	err := runBatches(context.Background(), nBatches, runtime.GOMAXPROCS(0), func(batch int) error {
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
	// Periodic warm-up from the full record's tail, as in RunPeriodic.
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
