package fault

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mstx/internal/digital"
	"mstx/internal/netlist"
)

func smallFIR(t testing.TB) *digital.FIR {
	t.Helper()
	fir, err := digital.NewFIR([]int64{3, -5, 7}, 6)
	if err != nil {
		t.Fatal(err)
	}
	return fir
}

func sineRecord(n int, amp float64, cycles int) []int64 {
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(math.Round(amp * math.Sin(2*math.Pi*float64(cycles)*float64(i)/float64(n))))
	}
	return xs
}

func TestUniverseSizes(t *testing.T) {
	fir := smallFIR(t)
	full := NewUniverse(fir, false)
	collapsed := NewUniverse(fir, true)
	if full.Size() == 0 {
		t.Fatal("empty universe")
	}
	if collapsed.Size() >= full.Size() {
		t.Fatalf("collapsing did not shrink: %d vs %d", collapsed.Size(), full.Size())
	}
	if !collapsed.Collapsed || full.Collapsed {
		t.Error("Collapsed flags wrong")
	}
}

func TestSimulateDetectsInjectedFaults(t *testing.T) {
	fir := smallFIR(t)
	u := NewUniverse(fir, true)
	xs := sineRecord(64, 28, 5)
	rep, err := SerialSimulate(u, xs, ExactDetector{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Patterns != 64 {
		t.Errorf("Patterns = %d", rep.Patterns)
	}
	cov := rep.Coverage()
	if cov < 60 || cov > 100 {
		t.Errorf("implausible coverage %.1f%%", cov)
	}
	if rep.Detected() != len(rep.Results)-len(rep.Undetected()) {
		t.Error("Detected/Undetected inconsistent")
	}
	if !strings.Contains(rep.String(), "faults detected") {
		t.Errorf("String() = %q", rep.String())
	}
	// Every detected fault must have a first-diff index.
	for _, r := range rep.Results {
		if r.Detected && r.FirstDiff < 0 {
			t.Errorf("fault %v detected but FirstDiff = -1", r.Fault)
		}
		if !r.Detected && r.MaxAbsDiff != 0 {
			t.Errorf("fault %v undetected but MaxAbsDiff = %d with threshold 0", r.Fault, r.MaxAbsDiff)
		}
	}
}

// batchReport is the campaign computed on the 63-lane full-netlist
// passes of Records — the bit-parallel reference SerialSimulate is
// checked against, and a fast oracle for the report-level tests.
func batchReport(t testing.TB, u *Universe, xs []int64, det Detector) *Report {
	t.Helper()
	rep := &Report{Patterns: len(xs)}
	for lo := 0; lo < u.Size(); lo += 63 {
		good, faulty, err := Records(u, xs, u.Faults[lo:min(lo+63, u.Size())])
		if err != nil {
			t.Fatal(err)
		}
		for i, rec := range faulty {
			f := u.Faults[lo+i]
			res := Result{Fault: f, Tap: u.FIR.TapOfNet(f.Net)}
			res.FirstDiff, res.MaxAbsDiff = DiffStats(good, rec)
			if res.Detected, err = det.Detect(good, rec); err != nil {
				t.Fatal(err)
			}
			rep.Results = append(rep.Results, res)
		}
	}
	return rep
}

func TestSerialMatchesParallel(t *testing.T) {
	fir := smallFIR(t)
	u := NewUniverse(fir, true)
	xs := sineRecord(48, 25, 3)
	for _, det := range []Detector{ExactDetector{}, ExactDetector{Threshold: 3}} {
		ser, err := SerialSimulate(u, xs, det)
		if err != nil {
			t.Fatal(err)
		}
		if par := batchReport(t, u, xs, det); !reflect.DeepEqual(ser, par) {
			t.Fatalf("%+v: serial report differs from the bit-parallel passes:\nserial   %v\nparallel %v", det, ser, par)
		}
	}
}

func TestExactDetectorThreshold(t *testing.T) {
	good := []int64{0, 10, 20}
	faulty := []int64{0, 12, 20}
	mustDetect := func(d ExactDetector, g, f []int64) bool {
		t.Helper()
		det, err := d.Detect(g, f)
		if err != nil {
			t.Fatal(err)
		}
		return det
	}
	if !mustDetect(ExactDetector{}, good, faulty) {
		t.Error("threshold 0 missed a 2-LSB diff")
	}
	if mustDetect(ExactDetector{Threshold: 2}, good, faulty) {
		t.Error("threshold 2 detected a 2-LSB diff (must require >)")
	}
	if !mustDetect(ExactDetector{Threshold: 1}, good, faulty) {
		t.Error("threshold 1 missed a 2-LSB diff")
	}
	if mustDetect(ExactDetector{}, good, good) {
		t.Error("identical records detected")
	}
}

// errDetector fails on every record pair; campaigns must surface the
// failure instead of counting phantom undetected faults.
type errDetector struct{}

func (errDetector) Detect(good, faulty []int64) (bool, error) {
	return false, errors.New("detector exploded")
}

func TestSimulateSurfacesDetectorErrors(t *testing.T) {
	fir := smallFIR(t)
	u := NewUniverse(fir, true)
	xs := sineRecord(64, 20, 3)
	if _, err := SerialSimulate(u, xs, errDetector{}); err == nil || !strings.Contains(err.Error(), "detector exploded") {
		t.Errorf("SerialSimulate swallowed the detector error: %v", err)
	}
}

func TestRunBatchesFirstErrorByBatchOrder(t *testing.T) {
	// Several batches fail; the returned error must deterministically
	// be the lowest-numbered one, regardless of completion order.
	for trial := 0; trial < 25; trial++ {
		var live int32
		var peak int32
		err := runBatches(context.Background(), 16, 4, func(b int) error {
			n := atomic.AddInt32(&live, 1)
			for {
				p := atomic.LoadInt32(&peak)
				if n <= p || atomic.CompareAndSwapInt32(&peak, p, n) {
					break
				}
			}
			defer atomic.AddInt32(&live, -1)
			switch b {
			case 3:
				// Delay the earliest failure so a later one tends to
				// land first.
				time.Sleep(2 * time.Millisecond)
				return fmt.Errorf("batch 3 failed")
			case 11:
				return fmt.Errorf("batch 11 failed")
			}
			return nil
		})
		if err == nil || err.Error() != "batch 3 failed" {
			t.Fatalf("trial %d: got %v, want the batch-3 error", trial, err)
		}
		if p := atomic.LoadInt32(&peak); p > 4 {
			t.Fatalf("trial %d: %d batch goroutines live at once; pool must be bounded at 4", trial, p)
		}
	}
	if err := runBatches(context.Background(), 0, 4, func(int) error { return errors.New("never") }); err != nil {
		t.Errorf("zero batches returned %v", err)
	}
	// More workers than batches must not deadlock or skip work.
	var ran int32
	if err := runBatches(context.Background(), 3, 64, func(int) error { atomic.AddInt32(&ran, 1); return nil }); err != nil {
		t.Fatal(err)
	}
	if ran != 3 {
		t.Errorf("ran %d batches, want 3", ran)
	}
}

// countingWorkerDetector wraps ExactDetector with WorkerDetector
// bookkeeping so tests can prove the campaign detects through the
// per-worker bound functions rather than the shared Detect.
type countingWorkerDetector struct {
	base        ExactDetector
	newErr      error
	newCalls    atomic.Int64
	boundCalls  atomic.Int64
	directCalls atomic.Int64
}

func (d *countingWorkerDetector) Detect(good, faulty []int64) (bool, error) {
	d.directCalls.Add(1)
	return d.base.Detect(good, faulty)
}

func (d *countingWorkerDetector) NewWorkerDetect() (func(good, faulty []int64) (bool, error), error) {
	if d.newErr != nil {
		return nil, d.newErr
	}
	d.newCalls.Add(1)
	return func(good, faulty []int64) (bool, error) {
		d.boundCalls.Add(1)
		return d.base.Detect(good, faulty)
	}, nil
}

func TestSimulateUsesWorkerDetectors(t *testing.T) {
	fir := smallFIR(t)
	u := NewUniverse(fir, true)
	xs := sineRecord(64, 28, 5)
	want := batchReport(t, u, xs, ExactDetector{})
	cd := &countingWorkerDetector{}
	rep, err := SerialSimulate(u, xs, cd)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != len(want.Results) {
		t.Fatal("result count mismatch")
	}
	for i := range want.Results {
		if rep.Results[i].Detected != want.Results[i].Detected {
			t.Fatalf("fault %v verdict differs from plain ExactDetector", rep.Results[i].Fault)
		}
	}
	if n := cd.newCalls.Load(); n != 1 {
		t.Errorf("NewWorkerDetect called %d times, want 1", n)
	}
	if cd.boundCalls.Load() == 0 {
		t.Error("no detection went through the bound worker function")
	}
	if n := cd.directCalls.Load(); n != 0 {
		t.Errorf("%d detections bypassed the worker scratch path", n)
	}
}

func TestWorkerDetectorSetupErrorPropagates(t *testing.T) {
	fir := smallFIR(t)
	u := NewUniverse(fir, true)
	xs := sineRecord(64, 28, 5)
	cd := &countingWorkerDetector{newErr: errors.New("scratch build failed")}
	if _, err := SerialSimulate(u, xs, cd); err == nil || !strings.Contains(err.Error(), "scratch build failed") {
		t.Errorf("SerialSimulate swallowed the setup error: %v", err)
	}
	if cd.boundCalls.Load() != 0 || cd.directCalls.Load() != 0 {
		t.Error("detection ran despite the setup failure")
	}
}

func TestSimulateValidation(t *testing.T) {
	fir := smallFIR(t)
	u := NewUniverse(fir, true)
	if _, err := SerialSimulate(u, nil, ExactDetector{}); err == nil {
		t.Error("serial empty record accepted")
	}
	if _, err := SerialSimulate(u, []int64{1}, nil); err == nil {
		t.Error("serial nil detector accepted")
	}
}

func TestRecordsCapturesFaultyOutputs(t *testing.T) {
	fir := smallFIR(t)
	u := NewUniverse(fir, false)
	xs := sineRecord(32, 20, 3)
	// Pick an output-bus LSB SA1 fault — easy to predict.
	f := netlist.Fault{Net: fir.OutBus[0], Stuck: netlist.StuckAt1}
	good, faulty, err := Records(u, xs, []netlist.Fault{f})
	if err != nil {
		t.Fatal(err)
	}
	if len(faulty) != 1 {
		t.Fatalf("faulty records = %d", len(faulty))
	}
	ref := fir.ReferencePeriodic(xs)
	for i := range good {
		if good[i] != ref[i] {
			t.Fatalf("good record wrong at %d", i)
		}
		if faulty[0][i] != ref[i]|1 {
			t.Fatalf("faulty record at %d: %d, want %d", i, faulty[0][i], ref[i]|1)
		}
	}
}

func TestRecordsLimit(t *testing.T) {
	fir := smallFIR(t)
	u := NewUniverse(fir, false)
	many := make([]netlist.Fault, 64)
	if _, _, err := Records(u, []int64{1}, many); err == nil {
		t.Error("64 faults accepted in one Records pass")
	}
}

func TestTapAttribution(t *testing.T) {
	fir := smallFIR(t)
	u := NewUniverse(fir, false)
	xs := sineRecord(32, 25, 3)
	rep, err := SerialSimulate(u, xs, ExactDetector{})
	if err != nil {
		t.Fatal(err)
	}
	tapSeen := map[int]bool{}
	for _, r := range rep.Results {
		tapSeen[r.Tap] = true
	}
	for tap := 0; tap < fir.Taps(); tap++ {
		if !tapSeen[tap] {
			t.Errorf("no fault attributed to tap %d", tap)
		}
	}
	if !tapSeen[-1] {
		t.Error("no fault attributed to the sum tree")
	}
}

func TestLSBConfinement(t *testing.T) {
	results := []Result{
		{MaxAbsDiff: 0},
		{MaxAbsDiff: 3}, // < 2^2
		{MaxAbsDiff: 4}, // not < 2^2
		{MaxAbsDiff: 100},
	}
	if got := LSBConfinement(results, 2); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("LSBConfinement = %g, want 0.5", got)
	}
	if got := LSBConfinement(nil, 2); got != 1 {
		t.Errorf("empty confinement = %g", got)
	}
}

func TestTwoToneBeatsSingleToneCoverage(t *testing.T) {
	// The paper's headline qualitative result at small scale: a
	// two-tone stimulus detects at least as many faults as one tone of
	// the same composite amplitude.
	fir, err := digital.NewFIR([]int64{5, -9, 13, -9, 5}, 8)
	if err != nil {
		t.Fatal(err)
	}
	u := NewUniverse(fir, true)
	n := 128
	one := make([]int64, n)
	two := make([]int64, n)
	for i := range one {
		ph := 2 * math.Pi * float64(i) / float64(n)
		one[i] = int64(math.Round(100 * math.Sin(7*ph)))
		two[i] = int64(math.Round(50*math.Sin(7*ph) + 50*math.Sin(11*ph)))
	}
	rep1 := batchReport(t, u, one, ExactDetector{})
	rep2 := batchReport(t, u, two, ExactDetector{})
	if rep2.Coverage()+5 < rep1.Coverage() {
		t.Errorf("two-tone coverage %.1f%% much worse than single %.1f%%",
			rep2.Coverage(), rep1.Coverage())
	}
}

func TestUndetectedResults(t *testing.T) {
	fir := smallFIR(t)
	u := NewUniverse(fir, true)
	// All-zero input: nothing toggles, SA0 faults everywhere are
	// undetectable, so there must be a healthy undetected set.
	xs := make([]int64, 16)
	rep, err := SerialSimulate(u, xs, ExactDetector{})
	if err != nil {
		t.Fatal(err)
	}
	und := rep.UndetectedResults()
	if len(und) == 0 {
		t.Fatal("zero input detected faults?")
	}
	for _, r := range und {
		if r.Detected {
			t.Fatal("UndetectedResults returned a detected fault")
		}
	}
}

func BenchmarkSimulateSerial(b *testing.B) {
	fir, err := digital.NewFIR([]int64{5, -9, 13, -9, 5}, 8)
	if err != nil {
		b.Fatal(err)
	}
	u := NewUniverse(fir, true)
	xs := sineRecord(128, 100, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SerialSimulate(u, xs, ExactDetector{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDetectOnlyMatchesSimulate(t *testing.T) {
	fir, err := digital.NewFIR([]int64{5, -9, 13, -9, 5}, 8)
	if err != nil {
		t.Fatal(err)
	}
	u := NewUniverse(fir, true)
	xs := sineRecord(96, 100, 7)
	rep := batchReport(t, u, xs, ExactDetector{})
	fast, err := DetectOnly(u, xs)
	if err != nil {
		t.Fatal(err)
	}
	if len(fast) != len(rep.Results) {
		t.Fatal("length mismatch")
	}
	for i := range fast {
		if fast[i] != rep.Results[i].Detected {
			t.Fatalf("fault %v: fast %v vs full %v", rep.Results[i].Fault, fast[i], rep.Results[i].Detected)
		}
	}
}

func TestDetectOnlyValidation(t *testing.T) {
	fir := smallFIR(t)
	u := NewUniverse(fir, true)
	if _, err := DetectOnly(u, nil); err == nil {
		t.Error("empty record accepted")
	}
}
