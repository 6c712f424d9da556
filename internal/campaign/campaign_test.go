package campaign

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"mstx/internal/digital"
	"mstx/internal/dsp"
	"mstx/internal/fault"
	"mstx/internal/spectest"
)

// buildCampaign builds a small gate-level FIR, a coherent two-tone
// stimulus of amplitude amp, and a detector calibrated on a noisy
// fault-free capture — a miniature of the E8 setup.
func buildCampaign(t testing.TB, n int, amp float64) (*fault.Universe, *spectest.Detector, []int64) {
	t.Helper()
	fir, err := digital.NewFIR([]int64{7, 15, 22, 15, 7}, 8)
	if err != nil {
		t.Fatal(err)
	}
	fs := 1e6
	f1 := dsp.CoherentBin(fs, n, 37)
	f2 := dsp.CoherentBin(fs, n, 53)
	ideal := make([]int64, n)
	noisy := make([]int64, n)
	rng := rand.New(rand.NewSource(90))
	for i := range ideal {
		ti := float64(i) / fs
		v := amp*math.Cos(2*math.Pi*f1*ti) + amp*math.Cos(2*math.Pi*f2*ti)
		ideal[i] = int64(math.Round(v))
		noisy[i] = int64(math.Round(v + rng.NormFloat64()*1.5))
	}
	sim := digital.NewFIRSim(fir)
	goodIdeal, err := sim.RunPeriodic(ideal)
	if err != nil {
		t.Fatal(err)
	}
	sim2 := digital.NewFIRSim(fir)
	goodNoisy, err := sim2.RunPeriodic(noisy)
	if err != nil {
		t.Fatal(err)
	}
	det, err := spectest.NewDetector(goodIdeal, fs, []float64{f1, f2}, 2, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.CalibrateFloor(goodNoisy, 1.5); err != nil {
		t.Fatal(err)
	}
	return fault.NewUniverse(fir, true), det, ideal
}

// detectorCase is one detection predicate the engine properties are
// checked under.
type detectorCase struct {
	name string
	det  fault.Detector
}

// detectorCases pairs the calibrated spectral detector with the exact
// compare at threshold 0 (any difference) and above it, so every
// engine property holds for both of the paper's predicates.
func detectorCases(det *spectest.Detector) []detectorCase {
	return []detectorCase{
		{"spectral", det},
		{"exact", fault.ExactDetector{}},
		{"exact-threshold3", fault.ExactDetector{Threshold: 3}},
	}
}

// pairRecorder is an exact detector that keeps the good record and
// every faulty record it is handed, in call order.
type pairRecorder struct {
	good   []int64
	faulty [][]int64
}

func (r *pairRecorder) Detect(good, faulty []int64) (bool, error) {
	r.good = good
	r.faulty = append(r.faulty, faulty)
	return fault.ExactDetector{}.Detect(good, faulty)
}

func TestEngineMatchesSerialSimulate(t *testing.T) {
	u, det, xs := buildCampaign(t, 512, 45)
	// SerialSimulate pays one full gate-level pass per fault, so cap
	// the universe at a few batches to keep the oracle affordable, and
	// run it once: each case's reference is the serial report with that
	// case's verdicts on the serial records.
	// TestEngineReusePathsChangeNothing covers the full universe against
	// the engine's plain full-netlist path.
	u.Faults = u.Faults[:200]
	rec := &pairRecorder{}
	ser, err := fault.SerialSimulate(u, xs, rec)
	if err != nil {
		t.Fatal(err)
	}
	for _, dc := range detectorCases(det) {
		want := &fault.Report{Patterns: ser.Patterns, Results: slices.Clone(ser.Results)}
		for i, f := range rec.faulty {
			if want.Results[i].Detected, err = dc.det.Detect(rec.good, f); err != nil {
				t.Fatal(err)
			}
		}
		eng, err := New(u, dc.det, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rep, stats, err := eng.Run(context.Background(), xs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep, want) {
			t.Fatalf("%s: pooled report differs from SerialSimulate:\npooled %v\nserial %v", dc.name, rep, want)
		}
		if stats.Faults != u.Size() {
			t.Errorf("%s: stats.Faults = %d, want %d", dc.name, stats.Faults, u.Size())
		}
		// Every lane is either screened, memoized, or detected, plus the
		// one good-record evaluation backing the screen.
		if stats.Screened+stats.Memoized+stats.Spectra != stats.Faults+1 {
			t.Errorf("%s: screened %d + memoized %d + spectra %d != faults %d + 1",
				dc.name, stats.Screened, stats.Memoized, stats.Spectra, stats.Faults)
		}
	}
}

func TestEngineReusePathsChangeNothing(t *testing.T) {
	// The three campaign-level reuses — differential cone replay,
	// zero-diff screening, and record-verdict memoization — must be
	// invisible in the report: run the engine with everything disabled
	// (full per-batch simulation, one detection per lane) and with
	// everything on, and require byte-identical reports.
	u, det, xs := buildCampaign(t, 512, 45)
	for _, dc := range detectorCases(det) {
		plain, err := New(u, dc.det, Options{
			DisableScreen: true, DisableDifferential: true, DisableMemo: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		tuned, err := New(u, dc.det, Options{})
		if err != nil {
			t.Fatal(err)
		}
		repP, statsP, err := plain.Run(context.Background(), xs)
		if err != nil {
			t.Fatal(err)
		}
		repT, statsT, err := tuned.Run(context.Background(), xs)
		if err != nil {
			t.Fatal(err)
		}
		if statsP.Differential {
			t.Errorf("%s: DisableDifferential ignored", dc.name)
		}
		if statsP.Memoized != 0 {
			t.Errorf("%s: disabled memo still memoized %d lanes", dc.name, statsP.Memoized)
		}
		if !statsT.Differential {
			t.Errorf("%s: differential path not taken on a compiled circuit", dc.name)
		}
		if !reflect.DeepEqual(repP, repT) {
			t.Fatalf("%s: campaign reuses changed the report", dc.name)
		}
	}
}

func TestZeroDiffScreenSkipsFFTsAndChangesNothing(t *testing.T) {
	// A low-amplitude stimulus leaves the high-order input bits
	// untoggled, so faults confined to their cones never perturb the
	// output: prime zero-diff screen territory.
	u, det, xs := buildCampaign(t, 512, 4)
	for _, dc := range detectorCases(det) {
		// Memoization off in both engines: with it on, which lanes are
		// memoized and which pay a detection depends on detect-worker
		// timing, and the unscreened run can land on the same Spectra
		// count. Without it Spectra is deterministic, so the strict <
		// below proves the screen itself saves detections.
		screened, err := New(u, dc.det, Options{DisableMemo: true})
		if err != nil {
			t.Fatal(err)
		}
		unscreened, err := New(u, dc.det, Options{DisableScreen: true, DisableMemo: true})
		if err != nil {
			t.Fatal(err)
		}
		repS, statsS, err := screened.Run(context.Background(), xs)
		if err != nil {
			t.Fatal(err)
		}
		repU, statsU, err := unscreened.Run(context.Background(), xs)
		if err != nil {
			t.Fatal(err)
		}
		if statsS.Screened == 0 {
			t.Fatalf("%s: low-amplitude stimulus produced no zero-diff lanes; screen untested", dc.name)
		}
		if statsU.Screened != 0 {
			t.Errorf("%s: disabled screen still screened %d lanes", dc.name, statsU.Screened)
		}
		if statsS.Spectra >= statsU.Spectra {
			t.Errorf("%s: screen saved no detections: %d vs %d", dc.name, statsS.Spectra, statsU.Spectra)
		}
		if !reflect.DeepEqual(repS, repU) {
			t.Fatalf("%s: zero-diff screen changed the report", dc.name)
		}
		// The plain full-netlist path (a 63-lane pass per batch, every
		// lane detected) is the full-universe reference.
		repP, err := mustRun(t, u, dc.det, Options{
			DisableScreen: true, DisableDifferential: true, DisableMemo: true,
		}, xs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(repS, repP) {
			t.Fatalf("%s: screened report differs from the plain full-netlist path", dc.name)
		}
	}
}

func TestEngineSurfacesDetectorErrors(t *testing.T) {
	u, det, xs := buildCampaign(t, 512, 45)
	eng, err := New(u, det, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A stimulus whose length disagrees with the detector's reference
	// must abort the campaign, not report phantom non-detections.
	if _, _, err := eng.Run(context.Background(), xs[:256]); err == nil {
		t.Error("record/reference length mismatch did not abort the campaign")
	}
	if _, _, err := eng.Run(context.Background(), nil); err == nil {
		t.Error("empty stimulus accepted")
	}
	// Any detector's error aborts the run, whether it comes from the
	// good-record verdict or a faulty lane.
	for _, failOn := range []string{"good", "faulty"} {
		eng, err := New(u, errDetector{failOn: failOn}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := eng.Run(context.Background(), xs); err == nil || !strings.Contains(err.Error(), "detector exploded") {
			t.Errorf("%s-record detector error swallowed: %v", failOn, err)
		}
	}
}

// errDetector fails on the good-record verdict (failOn "good") or on
// every faulty record (failOn "faulty").
type errDetector struct{ failOn string }

func (d errDetector) Detect(good, faulty []int64) (bool, error) {
	if (d.failOn == "good") == slices.Equal(good, faulty) {
		return false, errors.New("detector exploded")
	}
	return false, nil
}

// countingWorkerDetector wraps ExactDetector with WorkerDetector
// bookkeeping so tests can prove the detect workers go through their
// bound functions rather than the shared Detect.
type countingWorkerDetector struct {
	newErr      error
	newCalls    atomic.Int64
	boundCalls  atomic.Int64
	directCalls atomic.Int64
}

func (d *countingWorkerDetector) Detect(good, faulty []int64) (bool, error) {
	d.directCalls.Add(1)
	return fault.ExactDetector{}.Detect(good, faulty)
}

func (d *countingWorkerDetector) NewWorkerDetect() (func(good, faulty []int64) (bool, error), error) {
	if d.newErr != nil {
		return nil, d.newErr
	}
	d.newCalls.Add(1)
	return func(good, faulty []int64) (bool, error) {
		d.boundCalls.Add(1)
		return fault.ExactDetector{}.Detect(good, faulty)
	}, nil
}

func TestEngineUsesWorkerDetectors(t *testing.T) {
	u, _, xs := buildCampaign(t, 256, 45)
	want, err := mustRun(t, u, fault.ExactDetector{}, Options{}, xs)
	if err != nil {
		t.Fatal(err)
	}
	cd := &countingWorkerDetector{}
	rep, err := mustRun(t, u, cd, Options{DetectWorkers: 2}, xs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, want) {
		t.Fatal("worker-bound verdicts differ from plain ExactDetector")
	}
	// At most one bound function per detect worker; only the shared
	// good-record verdict goes through Detect itself.
	if n := cd.newCalls.Load(); n < 1 || n > 2 {
		t.Errorf("NewWorkerDetect called %d times, want 1..2", n)
	}
	if cd.boundCalls.Load() == 0 {
		t.Error("no detection went through a bound worker function")
	}
	if n := cd.directCalls.Load(); n != 1 {
		t.Errorf("Detect called %d times, want 1 (the good-record verdict)", n)
	}

	bad := &countingWorkerDetector{newErr: errors.New("scratch build failed")}
	if _, err := mustRun(t, u, bad, Options{}, xs); err == nil || !strings.Contains(err.Error(), "scratch build failed") {
		t.Errorf("worker setup error swallowed: %v", err)
	}
	if bad.boundCalls.Load() != 0 {
		t.Error("detection ran despite the setup failure")
	}
}

func TestNewValidation(t *testing.T) {
	u, det, _ := buildCampaign(t, 256, 45)
	if _, err := New(nil, det, Options{}); err == nil {
		t.Error("nil universe accepted")
	}
	if _, err := New(u, nil, Options{}); err == nil {
		t.Error("nil detector accepted")
	}
	eng, err := New(u, det, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Opts.SimWorkers <= 0 || eng.Opts.DetectWorkers <= 0 || eng.Opts.Queue <= 0 {
		t.Errorf("defaults not applied: %+v", eng.Opts)
	}
}

func TestEngineSingleWorkerPipeline(t *testing.T) {
	// Degenerate pool sizes must still drain the pipeline and agree
	// with the default configuration.
	u, det, xs := buildCampaign(t, 256, 45)
	one, err := New(u, det, Options{SimWorkers: 1, DetectWorkers: 1, Queue: 1})
	if err != nil {
		t.Fatal(err)
	}
	repOne, _, err := one.Run(context.Background(), xs)
	if err != nil {
		t.Fatal(err)
	}
	def, err := New(u, det, Options{})
	if err != nil {
		t.Fatal(err)
	}
	repDef, _, err := def.Run(context.Background(), xs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(repOne, repDef) {
		t.Fatal("single-worker pipeline disagrees with default pools")
	}
}
