package spectest

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"mstx/internal/campaign"
	"mstx/internal/digital"
	"mstx/internal/dsp"
	"mstx/internal/fault"
	"mstx/internal/netlist"
)

// buildFilterAndRecords builds a small gate-level FIR, an ideal
// stimulus record, the good output, and a noisy-input good output.
func buildFilterAndRecords(t testing.TB, n int) (*digital.FIR, []int64, []int64, []int64, []float64, float64) {
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
		v := 45*math.Cos(2*math.Pi*f1*ti) + 45*math.Cos(2*math.Pi*f2*ti)
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
	return fir, ideal, goodIdeal, goodNoisy, []float64{f1, f2}, fs
}

func TestNewDetectorValidation(t *testing.T) {
	if _, err := NewDetector(nil, 1e6, nil, 1, 0, 0); err == nil {
		t.Error("empty reference accepted")
	}
	if _, err := NewDetector([]int64{1}, 0, nil, 1, 0, 0); err == nil {
		t.Error("zero sample rate accepted")
	}
	if _, err := NewDetector([]int64{1}, 1e6, nil, -1, 0, 0); err == nil {
		t.Error("negative guard accepted")
	}
}

func TestHealthyNoisyDevicePasses(t *testing.T) {
	_, _, goodIdeal, goodNoisy, tones, fs := buildFilterAndRecords(t, 1024)
	det, err := NewDetector(goodIdeal, fs, tones, 2, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.CalibrateFloor(goodNoisy, 1.5); err != nil {
		t.Fatal(err)
	}
	if det.FloorPower <= 0 {
		t.Fatal("floor not calibrated")
	}
	// The noisy-but-healthy record must not be flagged: yield.
	if flagged, err := det.Detect(goodIdeal, goodNoisy); err != nil {
		t.Fatal(err)
	} else if flagged {
		t.Error("healthy noisy device flagged as faulty")
	}
	if det.ComparedBins() <= 0 {
		t.Error("no compared bins")
	}
	if db := det.FloorDBFS(); db > -20 {
		t.Errorf("floor at %g dBFS — implausibly high", db)
	}
}

func TestGrossFaultDetected(t *testing.T) {
	fir, ideal, goodIdeal, goodNoisy, tones, fs := buildFilterAndRecords(t, 1024)
	det, err := NewDetector(goodIdeal, fs, tones, 2, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.CalibrateFloor(goodNoisy, 1.5); err != nil {
		t.Fatal(err)
	}
	// Stuck-at on a high output bit: gross periodic distortion.
	sim := digital.NewFIRSim(fir)
	hiBit := fir.OutBus[len(fir.OutBus)-3]
	if err := sim.InjectFault(netlist.Fault{Net: hiBit, Stuck: netlist.StuckAt1}, ^uint64(0)); err != nil {
		t.Fatal(err)
	}
	faulty, err := sim.RunPeriodic(ideal)
	if err != nil {
		t.Fatal(err)
	}
	if detected, err := det.Detect(goodIdeal, faulty); err != nil {
		t.Fatal(err)
	} else if !detected {
		t.Error("gross fault escaped the spectral test")
	}
}

func TestTinyFaultBelowFloorEscapes(t *testing.T) {
	fir, ideal, goodIdeal, _, tones, fs := buildFilterAndRecords(t, 1024)
	det, err := NewDetector(goodIdeal, fs, tones, 2, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Artificially high floor: even an LSB fault must escape.
	det.FloorPower = 1e6
	sim := digital.NewFIRSim(fir)
	if err := sim.InjectFault(netlist.Fault{Net: fir.OutBus[0], Stuck: netlist.StuckAt1}, ^uint64(0)); err != nil {
		t.Fatal(err)
	}
	faulty, err := sim.RunPeriodic(ideal)
	if err != nil {
		t.Fatal(err)
	}
	if detected, err := det.Detect(goodIdeal, faulty); err != nil {
		t.Fatal(err)
	} else if detected {
		t.Error("LSB fault detected despite a floor far above it")
	}
}

// runEngine runs one campaign on the pooled engine.
func runEngine(u *fault.Universe, xs []int64, det fault.Detector) (*fault.Report, error) {
	eng, err := campaign.New(u, det, campaign.Options{})
	if err != nil {
		return nil, err
	}
	rep, _, err := eng.Run(context.Background(), xs)
	return rep, err
}

func TestCoverageDropsWithNoiseFloorAndRecoversWithPatterns(t *testing.T) {
	// The paper's E8 shape at miniature scale: exact detection >
	// spectral with floor; and a longer record recovers some faults.
	if testing.Short() {
		t.Skip("coverage sweep skipped in -short")
	}
	runCampaign := func(n int, floorScale float64) float64 {
		fir, ideal, goodIdeal, goodNoisy, tones, fs := buildFilterAndRecords(t, n)
		u := fault.NewUniverse(fir, true)
		det, err := NewDetector(goodIdeal, fs, tones, 2, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := det.CalibrateFloor(goodNoisy, floorScale); err != nil {
			t.Fatal(err)
		}
		rep, err := runEngine(u, ideal, det)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Coverage()
	}
	exactCoverage := func(n int) float64 {
		fir, ideal, _, _, _, _ := buildFilterAndRecords(t, n)
		u := fault.NewUniverse(fir, true)
		rep, err := runEngine(u, ideal, fault.ExactDetector{})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Coverage()
	}
	exact := exactCoverage(1024)
	spectral := runCampaign(1024, 40) // generous floor: faults escape
	longer := runCampaign(4096, 40)
	if spectral >= exact {
		t.Errorf("spectral coverage %.1f%% should drop below exact %.1f%%", spectral, exact)
	}
	if longer < spectral {
		t.Errorf("more patterns lowered coverage: %.1f%% -> %.1f%%", spectral, longer)
	}
}

func TestDeviationLengthMismatch(t *testing.T) {
	_, _, goodIdeal, _, tones, fs := buildFilterAndRecords(t, 512)
	det, err := NewDetector(goodIdeal, fs, tones, 2, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := det.Deviation(make([]int64, 100)); err == nil {
		t.Error("length mismatch accepted")
	}
	// A mismatched record must fail loudly, not read as undetected.
	if _, err := det.Detect(nil, make([]int64, 100)); err == nil {
		t.Error("mismatched record did not surface an error")
	}
	if _, err := det.DetectRecord(make([]int64, 100), nil); err == nil {
		t.Error("DetectRecord length mismatch did not surface an error")
	}
}

func TestCalibrateFloorValidation(t *testing.T) {
	_, _, goodIdeal, goodNoisy, tones, fs := buildFilterAndRecords(t, 512)
	det, err := NewDetector(goodIdeal, fs, tones, 2, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.CalibrateFloor(goodNoisy, 0.5); err == nil {
		t.Error("safety < 1 accepted")
	}
	if err := det.CalibrateFloor(make([]int64, 100), 2); err == nil {
		t.Error("length mismatch accepted")
	}
	// A guard band wide enough to swallow the whole spectrum leaves
	// nothing to compare: calibration must refuse, not return a zero
	// floor.
	wide, err := NewDetector(goodIdeal, fs, tones, len(goodIdeal), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := wide.CalibrateFloor(goodNoisy, 1.5); err == nil {
		t.Error("every-bin-excluded calibration accepted")
	}
}

func TestScratchPathBitIdentical(t *testing.T) {
	fir, ideal, goodIdeal, goodNoisy, tones, fs := buildFilterAndRecords(t, 512)
	det, err := NewDetector(goodIdeal, fs, tones, 2, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.CalibrateFloor(goodNoisy, 1.5); err != nil {
		t.Fatal(err)
	}
	sc, err := det.NewScratch()
	if err != nil {
		t.Fatal(err)
	}
	sim := digital.NewFIRSim(fir)
	if err := sim.InjectFault(netlist.Fault{Net: fir.OutBus[2], Stuck: netlist.StuckAt1}, ^uint64(0)); err != nil {
		t.Fatal(err)
	}
	faulty, err := sim.RunPeriodic(ideal)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range [][]int64{goodNoisy, faulty, goodIdeal} {
		devPlain, binPlain, err := det.Deviation(rec)
		if err != nil {
			t.Fatal(err)
		}
		devScr, binScr, err := det.DeviationScratch(rec, sc)
		if err != nil {
			t.Fatal(err)
		}
		if devPlain != devScr || binPlain != binScr {
			t.Fatalf("scratch deviation (%g, %d) != plain (%g, %d) — paths must be bit-identical",
				devScr, binScr, devPlain, binPlain)
		}
		dPlain, err := det.DetectRecord(rec, nil)
		if err != nil {
			t.Fatal(err)
		}
		dScr, err := det.DetectRecord(rec, sc)
		if err != nil {
			t.Fatal(err)
		}
		if dPlain != dScr {
			t.Fatalf("scratch verdict %v != plain verdict %v", dScr, dPlain)
		}
	}
}

// The spectral detector must satisfy fault.WorkerDetector so campaigns
// bind one scratch per pool worker — structurally, without spectest
// importing fault.
var _ fault.WorkerDetector = (*Detector)(nil)

func TestNewWorkerDetectBitIdentical(t *testing.T) {
	fir, ideal, goodIdeal, goodNoisy, tones, fs := buildFilterAndRecords(t, 512)
	det, err := NewDetector(goodIdeal, fs, tones, 2, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.CalibrateFloor(goodNoisy, 1.5); err != nil {
		t.Fatal(err)
	}
	detect, err := det.NewWorkerDetect()
	if err != nil {
		t.Fatal(err)
	}
	records := [][]int64{goodNoisy, goodIdeal}
	for bit := 0; bit < 3; bit++ {
		sim := digital.NewFIRSim(fir)
		if err := sim.InjectFault(netlist.Fault{Net: fir.OutBus[bit], Stuck: netlist.StuckAt1}, ^uint64(0)); err != nil {
			t.Fatal(err)
		}
		rec, err := sim.RunPeriodic(ideal)
		if err != nil {
			t.Fatal(err)
		}
		records = append(records, rec)
	}
	for i, rec := range records {
		want, err := det.Detect(goodIdeal, rec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := detect(goodIdeal, rec)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("record %d: worker verdict %v != Detect verdict %v", i, got, want)
		}
	}
}

// TestDetectRecordAllocFree pins the campaign's per-record steady
// state: with a worker scratch bound, the record → spectrum → screen
// path performs zero allocations per fault.
func TestDetectRecordAllocFree(t *testing.T) {
	_, _, goodIdeal, goodNoisy, tones, fs := buildFilterAndRecords(t, 512)
	det, err := NewDetector(goodIdeal, fs, tones, 2, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.CalibrateFloor(goodNoisy, 1.5); err != nil {
		t.Fatal(err)
	}
	sc, err := det.NewScratch()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := det.DetectRecord(goodNoisy, sc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("scratch DetectRecord allocates %.1f objects per call, want 0", allocs)
	}
	detect, err := det.NewWorkerDetect()
	if err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(20, func() {
		if _, err := detect(goodIdeal, goodNoisy); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("bound worker detect allocates %.1f objects per call, want 0", allocs)
	}
}

func TestDetectorConcurrentDetection(t *testing.T) {
	// A calibrated detector is shared read-only by the campaign pool;
	// this must be race-free (run under -race) and verdict-stable.
	fir, ideal, goodIdeal, goodNoisy, tones, fs := buildFilterAndRecords(t, 512)
	det, err := NewDetector(goodIdeal, fs, tones, 2, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.CalibrateFloor(goodNoisy, 1.5); err != nil {
		t.Fatal(err)
	}
	var records [][]int64
	var want []bool
	for bit := 0; bit < 4; bit++ {
		sim := digital.NewFIRSim(fir)
		if err := sim.InjectFault(netlist.Fault{Net: fir.OutBus[bit], Stuck: netlist.StuckAt1}, ^uint64(0)); err != nil {
			t.Fatal(err)
		}
		rec, err := sim.RunPeriodic(ideal)
		if err != nil {
			t.Fatal(err)
		}
		records = append(records, rec)
	}
	records = append(records, goodNoisy, goodIdeal)
	for _, rec := range records {
		v, err := det.DetectRecord(rec, nil)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, v)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			sc, err := det.NewScratch()
			if err != nil {
				t.Error(err)
				return
			}
			for iter := 0; iter < 20; iter++ {
				for i, rec := range records {
					// Odd workers exercise the allocating path so the
					// two hot paths race against each other too.
					use := sc
					if worker%2 == 1 {
						use = nil
					}
					got, err := det.DetectRecord(rec, use)
					if err != nil {
						t.Error(err)
						return
					}
					if got != want[i] {
						t.Errorf("worker %d: record %d verdict %v, want %v", worker, i, got, want[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestGuardBinsExcludeTones(t *testing.T) {
	_, _, goodIdeal, _, tones, fs := buildFilterAndRecords(t, 512)
	det, err := NewDetector(goodIdeal, fs, tones, 3, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range tones {
		k := det.ref.Bin(f)
		for i := k - 3; i <= k+3; i++ {
			if !det.excluded[i] {
				t.Errorf("bin %d near tone %g not excluded", i, f)
			}
		}
	}
	if !det.excluded[0] {
		t.Error("DC not excluded")
	}
}
