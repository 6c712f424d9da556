// Package spectest implements the paper's spectral signature test for
// digital filters embedded behind an analog front end: the output
// spectrum of the (possibly faulty) gate-level filter is compared
// against the good-circuit reference spectrum within a tolerance
// derived from the analog uncertainty floor, excluding the bins near
// the applied sine frequencies where the uncertainty is not uniform.
// Faults whose spectral deviation stays below the floor escape —
// which is exactly the coverage loss the paper quantifies — and longer
// records raise periodic fault effects above the floor.
package spectest

import (
	"fmt"
	"math"

	"mstx/internal/dsp"
)

// Detector is a fault.Detector that compares output spectra. It is
// built once from the ideal-stimulus good-circuit record and reused
// for every fault. After construction and calibration (NewDetector,
// ExcludeFrequency, CalibrateFloor) the detector is immutable and safe
// for concurrent detection from many goroutines; workers that want the
// allocation-free hot path pair it with a per-goroutine Scratch.
type Detector struct {
	// SampleRate labels spectrum bins, Hz.
	SampleRate float64
	// ToneFreqs are the stimulus tone frequencies, Hz.
	ToneFreqs []float64
	// GuardBins is how many bins on each side of a stimulus tone (and
	// DC) are excluded from comparison — the paper's "frequencies
	// where the uncertainty level is uniform" rule.
	GuardBins int
	// FloorPower is the per-bin uncertainty power (same units as the
	// record squared) below which deviations are indistinguishable
	// from analog noise.
	FloorPower float64
	// MarginDB is how far above the floor a deviation must rise to be
	// called a fault effect.
	MarginDB float64

	ref *dsp.Spectrum
	// excluded[k] marks bin k as left out of the comparison; compared
	// lists the remaining bins in ascending order, the loop every
	// detection runs.
	excluded []bool
	compared []int
	n        int
}

// NewDetector builds a detector from the good-circuit record produced
// with the ideal stimulus. floorPower may be zero initially and set
// later with CalibrateFloor.
func NewDetector(goodIdeal []int64, fs float64, toneFreqs []float64, guardBins int, floorPower, marginDB float64) (*Detector, error) {
	if len(goodIdeal) == 0 {
		return nil, fmt.Errorf("spectest: empty reference record")
	}
	if fs <= 0 {
		return nil, fmt.Errorf("spectest: sample rate %g must be positive", fs)
	}
	if guardBins < 0 {
		return nil, fmt.Errorf("spectest: negative guard bins")
	}
	ref, err := spectrumOf(goodIdeal, fs)
	if err != nil {
		return nil, err
	}
	d := &Detector{
		SampleRate: fs,
		ToneFreqs:  append([]float64(nil), toneFreqs...),
		GuardBins:  guardBins,
		FloorPower: floorPower,
		MarginDB:   marginDB,
		ref:        ref,
		n:          len(goodIdeal),
	}
	d.buildExclusions()
	return d, nil
}

// spectrumOf computes the comparison spectrum. A Blackman-Harris
// window keeps the floor robust against small stimulus/LO frequency
// errors of the device under test: leakage tails from a slightly
// off-bin tone would otherwise grow with record length and swamp the
// uncertainty floor. Its −92 dB sidelobes push tone-skirt residue
// below the analog noise everywhere past the guard band.
func spectrumOf(rec []int64, fs float64) (*dsp.Spectrum, error) {
	f := make([]float64, len(rec))
	for i, v := range rec {
		f[i] = float64(v)
	}
	return dsp.PowerSpectrum(f, fs, dsp.BlackmanHarris)
}

func (d *Detector) buildExclusions() {
	d.excluded = make([]bool, len(d.ref.Power))
	mark := d.excludeAround
	mark(0)
	for _, f := range d.ToneFreqs {
		mark(d.ref.Bin(f))
		// Harmonics of the stimulus also ride on elevated uncertainty
		// (analog distortion varies device to device); exclude 2nd and
		// 3rd.
		mark(d.ref.Bin(2 * f))
		mark(d.ref.Bin(3 * f))
	}
	// Intermodulation products of tone pairs carry the analog front
	// end's (device-dependent) distortion — their uncertainty is not
	// uniform either, so they are excluded from comparison.
	for i, f1 := range d.ToneFreqs {
		for j, f2 := range d.ToneFreqs {
			if i == j {
				continue
			}
			mark(d.ref.Bin(math.Abs(2*f1 - f2)))
			mark(d.ref.Bin(math.Abs(f2 - f1)))
			mark(d.ref.Bin(f1 + f2))
			mark(d.ref.Bin(2*f1 + f2))
		}
	}
	d.listCompared()
}

// excludeAround marks bin k and its guard bins as excluded.
func (d *Detector) excludeAround(k int) {
	for i := max(k-d.GuardBins, 0); i <= k+d.GuardBins && i < len(d.excluded); i++ {
		d.excluded[i] = true
	}
}

// listCompared rebuilds the ascending list of compared bins from the
// exclusion marks.
func (d *Detector) listCompared() {
	d.compared = d.compared[:0]
	for k, ex := range d.excluded {
		if !ex {
			d.compared = append(d.compared, k)
		}
	}
}

// ExcludeFrequency removes the bins around frequency f (with the
// usual guard) from comparison. Callers exclude the known
// deterministic features of their analog front end — clock feed-
// through and LO leakage aliases — whose levels vary device to device.
// Call before CalibrateFloor.
func (d *Detector) ExcludeFrequency(f float64) {
	d.excludeAround(d.ref.Bin(f))
	d.listCompared()
}

// CalibrateFloor sets FloorPower from a realistic fault-free capture:
// the worst per-bin deviation between that record's spectrum and the
// ideal reference over the compared bins, scaled by safety (>= 1).
// This is the paper's "level of total noise at the inputs of the
// digital filter is estimated through spectral analysis".
func (d *Detector) CalibrateFloor(noisyGood []int64, safety float64) error {
	if safety < 1 {
		return fmt.Errorf("spectest: safety factor %g must be >= 1", safety)
	}
	s, err := spectrumOf(noisyGood, d.SampleRate)
	if err != nil {
		return err
	}
	if len(s.Power) != len(d.ref.Power) {
		return fmt.Errorf("spectest: calibration record length %d != reference %d",
			len(noisyGood), d.n)
	}
	d.normalize(s)
	devs := make([]float64, 0, len(d.compared))
	for _, k := range d.compared {
		devs = append(devs, math.Abs(s.Power[k]-d.ref.Power[k]))
	}
	if len(devs) == 0 {
		return fmt.Errorf("spectest: every bin excluded")
	}
	// Use the largest observed deviation as the floor so a healthy
	// noisy device can never flag on its own noise, then apply the
	// safety factor for device-to-device spread.
	worst := 0.0
	for _, v := range devs {
		if v > worst {
			worst = v
		}
	}
	d.FloorPower = worst * safety
	return nil
}

// threshold returns the per-bin detection threshold power.
func (d *Detector) threshold() float64 {
	return d.FloorPower * math.Pow(10, d.MarginDB/10)
}

// normalize scales a record's spectrum so its total stimulus-tone
// power matches the reference — the paper's elimination of analog
// gain variance through spectral analysis. Without this, a healthy
// device's slightly different path gain leaves a residual on the tone
// skirts that masquerades as an uncertainty floor.
func (d *Detector) normalize(s *dsp.Spectrum) {
	var ref, got float64
	for _, f := range d.ToneFreqs {
		ref += d.ref.Power[d.ref.Bin(f)]
		got += s.Power[s.Bin(f)]
	}
	if got <= 0 || ref <= 0 {
		return
	}
	g := ref / got
	for k := range s.Power {
		s.Power[k] *= g
	}
}

// Scratch holds the per-worker reusable buffers for allocation-free
// detection: the float conversion buffer and the windowed-FFT scratch
// (window table, complex work buffer, power buffer) keyed off the
// shared dsp plan cache. A Scratch is not safe for concurrent use;
// create one per goroutine with NewScratch.
type Scratch struct {
	f  []float64
	ss *dsp.SpectrumScratch
}

// NewScratch builds a scratch sized for this detector's record length.
func (d *Detector) NewScratch() (*Scratch, error) {
	ss, err := dsp.NewSpectrumScratch(d.n, dsp.BlackmanHarris)
	if err != nil {
		return nil, err
	}
	return &Scratch{f: make([]float64, d.n), ss: ss}, nil
}

// spectrumFor computes the comparison spectrum of rec, through the
// scratch when one is supplied (allocation-free, bit-identical) or the
// allocating spectrumOf path when sc is nil.
func (d *Detector) spectrumFor(rec []int64, sc *Scratch) (*dsp.Spectrum, error) {
	if sc == nil {
		return spectrumOf(rec, d.SampleRate)
	}
	if len(sc.f) != len(rec) {
		return nil, fmt.Errorf("spectest: scratch length %d != record %d", len(sc.f), len(rec))
	}
	for i, v := range rec {
		sc.f[i] = float64(v)
	}
	return sc.ss.PowerSpectrum(sc.f, d.SampleRate)
}

// deviationOf normalizes s in place and returns the largest per-bin
// deviation from the reference over the compared bins and its bin.
func (d *Detector) deviationOf(s *dsp.Spectrum) (float64, int) {
	d.normalize(s)
	worst, worstBin := 0.0, -1
	for _, k := range d.compared {
		dev := math.Abs(s.Power[k] - d.ref.Power[k])
		if dev > worst {
			worst, worstBin = dev, k
		}
	}
	return worst, worstBin
}

// Deviation returns the largest per-bin spectral deviation of the
// record from the reference over the compared bins, and the bin it
// occurred at.
func (d *Detector) Deviation(rec []int64) (float64, int, error) {
	return d.DeviationScratch(rec, nil)
}

// DeviationScratch is Deviation through a worker's reusable scratch
// buffers; sc may be nil, in which case temporaries are allocated.
func (d *Detector) DeviationScratch(rec []int64, sc *Scratch) (float64, int, error) {
	if len(rec) != d.n {
		return 0, 0, fmt.Errorf("spectest: record length %d != reference %d", len(rec), d.n)
	}
	s, err := d.spectrumFor(rec, sc)
	if err != nil {
		return 0, 0, err
	}
	worst, worstBin := d.deviationOf(s)
	return worst, worstBin, nil
}

// DetectRecord reports whether the record's spectrum deviates from the
// ideal-good reference by more than the floor-derived threshold in at
// least one compared bin. Unlike the legacy bool-only path, detector
// failures (record-length mismatch, spectrum errors) surface as errors
// instead of masquerading as undetected faults. sc may be nil.
func (d *Detector) DetectRecord(rec []int64, sc *Scratch) (bool, error) {
	dev, _, err := d.DeviationScratch(rec, sc)
	if err != nil {
		return false, err
	}
	return dev > d.threshold(), nil
}

// Detect implements fault.Detector: the faulty record's spectrum must
// deviate from the ideal-good reference by more than the floor-derived
// threshold in at least one compared bin. The good record passed by
// the campaign is ignored — the reference is the ideal-input good
// circuit, as in the paper's methodology — so the campaign engine's
// screened verdict, Detect(good, good), is the good record's own.
//
// This entry point allocates its spectrum temporaries per call; engines
// that detect in a loop use NewWorkerDetect (the campaign engine and
// fault.SerialSimulate pick it up automatically) for the
// allocation-free path.
func (d *Detector) Detect(good, faulty []int64) (bool, error) {
	return d.DetectRecord(faulty, nil)
}

// NewWorkerDetect returns a Detect-shaped function bound to a fresh
// per-worker Scratch, satisfying fault.WorkerDetector: verdicts are
// bit-identical to Detect's, but the record → window → FFT → power-
// spectrum → screen path reuses one buffer set and allocates nothing
// in steady state. The returned function is not safe for concurrent
// use — it owns its scratch; call NewWorkerDetect once per goroutine.
func (d *Detector) NewWorkerDetect() (func(good, faulty []int64) (bool, error), error) {
	sc, err := d.NewScratch()
	if err != nil {
		return nil, err
	}
	return func(good, faulty []int64) (bool, error) {
		return d.DetectRecord(faulty, sc)
	}, nil
}

// ComparedBins returns how many spectrum bins participate in the
// comparison.
func (d *Detector) ComparedBins() int {
	return len(d.compared)
}

// FloorDBFS returns the calibrated floor power in dB relative to the
// reference's total stimulus power — a readable summary of how much
// analog uncertainty the test must tolerate.
func (d *Detector) FloorDBFS() float64 {
	var sig float64
	for _, f := range d.ToneFreqs {
		sig += d.ref.Power[d.ref.Bin(f)]
	}
	if sig <= 0 {
		return math.Inf(1)
	}
	return dsp.DB(d.FloorPower / sig)
}
