// Package core is the top-level API of mstx: it synthesizes a
// system-level test program for a mixed-signal signal path (the
// paper's contribution), executes it against device instances, and
// builds the companion digital-filter spectral fault test that runs
// through the analog front end.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"mstx/internal/campaign"
	"mstx/internal/digital"
	"mstx/internal/fault"
	"mstx/internal/msignal"
	"mstx/internal/params"
	"mstx/internal/path"
	"mstx/internal/spectest"
	"mstx/internal/translate"
)

// Synthesizer owns a path specification and derives test programs
// from it.
type Synthesizer struct {
	// Spec is the path specification under test.
	Spec path.Spec
	// Nominal is the nominal device built from Spec, used for
	// planning.
	Nominal *path.Path
	// Plan is the synthesized analog test plan (nil until Synthesize).
	Plan *translate.Plan
}

// New returns a Synthesizer for the specification.
func New(spec path.Spec) (*Synthesizer, error) {
	nominal, err := spec.Build()
	if err != nil {
		return nil, err
	}
	return &Synthesizer{Spec: spec, Nominal: nominal}, nil
}

// Synthesize builds and stores the analog-parameter test plan.
func (s *Synthesizer) Synthesize(reqs []translate.Request) (*translate.Plan, error) {
	if len(reqs) == 0 {
		reqs = translate.DefaultRequests(s.Nominal)
	}
	plan, err := translate.Synthesize(s.Nominal, reqs)
	if err != nil {
		return nil, err
	}
	s.Plan = plan
	return plan, nil
}

// Outcome is one executed planned test.
type Outcome struct {
	// Test is the planned test that ran.
	Test translate.PlannedTest
	// Result is the measurement (zero for Direct tests, which are
	// skipped with Skipped set).
	Result params.Result
	// Pass reports whether the measured value met the spec limit.
	Pass bool
	// Skipped is true for Direct (DFT-required) tests.
	Skipped bool
}

// Execute runs every translatable test of the plan against the given
// device instance and judges each measurement against its limit.
func (s *Synthesizer) Execute(device *path.Path, cfg params.Config, rng *rand.Rand) ([]Outcome, error) {
	if s.Plan == nil {
		return nil, fmt.Errorf("core: Synthesize before Execute")
	}
	if device == nil {
		return nil, fmt.Errorf("core: nil device")
	}
	var out []Outcome
	for _, t := range s.Plan.Tests {
		o := Outcome{Test: t}
		if t.Kind == translate.Direct {
			o.Skipped = true
			out = append(out, o)
			continue
		}
		res, err := s.measure(device, t, cfg, rng)
		if errors.Is(err, params.ErrUntranslatable) {
			// The planner judged this translatable for the nominal
			// device, but this instance buries the signal: fall back
			// to DFT for it.
			o.Skipped = true
			out = append(out, o)
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", t.Request.Param, err)
		}
		o.Result = res
		o.Pass = t.Request.Limit.Acceptable(res.Measured)
		out = append(out, o)
	}
	return out, nil
}

// measure dispatches one planned test to its procedure.
func (s *Synthesizer) measure(device *path.Path, t translate.PlannedTest, cfg params.Config, rng *rand.Rand) (params.Result, error) {
	switch t.Request.Param {
	case params.PathGain:
		return params.MeasurePathGain(device, cfg, rng)
	case params.MixerIIP3:
		return params.MeasureMixerIIP3(device, t.Method, params.DefaultIIP3Stimulus(), cfg, rng)
	case params.MixerP1dB:
		return params.MeasureMixerP1dB(device, t.Method, cfg, rng)
	case params.LPFCutoff:
		return params.MeasureLPFCutoff(device, cfg, rng)
	case params.DCOffset, params.ADCOffset:
		return params.MeasureDCOffset(device, cfg, rng)
	case params.LOFreqError:
		return params.MeasureLOFreqErrorFit(device, cfg, rng)
	case params.LOIsolation:
		return params.MeasureLOIsolation(device, cfg, rng)
	case params.GroupDelay:
		return params.MeasureGroupDelay(device, cfg, rng)
	case params.StopbandGain:
		return params.MeasureStopbandGain(device, cfg, rng)
	case params.DynamicRange:
		return params.MeasureDynamicRange(device, cfg, rng)
	case params.NoiseFigure, params.PathSNR:
		snr, err := params.MeasureSNRAtAmplitude(device, 0.004, cfg, rng)
		if err != nil {
			return params.Result{}, err
		}
		// Reported as the path SNR at the standard level; the NF/DR
		// composition judges this against the spec'd floor.
		return params.Result{
			Kind: t.Request.Param, Target: t.Request.Target, Method: t.Method,
			Measured: snr, True: snr, Unit: "dB",
		}, nil
	default:
		return params.Result{}, fmt.Errorf("no procedure for %q", t.Request.Param)
	}
}

// CheckBoundaries runs the plan's Figure 3 boundary checks on a
// device and reports whether each passed.
func (s *Synthesizer) CheckBoundaries(device *path.Path, cfg params.Config, rng *rand.Rand) ([]bool, error) {
	if s.Plan == nil {
		return nil, fmt.Errorf("core: Synthesize before CheckBoundaries")
	}
	var res []bool
	for _, b := range s.Plan.Boundary {
		switch b.Kind {
		case translate.SaturationCheck:
			small, err := params.MeasureGainAtAmplitude(device, 0.002, cfg, rng)
			if err != nil {
				return nil, err
			}
			big, err := params.MeasureGainAtAmplitude(device, b.PIAmplitude, cfg, rng)
			if err != nil {
				return nil, err
			}
			res = append(res, small-big <= b.MaxCompressionDB)
		default:
			sinad, err := params.MeasureSNRAtAmplitude(device, b.PIAmplitude, cfg, rng)
			if err != nil {
				return nil, err
			}
			res = append(res, sinad >= b.MinSINADdB)
		}
	}
	return res, nil
}

// DigitalTestOptions configures the spectral fault test of the
// digital filter.
type DigitalTestOptions struct {
	// Patterns is the record length (power of two).
	Patterns int
	// F1IF, F2IF are the two-tone IF frequencies (snapped to bins).
	F1IF, F2IF float64
	// ADCInAmp is the per-tone amplitude wanted at the converter
	// input, volts.
	ADCInAmp float64
	// CoeffFracBits quantizes the filter coefficients.
	CoeffFracBits int
	// DropLSBs truncates that many low bits off the gate-level
	// filter's output (typically CoeffFracBits, restoring the input
	// scale), as a fixed-point implementation would.
	DropLSBs int
	// GuardBins, MarginDB, FloorSafety parametrize the detector.
	GuardBins   int
	MarginDB    float64
	FloorSafety float64
	// Collapse applies structural fault collapsing.
	Collapse bool
	// Seed drives the realistic (noisy) calibration capture.
	Seed int64
}

// DefaultDigitalTestOptions returns the standard configuration:
// 4096 patterns, IF tones at ~0.9/1.1 MHz, 8 fractional coefficient
// bits, and a per-tone level of 0.32 V at the converter — the largest
// two-tone composite the mixer passes without hard clipping, given
// the filter's 6 dB pass-band gain.
func DefaultDigitalTestOptions() DigitalTestOptions {
	return DigitalTestOptions{
		Patterns:      4096,
		F1IF:          0.9e6,
		F2IF:          1.1e6,
		ADCInAmp:      0.32,
		CoeffFracBits: 8,
		DropLSBs:      8,
		GuardBins:     4,
		MarginDB:      3,
		FloorSafety:   1.5,
		Collapse:      true,
		Seed:          1,
	}
}

// DigitalTest is a ready-to-run spectral fault-simulation campaign
// for the path's digital filter.
type DigitalTest struct {
	// FIR is the gate-level filter under test.
	FIR *digital.FIR
	// Universe is the stuck-at fault list.
	Universe *fault.Universe
	// Detector is the calibrated spectral detector.
	Detector *spectest.Detector
	// IdealCodes is the ideal-stimulus input record (ADC codes).
	IdealCodes []int64
	// RealisticCodes is the noisy-front-end input record used for
	// calibration.
	RealisticCodes []int64
	// ToneFreqs are the stimulus IF frequencies.
	ToneFreqs []float64
}

// BuildDigitalTest constructs the gate-level filter from the spec's
// coefficients, generates the ideal and realistic stimulus records,
// and calibrates the spectral detector from the realistic fault-free
// capture — the full E8 setup.
func (s *Synthesizer) BuildDigitalTest(opts DigitalTestOptions) (*DigitalTest, error) {
	if opts.Patterns <= 0 {
		return nil, fmt.Errorf("core: pattern count %d must be positive", opts.Patterns)
	}
	ints, _, err := digital.QuantizeCoeffs(s.Spec.FilterCoeffs, opts.CoeffFracBits)
	if err != nil {
		return nil, err
	}
	fir, err := digital.NewFIRTruncated(ints, s.Spec.ADC.Bits, opts.DropLSBs)
	if err != nil {
		return nil, err
	}
	fs := s.Spec.ADCRate
	f1, f2, err := snapTones(fs, opts.Patterns, opts.F1IF, opts.F2IF)
	if err != nil {
		return nil, err
	}

	// Ideal stimulus: the exact two-tone at the converter input,
	// quantized by an ideal converter.
	ideal := msignal.NewTwoTone(f1, f2, opts.ADCInAmp)
	idealWave := ideal.Render(opts.Patterns, fs, nil)
	idealCodes := digital.QuantizeRecord(scaleRecord(idealWave, 1/s.Spec.ADC.FullScaleV), s.Spec.ADC.Bits)

	// Realistic capture: back-propagate the stimulus to the PI and run
	// the full noisy path on a sampled (process-varied) device.
	rng := rand.New(rand.NewSource(opts.Seed))
	device, err := s.Spec.Sample(rng)
	if err != nil {
		return nil, err
	}
	want := msignal.NewTwoTone(f1, f2, opts.ADCInAmp)
	stim, err := device.StimulusFor(want, path.StageADCIn)
	if err != nil {
		return nil, err
	}
	// Capture extra settle samples and discard them so the analog
	// filters' start-up transient does not pollute the record; the
	// tones stay on-bin because they are coherent over Patterns.
	const settle = 512
	capRec, err := device.Run(stim, opts.Patterns+settle, rng)
	if err != nil {
		return nil, err
	}
	realCodes := capRec.Codes[settle:]

	u := fault.NewUniverse(fir, opts.Collapse)

	// Reference: gate-level good machine on the ideal codes
	// (steady-state periodic response, as in the fault campaigns).
	sim := digital.NewFIRSim(fir)
	goodIdeal, err := sim.RunPeriodic(idealCodes)
	if err != nil {
		return nil, err
	}
	det, err := spectest.NewDetector(goodIdeal, fs, []float64{f1, f2},
		opts.GuardBins, 0, opts.MarginDB)
	if err != nil {
		return nil, err
	}
	// Known deterministic front-end features land at fixed bins whose
	// level varies device to device: the SC clock feed-through and the
	// LO leakage, both aliased into the first Nyquist zone.
	det.ExcludeFrequency(dspAlias(s.Spec.LPF.ClockHz, fs))
	det.ExcludeFrequency(dspAlias(s.Spec.LO.FreqHz.Nominal, fs))
	// Calibrate against the gate-level response to the realistic
	// capture.
	sim2 := digital.NewFIRSim(fir)
	goodReal, err := sim2.RunPeriodic(realCodes)
	if err != nil {
		return nil, err
	}
	if err := det.CalibrateFloor(goodReal, opts.FloorSafety); err != nil {
		return nil, err
	}
	return &DigitalTest{
		FIR:            fir,
		Universe:       u,
		Detector:       det,
		IdealCodes:     idealCodes,
		RealisticCodes: realCodes,
		ToneFreqs:      []float64{f1, f2},
	}, nil
}

// RunExact runs the campaign with the ideal-input, exact-compare
// detector (the known-input digital test baseline) on the pooled
// campaign engine.
func (dt *DigitalTest) RunExact() (*fault.Report, error) {
	return dt.RunExactOpts(context.Background(), campaign.Options{})
}

// RunExactOpts is RunExact with the engine's pipeline and resilience
// options (worker counts, checkpoint/resume, quarantine) under ctx.
// Cancellation is honored at batch granularity and surfaces as a
// typed resilient.ErrCanceled/ErrDeadline with a partial report.
func (dt *DigitalTest) RunExactOpts(ctx context.Context, opts campaign.Options) (*fault.Report, error) {
	eng, err := campaign.New(dt.Universe, fault.ExactDetector{}, opts)
	if err != nil {
		return nil, err
	}
	rep, _, err := eng.Run(ctx, dt.IdealCodes)
	return rep, err
}

// RunSpectral runs the campaign with the calibrated spectral detector
// on the realistic front-end capture — the paper's translated digital
// test. It executes on the pooled campaign engine (pipelined 63-lane
// record generation, per-worker FFT scratch, zero-diff screening); the
// report is identical to the serial reference path.
func (dt *DigitalTest) RunSpectral() (*fault.Report, error) {
	rep, _, err := dt.RunSpectralStats()
	return rep, err
}

// RunSpectralStats is RunSpectral, also returning the engine's
// pipeline statistics (batches, screened lanes, spectra computed).
func (dt *DigitalTest) RunSpectralStats() (*fault.Report, *campaign.Stats, error) {
	return dt.RunSpectralOpts(context.Background(), campaign.Options{})
}

// RunSpectralOpts runs the spectral campaign on the pooled engine with
// the caller's pipeline and resilience options (worker counts,
// checkpoint/resume, quarantine) under ctx. The report is identical to
// RunSpectral's for any option set that completes the run.
func (dt *DigitalTest) RunSpectralOpts(ctx context.Context, opts campaign.Options) (*fault.Report, *campaign.Stats, error) {
	eng, err := campaign.New(dt.Universe, dt.Detector, opts)
	if err != nil {
		return nil, nil, err
	}
	return eng.Run(ctx, dt.RealisticCodes)
}

func dspAlias(f, fs float64) float64 {
	f = math.Abs(f)
	f = math.Mod(f, fs)
	if f > fs/2 {
		f = fs - f
	}
	return f
}

func snapBin(fs float64, n int, f float64) int {
	bin := int(math.Round(f * float64(n) / fs))
	if bin < 1 {
		bin = 1
	}
	return bin
}

// snapTones snaps the two IF tones to coherent bins while keeping them
// distinct: with short records or close IF frequencies both tones can
// round to the same bin, which degenerates the two-tone stimulus into
// a single tone and double-excludes its guard band. On collision the
// second tone is nudged to the adjacent bin (away from DC/Nyquist);
// when no distinct in-band bin exists the record is too short for a
// two-tone test and an error is returned.
func snapTones(fs float64, n int, fa, fb float64) (float64, float64, error) {
	maxBin := n/2 - 1 // strictly below Nyquist
	ka := snapBin(fs, n, fa)
	kb := snapBin(fs, n, fb)
	if ka == kb {
		if fb >= fa {
			kb = ka + 1
		} else {
			kb = ka - 1
		}
		if kb < 1 || kb > maxBin {
			// Nudge the other way before giving up.
			kb = 2*ka - kb
		}
	}
	if ka < 1 || ka > maxBin || kb < 1 || kb > maxBin || ka == kb {
		return 0, 0, fmt.Errorf(
			"core: IF tones %g and %g Hz collapse onto bin %d of the %d-point record (fs %g Hz); no distinct in-band bins",
			fa, fb, ka, n, fs)
	}
	return float64(ka) * fs / float64(n), float64(kb) * fs / float64(n), nil
}

func scaleRecord(xs []float64, g float64) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = v * g
	}
	return out
}
