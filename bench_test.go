// Benchmarks regenerating every table and figure of the paper, plus
// the ablation studies called out in DESIGN.md. Each benchmark runs
// the corresponding experiment at a laptop-friendly size and reports
// its headline metric via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// doubles as the reproduction harness. cmd/experiments prints the
// full tables at the default sizes.
package mstx_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"mstx/internal/campaign"
	"mstx/internal/core"
	"mstx/internal/digital"
	"mstx/internal/dsp"
	"mstx/internal/experiments"
	"mstx/internal/fault"
	"mstx/internal/obs"
	"mstx/internal/params"
	"mstx/internal/soc"
	"mstx/internal/tolerance"
)

// BenchmarkFig1Spectra regenerates Figure 1: output spectra of the
// 16-tap filter, fault-free and with three injected stuck-at faults.
// Reported metric: spurs above -60 dBc created by the tap-2 fault.
func BenchmarkFig1Spectra(b *testing.B) {
	var spurs int
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1(experiments.Fig1Options{Patterns: 1024})
		if err != nil {
			b.Fatal(err)
		}
		spurs = res.Series[1].SpurCount(res.ToneBin, -60)
	}
	b.ReportMetric(float64(spurs), "spurs>-60dBc")
}

// BenchmarkTonesVsCoverage regenerates the §3 in-text result: fault
// coverage of the 16-tap filter vs. the number of stimulus tones
// (paper: 89.6% one tone, 95.5% two tones). Reported metrics: the
// single- and two-tone coverages.
func BenchmarkTonesVsCoverage(b *testing.B) {
	var c1, c2 float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.CoverageVsTones(experiments.TonesOptions{Patterns: 512, MaxTones: 2})
		if err != nil {
			b.Fatal(err)
		}
		c1, c2 = res.Rows[0].Coverage, res.Rows[1].Coverage
	}
	b.ReportMetric(c1, "%cov-1tone")
	b.ReportMetric(c2, "%cov-2tone")
}

// BenchmarkFig2Distribution regenerates Figure 2: the parameter pdf
// with its FC-loss and yield-loss masses. Reported metrics: FCL and
// YL percent at the nominal threshold.
func BenchmarkFig2Distribution(b *testing.B) {
	var fcl, yl float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig2(experiments.DefaultFig2Options())
		if err != nil {
			b.Fatal(err)
		}
		fcl, yl = res.Losses.FCL, res.Losses.YL
	}
	b.ReportMetric(100*fcl, "%FCL")
	b.ReportMetric(100*yl, "%YL")
}

// BenchmarkFig3Boundary regenerates Figure 3: the masked-gain-error
// scenarios against the composition boundary checks. Reported metric:
// how many of the two fault scenarios the checks caught.
func BenchmarkFig3Boundary(b *testing.B) {
	var caught int
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3()
		if err != nil {
			b.Fatal(err)
		}
		caught = 0
		if !res.Scenarios[1].SaturationPass {
			caught++
		}
		if !res.Scenarios[2].NoisePass {
			caught++
		}
	}
	b.ReportMetric(float64(caught), "caught/2")
}

// BenchmarkFig4Adaptive regenerates Figure 4: IIP3 measurement error
// by translation method over a Monte-Carlo device population.
// Reported metrics: RMS error (dB) for nominal-gains and adaptive.
func BenchmarkFig4Adaptive(b *testing.B) {
	var nom, ada float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(experiments.Fig4Options{Devices: 10, N: 1024})
		if err != nil {
			b.Fatal(err)
		}
		nom = res.RMSByMethod(params.NominalGains)
		ada = res.RMSByMethod(params.Adaptive)
	}
	b.ReportMetric(nom, "dB-rms-nominal")
	b.ReportMetric(ada, "dB-rms-adaptive")
}

// BenchmarkTable2 regenerates Table 2: FCL/YL at the Tol / Tol−Err /
// Tol+Err thresholds for P1dB, IIP3 and fc, with the measurement
// error taken from live Monte-Carlo runs of the procedures.
// Reported metrics: IIP3 FCL percent at Tol and at Tol+Err.
func BenchmarkTable2(b *testing.B) {
	var atTol, atLoose float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(experiments.Table2Options{Devices: 6, N: 1024})
		if err != nil {
			b.Fatal(err)
		}
		atTol = res.Rows[1].Sweep[0].Losses.FCL
		atLoose = res.Rows[1].Sweep[2].Losses.FCL
	}
	b.ReportMetric(100*atTol, "%FCL-IIP3-Tol")
	b.ReportMetric(100*atLoose, "%FCL-IIP3-Tol+Err")
}

// BenchmarkTable1Plan regenerates Table 1: the synthesized test plan.
// Reported metric: how many of the requested parameters translate
// (do not need DFT).
func BenchmarkTable1Plan(b *testing.B) {
	var translated int
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		translated = len(res.Plan.Tests) - len(res.Plan.DFTRequired)
	}
	b.ReportMetric(float64(translated), "translated")
}

// BenchmarkFig6PathFaultSim regenerates the §5 digital-filter
// experiment: exact coverage with ideal inputs vs. spectral coverage
// through the noisy analog path at two pattern counts. Reported
// metrics: the three coverages.
func BenchmarkFig6PathFaultSim(b *testing.B) {
	var exact, short, long float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.PathFaultSim(experiments.PathFaultOptions{
			BasePatterns: 512, LongPatterns: 2048,
		})
		if err != nil {
			b.Fatal(err)
		}
		exact = res.Rows[0].Coverage
		short = res.Rows[1].Coverage
		long = res.Rows[2].Coverage
	}
	b.ReportMetric(exact, "%cov-exact")
	b.ReportMetric(short, "%cov-spectral")
	b.ReportMetric(long, "%cov-spectral-4x")
}

// BenchmarkFig6AttributeWalk regenerates Figure 6: the attribute
// propagation along the experimental set-up. Reported metric: the
// amplitude accuracy (percent) accumulated at the converter input.
func BenchmarkFig6AttributeWalk(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		acc = res.Stages[3].Signal.AmpAccuracy
	}
	b.ReportMetric(100*acc, "%amp-accuracy")
}

// --- Ablations (DESIGN.md §5) ---

// benchFIR builds the standard small ablation filter.
func benchFIR(b *testing.B) *digital.FIR {
	b.Helper()
	coeffs, err := digital.DesignLowPassFIR(13, 0.18, dsp.Hamming)
	if err != nil {
		b.Fatal(err)
	}
	ints, _, err := digital.QuantizeCoeffs(coeffs, 8)
	if err != nil {
		b.Fatal(err)
	}
	fir, err := digital.NewFIR(ints, 10)
	if err != nil {
		b.Fatal(err)
	}
	return fir
}

func benchRecord(n int) []int64 {
	xs := make([]int64, n)
	for i := range xs {
		ph := 2 * math.Pi * float64(i) / float64(n)
		xs[i] = int64(math.Round(230*math.Sin(33*ph) + 230*math.Sin(47*ph)))
	}
	return xs
}

// exactCampaign runs the exact-compare campaign on the pooled engine.
func exactCampaign(b *testing.B, u *fault.Universe, xs []int64) {
	eng, err := campaign.New(u, fault.ExactDetector{}, campaign.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := eng.Run(context.Background(), xs); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFaultSimParallel measures the 63-fault-per-pass campaign
// engine with the exact detector (compare with
// BenchmarkFaultSimSerial).
func BenchmarkFaultSimParallel(b *testing.B) {
	fir := benchFIR(b)
	u := fault.NewUniverse(fir, true)
	// Limit to one batch worth of faults so serial/parallel compare
	// the same work.
	u.Faults = u.Faults[:63]
	xs := benchRecord(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exactCampaign(b, u, xs)
	}
}

// BenchmarkFaultSimSerial is the one-fault-at-a-time baseline.
func BenchmarkFaultSimSerial(b *testing.B) {
	fir := benchFIR(b)
	u := fault.NewUniverse(fir, true)
	u.Faults = u.Faults[:63]
	xs := benchRecord(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fault.SerialSimulate(u, xs, fault.ExactDetector{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultCollapse measures structural equivalence collapsing
// and reports the reduction ratio.
func BenchmarkFaultCollapse(b *testing.B) {
	fir := benchFIR(b)
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		full := fault.NewUniverse(fir, false)
		coll := fault.NewUniverse(fir, true)
		ratio = float64(coll.Size()) / float64(full.Size())
	}
	b.ReportMetric(ratio, "collapsed/full")
}

// BenchmarkFFTvsGoertzelFFT measures full-spectrum FFT tone
// measurement (compare with BenchmarkFFTvsGoertzelGoertzel for the
// sparse two-bin case).
func BenchmarkFFTvsGoertzelFFT(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 4096)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := dsp.PowerSpectrum(x, 1e6, dsp.Rectangular)
		if err != nil {
			b.Fatal(err)
		}
		_ = s.Power[100] + s.Power[200]
	}
}

// BenchmarkFFTvsGoertzelGoertzel measures two Goertzel bins directly.
func BenchmarkFFTvsGoertzelGoertzel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 4096)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = dsp.GoertzelPower(x, 100) + dsp.GoertzelPower(x, 200)
	}
}

// BenchmarkLossAnalyticVsMC compares the closed-form loss integration
// against Monte Carlo at matched accuracy (the analytic path is what
// the planner uses). Reported metric: |analytic − MC| on FCL.
func BenchmarkLossAnalyticVsMC(b *testing.B) {
	p := tolerance.Normal{Mean: 10, Sigma: 1}
	e := tolerance.Normal{Sigma: 0.4}
	spec := tolerance.LowerLimit(8.5)
	var gap float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an := tolerance.AnalyticLosses(p, e, spec, spec)
		mc, err := tolerance.MonteCarloLosses(context.Background(), p, e, spec, spec, 50000, 2, tolerance.MCOptions{})
		if err != nil {
			b.Fatal(err)
		}
		gap = math.Abs(an.FCL - mc.FCL)
	}
	b.ReportMetric(gap, "FCL-gap")
}

// mcLossesCase is the shared 400k-sample workload of the MCLosses
// benchmark pair: an IIP3-like lower-bound spec with measurement
// error, the configuration the translate layer estimates all day.
func mcLossesCase() (p, e tolerance.Normal, spec tolerance.SpecLimit, n int) {
	return tolerance.Normal{Mean: 10, Sigma: 1},
		tolerance.Normal{Sigma: 0.3},
		tolerance.LowerLimit(8.5),
		400000
}

// BenchmarkMCLossesEngine measures the sharded Monte-Carlo engine on
// the 400k-sample loss estimation with confidence-interval early
// stopping at an explicit ±0.01 absolute 95% half-width on both FCL
// and YL (threshold decisions in the planner are made at percent
// scale). Reported metrics: samples/s — requested samples over wall
// time, the planner-visible effective throughput: the engine resolves
// the estimate to the CI target after a fraction of the requested
// draws, and the worker pool multiplies the rate further on multi-core
// hosts — and the draws actually spent, so the early-stop fraction is
// visible. Compare BenchmarkMCLossesSerial, which draws all 400k;
// bit-identity between the two paths at equal options is pinned by
// TestParallelBitIdenticalToSerial.
func BenchmarkMCLossesEngine(b *testing.B) {
	p, e, spec, n := mcLossesCase()
	opts := tolerance.MCOptions{CheckEvery: 2, TargetHalfWidth: 0.01}
	var drawn int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est, err := tolerance.MonteCarloLosses(context.Background(), p, e, spec, spec, n, 41, opts)
		if err != nil {
			b.Fatal(err)
		}
		drawn = est.Samples
	}
	b.StopTimer()
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
	b.ReportMetric(float64(drawn), "drawn")
}

// BenchmarkMCLossesSerial is the serial reference path over the same
// 400k-sample case, every sample drawn. Reported metric: samples/s.
func BenchmarkMCLossesSerial(b *testing.B) {
	p, e, spec, n := mcLossesCase()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tolerance.SerialMonteCarloLosses(p, e, spec, spec, n, 41, tolerance.MCOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkFIRBuildBinary builds the 13-tap gate-level filter with
// plain binary shift-add multipliers and reports its gate count
// (compare with BenchmarkFIRBuildCSD).
func BenchmarkFIRBuildBinary(b *testing.B) {
	coeffs, err := digital.DesignLowPassFIR(13, 0.18, dsp.Hamming)
	if err != nil {
		b.Fatal(err)
	}
	ints, _, err := digital.QuantizeCoeffs(coeffs, 8)
	if err != nil {
		b.Fatal(err)
	}
	var gates int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fir, err := digital.NewFIR(ints, 12)
		if err != nil {
			b.Fatal(err)
		}
		gates = fir.Circuit.NumGates()
	}
	b.ReportMetric(float64(gates), "gates")
}

// BenchmarkFIRBuildCSD is the canonical-signed-digit variant of the
// same filter. Note the honest ablation outcome: windowed-sinc
// coefficients are already sparse, so CSD's subtractor overhead can
// cost more gates than it saves (it wins on dense constants — see
// TestMulConstCSDFewerGatesForDenseConstants).
func BenchmarkFIRBuildCSD(b *testing.B) {
	coeffs, err := digital.DesignLowPassFIR(13, 0.18, dsp.Hamming)
	if err != nil {
		b.Fatal(err)
	}
	ints, _, err := digital.QuantizeCoeffs(coeffs, 8)
	if err != nil {
		b.Fatal(err)
	}
	var gates int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fir, err := digital.NewFIRWithOptions(ints, 12, digital.FIROptions{UseCSD: true})
		if err != nil {
			b.Fatal(err)
		}
		gates = fir.Circuit.NumGates()
	}
	b.ReportMetric(float64(gates), "gates")
}

// BenchmarkTopOff runs the E10 ATPG classification at reduced size
// and reports the effective coverage after excluding provably
// redundant faults.
func BenchmarkTopOff(b *testing.B) {
	var eff float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.TopOff(experiments.TopOffOptions{Patterns: 128, Taps: 5, MaxBacktracks: 800})
		if err != nil {
			b.Fatal(err)
		}
		eff = res.EffectiveCoverage
	}
	b.ReportMetric(eff, "%cov-effective")
}

// BenchmarkSeqFIRStep measures the fully-sequential (in-netlist delay
// registers) FIR realization per clocked sample (compare with
// BenchmarkCombFIRStep).
func BenchmarkSeqFIRStep(b *testing.B) {
	coeffs, err := digital.DesignLowPassFIR(13, 0.18, dsp.Hamming)
	if err != nil {
		b.Fatal(err)
	}
	ints, _, err := digital.QuantizeCoeffs(coeffs, 8)
	if err != nil {
		b.Fatal(err)
	}
	fir, err := digital.NewSeqFIR(ints, 10, 0)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := digital.NewSeqFIRSim(fir)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Step(int64(i % 512)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCombFIRStep is the combinational wrapper baseline.
func BenchmarkCombFIRStep(b *testing.B) {
	fir := benchFIR(b)
	sim := digital.NewFIRSim(fir)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Step(int64(i % 512)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSineFit4 measures the IEEE-1057 four-parameter fit on a
// 4096-point record and reports the recovered frequency error.
func BenchmarkSineFit4(b *testing.B) {
	fs := 8e6
	n := 4096
	trueF := 1.0001e6
	x := make([]float64, n)
	for i := range x {
		x[i] = 0.5 * math.Cos(2*math.Pi*trueF*float64(i)/fs)
	}
	var ferr float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := dsp.SineFit4(x, fs, 1.0e6, 12)
		if err != nil {
			b.Fatal(err)
		}
		ferr = math.Abs(res.Frequency - trueF)
	}
	b.ReportMetric(ferr, "Hz-err")
}

// BenchmarkDetectOnly measures the early-abort exact campaign
// (compare with BenchmarkSimulateFull over the same universe).
func BenchmarkDetectOnly(b *testing.B) {
	fir := benchFIR(b)
	u := fault.NewUniverse(fir, true)
	xs := benchRecord(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fault.DetectOnly(u, xs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateFull is the diagnostic-complete campaign baseline
// for BenchmarkDetectOnly: the exact campaign on the pooled engine.
func BenchmarkSimulateFull(b *testing.B) {
	fir := benchFIR(b)
	u := fault.NewUniverse(fir, true)
	xs := benchRecord(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exactCampaign(b, u, xs)
	}
}

// benchDigitalTest builds the default E8 digital test (13-tap filter
// behind the analog front end, calibrated spectral detector) once for
// the spectral-campaign benchmark pair.
func benchDigitalTest(b *testing.B, patterns int) *core.DigitalTest {
	b.Helper()
	spec, err := experiments.BuildDefaultSpec()
	if err != nil {
		b.Fatal(err)
	}
	synth, err := core.New(spec)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.DefaultDigitalTestOptions()
	opts.Patterns = patterns
	dt, err := synth.BuildDigitalTest(opts)
	if err != nil {
		b.Fatal(err)
	}
	return dt
}

// BenchmarkSpectralCampaign measures the pooled campaign engine on the
// default E8 universe: pipelined 63-lane record generation feeding
// spectral-detection workers with reusable FFT scratch and the
// zero-diff screen (compare with BenchmarkSpectralCampaignSeed).
// Reported metrics: faults simulated per second and the fraction of
// lanes the screen resolved without a transform.
func BenchmarkSpectralCampaign(b *testing.B) {
	dt := benchDigitalTest(b, 1024)
	var screened float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats, err := dt.RunSpectralStats()
		if err != nil {
			b.Fatal(err)
		}
		screened = float64(stats.Screened) / float64(stats.Faults)
	}
	b.StopTimer()
	faults := float64(dt.Universe.Size()) * float64(b.N)
	b.ReportMetric(faults/b.Elapsed().Seconds(), "faults/s")
	b.ReportMetric(100*screened, "%screened")
}

// --- Campaign stages (ROADMAP item 2) ---
//
// The per-stage split of a campaign job: the stimulus build every job
// pays (hit or miss), the engine's one fault-free baseline capture,
// and one 63-lane cone-replay batch, of which a 1024-pattern campaign
// runs ~20.

// BenchmarkBuildDigitalTest measures core.BuildDigitalTest at 512
// patterns: filter construction, stimulus and noisy capture, and the
// two good-machine runs that set up and calibrate the detector.
func BenchmarkBuildDigitalTest(b *testing.B) {
	spec, err := experiments.BuildDefaultSpec()
	if err != nil {
		b.Fatal(err)
	}
	synth, err := core.New(spec)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.DefaultDigitalTestOptions()
	opts.Patterns = 512
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := synth.BuildDigitalTest(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCaptureBaseline measures the campaign's fault-free baseline
// capture (good record plus one packed net snapshot per step) over the
// default 1024-pattern realistic record.
func BenchmarkCaptureBaseline(b *testing.B) {
	dt := benchDigitalTest(b, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := digital.NewFIRSim(dt.FIR).CaptureBaseline(dt.RealisticCodes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecordsFromBaseline measures one 63-fault batch of cone
// replay against that baseline: the record-generation stage of the
// campaign pipeline.
func BenchmarkRecordsFromBaseline(b *testing.B) {
	dt := benchDigitalTest(b, 1024)
	base, err := digital.NewFIRSim(dt.FIR).CaptureBaseline(dt.RealisticCodes)
	if err != nil {
		b.Fatal(err)
	}
	batch := dt.Universe.Faults[:63]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fault.RecordsFromBaseline(dt.Universe, base, batch); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSOC builds the default four-core SOC once for the scheduling
// benchmark pair.
func benchSOC(b *testing.B) *soc.SOC {
	b.Helper()
	s, err := soc.Default()
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkSOCSchedule measures the E9 TAM sweep — width lanes 1..32
// optimized concurrently on the engine worker pool (compare with
// BenchmarkSOCScheduleSerial). Reported metric: the makespan found at
// the widest bus, in kilocycles.
func BenchmarkSOCSchedule(b *testing.B) {
	s := benchSOC(b)
	var makespan int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sch, err := soc.Plan(context.Background(), s, 32, soc.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		makespan = sch.Makespan
	}
	b.ReportMetric(float64(makespan)/1e3, "kcycles")
}

// BenchmarkSOCScheduleSerial runs the same sweep on one worker.
func BenchmarkSOCScheduleSerial(b *testing.B) {
	s := benchSOC(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := soc.Plan(context.Background(), s, 32, soc.Options{Seed: 1, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Observability overhead (DESIGN.md §8) ---
//
// The obs layer's contract is zero overhead when disabled: every
// instrumented engine resolves its handles once per run and a nil
// registry turns all of them into no-ops. The Off/On pairs below pin
// that — Off must match the uninstrumented baselines above within
// noise (<3%), On shows the full-instrumentation price.

// BenchmarkCampaignObsOff runs the pooled spectral campaign with
// observability disabled (the default state).
func BenchmarkCampaignObsOff(b *testing.B) {
	obs.SetDefault(nil)
	dt := benchDigitalTest(b, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := dt.RunSpectralStats(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignObsOn is the same campaign with a live registry:
// spans, counters, verdict-latency histogram and worker-utilization
// accounting all active.
func BenchmarkCampaignObsOn(b *testing.B) {
	obs.SetDefault(obs.New())
	defer obs.SetDefault(nil)
	dt := benchDigitalTest(b, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := dt.RunSpectralStats(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMCObsOff runs the sharded Monte-Carlo loss estimate with
// observability disabled, spending the full 400k-draw budget (no early
// stop) so the workload is identical across runs.
func BenchmarkMCObsOff(b *testing.B) {
	obs.SetDefault(nil)
	p, e, spec, n := mcLossesCase()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tolerance.MonteCarloLosses(context.Background(), p, e, spec, spec, n, 41, tolerance.MCOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkMCObsOn is the same estimate with a live registry: run
// span, per-round barrier/merge histograms and the engine counters.
func BenchmarkMCObsOn(b *testing.B) {
	obs.SetDefault(obs.New())
	defer obs.SetDefault(nil)
	p, e, spec, n := mcLossesCase()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tolerance.MonteCarloLosses(context.Background(), p, e, spec, spec, n, 41, tolerance.MCOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkSpectralCampaignSeed is the same campaign with the engine's
// campaign-level reuses switched off — the work of the seed path: a
// full-netlist 63-lane pass per batch and a transform of every lane,
// with no zero-diff screen and no memo. The per-worker FFT scratch
// stays, so no lane allocates a window table.
func BenchmarkSpectralCampaignSeed(b *testing.B) {
	dt := benchDigitalTest(b, 1024)
	opts := campaign.Options{DisableScreen: true, DisableDifferential: true, DisableMemo: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := dt.RunSpectralOpts(context.Background(), opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	faults := float64(dt.Universe.Size()) * float64(b.N)
	b.ReportMetric(faults/b.Elapsed().Seconds(), "faults/s")
}
