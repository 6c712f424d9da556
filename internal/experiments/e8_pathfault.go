package experiments

import (
	"context"
	"fmt"

	"mstx/internal/campaign"
	"mstx/internal/core"
	"mstx/internal/dsp"
	"mstx/internal/fault"
	"mstx/internal/obs"
	"mstx/internal/resilient"
)

// PathFaultRow is one campaign of the E8 study.
type PathFaultRow struct {
	// Label names the campaign.
	Label string
	// Patterns is the record length.
	Patterns int
	// Coverage is the stuck-at coverage, percent.
	Coverage float64
	// Detected and Total count faults.
	Detected, Total int
}

// PathFaultResult reproduces the paper's §5 digital-filter experiment:
// the 13-tap filter is tested through the analog front end with a
// two-tone stimulus; exact-compare coverage with ideal inputs is the
// baseline, spectral-signature coverage through the noisy analog path
// drops, and repeating with more patterns recovers part of the loss.
// The input-signal SFDR/SNR and the LSB confinement of the surviving
// faults are reported alongside, matching the in-text numbers'
// structure (paper: two-tone 95.5% ideal; 62 dB SFDR / 72 dB SNR at
// the filter input; spectral coverage rising to 81.4% with 8192
// patterns; residual faults within the 5 LSBs).
type PathFaultResult struct {
	Rows []PathFaultRow
	// InputSFDRdB and InputSNRdB characterize the realistic stimulus
	// at the filter input.
	InputSFDRdB, InputSNRdB float64
	// LSBConfined is the fraction of spectrally-undetected faults
	// whose output perturbation stays within the 5 LSBs.
	LSBConfined float64
	// UniverseSize is the collapsed fault count.
	UniverseSize int
	// ScreenedLanes, MemoizedLanes and SpectraComputed report the
	// long-record campaign engine's transform reuse: lanes resolved by
	// the zero-diff screen, lanes resolved by record-verdict
	// memoization, and spectral evaluations actually performed.
	ScreenedLanes, MemoizedLanes, SpectraComputed int
}

// PathFaultOptions configures the campaign sizes.
type PathFaultOptions struct {
	// BasePatterns is the short-record length. Default 1024.
	BasePatterns int
	// LongPatterns is the long-record length. Default 4096.
	LongPatterns int
	// Seed drives the noisy capture.
	Seed int64
	// Ctx, when non-nil, bounds the study: cancellation/deadline is
	// honored at campaign-batch granularity and surfaces as a typed
	// resilient.ErrCanceled/ErrDeadline.
	Ctx context.Context
	// Checkpoint, when enabled, snapshots each campaign's batch ledger
	// (names "e8_exact", "e8_short", "e8_long") so a killed study
	// resumes with a bit-identical report.
	Checkpoint *resilient.Checkpointer
}

// PathFaultSim runs the three campaigns.
func PathFaultSim(opts PathFaultOptions) (*PathFaultResult, error) {
	if opts.BasePatterns == 0 {
		opts.BasePatterns = 1024
	}
	if opts.LongPatterns == 0 {
		opts.LongPatterns = 4096
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	spec, err := BuildDefaultSpec()
	if err != nil {
		return nil, err
	}
	synth, err := core.New(spec)
	if err != nil {
		return nil, err
	}
	res := &PathFaultResult{}
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	// Observability: one child span per campaign of the study, so the
	// trace shows where an E8 run spends its time (the long-record
	// spectral campaign dominates).
	e8Ctx, e8Sp := obs.Span(ctx, "e8.pathfault")
	defer e8Sp.End()

	build := func(patterns int) (*core.DigitalTest, error) {
		o := core.DefaultDigitalTestOptions()
		o.Patterns = patterns
		o.Seed = opts.Seed
		return synth.BuildDigitalTest(o)
	}

	// Baseline: exact compare with ideal inputs, long record.
	dtLong, err := build(opts.LongPatterns)
	if err != nil {
		return nil, err
	}
	res.UniverseSize = dtLong.Universe.Size()
	_, exactSp := obs.Span(e8Ctx, "e8.exact")
	exact, err := dtLong.RunExactOpts(ctx,
		campaign.Options{Checkpoint: opts.Checkpoint, CheckpointName: "e8_exact"})
	exactSp.End()
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, PathFaultRow{
		Label: "exact compare, ideal input", Patterns: opts.LongPatterns,
		Coverage: exact.Coverage(), Detected: exact.Detected(), Total: len(exact.Results),
	})

	// Spectral with the short record.
	dtShort, err := build(opts.BasePatterns)
	if err != nil {
		return nil, err
	}
	_, shortSp := obs.Span(e8Ctx, "e8.spectral_short")
	short, _, err := dtShort.RunSpectralOpts(ctx,
		campaign.Options{Checkpoint: opts.Checkpoint, CheckpointName: "e8_short"})
	shortSp.End()
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, PathFaultRow{
		Label: "spectral, through analog path", Patterns: opts.BasePatterns,
		Coverage: short.Coverage(), Detected: short.Detected(), Total: len(short.Results),
	})

	// Spectral with the long record, through the pooled campaign
	// engine (its report is identical to the serial path; the stats
	// show how much transform work the zero-diff screen removed).
	_, longSp := obs.Span(e8Ctx, "e8.spectral_long")
	long, stats, err := dtLong.RunSpectralOpts(ctx,
		campaign.Options{Checkpoint: opts.Checkpoint, CheckpointName: "e8_long"})
	longSp.End()
	if err != nil {
		return nil, err
	}
	res.ScreenedLanes = stats.Screened
	res.MemoizedLanes = stats.Memoized
	res.SpectraComputed = stats.Spectra
	res.Rows = append(res.Rows, PathFaultRow{
		Label: "spectral, 4x patterns", Patterns: opts.LongPatterns,
		Coverage: long.Coverage(), Detected: long.Detected(), Total: len(long.Results),
	})

	// Input-signal quality at the filter input (the realistic codes).
	rec := make([]float64, len(dtLong.RealisticCodes))
	for i, c := range dtLong.RealisticCodes {
		rec[i] = float64(c)
	}
	an, err := dsp.Analyze(rec, spec.ADCRate, dtLong.ToneFreqs, dsp.Rectangular,
		dsp.AnalyzeOptions{})
	if err != nil {
		return nil, err
	}
	res.InputSFDRdB = an.SFDR
	res.InputSNRdB = an.SNR

	// LSB confinement of the spectrally-undetected faults, measured on
	// the exact records (paper: undetected faults scattered within the
	// 5 least-significant bits).
	und := undetectedOf(long, exact)
	res.LSBConfined = fault.LSBConfinement(und, 5)
	return res, nil
}

// undetectedOf returns the exact-campaign results (which carry
// MaxAbsDiff on the ideal input) for the faults the spectral campaign
// missed.
func undetectedOf(spectral, exact *fault.Report) []fault.Result {
	missed := make(map[string]bool)
	for _, r := range spectral.Results {
		if !r.Detected {
			missed[r.Fault.String()] = true
		}
	}
	var out []fault.Result
	for _, r := range exact.Results {
		if missed[r.Fault.String()] {
			out = append(out, r)
		}
	}
	return out
}

// Format renders the campaign table plus the input-quality summary.
func (r *PathFaultResult) Format() string {
	rows := [][]string{{"campaign", "patterns", "coverage", "detected", "faults"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Label, fmt.Sprintf("%d", row.Patterns),
			fmt.Sprintf("%.1f%%", row.Coverage),
			fmt.Sprintf("%d", row.Detected), fmt.Sprintf("%d", row.Total),
		})
	}
	out := table(rows)
	out += fmt.Sprintf("\nfilter-input signal: SFDR %.1f dB, SNR %.1f dB\n", r.InputSFDRdB, r.InputSNRdB)
	out += fmt.Sprintf("%s of spectrally-undetected faults confined to the 5 LSBs\n", fpct(r.LSBConfined))
	out += fmt.Sprintf("collapsed stuck-at universe: %d faults\n", r.UniverseSize)
	out += fmt.Sprintf("campaign engine (long record): %d lanes zero-diff screened, %d memoized, %d spectra computed\n",
		r.ScreenedLanes, r.MemoizedLanes, r.SpectraComputed)
	return out
}
