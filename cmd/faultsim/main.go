// Command faultsim runs a stand-alone gate-level stuck-at fault
// simulation of a low-pass FIR filter with a multi-tone stimulus and
// exact output comparison — the ideal-input digital-test baseline of
// the paper.
//
// Usage:
//
//	faultsim [-taps 16] [-width 10] [-patterns 1024] [-tones 2]
//	         [-amp 460] [-collapse] [-undetected] [-spectral]
//	         [-checkpoint dir] [-checkpoint-every n] [-resume]
//	         [-timeout d]
//
// The -checkpoint/-resume/-timeout flags are the run-control half of
// the shared cmd/internal/runflags set; an interrupted campaign
// reports its partial results.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"

	"mstx/cmd/internal/runflags"
	"mstx/internal/atpg"
	"mstx/internal/campaign"
	"mstx/internal/digital"
	"mstx/internal/dsp"
	"mstx/internal/fault"
	"mstx/internal/netlist"
	"mstx/internal/resilient"
	"mstx/internal/spectest"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process edges (args, stdout, stderr, exit
// code) injected, so the CLI surface is testable in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("faultsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		taps       = fs.Int("taps", 16, "filter length")
		width      = fs.Int("width", 10, "input word width (bits)")
		patterns   = fs.Int("patterns", 1024, "record length")
		tones      = fs.Int("tones", 2, "stimulus tone count")
		amp        = fs.Float64("amp", 460, "composite stimulus amplitude (codes)")
		collapse   = fs.Bool("collapse", true, "apply structural fault collapsing")
		undetected = fs.Bool("undetected", false, "list undetected faults")
		topoff     = fs.Bool("atpg", false, "run PODEM on the undetected faults (DFT top-off)")
		diagnose   = fs.Int("diagnose", -1, "inject the i-th fault, observe, and locate it via the fault dictionary")
		cutoff     = fs.Float64("cutoff", 0.15, "filter normalized cutoff")
		dump       = fs.String("dump", "", "write the gate-level netlist to this file and exit")
		fracBits   = fs.Int("frac", 8, "coefficient fractional bits")
		spectral   = fs.Bool("spectral", false, "also run the pooled spectral-signature campaign")
		noise      = fs.Float64("noise", 1.5, "input noise sigma (codes) for the spectral floor calibration")
		seed       = fs.Int64("seed", 1, "seed for the spectral calibration capture")
		runConfig  = runflags.RegisterRun(fs)
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx, cancel, ckpt, err := runConfig.Start(context.Background())
	if err != nil {
		fmt.Fprintln(stderr, "faultsim:", err)
		fs.Usage()
		return 2
	}
	defer cancel()
	cfg := simConfig{
		taps: *taps, width: *width, patterns: *patterns, tones: *tones,
		amp: *amp, collapse: *collapse, undetected: *undetected,
		topoff: *topoff, diagnose: *diagnose, cutoff: *cutoff,
		dump: *dump, fracBits: *fracBits, spectral: *spectral,
		noise: *noise, seed: *seed, ckpt: ckpt,
	}
	if err := simulate(ctx, cfg, stdout); err != nil {
		fmt.Fprintf(stderr, "faultsim: %v\n", err)
		return 1
	}
	return 0
}

// simConfig is the parsed CLI surface.
type simConfig struct {
	taps, width, patterns, tones int
	amp                          float64
	collapse, undetected, topoff bool
	diagnose                     int
	cutoff                       float64
	dump                         string
	fracBits                     int
	spectral                     bool
	noise                        float64
	seed                         int64
	ckpt                         *resilient.Checkpointer
}

func simulate(ctx context.Context, cfg simConfig, w io.Writer) error {
	coeffs, err := digital.DesignLowPassFIR(cfg.taps, cfg.cutoff, dsp.Hamming)
	if err != nil {
		return err
	}
	ints, scale, err := digital.QuantizeCoeffs(coeffs, cfg.fracBits)
	if err != nil {
		return err
	}
	fir, err := digital.NewFIR(ints, cfg.width)
	if err != nil {
		return err
	}
	st := fir.Circuit.Stats()
	fmt.Fprintf(w, "filter: %d taps, %d-bit input, coefficients x%g\n", cfg.taps, cfg.width, scale)
	fmt.Fprintf(w, "netlist: %s\n", st)
	if cfg.dump != "" {
		fh, err := os.Create(cfg.dump)
		if err != nil {
			return err
		}
		if err := netlist.Write(fh, fir.Circuit); err != nil {
			return err
		}
		if err := fh.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "netlist written to %s\n", cfg.dump)
		return nil
	}

	u := fault.NewUniverse(fir, cfg.collapse)
	full := fault.NewUniverse(fir, false)
	fmt.Fprintf(w, "faults: %d (collapsed from %d)\n\n", u.Size(), full.Size())

	n := cfg.patterns
	xs := make([]int64, n)
	bins := []int{n/16 + 1, n/16 + 17, n/16 - 13, n/16 + 29, n/16 + 5}
	if cfg.tones < 1 || cfg.tones > len(bins) {
		return fmt.Errorf("tones must be in [1, %d]", len(bins))
	}
	per := cfg.amp / float64(cfg.tones)
	for i := range xs {
		var v float64
		for t := 0; t < cfg.tones; t++ {
			v += per * math.Sin(2*math.Pi*float64(bins[t])*float64(i)/float64(n)+float64(t))
		}
		xs[i] = int64(math.Round(v))
	}
	eng, err := campaign.New(u, fault.ExactDetector{}, campaign.Options{
		Checkpoint: cfg.ckpt, CheckpointName: "exact",
	})
	if err != nil {
		return err
	}
	rep, _, err := eng.Run(ctx, xs)
	if err != nil {
		if resilient.Interrupted(err) && rep != nil {
			fmt.Fprintf(w, "interrupted (%v); partial results:\n%s\n", err, rep)
		}
		return err
	}
	fmt.Fprintln(w, rep)
	und := rep.UndetectedResults()
	for _, lsbs := range []int{3, 5, 8} {
		fmt.Fprintf(w, "undetected confined to %d LSBs: %.1f%%\n",
			lsbs, 100*fault.LSBConfinement(und, lsbs))
	}
	if cfg.undetected {
		fmt.Fprintln(w, "\nundetected faults:")
		for _, r := range und {
			fmt.Fprintf(w, "  %-12s tap %2d  max|diff| %d\n", r.Fault, r.Tap, r.MaxAbsDiff)
		}
	}
	if cfg.spectral {
		if err := runSpectral(ctx, w, fir, u, xs, bins[:cfg.tones], cfg.noise, cfg.seed, cfg.ckpt); err != nil {
			return err
		}
	}
	if cfg.diagnose >= 0 {
		if cfg.diagnose >= u.Size() {
			return fmt.Errorf("-diagnose index %d out of range [0,%d)", cfg.diagnose, u.Size())
		}
		dict, err := fault.BuildDictionary(u, xs)
		if err != nil {
			return err
		}
		f := u.Faults[cfg.diagnose]
		sim := digital.NewFIRSim(fir)
		if err := sim.InjectFault(f, ^uint64(0)); err != nil {
			return err
		}
		observed, err := sim.RunPeriodic(xs)
		if err != nil {
			return err
		}
		good := fir.ReferencePeriodic(xs)
		cands, err := dict.Diagnose(good, observed, 5)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\ninjected %v (tap %d); dictionary candidates:\n", f, fir.TapOfNet(f.Net))
		for i, c := range cands {
			exact := ""
			if c.Exact {
				exact = " (exact)"
			}
			fmt.Fprintf(w, "  %d. %-12s tap %2d  score %.3f%s\n",
				i+1, c.Fault, fir.TapOfNet(c.Fault.Net), c.Score, exact)
		}
	}
	if cfg.topoff {
		return runTopoff(w, fir, rep)
	}
	return nil
}

// runSpectral runs the spectral-signature campaign on the pooled
// engine: the reference spectrum comes from the good machine on the
// clean stimulus, the uncertainty floor is calibrated from the good
// machine on a noise-dithered copy, and every fault's record is then
// screened and transformed by the campaign workers.
func runSpectral(ctx context.Context, w io.Writer, fir *digital.FIR, u *fault.Universe, xs []int64, toneBins []int, sigma float64, seed int64, ckpt *resilient.Checkpointer) error {
	n := len(xs)
	const fs = 1e6 // label only: bins carry the comparison
	sim := digital.NewFIRSim(fir)
	good, err := sim.RunPeriodic(xs)
	if err != nil {
		return err
	}
	tones := make([]float64, len(toneBins))
	for i, b := range toneBins {
		tones[i] = float64(b) * fs / float64(n)
	}
	det, err := spectest.NewDetector(good, fs, tones, 4, 0, 3)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	noisy := make([]int64, n)
	for i, x := range xs {
		noisy[i] = x + int64(math.Round(rng.NormFloat64()*sigma))
	}
	sim2 := digital.NewFIRSim(fir)
	goodNoisy, err := sim2.RunPeriodic(noisy)
	if err != nil {
		return err
	}
	if err := det.CalibrateFloor(goodNoisy, 1.5); err != nil {
		return err
	}
	eng, err := campaign.New(u, det, campaign.Options{
		Checkpoint: ckpt, CheckpointName: "spectral",
	})
	if err != nil {
		return err
	}
	rep, stats, err := eng.Run(ctx, noisy)
	if err != nil {
		if resilient.Interrupted(err) && rep != nil {
			fmt.Fprintf(w, "\nspectral campaign interrupted (%v); partial results:\n%s\n", err, rep)
		}
		return err
	}
	fmt.Fprintf(w, "\nspectral campaign (floor %.1f dBFS, noise sigma %g): %s\n",
		det.FloorDBFS(), sigma, rep)
	mode := "full per-batch simulation"
	if stats.Differential {
		mode = "differential cone replay"
	}
	fmt.Fprintf(w, "engine: %d batches (%s), %d lanes zero-diff screened, %d memoized, %d spectra computed\n",
		stats.Batches, mode, stats.Screened, stats.Memoized, stats.Spectra)
	return nil
}

// runTopoff classifies the functional residue with PODEM and verifies
// the generated sample bursts.
func runTopoff(w io.Writer, fir *digital.FIR, rep *fault.Report) error {
	sum, err := atpg.Classify(fir.Circuit, rep.Undetected(), 5000)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nATPG top-off on the functional residue: %s\n", sum)
	verified := 0
	for _, r := range sum.Testable {
		burst, err := atpg.PatternToSamples(fir, r.Pattern)
		if err != nil {
			return err
		}
		ok, err := atpg.VerifyPattern(fir, r.Fault, burst)
		if err != nil {
			return err
		}
		if ok {
			verified++
		}
	}
	fmt.Fprintf(w, "sample bursts verified: %d/%d\n", verified, len(sum.Testable))
	total := len(rep.Results)
	redundant := len(sum.Untestable)
	fmt.Fprintf(w, "effective coverage (excluding redundant faults): %.1f%%\n",
		100*float64(rep.Detected())/float64(total-redundant))
	return nil
}
