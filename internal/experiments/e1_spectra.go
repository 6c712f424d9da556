package experiments

import (
	"context"
	"fmt"
	"math"

	"mstx/internal/campaign"
	"mstx/internal/digital"
	"mstx/internal/dsp"
	"mstx/internal/fault"
	"mstx/internal/netlist"
)

// SpectrumSeries is one curve of Figure 1: the output spectrum of the
// 16-tap filter for a given machine (fault-free or one stuck-at
// fault).
type SpectrumSeries struct {
	// Label identifies the machine ("fault-free", "fault in tap 2
	// multiplier", ...).
	Label string
	// Fault is the injected fault (zero value for the good machine).
	Fault netlist.Fault
	// BinDB is the per-bin output power in dB relative to the
	// fundamental.
	BinDB []float64
}

// Fig1Result holds the Figure 1 reproduction.
type Fig1Result struct {
	// Series are the four spectra (fault-free + three fault sites).
	Series []SpectrumSeries
	// NFFT is the record length.
	NFFT int
	// ToneBin is the stimulus bin.
	ToneBin int
}

// Fig1Options configures the experiment.
type Fig1Options struct {
	// Patterns is the record length (power of two). Default 1024.
	Patterns int
	// Taps is the filter length. Default 16 (as in the paper's §3).
	Taps int
}

// Fig1 reproduces Figure 1: the output response spectrum of a 16-tap
// low-pass FIR driven by a pure on-bin sine, fault-free and with
// stuck-at faults injected in the multiplier of tap 2, an adder of
// tap 5, and the output cone of tap 7. Faults create harmonics and
// intermodulation-like spurs in the output spectrum.
func Fig1(opts Fig1Options) (*Fig1Result, error) {
	if opts.Patterns == 0 {
		opts.Patterns = 1024
	}
	if opts.Taps == 0 {
		opts.Taps = 16
	}
	coeffs, err := digital.DesignLowPassFIR(opts.Taps, 0.15, dsp.Hamming)
	if err != nil {
		return nil, err
	}
	ints, _, err := digital.QuantizeCoeffs(coeffs, 8)
	if err != nil {
		return nil, err
	}
	fir, err := digital.NewFIR(ints, 10)
	if err != nil {
		return nil, err
	}
	n := opts.Patterns
	toneBin := n / 16 // deep in the pass band
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(math.Round(420 * math.Sin(2*math.Pi*float64(toneBin)*float64(i)/float64(n))))
	}
	u := fault.NewUniverse(fir, false)

	// Pick representative fault sites inside specific tap cones, as in
	// the paper's sub-figures: gather the candidates of a tap, run one
	// exact batch over them, and keep the most active fault. If a tap
	// is dead (zero quantized coefficient), fall back to a neighbor.
	pick := func(tap int) (netlist.Fault, error) {
		for delta := 0; delta < fir.Taps(); delta++ {
			for _, t := range []int{tap - delta, tap + delta} {
				if t < 0 || t >= fir.Taps() {
					continue
				}
				f, ok, err := mostActiveFault(fir, u, t, xs)
				if err != nil {
					return netlist.Fault{}, err
				}
				if ok {
					return f, nil
				}
			}
		}
		return netlist.Fault{}, fmt.Errorf("experiments: no detectable fault near tap %d", tap)
	}
	sites := []struct {
		label string
		tap   int
	}{
		{"fault in tap 2 multiplier", 2},
		{"fault in tap 5 adder", 5},
		{"fault in tap 7 output", 7},
	}
	res := &Fig1Result{NFFT: n, ToneBin: toneBin}

	// Fault-free spectrum (steady-state periodic response).
	sim := digital.NewFIRSim(fir)
	good, err := sim.RunPeriodic(xs)
	if err != nil {
		return nil, err
	}
	goodDB, err := relativeSpectrum(good, toneBin)
	if err != nil {
		return nil, err
	}
	res.Series = append(res.Series, SpectrumSeries{Label: "fault-free", BinDB: goodDB})

	for _, site := range sites {
		f, err := pick(site.tap)
		if err != nil {
			return nil, err
		}
		fsim := digital.NewFIRSim(fir)
		if err := fsim.InjectFault(f, ^uint64(0)); err != nil {
			return nil, err
		}
		rec, err := fsim.RunPeriodic(xs)
		if err != nil {
			return nil, err
		}
		db, err := relativeSpectrum(rec, toneBin)
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, SpectrumSeries{Label: site.label, Fault: f, BinDB: db})
	}
	return res, nil
}

// mostActiveFault simulates up to 62 candidate faults in the tap's
// cone in one pass and returns the one with the largest output
// perturbation, requiring a clearly visible effect (≥ 4 LSB).
func mostActiveFault(fir *digital.FIR, u *fault.Universe, tap int, xs []int64) (netlist.Fault, bool, error) {
	var cands []netlist.Fault
	for _, f := range u.Faults {
		if fir.TapOfNet(f.Net) == tap {
			cands = append(cands, f)
			if len(cands) == 62 {
				break
			}
		}
	}
	if len(cands) == 0 {
		return netlist.Fault{}, false, nil
	}
	sub := &fault.Universe{FIR: fir, Faults: cands}
	eng, err := campaign.New(sub, fault.ExactDetector{}, campaign.Options{})
	if err != nil {
		return netlist.Fault{}, false, err
	}
	rep, _, err := eng.Run(context.Background(), xs)
	if err != nil {
		return netlist.Fault{}, false, err
	}
	best := -1
	for i, r := range rep.Results {
		if r.MaxAbsDiff >= 4 && (best < 0 || r.MaxAbsDiff > rep.Results[best].MaxAbsDiff) {
			best = i
		}
	}
	if best < 0 {
		return netlist.Fault{}, false, nil
	}
	return rep.Results[best].Fault, true, nil
}

// relativeSpectrum returns per-bin power in dB relative to the bin at
// toneBin.
func relativeSpectrum(rec []int64, toneBin int) ([]float64, error) {
	f := make([]float64, len(rec))
	for i, v := range rec {
		f[i] = float64(v)
	}
	s, err := dsp.PowerSpectrum(f, float64(len(rec)), dsp.Rectangular)
	if err != nil {
		return nil, err
	}
	ref := s.Power[toneBin]
	out := make([]float64, len(s.Power))
	for k, p := range s.Power {
		out[k] = dsp.DB(p / ref)
	}
	return out, nil
}

// SpurCount returns how many bins of the series rise above threshDB
// (relative to the fundamental), excluding the stimulus bin itself —
// a scalar summary of how "dirty" a faulty spectrum is.
func (s SpectrumSeries) SpurCount(toneBin int, threshDB float64) int {
	n := 0
	for k, db := range s.BinDB {
		if k != toneBin && k != 0 && db > threshDB {
			n++
		}
	}
	return n
}

// Format renders the Figure 1 summary: for each series, the level of
// the worst non-fundamental bin and the count of spurs above −60 dBc.
func (r *Fig1Result) Format() string {
	rows := [][]string{{"machine", "worst spur (dBc)", "spurs > -60 dBc"}}
	for _, s := range r.Series {
		worst := math.Inf(-1)
		for k, db := range s.BinDB {
			if k != r.ToneBin && k != 0 && db > worst {
				worst = db
			}
		}
		rows = append(rows, []string{s.Label, fdb(worst), fmt.Sprintf("%d", s.SpurCount(r.ToneBin, -60))})
	}
	return table(rows)
}
