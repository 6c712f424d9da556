// Filterfault demonstrates the gate-level substrate on its own:
// build a 16-tap FIR as a netlist, enumerate and collapse its
// stuck-at universe, fault-simulate a two-tone record with exact
// comparison, and show how one injected fault distorts the output
// spectrum (the Figure 1 story).
//
//	go run ./examples/filterfault
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"mstx/internal/campaign"
	"mstx/internal/digital"
	"mstx/internal/dsp"
	"mstx/internal/fault"
	"mstx/internal/netlist"
)

func main() {
	log.SetFlags(0)

	// A 16-tap low-pass with 8 fractional coefficient bits, 10-bit data.
	coeffs, err := digital.DesignLowPassFIR(16, 0.15, dsp.Hamming)
	if err != nil {
		log.Fatal(err)
	}
	ints, _, err := digital.QuantizeCoeffs(coeffs, 8)
	if err != nil {
		log.Fatal(err)
	}
	fir, err := digital.NewFIR(ints, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("netlist: %s\n", fir.Circuit.Stats())

	u := fault.NewUniverse(fir, true)
	full := fault.NewUniverse(fir, false)
	fmt.Printf("stuck-at universe: %d faults (collapsed from %d)\n\n", u.Size(), full.Size())

	// Two-tone stimulus near full scale.
	n := 1024
	xs := make([]int64, n)
	for i := range xs {
		ph := 2 * math.Pi * float64(i) / float64(n)
		xs[i] = int64(math.Round(230*math.Sin(65*ph) + 230*math.Sin(81*ph)))
	}
	eng, err := campaign.New(u, fault.ExactDetector{}, campaign.Options{})
	if err != nil {
		log.Fatal(err)
	}
	rep, _, err := eng.Run(context.Background(), xs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("exact-compare campaign:", rep)
	und := rep.UndetectedResults()
	fmt.Printf("undetected confined to 5 LSBs: %.1f%%\n\n", 100*fault.LSBConfinement(und, 5))

	// Inject one mid-significance fault and compare spectra.
	target := fir.OutBus[len(fir.OutBus)/2]
	sim := digital.NewFIRSim(fir)
	if err := sim.InjectFault(netlist.Fault{Net: target, Stuck: netlist.StuckAt1}, ^uint64(0)); err != nil {
		log.Fatal(err)
	}
	faulty, err := sim.RunPeriodic(xs)
	if err != nil {
		log.Fatal(err)
	}
	good := fir.ReferencePeriodic(xs)
	show := func(label string, rec []int64) {
		f := make([]float64, len(rec))
		for i, v := range rec {
			f[i] = float64(v)
		}
		an, err := dsp.Analyze(f, float64(n), []float64{65, 81}, dsp.Rectangular, dsp.AnalyzeOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s SFDR %6.1f dB, SNR %6.1f dB, worst spur at bin %d\n",
			label, an.SFDR, an.SNR, an.WorstSpur.Bin)
	}
	show("fault-free:", good)
	show("faulty:", faulty)
}
