package digital

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mstx/internal/netlist"
)

// stepRun is the step-at-a-time reference for a fault-free periodic
// run: Warm with the record tail, then one broadcast Step per sample,
// reading lane 0 and the packed snapshot after each. It returns the
// good record, the per-step snapshots and the final delay line.
func stepRun(t *testing.T, s *FIRSim, xs []int64) ([]int64, [][]uint64, []int64) {
	t.Helper()
	warm := min(s.fir.Taps()-1, len(xs))
	if err := s.Warm(xs[len(xs)-warm:]); err != nil {
		t.Fatal(err)
	}
	bw := netlist.BitWords(s.fir.Circuit.NumNets())
	good := make([]int64, len(xs))
	snaps := make([][]uint64, len(xs))
	for i, x := range xs {
		words, err := s.Step(x)
		if err != nil {
			t.Fatal(err)
		}
		good[i] = DecodeSignedLane(words, 0)
		snaps[i] = make([]uint64, bw)
		s.sim.SnapshotBits(snaps[i])
	}
	return good, snaps, append([]int64(nil), s.delay...)
}

// TestTimeParallelMatchesStepping pins the time-parallel good machine
// (64 record steps per netlist pass) to the step-at-a-time path and to
// the behavioural reference: good records, every snapshot bit and the
// final delay line, for record lengths around the 64-step pass
// boundary and below the warm-up length, random coefficients, binary
// and CSD multipliers, and truncated outputs.
func TestTimeParallelMatchesStepping(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	builds := []FIROptions{{}, {DropLSBs: 3}, {UseCSD: true}, {UseCSD: true, DropLSBs: 2}}
	for bi, opts := range builds {
		taps := 5 + 4*bi
		width := 6 + bi
		coeffs := make([]int64, taps)
		for i := range coeffs {
			coeffs[i] = int64(rng.Intn(255) - 127)
		}
		coeffs[0] |= 1 // keep the filter nonzero
		fir, err := NewFIRWithOptions(coeffs, width, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{3, taps - 1, 63, 64, 65, 200, 1024} {
			t.Run(fmt.Sprintf("build%d/n%d", bi, n), func(t *testing.T) {
				xs := make([]int64, n)
				lim := int64(1) << uint(width)
				for i := range xs {
					// Overshoot the input range so saturation is exercised.
					xs[i] = rng.Int63n(2*lim) - lim
				}
				wantGood, wantSnaps, wantDelay := stepRun(t, NewFIRSim(fir), xs)
				if ref := fir.ReferencePeriodic(saturated(xs, width)); n >= taps-1 && !slices.Equal(wantGood, ref) {
					t.Fatal("step path differs from ReferencePeriodic")
				}

				sim := NewFIRSim(fir)
				got, err := sim.RunPeriodic(xs)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, wantGood) {
					t.Fatal("time-parallel RunPeriodic differs from stepping")
				}
				if !slices.Equal(sim.delay, wantDelay) {
					t.Fatalf("RunPeriodic delay line %v, stepping %v", sim.delay, wantDelay)
				}

				sim = NewFIRSim(fir)
				base, err := sim.CaptureBaseline(xs)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(base.Good, wantGood) {
					t.Fatal("time-parallel baseline good record differs from stepping")
				}
				for i := range wantSnaps {
					if !slices.Equal(base.Snaps[i], wantSnaps[i]) {
						t.Fatalf("step %d snapshot %#x, stepping %#x", i, base.Snaps[i], wantSnaps[i])
					}
				}
				if !slices.Equal(sim.delay, wantDelay) {
					t.Fatalf("CaptureBaseline delay line %v, stepping %v", sim.delay, wantDelay)
				}

				// A follow-on Run continues from the delay line the
				// periodic run left behind.
				ys := xs[:min(n, 70)]
				want := make([]int64, len(ys))
				ref := NewFIRSim(fir)
				copy(ref.delay, wantDelay)
				for i, y := range ys {
					if want[i], err = ref.StepValue(y); err != nil {
						t.Fatal(err)
					}
				}
				got, err = sim.Run(ys)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) || !slices.Equal(sim.delay, ref.delay) {
					t.Fatal("time-parallel Run from a loaded delay line differs from stepping")
				}
			})
		}
	}
}

func saturated(xs []int64, width int) []int64 {
	out := make([]int64, len(xs))
	for i, x := range xs {
		out[i] = Saturate(x, width)
	}
	return out
}

// TestDecodeLanesMatchesDecodeSignedLane checks the one-transpose
// decode against the per-lane decode at every bus width.
func TestDecodeLanesMatchesDecodeSignedLane(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for width := 1; width <= 70; width++ {
		for trial := 0; trial < 4; trial++ {
			words := make([]uint64, width)
			for i := range words {
				words[i] = rng.Uint64()
			}
			var m [64]uint64
			decodeLanes(&m, words)
			for l := 0; l < 64; l++ {
				if got, want := int64(m[l]), DecodeSignedLane(words, l); got != want {
					t.Fatalf("width %d lane %d: decodeLanes %d, DecodeSignedLane %d", width, l, got, want)
				}
			}
		}
	}
}

// TestFaultedSimulatorStaysLaneExact: a fault in a subset of lanes
// must keep Run and RunPeriodic on the lane-exact step path — the
// time-parallel one would spread lane 0's fault over only every 64th
// step and read good lanes as the faulty machine — and CaptureBaseline
// must refuse the simulator.
func TestFaultedSimulatorStaysLaneExact(t *testing.T) {
	fir, err := NewFIRWithOptions([]int64{7, -3, 12, 5, -9, 4, 2}, 8, FIROptions{DropLSBs: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	xs := make([]int64, 200)
	for i := range xs {
		xs[i] = int64(rng.Intn(256) - 128)
	}
	good, err := NewFIRSim(fir).RunPeriodic(xs)
	if err != nil {
		t.Fatal(err)
	}
	// The highest output bit stuck at 1 differs on every non-negative
	// output, so the faulty record differs at most steps.
	f := netlist.Fault{Net: fir.OutBus[len(fir.OutBus)-1], Stuck: netlist.StuckAt1}

	all := NewFIRSim(fir)
	if err := all.InjectFault(f, ^uint64(0)); err != nil {
		t.Fatal(err)
	}
	want, err := all.RunPeriodic(xs)
	if err != nil {
		t.Fatal(err)
	}
	diffs := 0
	for i := range want {
		if want[i] != good[i] && i%64 != 0 && i%64 != 5 {
			diffs++
		}
	}
	if diffs == 0 {
		t.Fatal("test fault never changes the output away from lanes 0 and 5")
	}

	sub := NewFIRSim(fir)
	if err := sub.InjectFault(f, 1|1<<5); err != nil {
		t.Fatal(err)
	}
	got, err := sub.RunPeriodic(xs)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatal("RunPeriodic with a fault in lanes {0,5} is not the faulty machine")
	}
	if got, err = sub.Run(xs); err != nil {
		t.Fatal(err)
	}
	ref := NewFIRSim(fir)
	if err := ref.InjectFault(f, ^uint64(0)); err != nil {
		t.Fatal(err)
	}
	copy(ref.delay, all.delay)
	if wantRun, err := ref.Run(xs); err != nil || !slices.Equal(got, wantRun) {
		t.Fatalf("Run with a fault in lanes {0,5} is not the faulty machine (err %v)", err)
	}

	if _, err := sub.CaptureBaseline(xs); err == nil {
		t.Fatal("CaptureBaseline accepted a faulted simulator")
	}
}
