package netlist

import (
	"math/rand"
	"testing"
)

// naiveTranspose moves the bits one at a time: out[j] bit i = a[i] bit j.
func naiveTranspose(a [64]uint64) [64]uint64 {
	var out [64]uint64
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			out[j] |= (a[i] >> uint(j) & 1) << uint(i)
		}
	}
	return out
}

func TestTranspose64MatchesNaiveAndIsInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	var cases [][64]uint64
	var identity, lowRows [64]uint64
	for i := range identity {
		identity[i] = 1 << uint(i)
	}
	for i := 0; i < 20; i++ {
		lowRows[i] = rng.Uint64()
	}
	cases = append(cases, [64]uint64{}, identity, lowRows)
	for c := 0; c < 50; c++ {
		var a [64]uint64
		for i := range a {
			a[i] = rng.Uint64()
		}
		cases = append(cases, a)
	}
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j += 7 {
			var single [64]uint64
			single[i] = 1 << uint(j)
			cases = append(cases, single)
		}
	}
	for c, a := range cases {
		got := a
		Transpose64(&got)
		if want := naiveTranspose(a); got != want {
			t.Fatalf("case %d: Transpose64 differs from the naive transpose", c)
		}
		Transpose64(&got)
		if got != a {
			t.Fatalf("case %d: transposing twice does not restore the matrix", c)
		}
	}
}

// TestSnapshotLanesMatchesSnapshotBits drives a random circuit with a
// different input pattern in every lane: lane l of SnapshotLanes must
// equal SnapshotBits of a broadcast run of lane l's pattern alone.
func TestSnapshotLanesMatchesSnapshotBits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		c := randomCircuit(rng, 10, 150+97*trial)
		inputs := make([]uint64, len(c.Inputs))
		for i := range inputs {
			inputs[i] = rng.Uint64()
		}
		sim := NewSimulator(c)
		if _, err := sim.Run(inputs); err != nil {
			t.Fatal(err)
		}
		bw := BitWords(c.NumNets())
		for _, lanes := range []int{64, 5} {
			dst := make([][]uint64, lanes)
			for l := range dst {
				dst[l] = make([]uint64, bw)
			}
			sim.SnapshotLanes(dst)
			for l := range dst {
				bcast := make([]uint64, len(inputs))
				for i, w := range inputs {
					bcast[i] = -(w >> uint(l) & 1)
				}
				ref := NewSimulator(c)
				if _, err := ref.Run(bcast); err != nil {
					t.Fatal(err)
				}
				want := make([]uint64, bw)
				ref.SnapshotBits(want)
				for k := range want {
					if dst[l][k] != want[k] {
						t.Fatalf("trial %d lanes %d: lane %d word %d = %#x, want %#x",
							trial, lanes, l, k, dst[l][k], want[k])
					}
				}
			}
		}
	}
}

func TestFaulted(t *testing.T) {
	c, _, _, out := buildXor2()
	sim := NewSimulator(c)
	if sim.Faulted() {
		t.Fatal("fresh simulator reports a fault")
	}
	if err := sim.InjectFault(Fault{Net: out, Stuck: StuckAt1}, 1<<3); err != nil {
		t.Fatal(err)
	}
	if !sim.Faulted() {
		t.Fatal("fault in one lane not reported")
	}
	sim.ClearFaults()
	if sim.Faulted() {
		t.Fatal("ClearFaults left the simulator faulted")
	}
}
