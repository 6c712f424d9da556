package mcengine

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanVarMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 4001)
	var mv MeanVar
	var sum float64
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 7
		mv.Observe(xs[i])
		sum += xs[i]
	}
	mean := sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	if math.Abs(mv.Mean-mean) > 1e-12 {
		t.Errorf("mean %g vs direct %g", mv.Mean, mean)
	}
	if math.Abs(mv.Var()-ss/float64(len(xs)-1)) > 1e-9 {
		t.Errorf("var %g vs direct %g", mv.Var(), ss/float64(len(xs)-1))
	}
}

func TestMeanVarMergeEquivalentToStreaming(t *testing.T) {
	f := func(seed int64, split uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 100 + int(split)
		cut := n * int(split%97) / 97
		var whole, a, b MeanVar
		for i := 0; i < n; i++ {
			x := rng.NormFloat64()
			whole.Observe(x)
			if i < cut {
				a.Observe(x)
			} else {
				b.Observe(x)
			}
		}
		a.Merge(b)
		return a.N == whole.N &&
			math.Abs(a.Mean-whole.Mean) < 1e-12 &&
			math.Abs(a.M2-whole.M2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanVarMergeEmpty(t *testing.T) {
	var a, b MeanVar
	a.Observe(2)
	a.Observe(4)
	want := a
	a.Merge(MeanVar{})
	if a != want {
		t.Error("merging empty changed the accumulator")
	}
	b.Merge(want)
	if b != want {
		t.Error("merging into empty should copy")
	}
}

func TestZForConfidence(t *testing.T) {
	for _, tc := range []struct{ conf, want float64 }{
		{0.6827, 1.0},
		{0.95, 1.95996},
		{0.9973, 3.0},
	} {
		if got := ZForConfidence(tc.conf); math.Abs(got-tc.want) > 2e-3 {
			t.Errorf("z(%g) = %g, want %g", tc.conf, got, tc.want)
		}
	}
	if ZForConfidence(0) != 0 || !math.IsInf(ZForConfidence(1), 1) {
		t.Error("boundary confidences wrong")
	}
}

func TestProportionHalfWidth(t *testing.T) {
	if !math.IsInf(ProportionHalfWidth(0, 0, 1.96), 1) {
		t.Error("zero trials should be unconstrained")
	}
	hw := ProportionHalfWidth(500, 1000, 1.96)
	want := 1.96 * math.Sqrt(0.25/1000)
	if math.Abs(hw-want) > 1e-12 {
		t.Errorf("hw = %g, want %g", hw, want)
	}
	// Degenerate streaks must keep a finite-sample floor, not claim
	// zero width.
	if ProportionHalfWidth(0, 1000, 1.96) <= 0 {
		t.Error("degenerate proportion claimed zero width")
	}
	if ProportionHalfWidth(100, 100, 1.96) <= 0 {
		t.Error("all-success proportion claimed zero width")
	}
}
