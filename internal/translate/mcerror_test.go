package translate

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mstx/internal/params"
)

// propagationCombos enumerates every propagation-referral model the MC
// error study supports.
func propagationCombos() []struct {
	param  params.Kind
	method params.Method
} {
	return []struct {
		param  params.Kind
		method params.Method
	}{
		{params.MixerIIP3, params.NominalGains},
		{params.MixerIIP3, params.Adaptive},
		{params.MixerP1dB, params.NominalGains},
		{params.MixerP1dB, params.Adaptive},
		{params.LPFCutoff, params.NominalGains},
		{params.LPFCutoff, params.Adaptive},
	}
}

// TestReferralErrorWithinBound is the round-trip property: across 200
// seeded realizations, referring a block parameter to the primary
// input through the toleranced gains and recovering it never errs by
// more than the derived per-draw budget, for every parameter/method.
// A violation means an error term is missing from the budget.
func TestReferralErrorWithinBound(t *testing.T) {
	sp := buildPath(t).Spec
	for seed := int64(0); seed < 200; seed++ {
		d := sampleDraw(sp, rand.New(rand.NewSource(seed)))
		for _, c := range propagationCombos() {
			e, err := ReferralError(sp, c.param, c.method, d)
			if err != nil {
				t.Fatal(err)
			}
			bound, err := ReferralBound(sp, c.param, c.method, d)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(e) > bound*(1+1e-12) {
				t.Errorf("seed %d %s/%s: |err| %g > bound %g",
					seed, c.param, c.method, math.Abs(e), bound)
			}
		}
	}
}

func TestReferralErrorRejectsNonPropagationParams(t *testing.T) {
	sp := buildPath(t).Spec
	d := sampleDraw(sp, rand.New(rand.NewSource(1)))
	for _, p := range []params.Kind{params.PathGain, params.ADCINL} {
		if _, err := ReferralError(sp, p, params.Adaptive, d); err == nil {
			t.Errorf("%s accepted as propagation referral", p)
		}
		if _, err := AnalyticReferralSigma(sp, p, params.Adaptive); err == nil {
			t.Errorf("%s accepted by analytic budget", p)
		}
	}
}

// TestDeviceDrawNominalGainsExact pins the referral model to the
// device model: for a manufactured instance, the nominal-gains IIP3
// referral error is EXACTLY the mixer+filter gain deviations — the
// quantities a nominal-gains tester cannot see.
func TestDeviceDrawNominalGainsExact(t *testing.T) {
	sp := buildPath(t).Spec
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 32; i++ {
		device, err := sp.Sample(rng)
		if err != nil {
			t.Fatal(err)
		}
		d := DeviceDraw(device)
		if d.EpsCapDB != 0 || d.EpsCap2DB != 0 || d.GridFrac != 0 || d.RippleFrac != 0 {
			t.Fatalf("device draw carries tester noise: %+v", d)
		}
		epsM := device.Mixer.ConvGainDB - sp.Mixer.ConvGainDB.Nominal
		epsB := device.LPF.GainDB - sp.LPF.GainDB.Nominal
		e, err := ReferralError(sp, params.MixerIIP3, params.NominalGains, d)
		if err != nil {
			t.Fatal(err)
		}
		if e != epsM+epsB {
			t.Errorf("device %d: IIP3 nominal error %g != εM+εB %g", i, e, epsM+epsB)
		}
		// Adaptive with a noiseless capture sees only the amp share.
		epsA := device.Amp.GainDB - sp.Amp.GainDB.Nominal
		e, err = ReferralError(sp, params.MixerIIP3, params.Adaptive, d)
		if err != nil {
			t.Fatal(err)
		}
		if e != epsA {
			t.Errorf("device %d: IIP3 adaptive error %g != εA %g", i, e, epsA)
		}
	}
}

// TestEstimateMatchesAnalyticBudget checks the Monte-Carlo sigma
// against the planner's closed-form RSS budget for every model — the
// two are independent derivations of the same physics.
func TestEstimateMatchesAnalyticBudget(t *testing.T) {
	sp := buildPath(t).Spec
	for _, c := range propagationCombos() {
		est, err := EstimateReferralError(context.Background(), sp, c.param, c.method, MCConfig{Samples: 60000, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if est.Samples != 60000 {
			t.Errorf("%s/%s: samples = %d", c.param, c.method, est.Samples)
		}
		if r := est.Sigma / est.AnalyticSigma; r < 0.9 || r > 1.1 {
			t.Errorf("%s/%s: MC σ %g vs analytic %g (ratio %.3f)",
				c.param, c.method, est.Sigma, est.AnalyticSigma, r)
		}
		// All terms are zero-mean; the bias must be statistically zero.
		if se := est.Sigma / math.Sqrt(60000); math.Abs(est.Mean) > 5*se {
			t.Errorf("%s/%s: bias %g exceeds 5 standard errors %g",
				c.param, c.method, est.Mean, se)
		}
		// |error| of a near-normal zero-mean sum: P95 ≈ 1.96σ.
		if r := est.P95 / est.Sigma; r < 1.6 || r > 2.4 {
			t.Errorf("%s/%s: P95/σ = %.3f, want ≈1.96", c.param, c.method, r)
		}
	}
}

// TestEstimateDeterministicAcrossWorkers: the engine contract holds
// for the referral study — bit-identical at any worker count, and
// bit-identical to the P95 and σ pinned below, so a change to the
// moment accumulator or the quantile sketch cannot shift the estimate
// unnoticed.
func TestEstimateDeterministicAcrossWorkers(t *testing.T) {
	sp := buildPath(t).Spec
	cfg := MCConfig{Samples: 30000, Seed: 5, BatchSize: 2048}
	want, err := EstimateReferralError(context.Background(), sp, params.LPFCutoff, params.Adaptive, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const p95Bits, sigmaBits = 0x40e42a8c58563ddf, 0x40d496d4da3cc061
	if math.Float64bits(want.P95) != p95Bits || math.Float64bits(want.Sigma) != sigmaBits {
		t.Errorf("P95 %#x σ %#x, pinned %#x %#x", math.Float64bits(want.P95),
			math.Float64bits(want.Sigma), uint64(p95Bits), uint64(sigmaBits))
	}
	for _, workers := range []int{1, 4, 16} {
		c := cfg
		c.Workers = workers
		got, err := EstimateReferralError(context.Background(), sp, params.LPFCutoff, params.Adaptive, c)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("workers=%d: %+v != %+v", workers, got, want)
		}
	}
}

func TestRefineErrSigmaMC(t *testing.T) {
	p := buildPath(t)
	plan, err := Synthesize(p, DefaultRequests(p))
	if err != nil {
		t.Fatal(err)
	}
	before := make([]PlannedTest, len(plan.Tests))
	copy(before, plan.Tests)
	if err := RefineErrSigmaMC(context.Background(), p, plan, MCConfig{Samples: 40000, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	refined := 0
	for i, tst := range plan.Tests {
		isProp := tst.Kind == Propagation &&
			(tst.Request.Param == params.MixerIIP3 ||
				tst.Request.Param == params.MixerP1dB ||
				tst.Request.Param == params.LPFCutoff)
		if !isProp {
			if tst.ErrSigma != before[i].ErrSigma || tst.Reason != before[i].Reason {
				t.Errorf("non-propagation test %s modified", tst.Request.Param)
			}
			continue
		}
		refined++
		if !strings.Contains(tst.Reason, "MC-refined") {
			t.Errorf("%s: reason not annotated: %q", tst.Request.Param, tst.Reason)
		}
		if tst.ErrSigma <= 0 {
			t.Errorf("%s: refined σ = %g", tst.Request.Param, tst.ErrSigma)
		}
		// The MC model and the planner budget describe the same
		// physics: refinement must land near the analytic charge.
		an, err := AnalyticReferralSigma(p.Spec, tst.Request.Param, tst.Method)
		if err != nil {
			t.Fatal(err)
		}
		if r := tst.ErrSigma / an; r < 0.8 || r > 1.2 {
			t.Errorf("%s: refined σ %g vs analytic %g", tst.Request.Param, tst.ErrSigma, an)
		}
		if len(tst.Losses) != 3 {
			t.Errorf("%s: losses not recomputed (%d rows)", tst.Request.Param, len(tst.Losses))
		}
	}
	if refined == 0 {
		t.Fatal("no propagation tests refined; plan layout changed?")
	}
	if err := RefineErrSigmaMC(context.Background(), nil, plan, MCConfig{}); err == nil {
		t.Error("nil path accepted")
	}
	if err := RefineErrSigmaMC(context.Background(), p, nil, MCConfig{}); err == nil {
		t.Error("nil plan accepted")
	}
}

// TestCaptureRepeatabilityConstantShared guards the link between the
// MC model and planOne: both must budget the same capture residual.
func TestCaptureRepeatabilityConstantShared(t *testing.T) {
	p := buildPath(t)
	plan, err := Synthesize(p, DefaultRequests(p))
	if err != nil {
		t.Fatal(err)
	}
	for _, tst := range plan.Tests {
		if tst.Request.Param == params.PathGain {
			if tst.ErrSigma != captureRepeatabilityDB {
				t.Errorf("path-gain σ %g != capture repeatability %g",
					tst.ErrSigma, captureRepeatabilityDB)
			}
			return
		}
	}
	t.Fatal("no path-gain test in default plan")
}
