// Chaos suite: every registered failpoint site is driven through the
// engine that owns it with each action class — error, panic, delay —
// and the engines must degrade exactly as specified: typed errors
// surface, panics quarantine or convert to *PanicError, delays change
// nothing, no goroutine leaks, and every sample/fault stays accounted
// for. Run under -race (scripts/check.sh does).
package resilient_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"mstx/internal/analysis"
	"mstx/internal/campaign"
	"mstx/internal/digital"
	"mstx/internal/dsp"
	"mstx/internal/fault"
	"mstx/internal/mcengine"
	"mstx/internal/resilient"
	"mstx/internal/soc"
	"mstx/internal/spectest"
)

// TestChaosSiteRegistryComplete pins the engine failpoint surface
// against the statically extracted site list (the failpointreg
// analyzer's extraction, exported as analysis.FailpointSites): the
// runtime registry linked into this test binary must register exactly
// the sites the source tree declares. Registering a site in a package
// this suite does not import — i.e. does not give chaos coverage —
// fails here, as does renaming one side without the other.
func TestChaosSiteRegistryComplete(t *testing.T) {
	want, err := analysis.FailpointSites("../..")
	if err != nil {
		t.Fatalf("static site extraction: %v", err)
	}
	if len(want) == 0 {
		t.Fatal("static site extraction found no failpoint sites")
	}
	// Unit tests in this package register their own scratch sites
	// (prefix "test."); the engine surface is everything else.
	var got []string
	for _, s := range resilient.Sites() {
		if !strings.HasPrefix(s, "test.") {
			got = append(got, s)
		}
	}
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("registered sites %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registered sites %v, want %v", got, want)
		}
	}
}

// chaosFIR builds the small gate-level campaign of the exact-compare
// chaos cases.
func chaosFIR(t testing.TB) (*fault.Universe, []int64) {
	t.Helper()
	fir, err := digital.NewFIR([]int64{3, -5, 7, 4}, 6)
	if err != nil {
		t.Fatal(err)
	}
	n := 128
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(math.Round(24 * math.Sin(2*math.Pi*5*float64(i)/float64(n))))
	}
	return fault.NewUniverse(fir, false), xs
}

// chaosExact builds an exact-compare campaign engine on chaosFIR.
func chaosExact(t testing.TB, opts campaign.Options) (*campaign.Engine, []int64) {
	t.Helper()
	u, xs := chaosFIR(t)
	eng, err := campaign.New(u, fault.ExactDetector{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng, xs
}

// chaosSpectral builds a calibrated spectral campaign engine.
func chaosSpectral(t testing.TB, opts campaign.Options) (*campaign.Engine, []int64) {
	t.Helper()
	fir, err := digital.NewFIR([]int64{7, 15, 22, 15, 7}, 8)
	if err != nil {
		t.Fatal(err)
	}
	n, amp, fs := 256, 45.0, 1e6
	f1 := dsp.CoherentBin(fs, n, 19)
	f2 := dsp.CoherentBin(fs, n, 31)
	ideal := make([]int64, n)
	noisy := make([]int64, n)
	rng := rand.New(rand.NewSource(7))
	for i := range ideal {
		ti := float64(i) / fs
		v := amp*math.Cos(2*math.Pi*f1*ti) + amp*math.Cos(2*math.Pi*f2*ti)
		ideal[i] = int64(math.Round(v))
		noisy[i] = int64(math.Round(v + rng.NormFloat64()*1.5))
	}
	sim := digital.NewFIRSim(fir)
	goodIdeal, err := sim.RunPeriodic(ideal)
	if err != nil {
		t.Fatal(err)
	}
	sim2 := digital.NewFIRSim(fir)
	goodNoisy, err := sim2.RunPeriodic(noisy)
	if err != nil {
		t.Fatal(err)
	}
	det, err := spectest.NewDetector(goodIdeal, fs, []float64{f1, f2}, 2, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.CalibrateFloor(goodNoisy, 1.5); err != nil {
		t.Fatal(err)
	}
	eng, err := campaign.New(fault.NewUniverse(fir, true), det, opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng, ideal
}

// mcRun drives the MC engine with a counting kernel; the returned
// total is the number of samples the merge actually folded.
func mcRun(ctx context.Context, n int, opts mcengine.Options) (int, int, error) {
	kernel := func(lane, count int, rng *rand.Rand) (int, error) { return count, nil }
	merge := func(total, _, part int) int { return total + part }
	return mcengine.Run(ctx, n, 5, opts, 0, kernel, merge, nil)
}

func settle(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d live, baseline %d",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosMCEngineLane drives mcengine.lane through all three action
// classes.
func TestChaosMCEngineLane(t *testing.T) {
	defer resilient.Install(nil)
	baseline := runtime.NumGoroutine() + 2
	const n = 64

	// Error: surfaces as the first failing lane, in lane order.
	fp := resilient.NewFailpoints()
	boom := errors.New("chaos err")
	fp.Set("mcengine.lane", resilient.Action{Err: boom, After: 5})
	resilient.Install(fp)
	if _, _, err := mcRun(context.Background(), n, mcengine.Options{BatchSize: 4}); !errors.Is(err, boom) {
		t.Fatalf("err action surfaced as %v", err)
	}
	if fp.Hits("mcengine.lane") == 0 {
		t.Fatal("site never fired")
	}

	// Panic without quarantine: a *PanicError, never a crash.
	fp = resilient.NewFailpoints()
	fp.Set("mcengine.lane", resilient.Action{PanicValue: "chaos panic", Times: 1})
	resilient.Install(fp)
	_, _, err := mcRun(context.Background(), n, mcengine.Options{BatchSize: 4})
	var pe *resilient.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panic action surfaced as %v", err)
	}

	// Panic with quarantine: the run completes, and every sample is
	// accounted for as merged or quarantined.
	fp = resilient.NewFailpoints()
	fp.Set("mcengine.lane", resilient.Action{PanicValue: "chaos panic", Times: 1})
	resilient.Install(fp)
	var qSamples int
	total, done, err := mcengine.Run(context.Background(), n, 5,
		mcengine.Options{BatchSize: 4, OnQuarantine: func(lane, samples int, err error) { qSamples += samples }},
		0,
		func(lane, count int, rng *rand.Rand) (int, error) { return count, nil },
		func(total, _, part int) int { return total + part }, nil)
	if err != nil {
		t.Fatalf("quarantined run failed: %v", err)
	}
	if total != done || done+qSamples != n || qSamples == 0 {
		t.Fatalf("lost samples: total %d done %d quarantined %d of %d", total, done, qSamples, n)
	}

	// Delay: the result must be completely unaffected.
	fp = resilient.NewFailpoints()
	fp.Set("mcengine.lane", resilient.Action{Delay: time.Millisecond})
	resilient.Install(fp)
	total, done, err = mcRun(context.Background(), n, mcengine.Options{BatchSize: 4})
	if err != nil || total != n || done != n {
		t.Fatalf("delay action changed the run: total %d done %d err %v", total, done, err)
	}
	resilient.Install(nil)
	settle(t, baseline)
}

// TestChaosCampaignStages drives campaign.sim_batch and
// campaign.detect_batch through all three classes, on the spectral
// campaign and on the exact-compare one.
func TestChaosCampaignStages(t *testing.T) {
	defer resilient.Install(nil)
	baseline := runtime.NumGoroutine() + 2
	for _, build := range []func(testing.TB, campaign.Options) (*campaign.Engine, []int64){chaosSpectral, chaosExact} {
		eng, xs := build(t, campaign.Options{})
		ref, _, err := eng.Run(context.Background(), xs)
		if err != nil {
			t.Fatal(err)
		}
		for _, site := range []string{"campaign.sim_batch", "campaign.detect_batch"} {
			fp := resilient.NewFailpoints()
			boom := errors.New("chaos err")
			fp.Set(site, resilient.Action{Err: boom, Times: 1})
			resilient.Install(fp)
			if _, _, err := eng.Run(context.Background(), xs); !errors.Is(err, boom) {
				t.Fatalf("%s err action surfaced as %v", site, err)
			}
			if fp.Hits(site) == 0 {
				t.Fatalf("%s never fired", site)
			}

			fp = resilient.NewFailpoints()
			fp.Set(site, resilient.Action{PanicValue: "chaos panic", Times: 1})
			resilient.Install(fp)
			qeng, xs2 := build(t, campaign.Options{Quarantine: true})
			rep, stats, err := qeng.Run(context.Background(), xs2)
			if err != nil {
				t.Fatalf("%s quarantined campaign failed: %v", site, err)
			}
			q := 0
			for i, r := range rep.Results {
				if r.Quarantined {
					q++
					continue
				}
				if r != ref.Results[i] {
					t.Fatalf("%s: lane %d diverged under quarantine", site, i)
				}
			}
			if q != stats.Quarantined || q == 0 {
				t.Fatalf("%s quarantine accounting wrong: %d vs %d", site, q, stats.Quarantined)
			}

			fp = resilient.NewFailpoints()
			fp.Set(site, resilient.Action{Delay: time.Millisecond})
			resilient.Install(fp)
			rep, _, err = eng.Run(context.Background(), xs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range rep.Results {
				if rep.Results[i] != ref.Results[i] {
					t.Fatalf("%s delay action changed lane %d", site, i)
				}
			}
			resilient.Install(nil)
		}
	}
	settle(t, baseline)
}

// chaosSOC is a small two-core SOC for the scheduler chaos cases.
func chaosSOC() *soc.SOC {
	return &soc.SOC{Name: "chaos", Cores: []soc.Core{
		{ID: "a", Name: "a", Kind: "analog", WrapperWidth: 4, Tests: []soc.Test{
			{Name: "t0", Cycles: 4000, Settle: 100, MaxWidth: 4, Resources: []string{"dig"}},
			{Name: "t1", Cycles: 2000, Settle: 50, MaxWidth: 2},
		}},
		{ID: "b", Name: "b", Kind: "digital", WrapperWidth: 3, Tests: []soc.Test{
			{Name: "t0", Cycles: 3000, MaxWidth: 3},
			{Name: "t1", Cycles: 1000, MaxWidth: 3, Resources: []string{"dig"}},
		}},
	}}
}

// TestChaosSOCSchedule drives soc.schedule through the three action
// classes. The scheduler deliberately runs its width lanes without
// quarantine — dropping a lane would silently publish a different
// schedule — so both the error and the panic must surface as run
// errors, and a delay must not move the schedule by a byte.
func TestChaosSOCSchedule(t *testing.T) {
	defer resilient.Install(nil)
	baseline := runtime.NumGoroutine() + 2
	s := chaosSOC()
	widths := []int{2, 4}
	opts := soc.Options{Iterations: 8, Seed: 3}
	ref, err := soc.PlanSweep(context.Background(), s, widths, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Error: surfaces as the sweep's error, in lane order.
	fp := resilient.NewFailpoints()
	boom := errors.New("chaos err")
	fp.Set("soc.schedule", resilient.Action{Err: boom, After: 1})
	resilient.Install(fp)
	if _, err := soc.PlanSweep(context.Background(), s, widths, opts); !errors.Is(err, boom) {
		t.Fatalf("err action surfaced as %v", err)
	}
	if fp.Hits("soc.schedule") == 0 {
		t.Fatal("site never fired")
	}

	// Panic: converts to a *PanicError — never a dropped lane.
	fp = resilient.NewFailpoints()
	fp.Set("soc.schedule", resilient.Action{PanicValue: "chaos panic", Times: 1})
	resilient.Install(fp)
	_, err = soc.PlanSweep(context.Background(), s, widths, opts)
	var pe *resilient.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panic action surfaced as %v", err)
	}

	// Delay: the published schedules must be unaffected.
	fp = resilient.NewFailpoints()
	fp.Set("soc.schedule", resilient.Action{Delay: time.Millisecond})
	resilient.Install(fp)
	got, err := soc.PlanSweep(context.Background(), s, widths, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if got[i].String() != ref[i].String() {
			t.Fatalf("delay action changed the W=%d schedule:\n%s\nvs\n%s",
				widths[i], got[i].String(), ref[i].String())
		}
	}
	resilient.Install(nil)
	settle(t, baseline)
}

// TestChaosCheckpointSave drives resilient.checkpoint.save: a failing
// snapshot write must abort the run with the injected error rather
// than silently losing the checkpoint.
func TestChaosCheckpointSave(t *testing.T) {
	defer resilient.Install(nil)
	fp := resilient.NewFailpoints()
	boom := errors.New("disk full")
	fp.Set("resilient.checkpoint.save", resilient.Action{Err: boom})
	resilient.Install(fp)
	ck := &resilient.Checkpointer{Dir: t.TempDir(), Every: 1}
	if _, _, err := mcRun(context.Background(), 16, mcengine.Options{BatchSize: 4, Checkpoint: ck}); !errors.Is(err, boom) {
		t.Fatalf("checkpoint-save failure surfaced as %v", err)
	}
	if fp.Applied("resilient.checkpoint.save") == 0 {
		t.Fatal("save failpoint never applied")
	}

	// The fault campaign must abort on save failure too.
	eng, xs := chaosExact(t, campaign.Options{Checkpoint: ck, CheckpointName: "f"})
	if _, _, err := eng.Run(context.Background(), xs); !errors.Is(err, boom) {
		t.Fatalf("fault checkpoint-save failure surfaced as %v", err)
	}
}
