package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"mstx/internal/analysis"
	"mstx/internal/resilient"
)

// The chaos soak: a multi-tenant workload over every job kind while
// failpoints fire at every registered engine site, then a directed
// degradation pass. The invariant wall at the end is the service's
// self-healing contract:
//
//   - no job ever hangs — every admitted job reaches a terminal state;
//   - terminal classification is correct — done/partial/failed only,
//     and failed jobs carry an engine or panic typed error;
//   - recovery is exact — every job that ends done, including the ones
//     that were retried from a checkpoint mid-fault, returns bytes
//     identical to a clean run of the same spec (for the mc and soc
//     specs used here, that clean run is the E6/E9 golden
//     configuration);
//   - breakers open under persistent faults, shed with 503 +
//     Retry-After, report per-kind degradation on /readyz without
//     taking the whole service not-ready, and close again through the
//     half-open probe;
//   - nothing leaks — goroutines return to baseline after Close.
//
// The fault schedule is deterministic: MSTX_SOAK_SEED (default 1)
// seeds the PRNG that picks fault flavors and offsets, so a failing
// CI run replays bit-for-bit locally.

// soakSeed reads the chaos schedule seed from the environment.
func soakSeed(t *testing.T) int64 {
	if v := os.Getenv("MSTX_SOAK_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("MSTX_SOAK_SEED %q: %v", v, err)
		}
		return n
	}
	return 1
}

// soakActions is the chaos action table. It must cover every site
// FailpointSites enumerates — TestChaosSoak fails on any gap, so a new
// engine site cannot land without extending the soak.
func soakActions(rng *rand.Rand) map[string]resilient.Action {
	simBatch := resilient.Action{Err: errors.New("soak: sim batch fault"), After: rng.Intn(2), Times: 1}
	if rng.Intn(2) == 0 {
		// The panic flavor exercises the quarantine path instead of the
		// retry path: the job degrades to partial rather than failing.
		simBatch = resilient.Action{PanicValue: "soak: sim batch panic", After: rng.Intn(2), Times: 1}
	}
	return map[string]resilient.Action{
		// Transient lane faults drive the retry-from-checkpoint path on
		// the translate/mc kinds; bounded below RetryMax so retried
		// jobs eventually succeed and their bytes can be checked.
		"mcengine.lane":         {Err: errors.New("soak: transient lane fault"), After: rng.Intn(4), Times: 2},
		"campaign.sim_batch":    simBatch,
		"campaign.detect_batch": {Err: errors.New("soak: detect batch fault"), After: rng.Intn(2), Times: 1},
		"soc.schedule":          {Err: errors.New("soak: schedule fault"), After: rng.Intn(3), Times: 1},
		// Every ledger and engine snapshot save is slowed, widening the
		// windows where cancels, retries and finishes race the
		// checkpointer.
		"resilient.checkpoint.save": {Delay: time.Millisecond},
	}
}

// comparableText is a result's text with a campaign's engine line cut
// down to its deterministic parts: the screened count and the sum of
// memoized lanes and computed spectra. How the non-screened lanes
// split between those two depends on detect-worker timing (and on a
// memo table rebuilt by a resume), as campaign.Options documents;
// every verdict line stays in.
func comparableText(res *Result) string {
	c := res.Campaign
	if c == nil {
		return res.Text
	}
	head, tail, _ := strings.Cut(res.Text, "\n")
	_, tail, _ = strings.Cut(tail, "\n")
	return fmt.Sprintf("%s\nengine: %d lanes zero-diff screened, %d memoized or computed\n%s",
		head, c.Screened, c.Memoized+c.Spectra, tail)
}

func TestChaosSoak(t *testing.T) {
	defer resilient.Install(nil)
	baseline := runtime.NumGoroutine()
	seed := soakSeed(t)
	rng := rand.New(rand.NewSource(seed))
	t.Logf("chaos soak seed %d (replay with MSTX_SOAK_SEED=%d)", seed, seed)

	// Coverage wall: the action table and the statically enumerated
	// site registry must agree in both directions.
	sites, err := analysis.FailpointSites(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	actions := soakActions(rng)
	siteSet := map[string]bool{}
	for _, s := range sites {
		siteSet[s] = true
		if _, ok := actions[s]; !ok {
			t.Fatalf("no chaos action for failpoint site %s — extend soakActions", s)
		}
	}
	for s := range actions {
		if !siteSet[s] {
			t.Fatalf("stale chaos action for unregistered site %s", s)
		}
	}

	// The workload: four tenants, all four kinds. The mc spec is the E6
	// Table 2 golden configuration and the default soc spec is the E9
	// golden, so "bit-identical to a clean run" here means identical to
	// the checked-in experiment tables too.
	type soakJob struct {
		tenant string
		spec   Spec
		ref    string
	}
	tenants := []string{"ares", "boreas", "chronos", "daphne"}
	var jobs []soakJob
	for i, tn := range tenants {
		tr := quickTranslate()
		tr.Seed = int64(200 + i)
		jobs = append(jobs,
			soakJob{tenant: tn, spec: tr},
			soakJob{tenant: tn, spec: Spec{Kind: "campaign", Patterns: 64}},
			soakJob{tenant: tn, spec: Spec{Kind: "mc", Devices: 6, CaptureN: 1024}},
		)
	}
	jobs = append(jobs, soakJob{tenant: "ares", spec: Spec{Kind: "soc"}})

	// Clean references, computed straight through the task adapters
	// before any chaos is armed.
	refs := map[string]string{}
	for i := range jobs {
		key := fmt.Sprintf("%+v", jobs[i].spec)
		if txt, ok := refs[key]; ok {
			jobs[i].ref = txt
			continue
		}
		sp := jobs[i].spec
		if err := sp.normalize(); err != nil {
			t.Fatal(err)
		}
		tk, err := newTask(&sp)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.prepare(context.Background()); err != nil {
			t.Fatal(err)
		}
		res, err := tk.run(context.Background(), taskEnv{})
		if err != nil {
			t.Fatal(err)
		}
		refs[key] = comparableText(res)
		jobs[i].ref = refs[key]
	}

	// Chaos phase: arm every site, then pour the workload in.
	srv, ts := newTestService(t, Config{
		Workers:           4,
		RetryMax:          2,
		RetryBase:         5 * time.Millisecond,
		CheckpointDir:     t.TempDir(),
		RetryAfter:        time.Second,
		BreakerWindow:     8,
		BreakerMinSamples: 4,
		BreakerThreshold:  0.5,
		BreakerOpenFor:    250 * time.Millisecond,
	})
	fp := resilient.NewFailpoints()
	for site, a := range actions {
		fp.Set(site, a)
	}
	resilient.Install(fp)

	type tracked struct {
		id  string
		job soakJob
	}
	var admitted []tracked
	shedOnSubmit := 0
	for _, jb := range jobs {
		placed := false
		for try := 0; try < 5 && !placed; try++ {
			resp, snap := postJob(t, ts, jb.tenant, jb.spec)
			switch resp.StatusCode {
			case http.StatusCreated:
				admitted = append(admitted, tracked{id: snap.ID, job: jb})
				placed = true
			case http.StatusTooManyRequests, http.StatusServiceUnavailable:
				// Backpressure and shedding are correct behavior under
				// chaos; honor the hint (scaled down) and retry.
				time.Sleep(time.Duration(20*(try+1)) * time.Millisecond)
			default:
				t.Fatalf("submit %s/%s: %s", jb.tenant, jb.spec.Kind, resp.Status)
			}
		}
		if !placed {
			shedOnSubmit++
		}
		time.Sleep(time.Duration(rng.Intn(8)) * time.Millisecond)
	}
	if shedOnSubmit > 0 {
		t.Logf("%d submissions stayed shed after retries (tolerated)", shedOnSubmit)
	}
	if len(admitted) == 0 {
		t.Fatal("chaos shed the entire workload")
	}

	// Invariant wall: every admitted job terminal, correctly
	// classified, and — when it ended done — bit-identical to the
	// clean reference.
	retriedDone := 0
	for _, tr := range admitted {
		final := waitTerminal(t, ts, tr.id)
		switch final.State {
		case StateDone:
			if final.Result == nil || final.Result.Text == "" {
				t.Fatalf("job %s (%s): done without a result", tr.id, tr.job.spec.Kind)
			}
			if got := comparableText(final.Result); got != tr.job.ref {
				t.Fatalf("job %s (%s): done result diverged from the clean run\n--- chaos\n%s--- clean\n%s",
					tr.id, tr.job.spec.Kind, got, tr.job.ref)
			}
			if final.Attempts > 0 {
				retriedDone++
			}
		case StatePartial:
			if final.Result == nil || !final.Result.Partial {
				t.Fatalf("job %s (%s): partial without partial accounting: %+v",
					tr.id, tr.job.spec.Kind, final.Result)
			}
		case StateFailed:
			if final.Error == nil || (final.Error.Type != ErrTypeEngine && final.Error.Type != ErrTypePanic) {
				t.Fatalf("job %s (%s): failed with %+v — misclassified terminal error",
					tr.id, tr.job.spec.Kind, final.Error)
			}
		default:
			t.Fatalf("job %s (%s): unexpected terminal state %s",
				tr.id, tr.job.spec.Kind, final.State)
		}
	}
	if c := srv.Registry().Counters()["server_retries_total"]; c == 0 {
		t.Fatal("the soak never exercised a retry")
	}
	if retriedDone == 0 {
		t.Fatal("no retried job reached done; retry bit-identity went unexercised")
	}
	for _, site := range sites {
		if fp.Hits(site) == 0 {
			t.Fatalf("failpoint site %s never fired during the soak", site)
		}
	}

	// Directed degradation: persistent lane faults must open the
	// translate breaker. RetryMax 2 means each failing job records
	// three failed attempts, so the window trips within a few jobs.
	fp2 := resilient.NewFailpoints()
	fp2.Set("mcengine.lane", resilient.Action{Err: errors.New("soak: persistent lane fault")})
	resilient.Install(fp2)
	var shed *http.Response
	for i := 0; i < 20 && shed == nil; i++ {
		sp := quickTranslate()
		sp.Seed = int64(700 + i)
		resp, snap := postJob(t, ts, "ares", sp)
		switch resp.StatusCode {
		case http.StatusCreated:
			waitTerminal(t, ts, snap.ID)
		case http.StatusServiceUnavailable:
			shed = resp
		default:
			t.Fatalf("degradation submit: %s", resp.Status)
		}
	}
	if shed == nil {
		t.Fatal("translate breaker never opened under persistent faults")
	}
	if ra := shed.Header.Get("Retry-After"); ra == "" {
		t.Fatal("breaker shed without a Retry-After hint")
	}
	ready := getReadyz(t, ts)
	if ready.status != http.StatusOK || !ready.body.Ready {
		t.Fatalf("one open breaker took the whole service not-ready: %d %+v", ready.status, ready.body)
	}
	if k := ready.body.Kinds["translate"]; k.Ready || k.State != "open" {
		t.Fatalf("readyz does not report the open translate breaker: %+v", k)
	}

	// Recovery: heal the engine, wait out the open interval, and the
	// half-open probe closes the breaker again.
	resilient.Install(nil)
	time.Sleep(300 * time.Millisecond)
	probe := quickTranslate()
	probe.Seed = 999
	resp, snap := postJob(t, ts, "ares", probe)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("probe submit after recovery: %s", resp.Status)
	}
	if final := waitTerminal(t, ts, snap.ID); final.State != StateDone {
		t.Fatalf("probe job after recovery: %s %+v", final.State, final.Error)
	}
	ready = getReadyz(t, ts)
	if k := ready.body.Kinds["translate"]; !k.Ready || k.State != "closed" {
		t.Fatalf("translate breaker did not recover: %+v", k)
	}

	// Leak wall.
	ts.Close()
	srv.Close()
	settle(t, baseline)
}
