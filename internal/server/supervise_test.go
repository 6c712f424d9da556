package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"mstx/internal/obs"
	"mstx/internal/resilient"
)

// TestRetryDelay pins the backoff policy: exponential growth from the
// base, hard cap, and deterministic jitter — same (seed, job, attempt)
// always the same delay, different jobs de-synchronized.
func TestRetryDelay(t *testing.T) {
	base, cap := 100*time.Millisecond, 2*time.Second
	prev := time.Duration(0)
	for attempt := 1; attempt <= 8; attempt++ {
		d := retryDelay(base, cap, 1, "j1", attempt)
		if d < base || d > cap {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, base, cap)
		}
		if d < prev && d != cap {
			t.Fatalf("attempt %d: delay %v shrank below %v before the cap", attempt, d, prev)
		}
		if got := retryDelay(base, cap, 1, "j1", attempt); got != d {
			t.Fatalf("attempt %d: not deterministic (%v vs %v)", attempt, d, got)
		}
		prev = d
	}
	// The exponential part dominates: attempt 3 ≥ 4×base even before
	// jitter, attempt 1 < 2×base even after jitter.
	if d := retryDelay(base, cap, 1, "j1", 1); d >= 2*base {
		t.Fatalf("attempt 1 delay %v ≥ 2×base", d)
	}
	if d := retryDelay(base, cap, 1, "j1", 3); d < 4*base {
		t.Fatalf("attempt 3 delay %v < 4×base", d)
	}
	// Jitter separates jobs (with overwhelming probability for these
	// specific IDs; pinned here so a jitter regression is loud).
	if retryDelay(base, cap, 1, "j1", 2) == retryDelay(base, cap, 1, "j2", 2) {
		t.Fatal("distinct jobs got identical jittered delays")
	}
	// And the whole timeline is a function of the seed.
	if retryDelay(base, cap, 1, "j1", 2) == retryDelay(base, cap, 2, "j1", 2) {
		t.Fatal("distinct seeds got identical jittered delays")
	}
}

// TestRetryAfterHint pins the 429 hint: configured floor with an empty
// drain history, backlog-proportional once attempts have completed,
// capped at five minutes.
func TestRetryAfterHint(t *testing.T) {
	floor := 3 * time.Second
	if got := retryAfterHint(2, 0, 1, floor); got != floor {
		t.Fatalf("no-history hint %v, want floor %v", got, floor)
	}
	if got := retryAfterHint(10, 2*time.Second, 2, floor); got != 10*time.Second {
		t.Fatalf("drain hint %v, want 10s (10 jobs × 2s / 2 workers)", got)
	}
	if got := retryAfterHint(1, time.Second, 4, floor); got != floor {
		t.Fatalf("sub-floor hint %v, want floor %v", got, floor)
	}
	if got := retryAfterHint(100000, time.Minute, 1, floor); got != 5*time.Minute {
		t.Fatalf("pathological hint %v, want 5m cap", got)
	}
	if got := ceilSeconds(1200 * time.Millisecond); got != 2 {
		t.Fatalf("ceilSeconds(1.2s) = %d, want 2", got)
	}
}

// TestJobDeadlineResolution pins the deadline policy: spec wins, then
// the server default, and the cap clamps both (including "unlimited").
func TestJobDeadlineResolution(t *testing.T) {
	sp := func(ms int64) *Spec { return &Spec{DeadlineMS: ms} }
	if d := jobDeadline(sp(0), 0, 0); d != 0 {
		t.Fatalf("unlimited: %v", d)
	}
	if d := jobDeadline(sp(1500), 0, 0); d != 1500*time.Millisecond {
		t.Fatalf("spec deadline: %v", d)
	}
	if d := jobDeadline(sp(0), 2*time.Second, 0); d != 2*time.Second {
		t.Fatalf("default deadline: %v", d)
	}
	if d := jobDeadline(sp(10_000), 0, 3*time.Second); d != 3*time.Second {
		t.Fatalf("cap over spec: %v", d)
	}
	if d := jobDeadline(sp(0), 0, 3*time.Second); d != 3*time.Second {
		t.Fatalf("cap over unlimited: %v", d)
	}
	// The legacy timeout_sec spelling folds into deadline_ms.
	legacy := &Spec{Kind: "translate", Param: "IIP3", TimeoutSec: 1.5}
	if err := legacy.normalize(); err != nil {
		t.Fatal(err)
	}
	if legacy.DeadlineMS != 1500 {
		t.Fatalf("timeout_sec fold: deadline_ms %d, want 1500", legacy.DeadlineMS)
	}
	// The largest budget a time.Duration holds is accepted and resolves
	// to itself.
	top := &Spec{Kind: "translate", Param: "IIP3", DeadlineMS: maxDeadlineMS}
	if err := top.normalize(); err != nil {
		t.Fatal(err)
	}
	if d := jobDeadline(top, 0, 0); d != time.Duration(maxDeadlineMS)*time.Millisecond {
		t.Fatalf("largest budget resolved to %v", d)
	}
	// Budgets past it would overflow the Duration (deadline_ms wraps
	// to a sub-millisecond budget; timeout_sec folds to a negative
	// deadline_ms): normalize refuses them, and so does the service,
	// with a typed 400.
	overflow := []Spec{
		{Kind: "translate", Param: "IIP3", DeadlineMS: 18446744073710},
		{Kind: "translate", Param: "IIP3", DeadlineMS: maxDeadlineMS + 1},
		{Kind: "translate", Param: "IIP3", TimeoutSec: 1e30},
		{Kind: "translate", Param: "IIP3", TimeoutSec: math.Inf(1)},
		{Kind: "translate", Param: "IIP3", TimeoutSec: math.NaN()},
	}
	for _, sp := range overflow {
		in := sp
		if err := in.normalize(); err == nil {
			t.Errorf("normalize accepted deadline_ms %d timeout_sec %g (resolves to %v)",
				sp.DeadlineMS, sp.TimeoutSec, jobDeadline(&in, 0, 0))
		}
	}
	_, ts := newTestService(t, Config{Workers: 1})
	for _, sp := range overflow[:3] {
		resp, snap := postJob(t, ts, "", sp)
		if resp.StatusCode != http.StatusBadRequest || snap.Error == nil || snap.Error.Type != ErrTypeBadRequest {
			t.Errorf("deadline_ms %d timeout_sec %g: status %s, error %+v, want a typed 400",
				sp.DeadlineMS, sp.TimeoutSec, resp.Status, snap.Error)
		}
	}
}

// TestBreakerStateMachine drives one breaker through
// closed→open→half-open→closed (and the reopen edge) on a fake clock.
func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	b := newBreaker("x", breakerConfig{
		window: 8, minSamples: 4, threshold: 0.5, openFor: time.Second, probes: 1,
	}, obs.New(), clock)

	if ok, _ := b.admit(); !ok {
		t.Fatal("closed breaker refused admission")
	}
	// Below minSamples nothing trips, however bad the rate.
	b.record(true)
	b.record(true)
	b.record(true)
	if st, _ := b.snapshot(); st != "closed" {
		t.Fatalf("tripped below minSamples: %s", st)
	}
	b.record(true) // 4 of 4 failed ≥ 0.5 → open
	if st, ready := b.snapshot(); st != "open" || ready {
		t.Fatalf("want open/not-ready, got %s/%v", st, ready)
	}
	ok, retryIn := b.admit()
	if ok || retryIn <= 0 || retryIn > time.Second {
		t.Fatalf("open breaker: ok=%v retryIn=%v", ok, retryIn)
	}

	// After openFor the next admit is a half-open probe; the second
	// concurrent probe is still shed.
	now = now.Add(1100 * time.Millisecond)
	if ok, _ := b.admit(); !ok {
		t.Fatal("half-open breaker refused the probe")
	}
	if st, ready := b.snapshot(); st != "half_open" || !ready {
		t.Fatalf("want half_open/ready, got %s/%v", st, ready)
	}
	if ok, _ := b.admit(); ok {
		t.Fatal("second probe admitted beyond the probe budget")
	}

	// A failed probe reopens; a successful one closes and resets.
	b.record(true)
	if st, _ := b.snapshot(); st != "open" {
		t.Fatalf("failed probe: want open, got %s", st)
	}
	now = now.Add(1100 * time.Millisecond)
	if ok, _ := b.admit(); !ok {
		t.Fatal("second probe window refused")
	}
	b.record(false)
	if st, ready := b.snapshot(); st != "closed" || !ready {
		t.Fatalf("successful probe: want closed/ready, got %s/%v", st, ready)
	}
	// The window was reset: old failures don't count toward the next
	// trip decision.
	b.record(true)
	b.record(true)
	b.record(true)
	if st, _ := b.snapshot(); st != "closed" {
		t.Fatalf("window not reset after close: %s", st)
	}
}

// TestRetryResumesAndMatchesCleanRun is the end-to-end retry contract:
// an injected engine fault fails the first attempt, the supervision
// layer retries from the job's checkpoint, and the final result is
// bit-identical to an uninterrupted run of the same spec.
func TestRetryResumesAndMatchesCleanRun(t *testing.T) {
	defer resilient.Install(nil)
	baseline := runtime.NumGoroutine()

	// Clean reference from a pristine server.
	cleanSrv, cleanTS := newTestService(t, Config{Workers: 1})
	spec := quickTranslate()
	spec.Seed = 21
	_, snap := postJob(t, cleanTS, "", spec)
	clean := waitTerminal(t, cleanTS, snap.ID)
	if clean.State != StateDone {
		t.Fatalf("clean run: %s %+v", clean.State, clean.Error)
	}
	cleanTS.Close()
	cleanSrv.Close()

	// Now the same spec against a retrying server with the first
	// attempt sabotaged.
	srv, ts := newTestService(t, Config{
		Workers:       1,
		RetryMax:      2,
		RetryBase:     10 * time.Millisecond,
		CheckpointDir: t.TempDir(),
	})
	fp := resilient.NewFailpoints()
	fp.Set("mcengine.lane", resilient.Action{Err: errors.New("injected transient fault"), Times: 1})
	resilient.Install(fp)

	_, snap = postJob(t, ts, "", spec)
	final := waitTerminal(t, ts, snap.ID)
	if final.State != StateDone {
		t.Fatalf("retried run: %s %+v", final.State, final.Error)
	}
	if final.Attempts != 1 {
		t.Fatalf("attempts %d, want 1", final.Attempts)
	}
	if final.Error != nil {
		t.Fatalf("terminal success kept an error: %+v", final.Error)
	}
	if final.Result.Text != clean.Result.Text {
		t.Fatalf("retried result differs from clean run:\n%q\nvs\n%q",
			final.Result.Text, clean.Result.Text)
	}
	if got := srv.Registry().Counters()["server_retries_total"]; got != 1 {
		t.Fatalf("server_retries_total %d, want 1", got)
	}

	// Retries are bounded: a persistent fault exhausts RetryMax and
	// lands in failed/engine with the attempt count visible.
	fp = resilient.NewFailpoints()
	fp.Set("mcengine.lane", resilient.Action{Err: errors.New("injected persistent fault")})
	resilient.Install(fp)
	spec.Seed = 22
	_, snap = postJob(t, ts, "", spec)
	final = waitTerminal(t, ts, snap.ID)
	if final.State != StateFailed || final.Error == nil || final.Error.Type != ErrTypeEngine {
		t.Fatalf("persistent fault: %s %+v", final.State, final.Error)
	}
	if final.Attempts != 2 {
		t.Fatalf("persistent fault attempts %d, want 2", final.Attempts)
	}

	resilient.Install(nil)
	ts.Close()
	srv.Close()
	settle(t, baseline)
}

// TestDeadlineSalvagesPartial: a campaign job whose wall budget expires
// mid-run lands in deadline_exceeded — not failed — and carries the
// partial result the engine salvaged, served by /result.
func TestDeadlineSalvagesPartial(t *testing.T) {
	defer resilient.Install(nil)
	baseline := runtime.NumGoroutine()
	srv, ts := newTestService(t, Config{Workers: 1, EngineWorkers: 1})

	// Serialize the batches and slow each one so the deadline lands
	// after the first batch but before the last.
	fp := resilient.NewFailpoints()
	fp.Set("campaign.sim_batch", resilient.Action{Delay: 60 * time.Millisecond})
	resilient.Install(fp)

	_, snap := postJob(t, ts, "", map[string]any{
		"kind": "campaign", "patterns": 64, "deadline_ms": 150,
	})
	final := waitTerminal(t, ts, snap.ID)
	if final.State != StateDeadline {
		t.Fatalf("state %s (%+v), want %s", final.State, final.Error, StateDeadline)
	}
	if final.Error == nil || final.Error.Type != ErrTypeDeadline {
		t.Fatalf("deadline error body %+v", final.Error)
	}
	if final.Result == nil || !final.Result.Partial || final.Result.Campaign == nil {
		t.Fatalf("no salvaged partial result: %+v", final.Result)
	}
	rr, err := ts.Client().Get(ts.URL + "/v1/jobs/" + snap.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(rr.Body)
	rr.Body.Close()
	if rr.StatusCode != http.StatusOK || !strings.Contains(string(text), "PARTIAL") {
		t.Fatalf("salvaged result endpoint: %s %q", rr.Status, text)
	}

	// A deadline job that salvaged nothing (translate returns no
	// partials) still classifies as deadline_exceeded and /result is a
	// typed 409.
	fp = resilient.NewFailpoints()
	fp.Set("mcengine.lane", resilient.Action{Delay: 40 * time.Millisecond})
	resilient.Install(fp)
	sp := quickTranslate()
	sp.Seed = 31
	sp.DeadlineMS = 100
	_, snap = postJob(t, ts, "", sp)
	final = waitTerminal(t, ts, snap.ID)
	if final.State != StateDeadline || final.Result != nil {
		t.Fatalf("translate deadline: %s result=%+v", final.State, final.Result)
	}
	rr, err = ts.Client().Get(ts.URL + "/v1/jobs/" + snap.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if rr.StatusCode != http.StatusConflict {
		t.Fatalf("no-salvage result status %s, want 409", rr.Status)
	}
	if eb := errorBody(t, rr); eb.Type != ErrTypeDeadline {
		t.Fatalf("no-salvage result error type %q", eb.Type)
	}

	resilient.Install(nil)
	ts.Close()
	srv.Close()
	settle(t, baseline)
}

// TestBreakerShedsAndReadyz trips one kind's breaker and checks the
// full degradation surface: 503 + Retry-After + breaker_open on
// submit, per-kind /readyz (degraded kind visible, overall still
// ready), recovery through the half-open probe, and the exported
// breaker metrics.
func TestBreakerShedsAndReadyz(t *testing.T) {
	defer resilient.Install(nil)
	baseline := runtime.NumGoroutine()
	srv, ts := newTestService(t, Config{
		Workers:           1,
		BreakerWindow:     8,
		BreakerMinSamples: 4,
		BreakerThreshold:  0.5,
		BreakerOpenFor:    300 * time.Millisecond,
	})

	// Persistent engine fault on the translate path; retries are off,
	// so each failing job records one breaker outcome.
	fp := resilient.NewFailpoints()
	fp.Set("mcengine.lane", resilient.Action{Err: errors.New("injected persistent fault")})
	resilient.Install(fp)

	var shedResp *http.Response
	for seed := int64(50); seed < 70; seed++ {
		sp := quickTranslate()
		sp.Seed = seed
		resp, snap := postJob(t, ts, "", sp)
		if resp.StatusCode == http.StatusServiceUnavailable {
			shedResp = resp
			break
		}
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("seed %d: %s", seed, resp.Status)
		}
		waitTerminal(t, ts, snap.ID)
	}
	if shedResp == nil {
		t.Fatal("breaker never opened after 20 failing jobs")
	}
	if ra := shedResp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 without Retry-After")
	} else if n, err := strconv.Atoi(ra); err != nil || n < 1 {
		t.Fatalf("Retry-After %q", ra)
	}

	// /readyz: translate degraded, service overall still ready (the
	// other kinds are untouched).
	ready := getReadyz(t, ts)
	if ready.status != http.StatusOK || !ready.body.Ready {
		t.Fatalf("readyz with one kind open: %d %+v", ready.status, ready.body)
	}
	if k := ready.body.Kinds["translate"]; k.Ready || k.State != "open" {
		t.Fatalf("translate kind %+v, want open/not-ready", k)
	}
	if k := ready.body.Kinds["mc"]; !k.Ready {
		t.Fatalf("mc kind degraded too: %+v", k)
	}

	// Heal the engine, wait out the open interval: the probe job is
	// admitted, succeeds, and closes the breaker.
	resilient.Install(nil)
	time.Sleep(350 * time.Millisecond)
	sp := quickTranslate()
	sp.Seed = 99
	resp, snap := postJob(t, ts, "", sp)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("probe submit: %s", resp.Status)
	}
	if final := waitTerminal(t, ts, snap.ID); final.State != StateDone {
		t.Fatalf("probe job: %s %+v", final.State, final.Error)
	}
	ready = getReadyz(t, ts)
	if k := ready.body.Kinds["translate"]; !k.Ready || k.State != "closed" {
		t.Fatalf("translate after recovery %+v, want closed/ready", k)
	}

	c := srv.Registry().Counters()
	if c["server_breaker_translate_opened_total"] == 0 {
		t.Fatal("no breaker open recorded")
	}
	if c["server_breaker_translate_closed_total"] == 0 {
		t.Fatal("no breaker close recorded")
	}
	if c["server_breaker_translate_shed_total"] == 0 {
		t.Fatal("no shed recorded")
	}

	ts.Close()
	srv.Close()
	settle(t, baseline)
}

type readyzResult struct {
	status int
	body   readyResponse
}

func getReadyz(t *testing.T, ts *httptest.Server) readyzResult {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body readyResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return readyzResult{status: resp.StatusCode, body: body}
}

// TestSSEHeartbeat: a slow job's event stream carries ": ping" comment
// lines at the configured interval, so idle proxies never see a silent
// connection, and the stream still terminates with the done event.
func TestSSEHeartbeat(t *testing.T) {
	defer resilient.Install(nil)
	baseline := runtime.NumGoroutine()
	srv, ts := newTestService(t, Config{
		Workers:   1,
		EventPoll: 50 * time.Millisecond,
		Heartbeat: 15 * time.Millisecond,
	})

	fp := resilient.NewFailpoints()
	fp.Set("mcengine.lane", resilient.Action{Delay: 20 * time.Millisecond})
	resilient.Install(fp)

	sp := quickTranslate()
	sp.Seed = 41
	_, snap := postJob(t, ts, "", sp)
	sseResp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + snap.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	var pings int
	var last string
	sc := bufio.NewScanner(sseResp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == ": ping" {
			pings++
		}
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			last = name
		}
	}
	sseResp.Body.Close()
	if pings == 0 {
		t.Fatal("no heartbeat comments on a multi-interval stream")
	}
	if last != "done" {
		t.Fatalf("stream ended on %q, want done", last)
	}

	resilient.Install(nil)
	waitTerminal(t, ts, snap.ID)
	ts.Close()
	srv.Close()
	settle(t, baseline)
}

// TestCancelRacesCheckpointSave widens every ledger save with a
// failpoint delay and fires DELETE at a sweep of instants across the
// job's lifetime — including right around the terminal save. Each job
// must settle in exactly one coherent terminal state (done with a
// result and no error, or canceled with a typed error and no result),
// and the ledger must replay cleanly on a Resume restart.
func TestCancelRacesCheckpointSave(t *testing.T) {
	defer resilient.Install(nil)
	baseline := runtime.NumGoroutine()
	dir := t.TempDir()
	srv, ts := newTestService(t, Config{Workers: 1, CheckpointDir: dir})

	fp := resilient.NewFailpoints()
	fp.Set("resilient.checkpoint.save", resilient.Action{Delay: 2 * time.Millisecond})
	fp.Set("mcengine.lane", resilient.Action{Delay: time.Millisecond})
	resilient.Install(fp)

	var ids []string
	for i := 0; i < 8; i++ {
		sp := quickTranslate()
		sp.Seed = int64(60 + i)
		_, snap := postJob(t, ts, "", sp)
		ids = append(ids, snap.ID)
		time.Sleep(time.Duration(i) * 3 * time.Millisecond)
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+snap.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()

		final := waitTerminal(t, ts, snap.ID)
		switch final.State {
		case StateCanceled:
			if final.Error == nil || final.Error.Type != ErrTypeCanceled || final.Result != nil {
				t.Fatalf("job %s: incoherent canceled snapshot %+v", snap.ID, final)
			}
		case StateDone:
			if final.Error != nil || final.Result == nil {
				t.Fatalf("job %s: incoherent done snapshot %+v", snap.ID, final)
			}
		default:
			t.Fatalf("job %s: unexpected terminal state %s (%+v)", snap.ID, final.State, final.Error)
		}
		// Exactly one terminal transition: the state must never change
		// again, whatever the cancel/save interleaving was.
		time.Sleep(10 * time.Millisecond)
		if again := getJob(t, ts, snap.ID); again.State != final.State {
			t.Fatalf("job %s flipped %s -> %s after finishing", snap.ID, final.State, again.State)
		}
	}

	resilient.Install(nil)
	ts.Close()
	srv.Close()
	settle(t, baseline)

	// The races never corrupted the ledger: a Resume restart replays
	// every job, each still in a coherent terminal state.
	srv2, ts2 := newTestService(t, Config{Workers: 1, CheckpointDir: dir, Resume: true})
	for _, id := range ids {
		snap := waitTerminal(t, ts2, id)
		if snap.State != StateDone && snap.State != StateCanceled {
			t.Fatalf("resumed job %s in %s", id, snap.State)
		}
	}
	ts2.Close()
	srv2.Close()
}
