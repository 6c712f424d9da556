package server

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mstx/internal/resilient"
)

// gobBytes is v's gob encoding: two ledger states are equal exactly
// when they persist to the same bytes.
func gobBytes(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readLedger replays the ledger files in dir as a restarting server
// would, without starting one.
func readLedger(dir string) (ledgerState, error) {
	return loadLedger(resilient.NewJournal(dir, ledgerName, ledgerVersion))
}

// TestLedgerReplayMatchesSnapshotAtEveryTransition is the resume
// equivalence wall: through a mixed-kind durable run with a retry, a
// cancel, a deadline, cache hits and compactions, the snapshot plus
// the log replay — after every single transition — to exactly the
// state the full-snapshot builder returns at that instant.
func TestLedgerReplayMatchesSnapshotAtEveryTransition(t *testing.T) {
	defer resilient.Install(nil)
	dir := t.TempDir()
	srv, err := New(Config{Workers: 2, CheckpointDir: dir, RetryMax: 1, RetryBase: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var checks int
	var mismatch string
	srv.mu.Lock()
	srv.ledgerHook = func() {
		checks++
		if mismatch != "" {
			return
		}
		got, err := readLedger(dir)
		if err != nil {
			mismatch = fmt.Sprintf("check %d: replay: %v", checks, err)
			return
		}
		want := srv.ledgerStateLocked()
		if !bytes.Equal(gobBytes(t, got), gobBytes(t, want)) {
			mismatch = fmt.Sprintf("check %d: replayed ledger differs from the live state:\n%+v\nvs\n%+v", checks, got, want)
		}
	}
	srv.mu.Unlock()

	// One transient lane fault: the first translate/mc attempt to
	// reach it fails and is retried.
	fp := resilient.NewFailpoints()
	fp.Set("mcengine.lane", resilient.Action{Err: errors.New("injected transient fault"), Times: 1})
	resilient.Install(fp)

	submit := func(sp Spec) *Job {
		t.Helper()
		j, err := srv.Submit("eq", sp)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	tr := quickTranslate()
	jobs := []*Job{
		submit(tr),
		submit(Spec{Kind: "campaign", Patterns: 64}),
		submit(Spec{Kind: "mc", Devices: 2, CaptureN: 256}),
		submit(quickSOC()),
		submit(Spec{Kind: "campaign", Patterns: 256, Seed: 9, DeadlineMS: 1}),
	}
	canceled := submit(Spec{Kind: "translate", Param: "P1dB", Samples: 4096, BatchSize: 512, Seed: 8})
	srv.Cancel(canceled.ID)
	jobs = append(jobs, canceled)
	for _, j := range jobs {
		<-j.Done()
	}
	// Cache hits carry whole results through the log and push it past
	// the snapshot, so compactions interleave with the checks.
	for i := 0; i < 60; i++ {
		jobs = append(jobs, submit(tr))
		if i%8 == 7 {
			for _, j := range jobs {
				<-j.Done()
			}
		}
	}
	for _, j := range jobs {
		<-j.Done()
	}

	seen := map[string]bool{}
	for _, j := range jobs {
		seen[srv.Snapshot(j).State] = true
	}
	for _, st := range []string{StateDone, StateCanceled, StateDeadline} {
		if !seen[st] {
			t.Errorf("the run never reached %s; states seen %v", st, seen)
		}
	}
	c := srv.Registry().Counters()
	if c["server_retries_total"] == 0 {
		t.Error("the run never retried")
	}
	if c["server_ledger_compactions_total"] < 2 {
		t.Errorf("%d compactions: the run never compacted past the one on open", c["server_ledger_compactions_total"])
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if mismatch != "" {
		t.Fatal(mismatch)
	}
	if checks < 3*len(jobs) {
		t.Fatalf("%d ledger checks for %d jobs", checks, len(jobs))
	}
}

// durableRun runs a few quick jobs to completion on a durable server
// and stops it, leaving every transition in the log.
func durableRun(t *testing.T, dir string) []Snapshot {
	t.Helper()
	srv, err := New(Config{Workers: 1, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var snaps []Snapshot
	for i := 0; i < 4; i++ {
		sp := quickTranslate()
		sp.Seed = int64(80 + i)
		j, err := srv.Submit("crash", sp)
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		snaps = append(snaps, srv.Snapshot(j))
	}
	srv.Kill()
	return snaps
}

func TestLedgerTornLogResumesEarlierTransitions(t *testing.T) {
	dir := t.TempDir()
	snaps := durableRun(t, dir)
	logPath := filepath.Join(dir, ledgerName+".log")
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := resilient.ReadFrames(raw)
	if err != nil || len(frames) != 3*len(snaps) {
		t.Fatalf("log holds %d frames (%v), want 3 per job", len(frames), err)
	}

	// Cut the log inside its last frame, the terminal record of the
	// last job: every earlier transition must survive, and that job
	// resumes from its dispatch record and runs again.
	cut := len(raw) - len(frames[len(frames)-1])/2
	if err := os.WriteFile(logPath, raw[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := readLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Jobs) != len(snaps) || st.Jobs[len(snaps)-1].State != StateRunning {
		t.Fatalf("torn log replayed to %+v", st)
	}
	srv, err := New(Config{Workers: 1, CheckpointDir: dir, Resume: true})
	if err != nil {
		t.Fatalf("torn log refused: %v", err)
	}
	defer srv.Close()
	for _, want := range snaps {
		j, ok := srv.Get(want.ID)
		if !ok {
			t.Fatalf("job %s lost to a torn tail", want.ID)
		}
		<-j.Done()
		got := srv.Snapshot(j)
		if got.State != StateDone || got.Result.Text != want.Result.Text {
			t.Fatalf("job %s resumed as %s %+v", want.ID, got.State, got.Error)
		}
	}
}

func TestLedgerCorruptFrameRefusesResume(t *testing.T) {
	dir := t.TempDir()
	durableRun(t, dir)
	logPath := filepath.Join(dir, ledgerName+".log")
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[20] ^= 0x08 // inside the first frame's payload
	if err := os.WriteFile(logPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = New(Config{Workers: 1, CheckpointDir: dir, Resume: true})
	var ce *resilient.CorruptLogError
	if !errors.As(err, &ce) {
		t.Fatalf("New on a corrupt log: %v, want *resilient.CorruptLogError", err)
	}
}

// TestLedgerResumesSnapshotOnlyDirectory: a directory written by a
// server that rewrote the whole ledger on every transition holds only
// mstxd_jobs.ckpt. It resumes as before.
func TestLedgerResumesSnapshotOnlyDirectory(t *testing.T) {
	dir := t.TempDir()
	done := &Result{Kind: "translate", Identity: "00000000000000aa", Text: "done earlier\n"}
	old := ledgerState{NextID: 2, Jobs: []ledgerRecord{
		{ID: "j1", Tenant: "t", Spec: quickTranslate(), State: StateDone, Identity: "00000000000000aa", Result: done},
		{ID: "j2", Tenant: "t", Spec: quickTranslate(), State: StateQueued},
	}}
	ck := &resilient.Checkpointer{Dir: dir}
	if err := ck.Save(ledgerName, ledgerVersion, &old); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Workers: 1, CheckpointDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	j1, ok := srv.Get("j1")
	if !ok {
		t.Fatal("terminal job lost")
	}
	if got := srv.Snapshot(j1); got.State != StateDone || got.Result.Text != done.Text {
		t.Fatalf("terminal job resumed as %+v", got)
	}
	j2, ok := srv.Get("j2")
	if !ok {
		t.Fatal("queued job lost")
	}
	<-j2.Done()
	if got := srv.Snapshot(j2); got.State != StateDone {
		t.Fatalf("queued job resumed to %s %+v", got.State, got.Error)
	}
	j3, err := srv.Submit("t", Spec{Kind: "soc", TAMWidths: []int{4}, Iterations: 1})
	if err != nil || j3.ID != "j3" {
		t.Fatalf("next submission %v %v, want ID j3", j3, err)
	}
	<-j3.Done()
	if _, err := os.Stat(filepath.Join(dir, ledgerName+".log")); err != nil {
		t.Fatalf("resumed server writes no log: %v", err)
	}
}

// historyResult is a synthetic terminal result about the size of a
// real translate or soc result.
var historyResult = &Result{Kind: "translate", Identity: "0123456789abcdef", Text: strings.Repeat("row of a result table\n", 64)}

// ledgerWithHistory returns a durable server whose ledger already
// holds n terminal jobs (snapshotted, empty log), plus one live job,
// ID j1, whose transitions the caller drives.
func ledgerWithHistory(tb testing.TB, n int) (*Server, *Job) {
	tb.Helper()
	srv, err := New(Config{Workers: 1, CheckpointDir: tb.TempDir()})
	if err != nil {
		tb.Fatal(err)
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for i := 0; i < n; i++ {
		j := &Job{ID: fmt.Sprintf("h%d", i), Tenant: "history", Spec: quickTranslate(),
			state: StateDone, result: historyResult, identity: uint64(i), hasIdent: true}
		srv.jobs[j.ID] = j
		srv.order = append(srv.order, j.ID)
	}
	srv.nextID = 1
	live := &Job{ID: "j1", Tenant: "live", Spec: quickTranslate(), state: StateQueued}
	srv.jobs[live.ID] = live
	srv.order = append(srv.order, live.ID)
	if err := srv.compactLocked(); err != nil {
		tb.Fatal(err)
	}
	return srv, live
}

// TestLedgerAppendBytesIndependentOfHistory: one transition writes the
// same bytes whatever the history — the cost the whole-ledger rewrite
// paid in proportion to every job ever submitted.
func TestLedgerAppendBytesIndependentOfHistory(t *testing.T) {
	var appended, snapshot []int64
	for _, n := range []int{10, 1000} {
		srv, live := ledgerWithHistory(t, n)
		before := srv.mLedgerB.Value()
		srv.mu.Lock()
		live.state = StateRunning
		srv.persistLocked(live)
		srv.mu.Unlock()
		appended = append(appended, srv.mLedgerB.Value()-before)
		fi, err := os.Stat(filepath.Join(srv.cfg.CheckpointDir, ledgerName+".ckpt"))
		if err != nil {
			t.Fatal(err)
		}
		snapshot = append(snapshot, fi.Size())
		srv.Close()
	}
	if appended[0] <= 0 || appended[0] != appended[1] {
		t.Fatalf("one transition appended %d bytes at history 10 and %d at history 1000", appended[0], appended[1])
	}
	if snapshot[1] < 50*snapshot[0] {
		t.Fatalf("snapshots of %d and %d bytes: the history did not grow the ledger", snapshot[0], snapshot[1])
	}
}

// BenchmarkLedgerTransition is the per-transition ledger cost, with
// compactions amortized in, at two history sizes two decades apart;
// the append-only log keeps the two within a small constant factor.
func BenchmarkLedgerTransition(b *testing.B) {
	for _, n := range []int{100, 10000} {
		b.Run(fmt.Sprintf("history=%d", n), func(b *testing.B) {
			srv, live := ledgerWithHistory(b, n)
			defer srv.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				srv.mu.Lock()
				live.state = StateRunning
				if i%2 == 1 {
					live.state = StateQueued
				}
				srv.persistLocked(live)
				srv.mu.Unlock()
			}
		})
	}
}
