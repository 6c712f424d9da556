package campaign

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"mstx/internal/fault"
	"mstx/internal/resilient"
)

// TestRunEarlyErrorNoGoroutineLeak is the satellite regression: a
// detection error on the first batch must cancel the in-flight
// record-generation stage — including workers parked on the bounded
// jobs queue — and the goroutine count must settle back to baseline.
func TestRunEarlyErrorNoGoroutineLeak(t *testing.T) {
	u, det, xs := buildCampaign(t, 512, 45)
	baseline := runtime.NumGoroutine() + 2
	for trial := 0; trial < 10; trial++ {
		// Queue 1 and one detect worker maximizes the chance sim
		// workers are blocked on the send when the error lands.
		eng, err := New(u, det, Options{DetectWorkers: 1, Queue: 1})
		if err != nil {
			t.Fatal(err)
		}
		fp := resilient.NewFailpoints()
		boom := errors.New("detect rejected")
		fp.Set("campaign.detect_batch", resilient.Action{Err: boom})
		resilient.Install(fp)
		_, _, err = eng.Run(context.Background(), xs)
		resilient.Install(nil)
		if !errors.Is(err, boom) {
			t.Fatalf("trial %d: got %v, want the injected error", trial, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d live, baseline %d",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRunCancelReturnsTypedPartial(t *testing.T) {
	u, det, xs := buildCampaign(t, 512, 45)
	for _, dc := range detectorCases(det) {
		eng, err := New(u, dc.det, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
		rep, stats, err := eng.Run(ctx, xs)
		cancel()
		if !errors.Is(err, resilient.ErrDeadline) {
			t.Fatalf("%s: expired deadline returned %v, want ErrDeadline", dc.name, err)
		}
		if rep == nil || len(rep.Results) != u.Size() {
			t.Fatalf("%s: partial report missing or wrong length", dc.name)
		}
		if stats == nil {
			t.Fatalf("%s: partial stats missing", dc.name)
		}
		for _, r := range rep.Results {
			if r.Detected {
				t.Fatalf("%s: no batch ran, but fault %v is marked detected", dc.name, r.Fault)
			}
			if r.FirstDiff != -1 {
				t.Fatalf("%s: unprocessed fault %v has FirstDiff %d, want -1", dc.name, r.Fault, r.FirstDiff)
			}
		}

		cctx, ccancel := context.WithCancel(context.Background())
		ccancel()
		if _, _, err := eng.Run(cctx, xs); !errors.Is(err, resilient.ErrCanceled) {
			t.Fatalf("%s: canceled ctx returned %v, want ErrCanceled", dc.name, err)
		}
	}
}

func TestRunQuarantineBothStages(t *testing.T) {
	u, det, xs := buildCampaign(t, 512, 45)
	for _, dc := range detectorCases(det) {
		t.Run(dc.name, func(t *testing.T) {
			ref, err := mustRun(t, u, dc.det, Options{}, xs)
			if err != nil {
				t.Fatal(err)
			}
			for _, site := range []string{"campaign.sim_batch", "campaign.detect_batch"} {
				fp := resilient.NewFailpoints()
				fp.Set(site, resilient.Action{PanicValue: site + " corrupted", Times: 1})
				resilient.Install(fp)
				eng, err := New(u, dc.det, Options{Quarantine: true})
				if err != nil {
					t.Fatal(err)
				}
				rep, stats, err := eng.Run(context.Background(), xs)
				resilient.Install(nil)
				if err != nil {
					t.Fatalf("%s: quarantined campaign failed: %v", site, err)
				}
				if stats.Quarantined == 0 || stats.Quarantined > 63 {
					t.Fatalf("%s: quarantined %d faults, want one batch's worth", site, stats.Quarantined)
				}
				if rep.Quarantined() != stats.Quarantined {
					t.Fatalf("%s: report says %d quarantined, stats say %d",
						site, rep.Quarantined(), stats.Quarantined)
				}
				for i, r := range rep.Results {
					if r.Quarantined {
						if r.Detected {
							t.Fatalf("%s: quarantined fault %v carries a verdict", site, r.Fault)
						}
						continue
					}
					if r != ref.Results[i] {
						t.Fatalf("%s: lane %d diverged: %+v vs %+v", site, i, r, ref.Results[i])
					}
				}
				// Without Quarantine the panic surfaces as *PanicError.
				fp2 := resilient.NewFailpoints()
				fp2.Set(site, resilient.Action{PanicValue: "boom", Times: 1})
				resilient.Install(fp2)
				eng2, err := New(u, dc.det, Options{})
				if err != nil {
					t.Fatal(err)
				}
				_, _, err = eng2.Run(context.Background(), xs)
				resilient.Install(nil)
				var pe *resilient.PanicError
				if !errors.As(err, &pe) {
					t.Fatalf("%s: panic without quarantine returned %v, want *PanicError", site, err)
				}
			}
		})
	}
}

func TestRunCheckpointResumeBitIdentical(t *testing.T) {
	u, det, xs := buildCampaign(t, 512, 45)
	for _, dc := range detectorCases(det) {
		t.Run(dc.name, func(t *testing.T) {
			ref, err := mustRun(t, u, dc.det, Options{}, xs)
			if err != nil {
				t.Fatal(err)
			}
			nBatches := (u.Size() + lanesPerBatch - 1) / lanesPerBatch
			if nBatches < 3 {
				t.Fatalf("universe too small for a mid-run kill: %d batches", nBatches)
			}
			dir := t.TempDir()

			// First attempt dies after two detect batches.
			fp := resilient.NewFailpoints()
			boom := errors.New("injected crash")
			fp.Set("campaign.detect_batch", resilient.Action{Err: boom, After: 2})
			resilient.Install(fp)
			eng, err := New(u, dc.det, Options{
				SimWorkers: 1, DetectWorkers: 1,
				Checkpoint: &resilient.Checkpointer{Dir: dir, Every: 1}, CheckpointName: "t",
			})
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = eng.Run(context.Background(), xs)
			resilient.Install(nil)
			if !errors.Is(err, boom) {
				t.Fatalf("injected crash returned %v", err)
			}

			// Resume: the report must be bit-identical to the uninterrupted
			// reference, and fewer spectra than a fresh run must be computed.
			eng2, err := New(u, dc.det, Options{
				Checkpoint: &resilient.Checkpointer{Dir: dir, Every: 1, Resume: true}, CheckpointName: "t",
			})
			if err != nil {
				t.Fatal(err)
			}
			rep, stats, err := eng2.Run(context.Background(), xs)
			if err != nil {
				t.Fatalf("resume failed: %v", err)
			}
			if len(rep.Results) != len(ref.Results) {
				t.Fatal("result count mismatch")
			}
			for i := range rep.Results {
				if rep.Results[i] != ref.Results[i] {
					t.Fatalf("lane %d: resumed %+v != reference %+v", i, rep.Results[i], ref.Results[i])
				}
			}
			// Counter restoration: screened + memoized + spectra - 1 (good
			// record) + quarantined must still account for every fault.
			accounted := stats.Screened + stats.Memoized + (stats.Spectra - 1) + stats.Quarantined
			if accounted != u.Size() {
				t.Fatalf("resumed stats account for %d faults, want %d (%+v)", accounted, u.Size(), stats)
			}

			// A second resume finds everything done and recomputes nothing
			// beyond the good-record verdict.
			eng3, err := New(u, dc.det, Options{
				Checkpoint: &resilient.Checkpointer{Dir: dir, Every: 1, Resume: true}, CheckpointName: "t",
			})
			if err != nil {
				t.Fatal(err)
			}
			rep3, stats3, err := eng3.Run(context.Background(), xs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range rep3.Results {
				if rep3.Results[i] != ref.Results[i] {
					t.Fatalf("second resume diverged at lane %d", i)
				}
			}
			if stats3.Spectra != stats.Spectra {
				t.Fatalf("second resume recomputed spectra: %d vs %d", stats3.Spectra, stats.Spectra)
			}

			// A different stimulus must be rejected loudly.
			other := append([]int64(nil), xs...)
			other[0]++
			eng4, err := New(u, dc.det, Options{
				Checkpoint: &resilient.Checkpointer{Dir: dir, Every: 1, Resume: true}, CheckpointName: "t",
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := eng4.Run(context.Background(), other); err == nil {
				t.Fatal("checkpoint accepted for a different stimulus")
			}
		})
	}
}

// TestRunResumesLedgerWithoutCounters pins the ledger's backward
// compatibility: a version-1 snapshot holding only the campaign
// identity, Done and Results — no engine counters, the layout of the
// "exact" and "e8_exact" snapshots from before the exact campaign ran
// on this engine — resumes bit-identically.
func TestRunResumesLedgerWithoutCounters(t *testing.T) {
	u, _, xs := buildCampaign(t, 512, 45)
	det := fault.ExactDetector{}
	ref, err := mustRun(t, u, det, Options{}, xs)
	if err != nil {
		t.Fatal(err)
	}
	type countlessLedger struct {
		NF       int
		Patterns int
		StimHash uint64
		Done     []bool
		Results  []fault.Result
	}
	st := countlessLedger{
		NF: u.Size(), Patterns: len(xs), StimHash: fault.HashRecord(xs),
		Done:    make([]bool, (u.Size()+lanesPerBatch-1)/lanesPerBatch),
		Results: make([]fault.Result, u.Size()),
	}
	for i, f := range u.Faults {
		st.Results[i] = fault.Result{Fault: f, Tap: u.FIR.TapOfNet(f.Net), FirstDiff: -1}
	}
	// The first two batches are done.
	st.Done[0], st.Done[1] = true, true
	copy(st.Results[:2*lanesPerBatch], ref.Results)
	dir := t.TempDir()
	if err := (&resilient.Checkpointer{Dir: dir}).Save("exact", campCkptVersion, st); err != nil {
		t.Fatal(err)
	}
	eng, err := New(u, det, Options{
		Checkpoint: &resilient.Checkpointer{Dir: dir, Resume: true}, CheckpointName: "exact",
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, stats, err := eng.Run(context.Background(), xs)
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if !reflect.DeepEqual(rep, ref) {
		t.Fatal("resumed report differs from the uninterrupted one")
	}
	// Only the batches left undone were detected.
	if got, want := stats.Screened+stats.Memoized+stats.Spectra, u.Size()-2*lanesPerBatch+1; got != want {
		t.Fatalf("resume evaluated %d lanes (+1 good), want %d", got, want)
	}
}

// mustRun runs a fresh engine with opts and returns the report.
func mustRun(t *testing.T, u *fault.Universe, det fault.Detector, opts Options, xs []int64) (*fault.Report, error) {
	t.Helper()
	eng, err := New(u, det, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := eng.Run(context.Background(), xs)
	return rep, err
}
