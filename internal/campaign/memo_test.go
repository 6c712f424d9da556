package campaign

import (
	"math/rand"
	"sync"
	"testing"

	"mstx/internal/fault"
)

// memoVerdict is the pure "detector" of the race test: the verdict a
// record must always carry, no matter which goroutine computed it.
func memoVerdict(rec []int64) bool {
	return rec[0]%2 == 0
}

// TestMemoTableConcurrentConsistency hammers the verdict memo table
// from many goroutines sharing a small key space (run under -race in
// scripts/check.sh). The contract: a hit always returns the verdict
// the record's detector would compute, duplicate inserts keep exactly
// one entry, and racing workers can at worst lose a skip — never
// corrupt a verdict.
func TestMemoTableConcurrentConsistency(t *testing.T) {
	const (
		workers = 16
		keys    = 64
		rounds  = 400
	)
	recs := make([][]int64, keys)
	for i := range recs {
		rng := rand.New(rand.NewSource(int64(i)))
		rec := make([]int64, 32)
		rec[0] = int64(i)
		for j := 1; j < len(rec); j++ {
			rec[j] = rng.Int63()
		}
		recs[i] = rec
	}
	m := newMemoTable()
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for r := 0; r < rounds; r++ {
				rec := recs[rng.Intn(keys)]
				h := fault.HashRecord(rec)
				if detected, ok := m.lookup(h, rec); ok {
					if detected != memoVerdict(rec) {
						errs <- "hit returned a foreign verdict"
						return
					}
					continue
				}
				m.insert(h, rec, memoVerdict(rec))
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	// Every record must now be present with its own verdict, exactly
	// once (racing duplicate inserts collapse to one entry).
	for i, rec := range recs {
		h := fault.HashRecord(rec)
		detected, ok := m.lookup(h, rec)
		if !ok {
			t.Fatalf("record %d lost", i)
		}
		if detected != memoVerdict(rec) {
			t.Fatalf("record %d verdict corrupted", i)
		}
		n := 0
		for _, e := range m.buckets[h] {
			if recordsEqual(e.rec, rec) {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("record %d stored %d times", i, n)
		}
	}
	wantBytes := 0
	for _, b := range m.buckets {
		for _, e := range b {
			wantBytes += 8 * len(e.rec)
		}
	}
	if m.bytes != wantBytes {
		t.Errorf("accounted bytes %d != stored %d", m.bytes, wantBytes)
	}
}

// TestMemoTableByteCap: past the budget, lookups keep working but new
// records are dropped instead of growing without bound.
func TestMemoTableByteCap(t *testing.T) {
	m := newMemoTable()
	m.bytes = maxMemoBytes // simulate a full table
	rec := []int64{1, 2, 3}
	h := fault.HashRecord(rec)
	m.insert(h, rec, true)
	if _, ok := m.lookup(h, rec); ok {
		t.Fatal("record retained past the byte cap")
	}
}
