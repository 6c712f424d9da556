package obs

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", 0, 1, 8)
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(1)
	h.Observe(0.5)
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().N != 0 {
		t.Error("nil handles must observe nothing")
	}
	ctx, sp := r.Span(context.Background(), "nope")
	sp.End()
	if ctx == nil {
		t.Error("nil registry must hand the context back")
	}
	if err := r.WriteText(io.Discard); err != nil {
		t.Error(err)
	}
	if err := r.WriteTrace(io.Discard); err != nil {
		t.Error(err)
	}
	if r.Spans() != nil {
		t.Error("nil registry has no spans")
	}
}

func TestDefaultInstallAndClear(t *testing.T) {
	if Default() != nil {
		t.Fatal("default registry must start nil")
	}
	r := New()
	SetDefault(r)
	defer SetDefault(nil)
	if Default() != r {
		t.Fatal("SetDefault did not install")
	}
	_, sp := Span(context.Background(), "root")
	sp.End()
	if got := len(r.Spans()); got != 1 {
		t.Fatalf("span not recorded via default: %d spans", got)
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("hits_total")
	c.Inc()
	c.Add(41)
	c.Add(-7) // monotone contract: negative adds ignored
	if c.Value() != 42 {
		t.Errorf("counter = %d, want 42", c.Value())
	}
	if r.Counter("hits_total") != c {
		t.Error("same name must return the same counter")
	}
	g := r.Gauge("depth")
	g.Set(2.5)
	g.Add(0.5)
	if g.Value() != 3 {
		t.Errorf("gauge = %g, want 3", g.Value())
	}
}

func TestHistogramGeometryFirstWins(t *testing.T) {
	r := New()
	h1 := r.Histogram("lat", 0, 1, 16)
	h2 := r.Histogram("lat", 0, 100, 4) // later geometry ignored
	if h1 != h2 {
		t.Error("same name must return the same histogram")
	}
	if r.Histogram("bad", 1, 1, 8) != nil || r.Histogram("bad2", 0, 1, 0) != nil {
		t.Error("invalid geometry must yield the inert nil handle")
	}
	if _, err := NewHistSnapshot(1, 1, 10); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := NewHistSnapshot(0, 1, 0); err == nil {
		t.Error("zero bins accepted")
	}
}

// sketch returns an empty HistSnapshot of the given geometry.
func sketch(t *testing.T, lo, hi float64, bins int) HistSnapshot {
	t.Helper()
	s, err := NewHistSnapshot(lo, hi, bins)
	if err != nil {
		t.Fatal(err)
	}
	return *s
}

// refHist is the serial single-writer reference the striped histogram
// and the snapshot merge are checked against.
type refHist struct {
	lo, hi      float64
	counts      []int64
	under, over int64
	n           int64
	sum         float64
	min, max    float64
}

func newRefHist(lo, hi float64, bins int) *refHist {
	return &refHist{lo: lo, hi: hi, counts: make([]int64, bins),
		min: math.Inf(1), max: math.Inf(-1)}
}

func (r *refHist) observe(x float64) {
	r.n++
	r.sum += x
	if x < r.min {
		r.min = x
	}
	if x > r.max {
		r.max = x
	}
	switch {
	case x < r.lo:
		r.under++
	case x >= r.hi:
		r.over++
	default:
		i := int(float64(len(r.counts)) * (x - r.lo) / (r.hi - r.lo))
		if i >= len(r.counts) {
			i = len(r.counts) - 1
		}
		r.counts[i]++
	}
}

// agreesWithRef compares a snapshot against the serial reference —
// integer state exactly, Sum within float tolerance.
func agreesWithRef(s HistSnapshot, r *refHist) error {
	if s.N != r.n || s.Under != r.under || s.Over != r.over {
		return fmt.Errorf("totals differ: N %d/%d under %d/%d over %d/%d",
			s.N, r.n, s.Under, r.under, s.Over, r.over)
	}
	for i := range s.Counts {
		if s.Counts[i] != r.counts[i] {
			return fmt.Errorf("bin %d: %d vs %d", i, s.Counts[i], r.counts[i])
		}
	}
	if r.n > 0 && (s.Min != r.min || s.Max != r.max) {
		return fmt.Errorf("extremes differ: [%g,%g] vs [%g,%g]", s.Min, s.Max, r.min, r.max)
	}
	if math.Abs(s.Sum-r.sum) > 1e-9*(1+math.Abs(r.sum)) {
		return fmt.Errorf("sum %g vs %g", s.Sum, r.sum)
	}
	return nil
}

// TestHistogramMergeAssociativeCommutative is the satellite property
// test: on random streams, merging per-part snapshots in any order or
// grouping agrees with the serial reference over the whole stream, as
// does one bare sketch observing the whole stream. Snapshots of a
// different geometry refuse to merge.
func TestHistogramMergeAssociativeCommutative(t *testing.T) {
	f := func(seed int64, parts uint8) bool {
		k := 2 + int(parts%5)
		rng := rand.New(rand.NewSource(seed))
		n := 500 + rng.Intn(1500)
		ref := newRefHist(-2, 2, 32)
		hists := make([]*Histogram, k)
		for i := range hists {
			hists[i] = newHistogram(sketch(t, -2, 2, 32))
		}
		whole := sketch(t, -2, 2, 32)
		for i := 0; i < n; i++ {
			x := rng.NormFloat64() * 1.5 // spills both overflow counters
			ref.observe(x)
			whole.Observe(x)
			hists[rng.Intn(k)].Observe(x)
		}
		snaps := make([]HistSnapshot, k)
		for i, h := range hists {
			snaps[i] = h.Snapshot()
		}
		// Left fold in order: ((s0+s1)+s2)+...
		left := sketch(t, -2, 2, 32)
		for _, s := range snaps {
			if err := left.Merge(s); err != nil {
				t.Log(err)
				return false
			}
		}
		// Reversed order (commutativity)...
		rev := sketch(t, -2, 2, 32)
		for i := k - 1; i >= 0; i-- {
			if err := rev.Merge(snaps[i]); err != nil {
				t.Log(err)
				return false
			}
		}
		// ...and a right-leaning grouping (associativity): s0 + (s1 +
		// (s2 + ...)).
		right := sketch(t, -2, 2, 32)
		for i := k - 1; i >= 0; i-- {
			tail := right
			right = sketch(t, -2, 2, 32)
			if err := right.Merge(snaps[i]); err != nil {
				t.Log(err)
				return false
			}
			if err := right.Merge(tail); err != nil {
				t.Log(err)
				return false
			}
		}
		for _, merged := range []HistSnapshot{left, rev, right, whole} {
			if err := agreesWithRef(merged, ref); err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	s := sketch(t, -2, 2, 32)
	for _, bad := range []HistSnapshot{sketch(t, -1.5, 2, 32), sketch(t, -2, 3, 32), sketch(t, -2, 2, 16)} {
		if err := s.Merge(bad); err == nil {
			t.Errorf("merged [%g,%g)/%d into [-2,2)/32", bad.Lo, bad.Hi, len(bad.Counts))
		}
	}
}

// TestHistogramStripedConcurrentAgreesWithSerial pins that the
// lock-striped writer path loses nothing: G concurrent observers over
// a partitioned random stream snapshot to exactly the serial
// reference.
func TestHistogramStripedConcurrentAgreesWithSerial(t *testing.T) {
	const goroutines = 8
	const perG = 5000
	h := newHistogram(sketch(t, -1, 1, 64))
	ref := newRefHist(-1, 1, 64)
	streams := make([][]float64, goroutines)
	rng := rand.New(rand.NewSource(7))
	for g := range streams {
		streams[g] = make([]float64, perG)
		for i := range streams[g] {
			x := rng.NormFloat64() * 0.6
			streams[g][i] = x
			ref.observe(x)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(xs []float64) {
			defer wg.Done()
			for _, x := range xs {
				h.Observe(x)
			}
		}(streams[g])
	}
	wg.Wait()
	if err := agreesWithRef(h.Snapshot(), ref); err != nil {
		t.Fatal(err)
	}
}

// TestCounterGaugeMonotoneUnderConcurrentWriters is the satellite
// property: with only positive increments in flight, every snapshot a
// concurrent reader takes is non-decreasing, and the final value is
// the exact sum.
func TestCounterGaugeMonotoneUnderConcurrentWriters(t *testing.T) {
	const writers = 8
	const perW = 20000
	r := New()
	c := r.Counter("events_total")
	g := r.Gauge("progress")
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		lastC := int64(-1)
		lastG := -1.0
		for {
			select {
			case <-stop:
				return
			default:
			}
			if v := c.Value(); v < lastC {
				t.Errorf("counter snapshot went backwards: %d after %d", v, lastC)
				return
			} else {
				lastC = v
			}
			if v := g.Value(); v < lastG {
				t.Errorf("gauge snapshot went backwards: %g after %g", v, lastG)
				return
			} else {
				lastG = v
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				c.Add(3)
				g.Add(0.5)
			}
		}()
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()
	if want := int64(writers * perW * 3); c.Value() != want {
		t.Errorf("counter = %d, want %d", c.Value(), want)
	}
	if want := float64(writers*perW) * 0.5; math.Abs(g.Value()-want) > 1e-6 {
		t.Errorf("gauge = %g, want %g", g.Value(), want)
	}
}

func TestSpanNestingAndRing(t *testing.T) {
	r := NewWithRing(4)
	ctx := context.Background()
	ctx, root := r.Span(ctx, "root")
	cctx, child := r.Span(ctx, "child")
	_, grand := r.Span(cctx, "grandchild")
	grand.End()
	child.End()
	root.End()
	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["root"].Depth != 0 || byName["root"].Parent != "" {
		t.Errorf("root span mis-nested: %+v", byName["root"])
	}
	if byName["child"].Depth != 1 || byName["child"].Parent != "root" {
		t.Errorf("child span mis-nested: %+v", byName["child"])
	}
	if byName["grandchild"].Depth != 2 || byName["grandchild"].Parent != "child" {
		t.Errorf("grandchild span mis-nested: %+v", byName["grandchild"])
	}
	// The ring is bounded: flood it and only the most recent survive.
	for i := 0; i < 10; i++ {
		_, sp := r.Span(context.Background(), fmt.Sprintf("s%d", i))
		sp.End()
	}
	spans = r.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring kept %d spans, want capacity 4", len(spans))
	}
	if spans[len(spans)-1].Name != "s9" {
		t.Errorf("ring lost the newest span: %+v", spans)
	}
}

func TestWriteTextExposition(t *testing.T) {
	r := New()
	r.Counter("runs_total").Add(3)
	r.Gauge("util").Set(0.75)
	h := r.Histogram("lat_seconds", 0, 1, 2)
	for _, x := range []float64{-0.5, 0.25, 0.25, 0.75, 2.0} {
		h.Observe(x)
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE runs_total counter\nruns_total 3\n",
		"# TYPE util gauge\nutil 0.75\n",
		"# TYPE lat_seconds histogram\n",
		`lat_seconds_bucket{le="0"} 1`,   // the under-range sample
		`lat_seconds_bucket{le="0.5"} 3`, // + the two 0.25s
		`lat_seconds_bucket{le="1"} 4`,   // + the 0.75
		`lat_seconds_bucket{le="+Inf"} 5`,
		"lat_seconds_count 5",
		"lat_seconds_min -0.5",
		"lat_seconds_max 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q:\n%s", want, out)
		}
	}
	var tb strings.Builder
	_, sp := r.Span(context.Background(), "phase")
	time.Sleep(time.Millisecond)
	sp.End()
	if err := r.WriteTrace(&tb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tb.String(), "phase") {
		t.Errorf("trace lacks the span:\n%s", tb.String())
	}
}

func TestServeDebugEndpoints(t *testing.T) {
	r := New()
	r.Counter("pings_total").Inc()
	addr, shutdown, err := ServeDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	for _, tc := range []struct{ path, want string }{
		{"/metrics", "pings_total 1"},
		{"/trace", "TRACE"},
		{"/debug/pprof/", "profile"},
	} {
		resp, err := http.Get("http://" + addr + tc.path)
		if err != nil {
			t.Fatalf("GET %s: %v", tc.path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Errorf("GET %s: status %d", tc.path, resp.StatusCode)
		}
		if !strings.Contains(string(body), tc.want) {
			t.Errorf("GET %s: body lacks %q:\n%.400s", tc.path, tc.want, body)
		}
	}
}

func TestHistSnapshotQuantile(t *testing.T) {
	h := newHistogram(sketch(t, 0, 10, 100))
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i%10) + 0.5)
	}
	s := h.Snapshot()
	if q := s.Quantile(0.5); math.Abs(q-5) > 0.6 {
		t.Errorf("median %g, want ~5", q)
	}
	if !math.IsNaN((HistSnapshot{}).Quantile(0.5)) || !math.IsNaN(sketch(t, 0, 1, 4).Quantile(0.5)) {
		t.Error("empty snapshot should return NaN")
	}

	// Standard-normal quantiles from a bare sketch at 0.01 resolution;
	// the extreme quantiles are the exact extremes.
	g := sketch(t, -5, 5, 1000)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200000; i++ {
		g.Observe(rng.NormFloat64())
	}
	for _, tc := range []struct{ q, want, tol float64 }{
		{0.5, 0, 0.02},
		{0.841, 1, 0.03},
		{0.977, 2, 0.05},
	} {
		if got := g.Quantile(tc.q); math.Abs(got-tc.want) > tc.tol {
			t.Errorf("q%.3f = %g, want %g±%g", tc.q, got, tc.want, tc.tol)
		}
	}
	if g.Quantile(0) != g.Min || g.Quantile(1) != g.Max {
		t.Error("extreme quantiles should be exact min/max")
	}
}
