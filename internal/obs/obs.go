// Package obs is the dependency-free observability layer of the mstx
// engines: a metrics registry (atomic counters, gauges, lock-striped
// mergeable histograms) plus lightweight span tracing with monotonic
// timings and a bounded in-memory ring of recent spans.
//
// The layer is designed around a nil fast path: every handle method is
// a no-op on a nil receiver, and Default() returns nil until a
// registry is installed with SetDefault. Instrumented code therefore
// looks up its handles once per run —
//
//	r := obs.Default()               // nil when observability is off
//	c := r.Counter("engine_runs")    // nil handle when r is nil
//	...
//	c.Add(1)                         // no-op on the nil handle
//
// — and a disabled build pays one atomic pointer load per run plus a
// predictable nil branch per call site, which benchmarks as noise
// (see BenchmarkCounterDisabled and the repo-root ObsOff pair).
//
// Metric names follow the Prometheus convention (snake_case,
// unit-suffixed, `_total` on counters); WriteText renders the
// registry in the Prometheus text exposition format.
package obs

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds named metrics and the span ring. The zero value is
// not usable; construct with New.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	spans    *spanRing
	start    time.Time
}

// DefaultSpanRing is the span-ring capacity of New: large enough to
// hold the spans of a full experiments sweep, small enough that an
// abandoned registry stays cheap.
const DefaultSpanRing = 1024

// New builds an empty registry with the default span-ring capacity.
func New() *Registry { return NewWithRing(DefaultSpanRing) }

// NewWithRing builds a registry whose span ring keeps the last n
// completed spans (n <= 0 disables span retention; Span still times
// and nests, records are just dropped).
func NewWithRing(n int) *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		spans:    newSpanRing(n),
		start:    time.Now(),
	}
}

// defaultReg is the process-wide registry; nil means observability is
// disabled (the usual state — commands install a registry behind an
// explicit flag).
var defaultReg atomic.Pointer[Registry]

// SetDefault installs r as the process-wide registry (nil disables
// observability again). Instrumented engines pick it up at their next
// run; in-flight runs keep the handles they already resolved.
func SetDefault(r *Registry) { defaultReg.Store(r) }

// Default returns the installed registry, or nil when observability
// is disabled. Callers must tolerate nil — that is the fast path.
func Default() *Registry { return defaultReg.Load() }

// For resolves the registry an instrumented run should record into:
// the one carried by ctx (WithRegistry), or, failing that, the process
// default. It returns nil when neither is installed — callers must
// tolerate nil, exactly as with Default. The context lookup is what
// lets a job server give every job its own registry (and span ring)
// while batch CLIs keep using the process-wide one.
func For(ctx context.Context) *Registry {
	if r := FromContext(ctx); r != nil {
		return r
	}
	return Default()
}

// Counter returns the named counter, creating it on first use. On a
// nil registry it returns a nil handle whose methods are no-ops.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. On a nil
// registry it returns a nil handle whose methods are no-ops.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// fixed-bucket geometry on first use. The first registration wins: a
// later caller naming the same histogram gets the existing geometry
// (mergeability requires one geometry per name). On a nil registry it
// returns a nil handle whose methods are no-ops; a bad geometry also
// yields the nil handle rather than an error, keeping instrumentation
// sites unconditional.
func (r *Registry) Histogram(name string, lo, hi float64, bins int) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	empty, err := NewHistSnapshot(lo, hi, bins)
	if err != nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram(*empty)
		r.hists[name] = h
	}
	return h
}

// Counter is a monotone atomic counter. All methods are nil-safe.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (negative n is ignored — counters
// are monotone by contract, which the property tests pin).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on the nil handle).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 gauge. All methods are nil-safe.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add applies a delta with a CAS loop, so concurrent adds each land
// exactly once.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on the nil handle).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Counters returns a point-in-time snapshot of every counter's value
// by name. Nil-safe (nil map on a nil registry). Streaming consumers
// (the job server's SSE progress events) diff successive snapshots to
// report engine progress without knowing the metric names up front.
func (r *Registry) Counters() map[string]int64 {
	if r == nil {
		return nil
	}
	_, vals := r.snapshotCounters()
	return vals
}

// snapshotNames returns the sorted metric names of one kind; callers
// hold no lock.
func (r *Registry) snapshotCounters() (names []string, vals map[string]int64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	vals = make(map[string]int64, len(r.counters))
	for n, c := range r.counters {
		names = append(names, n)
		vals[n] = c.Value()
	}
	return names, vals
}

func (r *Registry) snapshotGauges() (names []string, vals map[string]float64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	vals = make(map[string]float64, len(r.gauges))
	for n, g := range r.gauges {
		names = append(names, n)
		vals[n] = g.Value()
	}
	return names, vals
}

func (r *Registry) snapshotHists() (names []string, vals map[string]HistSnapshot) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	vals = make(map[string]HistSnapshot, len(r.hists))
	for n, h := range r.hists {
		names = append(names, n)
		vals[n] = h.Snapshot()
	}
	return names, vals
}
