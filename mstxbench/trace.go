package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mstx/internal/campaign"
	"mstx/internal/core"
	"mstx/internal/digital"
	"mstx/internal/experiments"
	"mstx/internal/obs"
	"mstx/internal/params"
	"mstx/internal/server"
	"mstx/internal/soc"
	"mstx/internal/translate"
)

// tracer collects the traced pass's per-layer numbers from outside the
// program: route timings from a wrapper around Server.Handler(), the
// server's /metrics, the ledger file, and runtime/metrics. It records
// only during timed phases.
type tracer struct {
	on      atomic.Bool
	scraper *http.Client // its own connection, apart from the load's

	mu                     sync.Mutex
	submitN, followN       int
	submitDur, followDur   time.Duration
	followBytes            int64
	queued                 []float64
	hits, misses           float64
	ledgerSizes            []float64
	ledgerFinal            float64
	allocBytes, gcCPU, cpu float64
	jobs, campaignJobs     int

	stop    chan struct{}
	wg      sync.WaitGroup
	rtStart [3]float64
	// cacheStart holds the server's cache counters at startPhase; a
	// round's timed phase comes in parts, so each part counts only
	// what it added.
	cacheStart map[string]float64
}

func newTracer() *tracer {
	return &tracer{scraper: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}}
}

// countingWriter counts the bytes a handler writes, keeping the
// Flusher the SSE handler needs.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// wrap times the submit and events routes of h.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, req)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, req)
		d := time.Since(start)
		t.mu.Lock()
		defer t.mu.Unlock()
		switch {
		case req.Method == http.MethodPost && req.URL.Path == "/v1/jobs":
			t.submitN++
			t.submitDur += d
		case req.Method == http.MethodGet && strings.HasSuffix(req.URL.Path, "/events"):
			t.followN++
			t.followDur += d
			t.followBytes += cw.n
		}
	})
}

// scrape reads the server's /metrics into name → value (counters and
// gauges; histogram series are skipped).
func (t *tracer) scrape(base string) (map[string]float64, error) {
	resp, err := t.scraper.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

var runtimeNames = [3]string{
	"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds",
}

func readRuntime() [3]float64 {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var out [3]float64
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// startPhase begins recording and samples server_jobs_queued every
// 50 ms until endPhase.
func (t *tracer) startPhase(r *round) {
	t.cacheStart, _ = t.scrape(r.base)
	t.rtStart = readRuntime()
	t.on.Store(true)
	t.stop = make(chan struct{})
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-tick.C:
				if m, err := t.scrape(r.base); err == nil {
					t.mu.Lock()
					t.queued = append(t.queued, m["server_jobs_queued"])
					t.mu.Unlock()
				}
			}
		}
	}()
}

func (t *tracer) endPhase(r *round, timed []*jobRecord) {
	t.on.Store(false)
	close(t.stop)
	t.wg.Wait()
	end := readRuntime()
	m, err := t.scrape(r.base)
	fi, statErr := os.Stat(ledgerFile(r))
	campaignJobs := 0
	for _, rec := range timed {
		if rec.spec.Kind == "campaign" {
			campaignJobs++
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.allocBytes += end[0] - t.rtStart[0]
	t.gcCPU += end[1] - t.rtStart[1]
	t.cpu += end[2] - t.rtStart[2]
	if err == nil {
		t.hits += m["server_cache_hits_total"] - t.cacheStart["server_cache_hits_total"]
		t.misses += m["server_cache_misses_total"] - t.cacheStart["server_cache_misses_total"]
	}
	if statErr == nil {
		t.ledgerFinal = float64(fi.Size())
	}
	t.jobs += len(timed)
	t.campaignJobs += campaignJobs
}

func ledgerFile(r *round) string { return filepath.Join(r.dir, "mstxd_jobs.ckpt") }

// jobDone samples the ledger size as each timed job completes.
func (t *tracer) jobDone(r *round) {
	if r.dir == "" || !t.on.Load() {
		return
	}
	if fi, err := os.Stat(ledgerFile(r)); err == nil {
		t.mu.Lock()
		t.ledgerSizes = append(t.ledgerSizes, float64(fi.Size()))
		t.mu.Unlock()
	}
}

// ledgerSavesPerJob is how many times the server rewrites the whole
// ledger per job that runs straight through: on submit, on dispatch
// and on the terminal transition (internal/server saveLedgerLocked).
const ledgerSavesPerJob = 3

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// layerMetrics fills the per-layer metrics from the traced pass p,
// runs the layer replays and prints the layer table.
func (t *tracer) layerMetrics(wl *workload, p *passResult, m map[string]float64, w io.Writer) error {
	t.mu.Lock()
	if t.submitN > 0 {
		m["server.submit_ms"] = ms(t.submitDur) / float64(t.submitN)
	}
	if t.followN > 0 {
		m["server.follow_ms"] = ms(t.followDur) / float64(t.followN)
		m["server.result_bytes"] = float64(t.followBytes) / float64(t.followN)
	}
	m["server.queued_mean"] = mean(t.queued)
	if t.hits+t.misses > 0 {
		m["server.cache_hit_ratio"] = t.hits / (t.hits + t.misses)
	}
	m["server.ledger_bytes"] = t.ledgerFinal
	m["server.ledger_bytes_per_job"] = ledgerSavesPerJob * mean(t.ledgerSizes)
	if t.jobs > 0 {
		m["core.builds_per_job"] = float64(t.campaignJobs) / float64(t.jobs)
		m["go.alloc_mb_per_job"] = t.allocBytes / (1 << 20) / float64(t.jobs)
	}
	if t.cpu > 0 {
		m["go.gc_cpu_fraction"] = t.gcCPU / t.cpu
	}
	t.mu.Unlock()

	if err := replay(wl, m); err != nil {
		return err
	}
	t.printTable(wl, p, m, w)
	return nil
}

// spanLayers names the program layer behind each engine span.
var spanLayers = map[string]string{
	"campaign.run":      "campaign",
	"campaign.baseline": "campaign/netlist/digital",
	"campaign.pipeline": "campaign/spectest/dsp",
	"e6.table2":         "experiments E6",
	"e6.devices":        "path/params/analog/adc",
	"e6.losscheck":      "tolerance",
	"mcengine.run":      "mcengine",
	"e9.soc":            "experiments E9",
	"soc.plan":          "soc",
}

// printTable prints the traced pass's mean per-job time along the
// blocking steps: the POST, then each engine span's self time (its
// duration minus its child spans'), then the remainder no layer
// accounts for. The rows sum to the mean end-to-end latency.
func (t *tracer) printTable(wl *workload, p *passResult, m map[string]float64, w io.Writer) {
	var n int
	var e2e, post, top float64
	self := map[string]float64{}
	for _, rec := range p.recs {
		if rec.phase != "timed" || rec.err != nil {
			continue
		}
		n++
		e2e += ms(rec.latency)
		post += ms(rec.submit)
		par := parentOf(rec.spans)
		for i, sp := range rec.spans {
			self[sp.Name] += sp.DurMS
			if par[i] < 0 {
				top += sp.DurMS
			} else {
				self[rec.spans[par[i]].Name] -= sp.DurMS
			}
		}
	}
	if n == 0 {
		return
	}
	per := func(x float64) float64 { return x / float64(n) }
	rest := per(e2e - post - top)
	m["trace.unaccounted_ms"] = rest
	e := per(e2e)
	row := func(step, layer string, v float64) {
		fmt.Fprintf(w, "# %-36s %-26s %10.3f %6.1f%%\n", step, layer, v, 100*v/e)
	}
	fmt.Fprintf(w, "# layer table: %s, traced, %d timed jobs, mean self ms per job along the blocking steps\n", wl.name, n)
	fmt.Fprintf(w, "# %-36s %-26s %10s %7s\n", "step", "layer", "self_ms", "share")
	handler := m["server.submit_ms"]
	row("POST /v1/jobs client+transport", "net/http, encoding/json", per(post)-handler)
	row("POST /v1/jobs handler", "server (admission, ledger)", handler)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, name := range names {
		layer := spanLayers[name]
		if layer == "" {
			layer = strings.SplitN(name, ".", 2)[0]
		}
		row("span "+name, layer, per(self[name]))
	}
	row("remainder: unaccounted", "queue/prepare/cache/ledger", rest)
	fmt.Fprintf(w, "# %-36s %-26s %10.3f\n", "end to end (POST to done event)", "", e)
	fmt.Fprintf(w, "# the remainder holds fair-queue wait, task prepare (core.BuildDigitalTest for campaign jobs),\n")
	fmt.Fprintf(w, "# the cache lookup, ledger saves and SSE delivery, none of which the program spans yet\n")
	fmt.Fprintf(w, "# server.ledger_bytes_per_job is computed: %d saves per job x mean ledger size at completion\n", ledgerSavesPerJob)
}

// parentOf returns for each span the index of the shortest other span
// whose interval holds it, or -1. Containment decides, not the
// recorded depth: E6 opens its mcengine runs on the job's root
// context, so they are depth-0 spans inside e6.devices and
// e6.losscheck. Of two spans with one interval, the later-completed
// one is the parent.
func parentOf(spans []spanEvent) []int {
	par := make([]int, len(spans))
	for i, s := range spans {
		par[i] = -1
		for j, c := range spans {
			if j == i || c.StartMS > s.StartMS || c.StartMS+c.DurMS < s.StartMS+s.DurMS ||
				c.DurMS == s.DurMS && c.StartMS == s.StartMS && j < i {
				continue
			}
			if par[i] < 0 || c.DurMS < spans[par[i]].DurMS {
				par[i] = j
			}
		}
	}
	return par
}

// replaySpecs picks the specs the layer replays run: the workload's
// warm-up specs of each kind (campaign and translate up to 3, mc and
// soc 1), or the kind's reference (first probe) spec when the workload
// has none, so every run reports every layer.
func replaySpecs(wl *workload) map[string][]server.Spec {
	limit := map[string]int{"campaign": 3, "translate": 3, "mc": 1, "soc": 1}
	out := map[string][]server.Spec{}
	for _, sp := range wl.warmup {
		if len(out[sp.Kind]) < limit[sp.Kind] {
			out[sp.Kind] = append(out[sp.Kind], sp)
		}
	}
	for kind := range limit {
		if len(out[kind]) == 0 {
			out[kind] = probeSpecs(kind, 1)
		}
	}
	return out
}

func spanMS(reg *obs.Registry, name string) float64 {
	v := 0.0
	for _, sp := range reg.Spans() {
		if sp.Name == name {
			v += ms(sp.Duration)
		}
	}
	return v
}

// replay calls each layer's public entry point on the replay specs,
// timing the calls from here and reading the spans and counters the
// program already records into a registry carried by ctx.
func replay(wl *workload, m map[string]float64) error {
	specs := replaySpecs(wl)
	pspec, err := experiments.BuildDefaultSpec()
	if err != nil {
		return err
	}
	mcRegs := []*obs.Registry{}
	newReg := func(mc bool) (*obs.Registry, context.Context) {
		reg := obs.New()
		if mc {
			mcRegs = append(mcRegs, reg)
		}
		return reg, obs.WithRegistry(context.Background(), reg)
	}

	// core + campaign (+ netlist, digital) + spectest/dsp.
	synth, err := core.New(pspec)
	if err != nil {
		return err
	}
	var faults, screened, memo, spectra float64
	cs := specs["campaign"]
	for _, sp := range cs {
		o := core.DefaultDigitalTestOptions()
		o.Patterns, o.Seed = sp.Patterns, sp.Seed
		t0 := time.Now()
		dt, err := synth.BuildDigitalTest(o)
		if err != nil {
			return fmt.Errorf("replay BuildDigitalTest: %w", err)
		}
		m["core.build_digital_test_ms"] += ms(time.Since(t0))
		reg, ctx := newReg(false)
		t1 := time.Now()
		_, st, err := dt.RunSpectralOpts(ctx, campaign.Options{SimWorkers: 2, DetectWorkers: 2, Quarantine: true})
		if err != nil {
			return fmt.Errorf("replay RunSpectralOpts: %w", err)
		}
		m["campaign.run_ms"] += ms(time.Since(t1))
		m["campaign.baseline_ms"] += spanMS(reg, "campaign.baseline")
		m["campaign.pipeline_ms"] += spanMS(reg, "campaign.pipeline")
		faults += float64(st.Faults)
		screened += float64(st.Screened)
		memo += float64(st.Memoized)
		spectra += float64(st.Spectra)

		good, err := digital.NewFIRSim(dt.FIR).RunPeriodic(dt.RealisticCodes)
		if err != nil {
			return err
		}
		const reps = 32
		t2 := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := dt.Detector.Detect(nil, good); err != nil {
				return fmt.Errorf("replay Detect: %w", err)
			}
		}
		m["spectest.detect_us"] += float64(time.Since(t2)) / float64(time.Microsecond) / reps
	}
	for _, k := range []string{"core.build_digital_test_ms", "campaign.run_ms", "campaign.baseline_ms", "campaign.pipeline_ms", "spectest.detect_us"} {
		m[k] /= float64(len(cs))
	}
	m["campaign.screened_ratio"] = screened / faults
	m["campaign.memo_ratio"] = memo / faults
	m["campaign.spectra_per_fault"] = spectra / faults
	m["campaign.spectra"] = spectra / float64(len(cs))

	// experiments E6 → path/params, tolerance, on mcengine.
	for _, sp := range specs["mc"] {
		reg, ctx := newReg(true)
		if _, err := experiments.Table2(experiments.Table2Options{
			Devices: sp.Devices, Seed: sp.Seed, N: sp.CaptureN, MCSamples: 200000, Workers: 2, Ctx: ctx,
		}); err != nil {
			return fmt.Errorf("replay Table2: %w", err)
		}
		m["e6.devices_ms"] += spanMS(reg, "e6.devices") / float64(len(specs["mc"]))
		m["e6.losscheck_ms"] += spanMS(reg, "e6.losscheck") / float64(len(specs["mc"]))
	}

	// translate.
	var draws float64
	ts := specs["translate"]
	for _, sp := range ts {
		method := params.Adaptive
		if sp.Method == "nominal-gains" {
			method = params.NominalGains
		}
		reg, ctx := newReg(true)
		t0 := time.Now()
		if _, err := translate.EstimateReferralError(ctx, pspec, params.Kind(sp.Param), method,
			translate.MCConfig{Samples: 100000, Seed: sp.Seed, Workers: 2}); err != nil {
			return fmt.Errorf("replay EstimateReferralError: %w", err)
		}
		m["translate.estimate_ms"] += ms(time.Since(t0)) / float64(len(ts))
		draws += float64(reg.Counters()["translate_mc_draws_total"])
	}
	m["translate.draws"] = draws / float64(len(ts))

	// soc.
	var lanes float64
	for _, sp := range specs["soc"] {
		s, err := soc.Default()
		if err == nil {
			s, err = soc.Select(s, sp.Cores)
		}
		if err != nil {
			return err
		}
		widths, iters, seed := sp.TAMWidths, sp.Iterations, sp.Seed
		if len(widths) == 0 {
			widths = experiments.DefaultTAMWidths
		}
		if iters == 0 {
			iters = soc.DefaultIterations
		}
		if seed == 0 {
			seed = experiments.DefaultSOCSeed
		}
		reg, ctx := newReg(true)
		t0 := time.Now()
		if _, err := soc.PlanSweep(ctx, s, widths, soc.Options{Iterations: iters, Seed: seed, Workers: 2}); err != nil {
			return fmt.Errorf("replay PlanSweep: %w", err)
		}
		m["soc.plan_ms"] += ms(time.Since(t0)) / float64(len(specs["soc"]))
		lanes += float64(reg.Counters()["soc_lanes_total"])
	}
	m["soc.lanes"] = lanes / float64(len(specs["soc"]))

	// mcengine, over every replay that ran on it.
	c := map[string]float64{}
	for _, reg := range mcRegs {
		for k, v := range reg.Counters() {
			c[k] += float64(v)
		}
	}
	if runs := c["mc_runs_total"]; runs > 0 {
		m["mcengine.samples"] = c["mc_samples_total"] / runs
		m["mcengine.rounds"] = c["mc_rounds_total"] / runs
		m["mcengine.early_stop_ratio"] = c["mc_early_stops_total"] / runs
	}
	return nil
}

// rssSampler samples the process's resident set every 20 ms and keeps
// the largest sample.
type rssSampler struct {
	stop chan struct{}
	peak chan float64
}

func sampleRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), peak: make(chan float64, 1)}
	go func() {
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		peak := 0.0
		for {
			if v, ok := residentMB(); ok {
				peak = max(peak, v)
			}
			select {
			case <-s.stop:
				if v, ok := residentMB(); ok {
					peak = max(peak, v)
				}
				s.peak <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// end stops the sampler and returns its peak in MiB; where /proc has
// no statm, the process's lifetime peak.
func (s *rssSampler) end() float64 {
	close(s.stop)
	if v := <-s.peak; v > 0 {
		return v
	}
	return peakRSSMB()
}

// residentMB reads the process's current resident set in MiB.
func residentMB() (float64, bool) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, false
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), true
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	kb := float64(ru.Maxrss)
	if runtime.GOOS == "darwin" { // bytes there, KiB on Linux
		kb /= 1024
	}
	return kb / 1024
}
