// Command mstxbench is the repository's end-to-end benchmark: a
// single-process load generator that serves internal/server over a
// loopback listener and drives it over HTTP the way an mstxd client
// does — POST /v1/jobs, then the job's SSE stream to its done event.
// It checks every result, prints every metric by name with its unit,
// and ends with one JSON line. See README.md beside this file.
//
// Usage, from the repository root:
//
//	bash mstxbench/run.sh --workload campaign-cold --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"mstx/internal/server"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct{ name, unit, better string }

// endToEnd are the untraced metrics a user of mstxd sees.
var endToEnd = []metricDef{
	{"jobs_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"hit_latency_p50_ms", "ms", "lower"},
	{"campaign_p50_ms", "ms", "lower"},
	{"mc_p50_ms", "ms", "lower"},
	{"translate_p50_ms", "ms", "lower"},
	{"soc_p50_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics; README.md maps each to the
// end-to-end metric and workload it should move.
var perLayer = []metricDef{
	{"server.submit_ms", "ms", "lower"},
	{"server.follow_ms", "ms", "lower"},
	{"server.result_bytes", "bytes", "lower"},
	{"server.queued_mean", "count", "lower"},
	{"server.cache_hit_ratio", "ratio", "higher"},
	{"server.ledger_bytes", "bytes", "lower"},
	{"server.ledger_bytes_per_job", "bytes", "lower"},
	{"core.build_digital_test_ms", "ms", "lower"},
	{"core.builds_per_job", "count", "lower"},
	{"campaign.run_ms", "ms", "lower"},
	{"campaign.baseline_ms", "ms", "lower"},
	{"campaign.pipeline_ms", "ms", "lower"},
	{"campaign.screened_ratio", "ratio", "higher"},
	{"campaign.memo_ratio", "ratio", "higher"},
	{"campaign.spectra_per_fault", "ratio", "lower"},
	{"campaign.spectra", "count", "lower"},
	{"spectest.detect_us", "us", "lower"},
	{"e6.devices_ms", "ms", "lower"},
	{"e6.losscheck_ms", "ms", "lower"},
	{"mcengine.samples", "count", "lower"},
	{"mcengine.rounds", "count", "lower"},
	{"mcengine.early_stop_ratio", "ratio", "higher"},
	{"translate.estimate_ms", "ms", "lower"},
	{"translate.draws", "count", "lower"},
	{"soc.plan_ms", "ms", "lower"},
	{"soc.lanes", "count", "lower"},
	{"go.alloc_mb_per_job", "MB", "lower"},
	{"go.gc_cpu_fraction", "ratio", "lower"},
	{"trace.unaccounted_ms", "ms", "lower"},
	{"trace.overhead_jobs_per_s", "1/s", "lower"},
}

// options sizes a run. The smoke test shrinks rounds, roundJobs and
// probeN; a real run uses the defaults.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	root    string
	// rounds is the number of rounds per pass.
	rounds int
	// roundJobs > 0 makes every round that many timed jobs.
	roundJobs int
	// probeN overrides every probe's job count per share (0 = keep;
	// a traced run defaults to 2: it reports no per-kind latency).
	probeN int
	// clients is the number of client goroutines (and connections).
	clients int
}

func defaultOptions() options {
	return options{seed: 1, seconds: 20, root: ".", rounds: 3, clients: min(2, runtime.NumCPU())}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	o := defaultOptions()
	fs := flag.NewFlagSet("mstxbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: campaign-cold or tenants-hot")
	fs.Int64Var(&o.seed, "seed", o.seed, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", o.seconds, "timed seconds per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.StringVar(&o.root, "root", o.root, "repository root (the experiment goldens are read from it)")
	writeExp := fs.Bool("write-expected", false, "recompute expected.json (in the root's mstxbench directory) and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writeExp {
		if err := writeExpected(o.root); err != nil {
			fmt.Fprintf(stderr, "mstxbench: %v\n", err)
			return 1
		}
		return 0
	}
	wl := findWorkload(*name)
	if wl == nil || (*trace != 0 && *trace != 1) || o.seconds < 0 || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "mstxbench: want --workload <campaign-cold|tenants-hot> --seed <n> --seconds <s> --trace <0|1>\n")
		return 2
	}
	o.trace = *trace == 1
	correct, err := execute(wl, o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "mstxbench: %v\n", err)
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}

// execute runs wl under o and prints the result line, last.
func execute(wl *workload, o options, stdout io.Writer) (correct bool, err error) {
	chk, err := loadChecker(o.root)
	if err != nil {
		return false, err
	}
	res, err := runWorkload(wl, o, chk, stdout)
	if err != nil {
		return false, err
	}
	defs, vals := endToEnd, res.e2e
	if o.trace {
		defs, vals = perLayer, res.layers
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{res.correct, res.attempted, res.failed, map[string]map[string]any{}}
	for _, d := range defs {
		out.Metrics[d.name] = map[string]any{"value": vals[d.name], "unit": d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(stdout, string(line))
	return res.correct, nil
}

// runResult is everything one invocation measured.
type runResult struct {
	e2e, layers       map[string]float64
	correct           bool
	attempted, failed int
}

// passResult is one pass over the workload: its rounds, records and
// timings.
type passResult struct {
	recs   []*jobRecord
	timed  time.Duration // summed timed phases
	setups []time.Duration
	// rss holds each timed part's peak resident set (MiB).
	rss    []float64
	rounds int
	// exhausted marks a timed phase cut short by an exhausted spec pool.
	exhausted bool
}

// runPass runs the workload's rounds for o.seconds of timed phase.
// Each round starts a fresh server and warms it up (setup), then runs
// its timed phase in wl.chunks parts; after each part, a share of the
// probes runs on a server of its own while the round's server idles.
func runPass(wl *workload, o options, seconds float64, tr *tracer, chk *checker) (*passResult, error) {
	f := wl.newFeed(rand.New(rand.NewSource(o.seed)))
	tenants := wl.tenants[:min(len(wl.tenants), o.clients)]
	chunks := max(wl.chunks, 1)
	// Job-count rounds are whole multiples of one step of the closed
	// loop (every client's batch) per part.
	step := wl.batch * len(tenants) * chunks
	roundJobs := int(math.Round(wl.jobRate*seconds/float64(o.rounds)/float64(step))) * step
	if wl.jobRate > 0 {
		roundJobs = max(roundJobs, step)
	}
	if o.roundJobs > 0 {
		roundJobs = o.roundJobs
	}
	part := time.Duration(seconds / float64(o.rounds*chunks) * float64(time.Second))
	p := &passResult{}
	for {
		// Every phase starts from a collected heap, so how much garbage
		// the previous phase left does not decide when the next GC
		// lands.
		runtime.GC()
		t0 := time.Now()
		r, err := startRound(wl, len(tenants), tr)
		if err != nil {
			return nil, err
		}
		recs := r.drive(tenants, 1, "warmup", listFeed(wl.warmup))
		p.setups = append(p.setups, time.Since(t0))

		for c := 0; c < chunks && !p.exhausted; c++ {
			runtime.GC()
			issued, quota := 0, roundJobs*(c+1)/chunks-roundJobs*c/chunks
			ts := time.Now()
			next := func() (sp server.Spec, ok bool) {
				if roundJobs > 0 && issued >= quota ||
					roundJobs == 0 && issued >= len(tenants) && time.Since(ts) >= part {
					return sp, false
				}
				if sp, ok = f.next(); !ok {
					p.exhausted = true
					return sp, false
				}
				issued++
				return sp, true
			}
			if tr != nil {
				tr.startPhase(r)
			}
			rs := sampleRSS()
			timed := r.drive(tenants, wl.batch, "timed", next)
			p.timed += time.Since(ts)
			p.rss = append(p.rss, rs.end())
			if tr != nil {
				tr.endPhase(r, timed)
			}
			recs = append(recs, timed...)

			probes, err := runProbes(wl, o, tenants[0])
			if err != nil {
				r.close()
				return nil, err
			}
			chk.round(probes)
			p.recs = append(p.recs, probes...)
		}
		p.rounds++
		last := p.exhausted || p.rounds >= o.rounds
		r.close()
		chk.round(recs)
		p.recs = append(p.recs, recs...)
		if last {
			return p, nil
		}
	}
}

// runProbes runs one share of the workload's probes after a part of a
// timed phase, one job at a time on a fresh server of the workload's
// configuration. The kinds take turns, job by job. Spreading the
// probes over the pass keeps one slow spell of a shared box from
// covering all of a kind's samples, and the fresh server keeps them
// from waiting behind the round's ledger history.
func runProbes(wl *workload, o options, tenant string) ([]*jobRecord, error) {
	r, err := startRound(wl, 1, nil)
	if err != nil {
		return nil, err
	}
	defer r.close()
	var lists [][]server.Spec
	longest := 0
	for _, pr := range wl.probes {
		n := pr.n
		if o.probeN > 0 {
			n = o.probeN
		}
		lists = append(lists, probeSpecs(pr.kind, n))
		longest = max(longest, n)
	}
	var specs []server.Spec
	for k := 0; k < longest; k++ {
		for _, l := range lists {
			if k < len(l) {
				specs = append(specs, l[k])
			}
		}
	}
	runtime.GC()
	return r.drive([]string{tenant}, 1, "probe", listFeed(specs)), nil
}

// runWorkload runs one invocation: untraced, or an untraced half and a
// traced half followed by the layer replays.
func runWorkload(wl *workload, o options, chk *checker, stdout io.Writer) (*runResult, error) {
	seconds := o.seconds
	if o.trace {
		seconds /= 2
		if o.probeN == 0 {
			o.probeN = 2
		}
	}
	pa, err := runPass(wl, o, seconds, nil, chk)
	if err != nil {
		return nil, err
	}
	res := &runResult{e2e: map[string]float64{}, layers: map[string]float64{}}
	var notes []string
	notes = append(notes, e2eMetrics(pa, res.e2e)...)
	all := pa.recs
	var pb *passResult
	if o.trace {
		tr := newTracer()
		if pb, err = runPass(wl, o, seconds, tr, chk); err != nil {
			return nil, err
		}
		all = append(all, pb.recs...)
		traced := map[string]float64{}
		e2eMetrics(pb, traced)
		if err := tr.layerMetrics(wl, pb, res.layers, stdout); err != nil {
			return nil, err
		}
		res.layers["trace.overhead_jobs_per_s"] = res.e2e["jobs_per_s"] - traced["jobs_per_s"]
		fmt.Fprintf(stdout, "# tracing overhead: %.3f jobs/s untraced, %.3f jobs/s traced (difference %.3f)\n",
			res.e2e["jobs_per_s"], traced["jobs_per_s"], res.layers["trace.overhead_jobs_per_s"])
	}

	res.attempted = len(all)
	var errs []string
	for _, rec := range all {
		if rec.err != nil {
			res.failed++
			if len(errs) < 5 {
				errs = append(errs, fmt.Sprintf("%s %s: %v", rec.phase, rec.key, rec.err))
			}
		}
	}
	got, want := chk.digest(all)
	res.correct = res.failed == 0 && got == want
	for _, d := range endToEnd {
		if res.e2e[d.name] <= 0 {
			res.correct = false
			errs = append(errs, fmt.Sprintf("metric %s has no samples", d.name))
		}
	}

	m := fingerprint()
	fmt.Fprintf(stdout, "# machine: goos=%s goarch=%s cpu=%q nproc=%d gomaxprocs=%d go=%s\n",
		m.goos, m.goarch, m.cpu, m.nproc, m.gomaxprocs, m.goVersion)
	fmt.Fprintf(stdout, "# server: workers=2 engine_workers=2, mstxd defaults otherwise; clients=%d\n", o.clients)
	fmt.Fprintf(stdout, "# workload=%s seed=%d seconds=%g trace=%v rounds=%d timed_jobs=%d timed_s=%.3f\n",
		wl.name, o.seed, o.seconds, o.trace, pa.rounds, countPhase(pa.recs, "timed"), pa.timed.Seconds())
	for _, n := range notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	if pa.exhausted {
		fmt.Fprintf(stdout, "# a spec pool ran out: the timed phase ended before --seconds\n")
	}
	fmt.Fprintf(stdout, "# error_rate=%.4g (%d failed of %d attempted)\n",
		float64(res.failed)/float64(res.attempted), res.failed, res.attempted)
	for _, e := range errs {
		fmt.Fprintf(stdout, "# FAIL %s\n", e)
	}
	verdict := "ok"
	if got != want {
		verdict = "MISMATCH"
	}
	fmt.Fprintf(stdout, "# result digest %s, expected %s: %s\n", got, want, verdict)
	return res, nil
}

func countPhase(recs []*jobRecord, phase string) int {
	n := 0
	for _, r := range recs {
		if r.phase == phase {
			n++
		}
	}
	return n
}

// e2eMetrics fills the end-to-end metrics of one pass and returns
// notes on where each sample came from.
func e2eMetrics(p *passResult, m map[string]float64) []string {
	var timed, hits []float64
	kinds := map[string]map[string][]float64{} // kind → phase → latencies
	for _, rec := range p.recs {
		if rec.err != nil {
			continue
		}
		v := ms(rec.latency)
		if rec.phase == "timed" {
			timed = append(timed, v)
		}
		if rec.snap.CacheHit {
			if rec.phase == "timed" || rec.phase == "probe" {
				hits = append(hits, v)
			}
			continue
		}
		if kinds[rec.spec.Kind] == nil {
			kinds[rec.spec.Kind] = map[string][]float64{}
		}
		kinds[rec.spec.Kind][rec.phase] = append(kinds[rec.spec.Kind][rec.phase], v)
	}
	var notes []string
	m["jobs_per_s"] = float64(len(timed)) / p.timed.Seconds()
	m["latency_p50_ms"] = median(timed)
	tail, pct := tailOf(timed)
	m["latency_tail_ms"] = tail
	notes = append(notes, fmt.Sprintf("latency_tail_ms is p%.1f of %d timed jobs", pct, len(timed)))
	// Timed hits exist only on tenants-hot; the cold workloads' hits
	// come from their hit probe.
	m["hit_latency_p50_ms"] = median(hits)
	src := []string{fmt.Sprintf("hit=%d", len(hits))}
	// A kind's cache misses come from the timed phase when the
	// workload runs that kind, else from its probe.
	for _, kind := range []string{"campaign", "mc", "translate", "soc"} {
		for _, phase := range []string{"timed", "probe"} {
			if xs := kinds[kind][phase]; len(xs) > 0 {
				m[kind+"_p50_ms"] = median(xs)
				src = append(src, fmt.Sprintf("%s=%s(%d)", kind, phase, len(xs)))
				break
			}
		}
	}
	notes = append(notes, "per-kind samples: "+strings.Join(src, " "))
	secs := make([]float64, len(p.setups))
	for i, d := range p.setups {
		secs[i] = d.Seconds()
	}
	m["setup_s"] = median(secs)
	notes = append(notes, fmt.Sprintf("setup_s is the median of %d set-ups", len(secs)))
	m["peak_rss_mb"] = median(p.rss)
	notes = append(notes, fmt.Sprintf("peak_rss_mb is the median of %d timed parts' peaks (lifetime peak %.1f MiB)",
		len(p.rss), peakRSSMB()))
	return notes
}

// median of xs; 0 for no samples (the checker fails such a run).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailOf returns the highest sample with at least 10 samples above it
// and the percentile it sits at (the maximum when there are fewer
// than 11 samples).
func tailOf(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n <= 10 {
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}

type machine struct {
	goos, goarch, cpu, goVersion string
	nproc, gomaxprocs            int
}

// fingerprint identifies the box a run came from, so results from two
// machines can be told apart.
func fingerprint() machine {
	m := machine{
		goos: runtime.GOOS, goarch: runtime.GOARCH, goVersion: runtime.Version(),
		nproc: runtime.NumCPU(), gomaxprocs: runtime.GOMAXPROCS(0), cpu: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}
