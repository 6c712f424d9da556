package main

import (
	"math/rand"

	"mstx/internal/server"
)

// Every spec the benchmark can submit is built by one of these
// constructors from a small integer seed, so expected.json can list
// the digest of every result text the benchmark will ever check.

var campaignSizes = []int{512, 1024, 2048}

var translateCombos = [][2]string{
	{"mixer-iip3", "nominal-gains"}, {"mixer-iip3", "adaptive"},
	{"mixer-p1db", "nominal-gains"}, {"mixer-p1db", "adaptive"},
	{"lpf-cutoff", "nominal-gains"}, {"lpf-cutoff", "adaptive"},
}

func campaignSpec(patterns int, seed int64) server.Spec {
	return server.Spec{Kind: "campaign", Patterns: patterns, Seed: seed}
}

func mcSpec(seed int64) server.Spec {
	return server.Spec{Kind: "mc", Devices: 6, CaptureN: 1024, Seed: seed}
}

func translateSpec(combo int, seed int64) server.Spec {
	c := translateCombos[combo%len(translateCombos)]
	return server.Spec{Kind: "translate", Param: c[0], Method: c[1], Seed: seed}
}

func socSpec(seed int64) server.Spec { return server.Spec{Kind: "soc", Seed: seed} }

// The golden specs: their result texts must equal the checked-in
// experiment goldens plus the trailing newline the CLI prints.
var (
	e6Golden = mcSpec(0)
	e9Golden = socSpec(0) // seed 0 normalizes to experiments.DefaultSOCSeed
)

// campaignPoolN bounds how many distinct campaigns a run can submit:
// several times what campaign-cold completes in a run on a 2-core
// box. A run that exhausts the pool ends its timed phase early.
const campaignPoolN = 360

// Warm-up, probe and reference specs use seeds 9001+ and 9101+, which
// the pool does not reach.
const (
	warmupSeed = 9001
	probeSeed  = 9101
)

// feed yields a workload's timed job specs in order. ok=false means
// the workload's spec pool is exhausted and the timed phase ends.
type feed interface {
	next() (sp server.Spec, ok bool)
}

// campaignFeed walks the campaign pool cyclically from a seeded
// offset, one block of three (512/1024/2048 patterns) at a time, each
// block in a seeded order; every seed is distinct. A fixed order would
// let the two closed-loop clients lock into one pairing of sizes for a
// whole run, and which pairing a run locks into would set its
// latencies.
type campaignFeed struct {
	rng   *rand.Rand
	block int
	n     int
	order []int
}

func (f *campaignFeed) next() (server.Spec, bool) {
	if f.n == campaignPoolN {
		return server.Spec{}, false
	}
	k := len(campaignSizes)
	if f.n%k == 0 {
		f.order = f.rng.Perm(k)
	}
	i := ((f.block+f.n/k)%(campaignPoolN/k))*k + f.order[f.n%k]
	f.n++
	return campaignSpec(campaignSizes[i%k], int64(100+i)), true
}

// hotPool is tenants-hot's fixed pool of small specs over all four
// kinds, both goldens included.
func hotPool() []server.Spec {
	p := []server.Spec{e6Golden, e9Golden, mcSpec(1), mcSpec(2)}
	for s := int64(1); s <= 4; s++ {
		p = append(p, campaignSpec(256, s))
	}
	for c := range translateCombos {
		p = append(p, translateSpec(c, 1))
	}
	return append(p,
		server.Spec{Kind: "soc", TAMWidths: []int{4, 8, 16}, Iterations: 16},
		server.Spec{Kind: "soc", TAMWidths: []int{4, 8, 16}, Iterations: 16, Seed: 2})
}

// hotFeed deals hotPool in seeded shuffles, every spec once per 16
// jobs, so each run has the same kind mix; after warm-up every draw
// is a cache hit.
type hotFeed struct {
	rng  *rand.Rand
	pool []server.Spec
	deck []server.Spec
}

func (f *hotFeed) next() (server.Spec, bool) {
	if len(f.deck) == 0 {
		f.deck = append(f.deck, f.pool...)
		f.rng.Shuffle(len(f.deck), func(i, j int) { f.deck[i], f.deck[j] = f.deck[j], f.deck[i] })
	}
	sp := f.deck[0]
	f.deck = f.deck[1:]
	return sp, true
}

// probeSpecs returns the specs of one probe kind: n cold jobs of the
// kind's reference shape, or for "hit" n submissions of the reference
// 512-pattern campaign, all but the first served from the cache. A
// campaign hit still builds its stimulus, so the hit probe times
// milliseconds of work rather than a bare HTTP round trip.
func probeSpecs(kind string, n int) []server.Spec {
	out := make([]server.Spec, n)
	for k := range out {
		seed := int64(probeSeed + k)
		switch kind {
		case "campaign":
			out[k] = campaignSpec(512, seed)
		case "hit":
			out[k] = campaignSpec(512, probeSeed)
		case "mc":
			out[k] = mcSpec(seed)
		case "translate":
			out[k] = translateSpec(1, seed)
		case "soc":
			out[k] = socSpec(seed)
		}
	}
	return out
}

// probe is a kind whose cold latency a workload's timed jobs do not
// measure (or "hit", for cache hits), measured by n sequential jobs
// after each part of every timed phase, so every workload reports
// every per-kind metric.
type probe struct {
	kind string
	n    int
}

// workload is one traffic mix. Every client is closed-loop: it submits
// batch jobs, follows each to done, then submits again.
type workload struct {
	name string
	// tenants[i] is the tenant of client i; weights are the server's
	// fair-queue weights.
	tenants []string
	weights map[string]int
	batch   int
	// durable runs the server with a fresh CheckpointDir, so the job
	// ledger is written on every transition.
	durable bool
	// jobRate > 0 sizes the timed phase in jobs, jobRate per second
	// of --seconds, split evenly over the rounds: the ledger grows with
	// history, so every run must do the same jobs on it. 0 splits the
	// timed phase into equal time slices.
	jobRate float64
	// chunks is how many parts a round's timed phase is cut into; a
	// share of the probes runs after each part.
	chunks  int
	warmup  []server.Spec
	probes  []probe
	newFeed func(rng *rand.Rand) feed
}

var workloads = []*workload{
	// campaign-cold: the campaign engine path (core, campaign, netlist,
	// digital, spectest, dsp); no cache hit, no ledger, no mc engines.
	{
		name:    "campaign-cold",
		tenants: []string{"bench", "bench"},
		batch:   1,
		warmup: []server.Spec{
			campaignSpec(512, warmupSeed), campaignSpec(1024, warmupSeed+1), campaignSpec(2048, warmupSeed+2),
		},
		chunks: 2,
		probes: []probe{{"mc", 4}, {"translate", 12}, {"soc", 4}, {"hit", 17}},
		newFeed: func(rng *rand.Rand) feed {
			return &campaignFeed{rng: rng, block: rng.Intn(campaignPoolN / len(campaignSizes))}
		},
	},
	// tenants-hot: admission, the WRR fair queue, the cache, ledger
	// encoding, JSON/SSE serialization and the BuildDigitalTest every
	// campaign hit pays.
	{
		name:    "tenants-hot",
		tenants: []string{"heavy", "light"},
		weights: map[string]int{"heavy": 3, "light": 1},
		batch:   4,
		durable: true,
		jobRate: 76.8,
		chunks:  4,
		warmup:  hotPool(),
		probes:  []probe{{"campaign", 3}, {"mc", 2}, {"translate", 6}, {"soc", 2}},
		newFeed: func(rng *rand.Rand) feed {
			return &hotFeed{rng: rng, pool: hotPool()}
		},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// allSpecs lists every spec any workload can submit, for
// -write-expected.
func allSpecs() []server.Spec {
	var out []server.Spec
	for i := 0; i < campaignPoolN; i++ {
		out = append(out, campaignSpec(campaignSizes[i%len(campaignSizes)], int64(100+i)))
	}
	for _, w := range workloads {
		out = append(out, w.warmup...)
		for _, p := range w.probes {
			out = append(out, probeSpecs(p.kind, p.n)...)
		}
	}
	return out
}
