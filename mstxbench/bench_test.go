package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkJSON is the part of BENCHMARK.json the benchmark must agree
// with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMetricDefsMatchBenchmarkJSON: the metrics the program prints are
// exactly the ones BENCHMARK.json declares, with the same units and
// directions, and so are the workloads.
func TestMetricDefsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Errorf("workloads %v, BENCHMARK.json %v", have, names)
	}
	same := func(what string, defs []metricDef, decl []struct{ Name, Unit, Better string }) {
		if len(defs) != len(decl) {
			t.Errorf("%s: %d metrics, BENCHMARK.json %d", what, len(defs), len(decl))
			return
		}
		for i, d := range defs {
			if decl[i].Name != d.name || decl[i].Unit != d.unit || decl[i].Better != d.better {
				t.Errorf("%s[%d] = %+v, BENCHMARK.json %+v", what, i, d, decl[i])
			}
		}
	}
	same("end_to_end", endToEnd, b.EndToEnd)
	same("per_layer", perLayer, b.PerLayer)
}

// TestSmoke runs every workload at a tiny size, untraced and traced:
// every correctness check passes and the result line names exactly the
// metrics BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmarkJSON(t)
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			o := defaultOptions()
			o.root, o.seconds, o.trace = "..", 0, trace
			o.rounds, o.roundJobs, o.probeN = 1, 4, 2
			var out bytes.Buffer
			correct, err := execute(wl, o, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line: %v\n%s", wl.name, trace, err, out.String())
			}
			if !correct || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					wl.name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			decl := b.EndToEnd
			if trace {
				decl = b.PerLayer
			}
			var want, got []string
			for _, d := range decl {
				want = append(want, d.Name+" "+d.Unit)
			}
			for name, m := range res.Metrics {
				got = append(got, name+" "+m.Unit)
			}
			sort.Strings(want)
			sort.Strings(got)
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s trace=%v: metrics\n%v\nBENCHMARK.json\n%v", wl.name, trace, got, want)
			}
		}
	}
}
