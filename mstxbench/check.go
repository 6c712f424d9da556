package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"mstx/internal/server"
)

// expectedJSON maps every spec key the benchmark can submit to the
// digest of its result text. Recompute it only when a result is meant
// to change: bash mstxbench/run.sh --write-expected
//
//go:embed expected.json
var expectedJSON []byte

// specKey is the canonical form of a spec as the benchmark submits it.
func specKey(sp server.Spec) string {
	b, err := json.Marshal(sp)
	if err != nil {
		panic(err) // server.Spec always marshals
	}
	return string(b)
}

func textDigest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:8])
}

// resultDigest digests a result's text. A campaign text's engine line
// splits the non-screened lanes between "memoized" and "spectra
// computed" by detect-worker timing (the same run reads 664/3001 or
// 665/3000), so that line enters the digest as the screened count and
// the split's sum; every verdict stays in.
func resultDigest(res *server.Result) string {
	text := res.Text
	if c := res.Campaign; c != nil {
		head, tail, _ := strings.Cut(text, "\n")
		_, tail, _ = strings.Cut(tail, "\n")
		text = fmt.Sprintf("%s\nengine: %d lanes zero-diff screened, %d memoized or computed\n%s",
			head, c.Screened, c.Memoized+c.Spectra, tail)
	}
	return textDigest(text)
}

// checker verifies job results.
type checker struct {
	expected map[string]string // spec key → text digest
	goldens  map[string]string // spec key → exact text
}

// readGoldens returns the golden specs' exact result texts: the
// checked-in experiment goldens plus the newline the CLI appends.
func readGoldens(root string) (map[string]string, error) {
	g := map[string]string{}
	for sp, file := range map[string]string{
		specKey(e6Golden): "e6_table2.golden",
		specKey(e9Golden): "e9_schedule.golden",
	} {
		data, err := os.ReadFile(filepath.Join(root, "internal", "experiments", "testdata", file))
		if err != nil {
			return nil, fmt.Errorf("read golden: %w", err)
		}
		g[sp] = string(data) + "\n"
	}
	return g, nil
}

func loadChecker(root string) (*checker, error) {
	c := &checker{}
	if err := json.Unmarshal(expectedJSON, &c.expected); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	var err error
	c.goldens, err = readGoldens(root)
	return c, err
}

// job checks one finished job; a failure lands in rec.err.
func (c *checker) job(rec *jobRecord) {
	if rec.err != nil {
		return
	}
	rec.err = c.result(rec)
}

func (c *checker) result(rec *jobRecord) error {
	v := rec.snap
	if v.State != server.StateDone {
		msg := ""
		if v.Error != nil {
			msg = v.Error.Type + ": " + v.Error.Message
		}
		return fmt.Errorf("state %s %s", v.State, msg)
	}
	res := v.Result
	if res == nil {
		return fmt.Errorf("done without a result")
	}
	want, ok := c.expected[rec.key]
	if !ok {
		return fmt.Errorf("no expected digest for this spec")
	}
	if got := resultDigest(res); got != want {
		return fmt.Errorf("text digest %s, expected %s", got, want)
	}
	if g, ok := c.goldens[rec.key]; ok && res.Text != g {
		return fmt.Errorf("text differs from the golden file")
	}
	switch {
	case res.Campaign != nil:
		cr := res.Campaign
		if cr.Screened+cr.Memoized+cr.Spectra != cr.Faults+1 {
			return fmt.Errorf("campaign screened %d + memoized %d + spectra %d != faults %d + 1",
				cr.Screened, cr.Memoized, cr.Spectra, cr.Faults)
		}
	case res.SOC != nil:
		rows := append([]server.SOCSweepRow(nil), res.SOC.Rows...)
		sort.Slice(rows, func(i, j int) bool { return rows[i].Width < rows[j].Width })
		for i, row := range rows {
			if row.BoundCycles > row.MakespanCycles {
				return fmt.Errorf("soc width %d: bound %d > makespan %d", row.Width, row.BoundCycles, row.MakespanCycles)
			}
			if i > 0 && row.MakespanCycles > rows[i-1].MakespanCycles {
				return fmt.Errorf("soc makespan rises from width %d to %d", rows[i-1].Width, row.Width)
			}
		}
	}
	return nil
}

// round checks one server lifetime's jobs: each on its own, then every
// cache hit against its leader, the miss that computed it.
func (c *checker) round(recs []*jobRecord) {
	leaders := map[string]string{}
	for _, rec := range recs {
		c.job(rec)
		if rec.err == nil && !rec.snap.CacheHit {
			if _, ok := leaders[rec.key]; !ok {
				leaders[rec.key] = rec.snap.Result.Text
			}
		}
	}
	for _, rec := range recs {
		if rec.err != nil || !rec.snap.CacheHit {
			continue
		}
		if text, ok := leaders[rec.key]; !ok {
			rec.err = fmt.Errorf("cache hit without a leader")
		} else if rec.snap.Result.Text != text {
			rec.err = fmt.Errorf("cache hit text differs from its leader's")
		}
	}
}

// digest folds every distinct completed spec with its result text
// digest into one value, and the same spec set with the stored
// digests into the expected value.
func (c *checker) digest(recs []*jobRecord) (got, want string) {
	seen := map[string]string{}
	for _, rec := range recs {
		if rec.snap.Result != nil {
			seen[rec.key] = resultDigest(rec.snap.Result)
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var g, w strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&g, "%s\t%s\n", k, seen[k])
		fmt.Fprintf(&w, "%s\t%s\n", k, c.expected[k])
	}
	return textDigest(g.String()), textDigest(w.String())
}

// writeExpected recomputes expected.json by running every spec the
// benchmark can submit on an in-process server, checking the goldens
// on the way.
func writeExpected(root string) error {
	goldens, err := readGoldens(root)
	if err != nil {
		return err
	}
	var specs []server.Spec
	seen := map[string]bool{}
	for _, sp := range allSpecs() {
		if k := specKey(sp); !seen[k] {
			seen[k] = true
			specs = append(specs, sp)
		}
	}
	srv, err := server.New(serverConfig(&workload{}, ""))
	if err != nil {
		return err
	}
	defer srv.Close()
	out := make(map[string]string, len(specs))
	var mu sync.Mutex
	var firstErr error
	next := listFeed(specs)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				sp, ok := next()
				mu.Unlock()
				if !ok {
					return
				}
				res, err := compute(srv, sp)
				if err == nil {
					if g, ok := goldens[specKey(sp)]; ok && g != res.Text {
						err = fmt.Errorf("%s: result differs from the golden file", specKey(sp))
					}
				}
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
				} else {
					out[specKey(sp)] = resultDigest(res)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, "mstxbench", "expected.json"), append(data, '\n'), 0o644)
}

func compute(srv *server.Server, sp server.Spec) (*server.Result, error) {
	j, err := srv.Submit("expected", sp)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", specKey(sp), err)
	}
	<-j.Done()
	v := srv.Snapshot(j)
	if v.State != server.StateDone || v.Result == nil {
		return nil, fmt.Errorf("%s: ended %s", specKey(sp), v.State)
	}
	return v.Result, nil
}
