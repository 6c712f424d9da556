package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"mstx/internal/obs"
	"mstx/internal/server"
)

// jobRecord is one job as its client saw it.
type jobRecord struct {
	key   string
	spec  server.Spec
	phase string // "warmup", "timed" or "probe"
	// submit is the POST round trip; latency runs from the POST to
	// the receipt of the SSE done event.
	submit  time.Duration
	latency time.Duration
	snap    server.Snapshot
	spans   []spanEvent // engine spans off the SSE stream (traced runs)
	err     error
}

// spanEvent is the data of an SSE `span` event.
type spanEvent struct {
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	DurMS   float64 `json:"dur_ms"`
}

// serverConfig is the pinned configuration: Workers 2, EngineWorkers
// 2, everything else at the mstxd flag defaults.
func serverConfig(wl *workload, ckptDir string) server.Config {
	return server.Config{
		Workers:            2,
		EngineWorkers:      2,
		MaxQueuedTotal:     64,
		MaxQueuedPerTenant: 16,
		Weights:            wl.weights,
		CheckpointDir:      ckptDir,
		RetryMax:           2,
		RetryBase:          100 * time.Millisecond,
		BreakerWindow:      16,
		BreakerThreshold:   0.5,
		BreakerOpenFor:     5 * time.Second,
		Heartbeat:          15 * time.Second,
		Registry:           obs.New(),
	}
}

// round is one server lifetime: a fresh server (and, when durable, a
// fresh ledger directory) behind a loopback HTTP listener.
type round struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	dir    string
	tr     *tracer // nil when untraced
}

func startRound(wl *workload, clients int, tr *tracer) (*round, error) {
	r := &round{served: make(chan error, 1), tr: tr}
	if wl.durable {
		dir, err := os.MkdirTemp("", "mstxbench-ledger-")
		if err != nil {
			return nil, err
		}
		r.dir = dir
	}
	srv, err := server.New(serverConfig(wl, r.dir))
	if err != nil {
		os.RemoveAll(r.dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(r.dir)
		return nil, err
	}
	r.srv = srv
	var h http.Handler = srv.Handler()
	if tr != nil {
		h = tr.wrap(h)
	}
	r.hs = &http.Server{Handler: h}
	go func() { r.served <- r.hs.Serve(ln) }()
	r.base = "http://" + ln.Addr().String()
	// One connection per client goroutine, never more.
	r.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients,
	}}
	return r, nil
}

// close stops the listener (waiting for in-flight handlers), then the
// server, and removes the ledger directory.
func (r *round) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.hs.Shutdown(ctx); err != nil {
		r.hs.Close()
	}
	<-r.served
	r.client.CloseIdleConnections()
	r.srv.Close()
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
}

// drainClose reads the rest of a body so its connection is reused.
func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, body)
	body.Close()
}

// submit POSTs sp for tenant and returns the job ID. A refusal (429,
// 503) or any other non-201 answer is an error.
func (r *round) submit(tenant string, sp server.Spec) (string, error) {
	body, err := json.Marshal(struct {
		Tenant string `json:"tenant"`
		server.Spec
	}{tenant, sp})
	if err != nil {
		return "", err
	}
	resp, err := r.client.Post(r.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", fmt.Errorf("submit: %w", err)
	}
	data, err := io.ReadAll(resp.Body)
	drainClose(resp.Body)
	if err != nil {
		return "", fmt.Errorf("submit: read body: %w", err)
	}
	if resp.StatusCode != http.StatusCreated {
		return "", fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var snap server.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return "", fmt.Errorf("submit: decode: %w", err)
	}
	return snap.ID, nil
}

// follow reads the job's SSE stream to its done event and returns the
// terminal snapshot, plus the engine spans when withSpans is set.
func (r *round) follow(id string, withSpans bool) (server.Snapshot, []spanEvent, error) {
	resp, err := r.client.Get(r.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return server.Snapshot{}, nil, fmt.Errorf("follow %s: %w", id, err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return server.Snapshot{}, nil, fmt.Errorf("follow %s: HTTP %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var event string
	var spans []spanEvent
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			event = v
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		switch {
		case event == "span" && withSpans:
			var sp spanEvent
			if err := json.Unmarshal([]byte(data), &sp); err != nil {
				return server.Snapshot{}, nil, fmt.Errorf("follow %s: span: %w", id, err)
			}
			spans = append(spans, sp)
		case event == "done":
			var snap server.Snapshot
			if err := json.Unmarshal([]byte(data), &snap); err != nil {
				return server.Snapshot{}, nil, fmt.Errorf("follow %s: done: %w", id, err)
			}
			return snap, spans, nil
		}
	}
	if err := sc.Err(); err != nil {
		return server.Snapshot{}, nil, fmt.Errorf("follow %s: %w", id, err)
	}
	return server.Snapshot{}, nil, fmt.Errorf("follow %s: stream ended before done", id)
}

// runBatch submits specs as tenant, then follows each to done in
// submission order.
func (r *round) runBatch(tenant, phase string, specs []server.Spec) []*jobRecord {
	recs := make([]*jobRecord, len(specs))
	ids := make([]string, len(specs))
	starts := make([]time.Time, len(specs))
	for i, sp := range specs {
		starts[i] = time.Now()
		rec := &jobRecord{key: specKey(sp), spec: sp, phase: phase}
		ids[i], rec.err = r.submit(tenant, sp)
		rec.submit = time.Since(starts[i])
		recs[i] = rec
	}
	for i, rec := range recs {
		if rec.err != nil {
			continue
		}
		rec.snap, rec.spans, rec.err = r.follow(ids[i], r.tr != nil)
		rec.latency = time.Since(starts[i])
		if r.tr != nil {
			r.tr.jobDone(r)
		}
	}
	return recs
}

// drive runs closed-loop clients against r until next reports no
// more specs: client i submits as tenants[i], batch jobs at a time,
// and follows each to done before taking more. next is called under a
// lock shared by the clients.
func (r *round) drive(tenants []string, batch int, phase string, next func() (server.Spec, bool)) []*jobRecord {
	var mu sync.Mutex
	var recs []*jobRecord
	var wg sync.WaitGroup
	for _, tenant := range tenants {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			for {
				mu.Lock()
				var specs []server.Spec
				for len(specs) < batch {
					sp, ok := next()
					if !ok {
						break
					}
					specs = append(specs, sp)
				}
				mu.Unlock()
				if len(specs) == 0 {
					return
				}
				got := r.runBatch(tenant, phase, specs)
				mu.Lock()
				recs = append(recs, got...)
				mu.Unlock()
			}
		}(tenant)
	}
	wg.Wait()
	return recs
}

// listFeed yields specs once each, in order.
func listFeed(specs []server.Spec) func() (server.Spec, bool) {
	i := 0
	return func() (server.Spec, bool) {
		if i == len(specs) {
			return server.Spec{}, false
		}
		i++
		return specs[i-1], true
	}
}
