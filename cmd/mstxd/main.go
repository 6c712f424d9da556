// Command mstxd serves the mstx engines as a multi-tenant job
// service: campaign, Monte-Carlo, translation and SOC test-planning
// jobs over HTTP/JSON with per-tenant fair queueing, a
// content-addressed result cache and checkpointed restart-resume. The
// same binary doubles as a minimal client for scripts and smokes.
//
// Server:
//
//	mstxd [-addr host:port] [-addr-file path]
//	      [-workers N] [-engine-workers K]
//	      [-max-queued N] [-max-queued-tenant N] [-weights t=w,...]
//	      [-checkpoint dir] [-checkpoint-every n] [-resume]
//	      [-retry-max N] [-retry-base d] [-default-deadline d] [-max-deadline d]
//	      [-breaker-window N] [-breaker-threshold f] [-breaker-open-for d]
//
// Client:
//
//	mstxd -connect host:port -submit '{"kind":"mc","devices":6}'
//	      [-tenant name] [-wait] [-events] [-timeout d]
//
// Job kinds: "campaign" (spectral fault campaign), "mc" (E6 Table 2
// study), "translate" (referral-error MC) and "soc" (E9 multi-core
// SOC TAM schedule sweep).
//
// The server installs the full API under /v1 plus /healthz, /readyz
// and the obs debug surface (/metrics, /trace, /debug/pprof) on one
// listener; SIGINT or SIGTERM stops it gracefully, leaving in-flight
// jobs resumable when -checkpoint is set. The client submits one job;
// with -wait it polls to a terminal state, prints the result text to
// stdout (so output is diffable against the equivalent CLI run) and
// exits 0 for done, 3 for partial (including a deadline-expired job
// with a salvaged partial result), 4 when -timeout expires client-side
// and 1 otherwise.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mstx/internal/obs"
	"mstx/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is the testable entry point. ready, when non-nil, receives the
// bound listen address once the server is accepting (tests use it
// instead of -addr-file). Exit codes: 0 ok, 1 failure, 2 usage, 3
// partial result (client -wait), 4 client-side -timeout expiry.
func run(args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("mstxd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "127.0.0.1:8321", "listen address (host:port, port 0 picks a free port)")
		addrFile  = fs.String("addr-file", "", "write the bound address to this file once listening")
		workers   = fs.Int("workers", 2, "concurrent jobs (scheduler slots)")
		engineW   = fs.Int("engine-workers", 0, "per-job engine fan-out (0 = engine default)")
		maxTotal  = fs.Int("max-queued", 64, "global queued-job bound (admission control)")
		maxTenant = fs.Int("max-queued-tenant", 16, "per-tenant queued-job bound")
		weights   = fs.String("weights", "", "per-tenant scheduling weights, e.g. prod=3,batch=1")
		ckptDir   = fs.String("checkpoint", "", "durability directory for the job ledger and engine snapshots")
		ckptEvery = fs.Int("checkpoint-every", 0, "engine snapshot cadence in engine units (<=1 every unit)")
		resume    = fs.Bool("resume", false, "replay the ledger in -checkpoint on startup")

		retryMax   = fs.Int("retry-max", 2, "automatic retries per job for retryable engine failures (0 disables)")
		retryBase  = fs.Duration("retry-base", 100*time.Millisecond, "retry backoff base (exponential, capped, jittered)")
		defDeadl   = fs.Duration("default-deadline", 0, "default per-job wall budget when the spec has no deadline_ms (0 = unlimited)")
		maxDeadl   = fs.Duration("max-deadline", 0, "cap on every job's wall budget (0 = no cap)")
		brkWindow  = fs.Int("breaker-window", 16, "circuit-breaker outcome window per job kind")
		brkThresh  = fs.Float64("breaker-threshold", 0.5, "windowed failure rate that opens a kind's breaker")
		brkOpenFor = fs.Duration("breaker-open-for", 5*time.Second, "how long an open breaker sheds before probing")
		heartbeat  = fs.Duration("heartbeat", 15*time.Second, "SSE comment-ping interval keeping idle event streams alive")

		connect = fs.String("connect", "", "client mode: server address to talk to")
		submit  = fs.String("submit", "", "client mode: job spec JSON to submit")
		tenant  = fs.String("tenant", "", "client mode: tenant name (X-Mstx-Tenant)")
		wait    = fs.Bool("wait", false, "client mode: poll the job to a terminal state and print its result text")
		events  = fs.Bool("events", false, "client mode: stream the job's SSE events to stderr while waiting")
		timeout = fs.Duration("timeout", 0, "client mode: overall wall budget for -wait/-events (0 = none; exit 4 on expiry)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "mstxd: unexpected arguments %q\n", fs.Args())
		return 2
	}

	if *connect != "" {
		return runClient(*connect, *submit, *tenant, *wait, *events, *timeout, stdout, stderr)
	}

	w, err := parseWeights(*weights)
	if err != nil {
		fmt.Fprintf(stderr, "mstxd: %v\n", err)
		return 2
	}
	srv, err := server.New(server.Config{
		Workers:            *workers,
		EngineWorkers:      *engineW,
		MaxQueuedTotal:     *maxTotal,
		MaxQueuedPerTenant: *maxTenant,
		Weights:            w,
		CheckpointDir:      *ckptDir,
		CheckpointEvery:    *ckptEvery,
		Resume:             *resume,
		RetryMax:           *retryMax,
		RetryBase:          *retryBase,
		DefaultDeadline:    *defDeadl,
		MaxDeadline:        *maxDeadl,
		BreakerWindow:      *brkWindow,
		BreakerThreshold:   *brkThresh,
		BreakerOpenFor:     *brkOpenFor,
		Heartbeat:          *heartbeat,
		Registry:           obs.New(),
	})
	if err != nil {
		fmt.Fprintf(stderr, "mstxd: %v\n", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "mstxd: listen %s: %v\n", *addr, err)
		srv.Close()
		return 1
	}
	// Catch signals before the address is published: a SIGTERM sent as
	// soon as a client knows the address must still shut down cleanly.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			fmt.Fprintf(stderr, "mstxd: write -addr-file: %v\n", err)
			srv.Close()
			return 1
		}
	}
	if ready != nil {
		ready <- bound
	}
	fmt.Fprintf(stderr, "mstxd: listening on %s\n", bound)

	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case got := <-sig:
		fmt.Fprintf(stderr, "mstxd: %v; shutting down\n", got)
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(stderr, "mstxd: serve: %v\n", err)
			srv.Close()
			return 1
		}
	}
	hs.Close()
	srv.Close()
	fmt.Fprintln(stderr, "mstxd: stopped")
	return 0
}

// parseWeights parses "tenant=weight,..." into the scheduler map.
func parseWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	w := make(map[string]int)
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("weights: want tenant=weight, got %q", part)
		}
		n, err := strconv.Atoi(val)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("weights: %q: weight must be a positive integer", part)
		}
		w[name] = n
	}
	return w, nil
}

// runClient submits one job and optionally waits for its result.
// timeout, when positive, bounds the whole client interaction (submit,
// polling, event streaming) so a wedged server can't hang the client;
// expiry exits 4.
func runClient(addr, spec, tenant string, wait, events bool, timeout time.Duration, stdout, stderr io.Writer) int {
	if spec == "" {
		fmt.Fprintln(stderr, "mstxd: -connect requires -submit JSON")
		return 2
	}
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	timedOut := func(err error) bool {
		return ctx.Err() != nil || errors.Is(err, context.DeadlineExceeded)
	}
	base := "http://" + addr
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", strings.NewReader(spec))
	if err != nil {
		fmt.Fprintf(stderr, "mstxd: %v\n", err)
		return 1
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Mstx-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		if timedOut(err) {
			fmt.Fprintf(stderr, "mstxd: submit: client timeout after %s\n", timeout)
			return 4
		}
		fmt.Fprintf(stderr, "mstxd: submit: %v\n", err)
		return 1
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		fmt.Fprintf(stderr, "mstxd: submit: %s: %s\n", resp.Status, strings.TrimSpace(string(body)))
		return 1
	}
	var snap server.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		fmt.Fprintf(stderr, "mstxd: decode submit response: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "mstxd: job %s %s\n", snap.ID, snap.State)
	if !wait {
		fmt.Fprintln(stdout, snap.ID)
		return 0
	}

	if events {
		go streamEvents(ctx, base, snap.ID, stderr)
	}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+snap.ID, nil)
		if err != nil {
			fmt.Fprintf(stderr, "mstxd: poll: %v\n", err)
			return 1
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			if timedOut(err) {
				fmt.Fprintf(stderr, "mstxd: job %s: client timeout after %s\n", snap.ID, timeout)
				return 4
			}
			fmt.Fprintf(stderr, "mstxd: poll: %v\n", err)
			return 1
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err := json.Unmarshal(body, &snap); err != nil {
			fmt.Fprintf(stderr, "mstxd: decode job: %v\n", err)
			return 1
		}
		switch snap.State {
		case server.StateDone, server.StatePartial:
			if snap.Result != nil {
				fmt.Fprint(stdout, snap.Result.Text)
			}
			if snap.CacheHit {
				fmt.Fprintf(stderr, "mstxd: job %s served from cache (%s)\n", snap.ID, snap.Identity)
			}
			if snap.State == server.StatePartial {
				return 3
			}
			return 0
		case server.StateDeadline:
			// The job's own wall budget expired server-side. A salvaged
			// partial result is still a (partial) result.
			msg := snap.State
			if snap.Error != nil {
				msg = fmt.Sprintf("%s (%s: %s)", snap.State, snap.Error.Type, snap.Error.Message)
			}
			fmt.Fprintf(stderr, "mstxd: job %s %s\n", snap.ID, msg)
			if snap.Result != nil {
				fmt.Fprint(stdout, snap.Result.Text)
				return 3
			}
			return 1
		case server.StateFailed, server.StateCanceled:
			msg := snap.State
			if snap.Error != nil {
				msg = fmt.Sprintf("%s (%s: %s)", snap.State, snap.Error.Type, snap.Error.Message)
			}
			fmt.Fprintf(stderr, "mstxd: job %s %s\n", snap.ID, msg)
			return 1
		}
		select {
		case <-ctx.Done():
			fmt.Fprintf(stderr, "mstxd: job %s: client timeout after %s\n", snap.ID, timeout)
			return 4
		case <-time.After(150 * time.Millisecond):
		}
	}
}

// streamEvents relays the job's SSE stream to w until it closes or ctx
// expires.
func streamEvents(ctx context.Context, base, id string, w io.Writer) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	_ = relaySSE(resp.Body, w)
}

// relaySSE copies SSE field lines from r to w, dropping the protocol
// noise a human tail doesn't want: blank event separators and
// `:`-prefixed comment lines (the server's heartbeat pings).
func relaySSE(r io.Reader, w io.Writer) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, ":") {
			continue
		}
		fmt.Fprintln(w, line)
	}
	return sc.Err()
}
