// Package runflags is the run-control flag set shared by the batch
// commands (mstx, experiments, faultsim). It has two parts:
//
//   - Run: -checkpoint dir, -checkpoint-every n, -resume and
//     -timeout d. -timeout cancels the run's engines at lane/batch
//     granularity, -checkpoint makes them snapshot their progress into
//     dir at round/batch barriers, and -resume restores those
//     snapshots so a killed run finishes with a bit-identical result.
//     -resume without -checkpoint is a usage error.
//   - Obs: -metrics, -trace, -obs-out file and -debug-addr host:port.
//     Any of them installs an internal/obs registry; -metrics prints a
//     Prometheus-format report and -trace a span report after the run,
//     to stderr or to the -obs-out file (which implies -metrics), and
//     -debug-addr serves /metrics, /trace and /debug/pprof while the
//     run lasts. With none of them the engines stay on the
//     nil-registry fast path.
package runflags

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"mstx/internal/obs"
	"mstx/internal/resilient"
)

// Run holds the parsed -checkpoint, -checkpoint-every, -resume and
// -timeout flags.
type Run struct {
	checkpoint string
	every      int
	resume     bool
	timeout    time.Duration
}

// RegisterRun adds the checkpoint and timeout flags to fs.
func RegisterRun(fs *flag.FlagSet) *Run {
	r := &Run{}
	fs.StringVar(&r.checkpoint, "checkpoint", "", "checkpoint directory: snapshot engine progress at round/batch barriers for -resume")
	fs.IntVar(&r.every, "checkpoint-every", 1, "snapshot every n engine rounds/batches")
	fs.BoolVar(&r.resume, "resume", false, "resume from the -checkpoint directory instead of restarting")
	fs.DurationVar(&r.timeout, "timeout", 0, "abort the run after this long (0 = no limit)")
	return r
}

// Start derives the run's context from parent, bounded by -timeout
// when set, and builds the checkpointer (nil without -checkpoint).
// The caller must call cancel. The only error is the usage error of
// -resume without -checkpoint.
func (r *Run) Start(parent context.Context) (ctx context.Context, cancel context.CancelFunc, ckpt *resilient.Checkpointer, err error) {
	if r.resume && r.checkpoint == "" {
		return nil, nil, nil, errors.New("-resume requires -checkpoint")
	}
	if r.checkpoint != "" {
		ckpt = &resilient.Checkpointer{Dir: r.checkpoint, Every: r.every, Resume: r.resume}
	}
	if r.timeout > 0 {
		ctx, cancel = context.WithTimeout(parent, r.timeout)
	} else {
		ctx, cancel = context.WithCancel(parent)
	}
	return ctx, cancel, ckpt, nil
}

// Obs holds the parsed -metrics, -trace, -obs-out and -debug-addr
// flags.
type Obs struct {
	metrics, trace bool
	out, debugAddr string
}

// RegisterObs adds the observability flags to fs.
func RegisterObs(fs *flag.FlagSet) *Obs {
	o := &Obs{}
	fs.BoolVar(&o.metrics, "metrics", false, "print a Prometheus-format metrics report after the run")
	fs.BoolVar(&o.trace, "trace", false, "print a span trace report after the run")
	fs.StringVar(&o.out, "obs-out", "", "write the -metrics/-trace reports to this file instead of stderr")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "serve /metrics, /trace and /debug/pprof on this address")
	return o
}

// Start installs the process-wide obs registry when any flag asks
// for one and starts the -debug-addr server, announcing its address
// on stderr under the command name. The returned stop must run on
// every exit path, failures included (a failing run is exactly when
// the trace matters): it writes the report, stops the server and
// uninstalls the registry. It takes the run's exit code and returns
// the command's: a report that cannot be written or closed is printed
// to stderr and turns a clean exit into 1.
func (o *Obs) Start(name string, stderr io.Writer) (stop func(code int) int, err error) {
	if !o.metrics && !o.trace && o.out == "" && o.debugAddr == "" {
		return func(code int) int { return code }, nil
	}
	reg := obs.New()
	shutdown := func() {}
	if o.debugAddr != "" {
		addr, sd, err := obs.ServeDebug(o.debugAddr, reg)
		if err != nil {
			return nil, err
		}
		shutdown = sd
		fmt.Fprintf(stderr, "%s: debug server on http://%s (metrics, trace, debug/pprof)\n", name, addr)
	}
	obs.SetDefault(reg)
	return func(code int) int {
		defer obs.SetDefault(nil)
		defer shutdown()
		if err := o.writeReport(reg, stderr); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", name, err)
			if code == 0 {
				return 1
			}
		}
		return code
	}, nil
}

// writeReport emits the report to the -obs-out file, or to stderr
// without one.
func (o *Obs) writeReport(reg *obs.Registry, stderr io.Writer) error {
	if o.out == "" {
		return o.writeTo(stderr, reg)
	}
	f, err := os.Create(o.out)
	if err != nil {
		return err
	}
	if err := o.writeTo(f, reg); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (o *Obs) writeTo(w io.Writer, reg *obs.Registry) error {
	if o.metrics || o.out != "" {
		if err := reg.WriteText(w); err != nil {
			return err
		}
	}
	if o.trace {
		return reg.WriteTrace(w)
	}
	return nil
}
