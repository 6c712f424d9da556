package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mstx/internal/resilient"
)

// small returns CLI args for a fast 4-tap run plus any extras.
func small(extra ...string) []string {
	return append([]string{"-taps", "4", "-patterns", "64"}, extra...)
}

func TestRunBadFlagIsUsageError(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errw); code != 2 {
		t.Fatalf("unknown flag exited %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "Usage") {
		t.Errorf("usage text missing from stderr:\n%s", errw.String())
	}
}

func TestRunResumeRequiresCheckpoint(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-resume"}, &out, &errw); code != 2 {
		t.Fatalf("-resume without -checkpoint exited %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "-resume requires -checkpoint") {
		t.Errorf("missing diagnostic on stderr:\n%s", errw.String())
	}
}

// TestHelpFlagsUnchanged pins the flag names, types and defaults -h
// lists, so the shared run-control set cannot add, drop or re-default
// a flag.
func TestHelpFlagsUnchanged(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-h"}, &out, &errw); code != 2 {
		t.Fatalf("-h exited %d, want 2", code)
	}
	usage := errw.String()
	const want = `-amp float = 460
-atpg =
-checkpoint string =
-checkpoint-every int = 1
-collapse = true
-cutoff float = 0.15
-diagnose int = -1
-dump string =
-frac int = 8
-noise float = 1.5
-patterns int = 1024
-resume =
-seed int = 1
-spectral =
-taps int = 16
-timeout duration =
-tones int = 2
-undetected =
-width int = 10`
	if got := helpFlags(usage); got != want {
		t.Errorf("-h flags drifted.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// helpFlags lists the flags of a -h usage text one per line as
// "-name [type] = [default]"; -h prints no default for a zero value.
func helpFlags(usage string) string {
	var flags []string
	for _, line := range strings.Split(usage, "\n") {
		if head, ok := strings.CutPrefix(line, "  -"); ok {
			flags = append(flags, "-"+head+" =")
		} else if _, def, ok := strings.Cut(line, "(default "); ok && len(flags) > 0 {
			flags[len(flags)-1] += " " + strings.TrimSuffix(def, ")")
		}
	}
	return strings.Join(flags, "\n")
}

func TestRunBadToneCount(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(small("-tones", "99"), &out, &errw); code != 1 {
		t.Fatalf("bad -tones exited %d, want 1", code)
	}
	if !strings.Contains(errw.String(), "tones must be in") {
		t.Errorf("missing diagnostic on stderr:\n%s", errw.String())
	}
}

func TestRunExactCampaign(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(small(), &out, &errw); code != 0 {
		t.Fatalf("exact run exited %d, want 0; stderr:\n%s", code, errw.String())
	}
	for _, want := range []string{"filter: 4 taps", "faults detected", "undetected confined to"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunSpectralCampaign(t *testing.T) {
	var out, errw bytes.Buffer
	// 64 patterns leaves the detector no free bins; 256 is still fast.
	if code := run([]string{"-taps", "4", "-patterns", "256", "-spectral"}, &out, &errw); code != 0 {
		t.Fatalf("-spectral run exited %d, want 0; stderr:\n%s", code, errw.String())
	}
	for _, want := range []string{"spectral campaign (floor", "spectra computed"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunCheckpointResumeRoundTrip is the CLI-level kill-and-resume
// golden: a failpoint crashes the exact campaign mid-run, then a
// -resume invocation finishes it and its stdout must be byte-identical
// to an uninterrupted run.
func TestRunCheckpointResumeRoundTrip(t *testing.T) {
	var base, errw bytes.Buffer
	if code := run(small(), &base, &errw); code != 0 {
		t.Fatalf("baseline run exited %d; stderr:\n%s", code, errw.String())
	}

	dir := t.TempDir()
	fp := resilient.NewFailpoints()
	fp.Set("campaign.detect_batch", resilient.Action{Err: errors.New("injected crash"), After: 2})
	resilient.Install(fp)
	var crashOut, crashErr bytes.Buffer
	code := run(small("-checkpoint", dir, "-checkpoint-every", "1"), &crashOut, &crashErr)
	resilient.Install(nil)
	if code != 1 {
		t.Fatalf("crashed run exited %d, want 1; stderr:\n%s", code, crashErr.String())
	}
	if !strings.Contains(crashErr.String(), "injected crash") {
		t.Errorf("injected crash not surfaced on stderr:\n%s", crashErr.String())
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("no checkpoint written before the crash (entries %v, err %v)", ents, err)
	}

	var res, resErr bytes.Buffer
	if code := run(small("-checkpoint", dir, "-resume"), &res, &resErr); code != 0 {
		t.Fatalf("resume exited %d, want 0; stderr:\n%s", code, resErr.String())
	}
	if res.String() != base.String() {
		t.Errorf("resumed stdout drifted from baseline.\n--- resumed ---\n%s--- baseline ---\n%s",
			res.String(), base.String())
	}

	// A mismatched campaign (different record length) must refuse the
	// stale checkpoint rather than silently blend runs.
	var bad, badErr bytes.Buffer
	if code := run([]string{"-taps", "4", "-patterns", "128", "-checkpoint", dir, "-resume"}, &bad, &badErr); code != 1 {
		t.Fatalf("stale checkpoint accepted (exit %d, want 1); stderr:\n%s", code, badErr.String())
	}
	if !strings.Contains(badErr.String(), "different campaign") {
		t.Errorf("missing stale-checkpoint diagnostic:\n%s", badErr.String())
	}
}

func TestRunDumpNetlist(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fir.netlist")
	var out, errw bytes.Buffer
	if code := run(small("-dump", path), &out, &errw); code != 0 {
		t.Fatalf("-dump run exited %d; stderr:\n%s", code, errw.String())
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("netlist not written (err %v)", err)
	}
	if !strings.Contains(out.String(), "netlist written to") {
		t.Errorf("stdout missing dump confirmation:\n%s", out.String())
	}
}
