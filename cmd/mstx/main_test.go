package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func runCapture(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestBadFlagExitsWithUsage(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-no-such-flag"}, "flag provided but not defined"},
		{[]string{"-resume"}, "-resume requires -checkpoint"},
	} {
		code, _, stderr := runCapture(t, tc.args...)
		if code != 2 {
			t.Errorf("%q: exit code = %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr, tc.want) || !strings.Contains(stderr, "-seed") {
			t.Errorf("%q: stderr lacks %q or the usage text:\n%s", tc.args, tc.want, stderr)
		}
	}
}

// TestHelpFlagsUnchanged pins the flag names, types and defaults -h
// lists, so the shared run-control set cannot add, drop or re-default
// a flag.
func TestHelpFlagsUnchanged(t *testing.T) {
	code, _, usage := runCapture(t, "-h")
	if code != 2 {
		t.Fatalf("-h exit code = %d, want 2", code)
	}
	const want = `-checkpoint string =
-checkpoint-every int = 1
-debug-addr string =
-fault string =
-mc-ci float = 0.005
-mc-losses =
-mc-refine =
-mc-samples int = 200000
-metrics =
-n int = 4096
-obs-out string =
-plan =
-resume =
-seed int =
-timeout duration =
-trace =
-workers int =`
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

func TestPositionalArgsRejected(t *testing.T) {
	code, _, stderr := runCapture(t, "stray")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr, "unexpected arguments") {
		t.Errorf("stderr = %q", stderr)
	}
}

func TestBadFaultSyntaxIsUsageError(t *testing.T) {
	for _, arg := range []string{"mixer-iip3", "mixer-iip3=xyz", "no-such-block=1"} {
		code, _, stderr := runCapture(t, "-plan", "-fault", arg)
		if code != 2 {
			t.Errorf("-fault %q: exit code = %d, want 2 (stderr %q)", arg, code, stderr)
		}
	}
}

func TestPlanOnlyPrintsPlanWithoutExecuting(t *testing.T) {
	code, stdout, stderr := runCapture(t, "-plan")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "synthesized") {
		t.Errorf("no synthesis summary:\n%s", stdout)
	}
	for _, want := range []string{"path-gain", "mixer-iip3", "lpf-cutoff"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("plan listing lacks %q:\n%s", want, stdout)
		}
	}
	if strings.Contains(stdout, "ACCEPTED") || strings.Contains(stdout, "REJECTED") {
		t.Errorf("-plan must not execute the program:\n%s", stdout)
	}
}

func TestPlanMCRefineAnnotates(t *testing.T) {
	code, stdout, stderr := runCapture(t, "-plan", "-mc-refine", "-mc-samples", "20000")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "MC-refined") {
		t.Errorf("refined plan not annotated:\n%s", stdout)
	}
}

func TestNominalDeviceAccepted(t *testing.T) {
	if testing.Short() {
		t.Skip("full execution in -short mode")
	}
	code, stdout, stderr := runCapture(t, "-n", "1024", "-mc-losses", "-mc-samples", "40000", "-mc-ci", "0.01")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "device ACCEPTED") {
		t.Errorf("nominal device not accepted:\n%s", stdout)
	}
	if !strings.Contains(stdout, "Monte-Carlo loss estimates") || !strings.Contains(stdout, "FCL") {
		t.Errorf("-mc-losses output missing:\n%s", stdout)
	}
}

// checkPromParseable asserts every non-comment, non-blank line of a
// Prometheus text exposition is "name[{labels}] value" with a numeric
// value.
func checkPromParseable(t *testing.T, text string) {
	t.Helper()
	n := 0
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("unparseable metrics line %q", line)
			continue
		}
		if v := fields[1]; v != "+Inf" && v != "-Inf" && v != "NaN" {
			if _, err := strconv.ParseFloat(v, 64); err != nil {
				t.Errorf("non-numeric value in %q: %v", line, err)
			}
		}
		n++
	}
	if n == 0 {
		t.Error("metrics report has no sample lines")
	}
}

func TestObsReportsGoToStderrNotStdout(t *testing.T) {
	code, stdout, stderr := runCapture(t,
		"-plan", "-mc-refine", "-mc-samples", "2000", "-metrics", "-trace")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "# TYPE") || !strings.Contains(stderr, "translate_mc_draws_total") {
		t.Errorf("-metrics report missing from stderr:\n%s", stderr)
	}
	if !strings.Contains(stderr, "TRACE") || !strings.Contains(stderr, "mstx.run") {
		t.Errorf("-trace report missing from stderr:\n%s", stderr)
	}
	if strings.Contains(stdout, "# TYPE") || strings.Contains(stdout, "TRACE") {
		t.Errorf("obs reports leaked into stdout:\n%s", stdout)
	}
}

func TestObsOutFileIsParseable(t *testing.T) {
	out := filepath.Join(t.TempDir(), "metrics.prom")
	code, _, stderr := runCapture(t,
		"-plan", "-mc-refine", "-mc-samples", "2000", "-obs-out", out)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr:\n%s", code, stderr)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("reading -obs-out file: %v", err)
	}
	text := string(b)
	if !strings.Contains(text, "translate_mc_draws_total") {
		t.Errorf("-obs-out report lacks the refine counter:\n%s", text)
	}
	checkPromParseable(t, text)
}

// TestObsReportOnFailedRun pins that the obs report is emitted on
// every exit path: a run whose -timeout expires during -mc-refine
// exits 1 and still writes its -trace report to -obs-out. A report
// that cannot be written fails an otherwise clean run.
func TestObsReportOnFailedRun(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.txt")
	code, _, stderr := runCapture(t, "-plan", "-mc-refine", "-mc-samples", "100000000",
		"-timeout", "50ms", "-trace", "-obs-out", out)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr:\n%s", code, stderr)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("reading -obs-out file: %v", err)
	}
	if text := string(b); !strings.Contains(text, "TRACE") || !strings.Contains(text, "mstx.mc_refine") {
		t.Errorf("-obs-out report of the failed run lacks the refine span:\n%s", text)
	}

	missing := filepath.Join(t.TempDir(), "no-such-dir", "report.txt")
	if code, _, stderr := runCapture(t, "-plan", "-obs-out", missing); code != 1 {
		t.Errorf("unwritable -obs-out: exit code = %d, want 1; stderr:\n%s", code, stderr)
	}
}

func TestFaultyDeviceRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("full execution in -short mode")
	}
	code, stdout, stderr := runCapture(t, "-n", "1024", "-fault", "mixer-iip3=-6")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "device REJECTED") {
		t.Errorf("grossly faulty device accepted:\n%s", stdout)
	}
}
