package main

import (
	"os"
	"path/filepath"
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
		{[]string{"-bogus"}, "flag provided but not defined"},
		{[]string{"-resume"}, "-resume requires -checkpoint"},
	} {
		code, _, stderr := runCapture(t, tc.args...)
		if code != 2 {
			t.Errorf("%q: exit code = %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr, tc.want) || !strings.Contains(stderr, "-fig1") {
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
-e9 =
-fig1 =
-fig2 =
-fig3 =
-fig4 =
-fig6 =
-list =
-metrics =
-obs-out string =
-path =
-quick =
-resume =
-table1 =
-table2 =
-timeout duration =
-tones =
-topoff =
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
	if code, _, _ := runCapture(t, "fig1"); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

func TestListAllWithoutRunning(t *testing.T) {
	code, stdout, stderr := runCapture(t, "-list")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr:\n%s", code, stderr)
	}
	// All ten experiments, no results.
	for _, id := range []string{"E1/", "E2/", "E3/", "E4/", "E5/", "E6/", "E7/", "E8/", "E9/", "E10/"} {
		if !strings.Contains(stdout, id) {
			t.Errorf("-list lacks %s:\n%s", id, stdout)
		}
	}
	if strings.Contains(stdout, "====") {
		t.Errorf("-list must not run experiments:\n%s", stdout)
	}
}

// TestListMatchesExperimentsDoc pins `-list` against the experiment
// index documented in EXPERIMENTS.md: the fenced block under
// "## Experiment index" must match the command output byte-for-byte,
// so neither the CLI nor the doc can drift on its own (the PR 7
// regression this guards against).
func TestListMatchesExperimentsDoc(t *testing.T) {
	code, stdout, stderr := runCapture(t, "-list")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr:\n%s", code, stderr)
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(doc), "## Experiment index")
	if !ok {
		t.Fatal("EXPERIMENTS.md lacks the \"## Experiment index\" section")
	}
	_, rest, ok = strings.Cut(rest, "```text\n")
	if !ok {
		t.Fatal("experiment index lacks its ```text block")
	}
	want, _, ok := strings.Cut(rest, "```")
	if !ok {
		t.Fatal("experiment index block is unterminated")
	}
	if stdout != want {
		t.Errorf("-list drifted from the EXPERIMENTS.md index.\n--- -list ---\n%s--- EXPERIMENTS.md ---\n%s", stdout, want)
	}
}

func TestListRespectsSelection(t *testing.T) {
	code, stdout, _ := runCapture(t, "-list", "-fig4", "-table2")
	if code != 0 {
		t.Fatalf("exit code = %d", code)
	}
	if !strings.Contains(stdout, "E5/") || !strings.Contains(stdout, "E6/") {
		t.Errorf("selection missing:\n%s", stdout)
	}
	if strings.Contains(stdout, "E1/") || strings.Contains(stdout, "E8/") {
		t.Errorf("unselected experiments listed:\n%s", stdout)
	}
}

func TestRunSelectedExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment execution in -short mode")
	}
	code, stdout, stderr := runCapture(t, "-table2", "-quick", "-workers", "4")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "MC FCL") {
		t.Errorf("Table 2 output missing:\n%s", stdout)
	}
	if !strings.Contains(stderr, "==== E6/Table2") {
		t.Errorf("progress header missing from stderr:\n%s", stderr)
	}
}

// TestStdoutCarriesOnlyResultTables is the regression test for the
// golden-file contract: redirected stdout must be exactly the result
// tables — progress headers and every diagnostic stay on stderr.
func TestStdoutCarriesOnlyResultTables(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment execution in -short mode")
	}
	code, stdout, stderr := runCapture(t, "-table2", "-quick", "-workers", "4", "-metrics", "-trace")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr:\n%s", code, stderr)
	}
	for _, banned := range []string{"====", "# TYPE", "TRACE"} {
		if strings.Contains(stdout, banned) {
			t.Errorf("stdout polluted with %q:\n%s", banned, stdout)
		}
	}
	if !strings.Contains(stderr, "# TYPE mc_runs_total counter") {
		t.Errorf("-metrics report missing the MC engine counters:\n%s", stderr)
	}
	if !strings.Contains(stderr, "TRACE") || !strings.Contains(stderr, "E6/Table2") {
		t.Errorf("-trace report missing the experiment span:\n%s", stderr)
	}
}
