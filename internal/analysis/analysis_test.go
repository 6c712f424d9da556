package analysis

import (
	"strings"
	"testing"
)

// TestBrokenPackageParseError: a fixture that does not parse must
// degrade to a positioned mstxvet diagnostic, never a crash, and must
// not reach the analyzers.
func TestBrokenPackageParseError(t *testing.T) {
	diags, err := Vet(Config{
		Root:        repoRoot(t),
		FixtureRoot: fixtureDir(t, "broken"),
		Dirs:        []string{"parseerr"},
	}, Catalog())
	if err != nil {
		t.Fatalf("Vet must not fail on a parse-broken package: %v", err)
	}
	if len(diags) == 0 {
		t.Fatal("expected a parse-error diagnostic, got none")
	}
	for _, d := range diags {
		if d.Analyzer != "mstxvet" || !strings.Contains(d.Message, "parse error") {
			t.Errorf("unexpected diagnostic on parse-broken package: %s", d)
		}
		if d.Pos.Filename == "" || d.Pos.Line == 0 {
			t.Errorf("parse-error diagnostic is unpositioned: %s", d)
		}
	}
}

// TestBrokenPackageTypeError: same contract for a package that parses
// but fails the type checker.
func TestBrokenPackageTypeError(t *testing.T) {
	diags, err := Vet(Config{
		Root:        repoRoot(t),
		FixtureRoot: fixtureDir(t, "broken"),
		Dirs:        []string{"typeerr"},
	}, Catalog())
	if err != nil {
		t.Fatalf("Vet must not fail on a type-broken package: %v", err)
	}
	found := false
	for _, d := range diags {
		if d.Analyzer == "mstxvet" && strings.Contains(d.Message, "type error") &&
			strings.Contains(d.Message, "undefinedName") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a type-error diagnostic naming undefinedName, got %v", diags)
	}
}

// TestMalformedIgnoreDirective: an ignore without a reason is itself a
// finding — suppressions stay auditable.
func TestMalformedIgnoreDirective(t *testing.T) {
	diags, err := Vet(Config{
		Root:        repoRoot(t),
		FixtureRoot: fixtureDir(t, "broken"),
		Dirs:        []string{"ignorebad"},
	}, Catalog())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range diags {
		if d.Analyzer == "mstxvet" && strings.Contains(d.Message, "malformed ignore directive") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a malformed-ignore diagnostic, got %v", diags)
	}
}

// TestFailpointSites: the static site extraction the chaos suite
// builds its completeness assertion from must see every engine site.
func TestFailpointSites(t *testing.T) {
	sites, err := FailpointSites(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"campaign.detect_batch",
		"campaign.sim_batch",
		"mcengine.lane",
		"resilient.checkpoint.save",
	}
	have := map[string]bool{}
	for _, s := range sites {
		have[s] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("FailpointSites missing %q (got %v)", w, sites)
		}
	}
	for i := 1; i < len(sites); i++ {
		if sites[i-1] >= sites[i] {
			t.Fatalf("FailpointSites not sorted/deduped: %v", sites)
		}
	}
}

// TestVetRealPackagesClean runs the full catalog over two real,
// foundational packages as a partial load; the whole-repo self-clean
// run is gated by scripts/check.sh.
func TestVetRealPackagesClean(t *testing.T) {
	diags, err := Vet(Config{
		Root: repoRoot(t),
		Dirs: []string{"internal/resilient", "internal/obs"},
	}, Catalog())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected diagnostic in real packages: %s", d)
	}
}

// TestCatalogFresh: Catalog must hand out fresh analyzer instances so
// per-Vet state never leaks between runs.
func TestCatalogFresh(t *testing.T) {
	a, b := Catalog(), Catalog()
	if len(a) != 9 || len(b) != 9 {
		t.Fatalf("catalog size = %d, %d; want 9", len(a), len(b))
	}
	for i := range a {
		if a[i] == b[i] {
			t.Errorf("analyzer %s shared between catalogs", a[i].Name)
		}
		if a[i].Name == "" || a[i].Doc == "" {
			t.Errorf("analyzer %d missing name or doc", i)
		}
	}
}
