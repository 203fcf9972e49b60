package analysis

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The fixture harness: each package under testdata/src seeds deliberate
// violations, and every `want "substring"` in a `// want ...` comment is an
// expectation — exactly one finding on that line whose "check: message"
// contains the substring. Lines without a want comment must stay silent, so
// the harness tests both directions: checks fire where they should and
// nowhere else.

// fixtureBase is the import path prefix of the fixture packages.
const fixtureBase = "neo/internal/analysis/testdata/src/"

// sharedLoader caches one Loader per test binary: NewLoader shells out to
// `go list -export` once, which is the expensive part.
var sharedLoader *Loader

func getLoader(t *testing.T) *Loader {
	t.Helper()
	if sharedLoader == nil {
		l, err := NewLoader(".")
		if err != nil {
			t.Fatalf("NewLoader: %v", err)
		}
		sharedLoader = l
	}
	return sharedLoader
}

func loadFixturePkgs(t *testing.T, dirs ...string) []*Package {
	t.Helper()
	l := getLoader(t)
	var pkgs []*Package
	for _, d := range dirs {
		pkg, err := l.LoadDir(filepath.Join("testdata", "src", filepath.FromSlash(d)))
		if err != nil {
			t.Fatalf("loading fixture %s: %v", d, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs
}

var wantRE = regexp.MustCompile(`want "([^"]*)"`)

type wantComment struct {
	file    string
	line    int
	text    string
	matched bool
}

func collectWants(pkgs []*Package) []*wantComment {
	var wants []*wantComment
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, group := range file.Comments {
				for _, c := range group.List {
					if !strings.Contains(c.Text, "// want ") {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, m := range wantRE.FindAllStringSubmatch(c.Text, -1) {
						wants = append(wants, &wantComment{file: pos.Filename, line: pos.Line, text: m[1]})
					}
				}
			}
		}
	}
	return wants
}

// checkFixture loads the fixture dirs, runs the checks under cfg, and
// matches findings against want comments one-to-one.
func checkFixture(t *testing.T, cfg Config, dirs ...string) {
	t.Helper()
	pkgs := loadFixturePkgs(t, dirs...)
	findings := Run(cfg, pkgs)
	wants := collectWants(pkgs)
	for _, f := range findings {
		s := f.Check + ": " + f.Message
		matched := false
		for _, w := range wants {
			if !w.matched && w.file == f.Pos.Filename && w.line == f.Pos.Line && strings.Contains(s, w.text) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected a finding matching %q, got none", w.file, w.line, w.text)
		}
	}
}

func TestDetrangeFixture(t *testing.T) {
	checkFixture(t, Config{
		DeterminismPkgs: []string{fixtureBase + "detrange"},
		Strict:          true,
	}, "detrange")
}

func TestDetrangeSilentOutsideDeterminismPkgs(t *testing.T) {
	pkgs := loadFixturePkgs(t, "detrange")
	// Not listed in DeterminismPkgs: the same code must produce nothing.
	findings := Run(Config{}, pkgs)
	for _, f := range findings {
		t.Errorf("unexpected finding outside determinism packages: %s", f)
	}
}

func TestFrozenwriteFixture(t *testing.T) {
	cfg := Config{
		FrozenTypes: []string{
			fixtureBase + "frozenwrite.Snapshot",
			fixtureBase + "frozenwrite.Panels",
			// Entries that name nothing: strict mode reports those of a
			// loaded package (at its package clause) and cannot judge the
			// rest.
			fixtureBase + "frozenwrite.RenamedAway",
			fixtureBase + "notloaded.Snapshot",
		},
		FrozenAllow: []string{
			fixtureBase + "frozenwrite.build",
			fixtureBase + "frozenwrite.Network.Publish",
			fixtureBase + "frozenwrite.Panels.pack",
			fixtureBase + "frozenwrite.Network.RenamedAway",
		},
		Strict: true,
	}
	checkFixture(t, cfg, "frozenwrite", "frozenwrite/outside")

	cfg.Strict = false
	for _, f := range Run(cfg, loadFixturePkgs(t, "frozenwrite")) {
		if strings.Contains(f.Message, "resolves to no") {
			t.Errorf("unresolved config entry reported without -strict: %s", f)
		}
	}
}

func TestWalltimeFixture(t *testing.T) {
	checkFixture(t, Config{
		DeterminismPkgs: []string{fixtureBase + "walltime"},
		Strict:          true,
	}, "walltime")
}

func TestWireendianFixture(t *testing.T) {
	checkFixture(t, Config{
		WirePkg: fixtureBase + "wireendian/wire",
		Strict:  true,
	}, "wireendian", "wireendian/wire")
}

func TestGuardedbyFixture(t *testing.T) {
	checkFixture(t, Config{Strict: true}, "guardedby")
}

// TestDriverSuppressionFindings covers the driver-level findings — the lint
// fixture's expectations live here, not in want comments, because the
// suppression comment itself is the finding site.
func TestDriverSuppressionFindings(t *testing.T) {
	pkgs := loadFixturePkgs(t, "lint")

	contains := func(findings []Finding, substr string) bool {
		for _, f := range findings {
			if f.Check == "lint" && strings.Contains(f.Message, substr) {
				return true
			}
		}
		return false
	}

	base := Run(Config{}, pkgs)
	if len(base) != 2 {
		t.Errorf("non-strict: got %d findings, want 2 (malformed only): %v", len(base), base)
	}
	if !contains(base, "missing its reason") {
		t.Errorf("non-strict: missing-reason suppression not reported: %v", base)
	}
	if !contains(base, "unknown check nosuchcheck") {
		t.Errorf("non-strict: unknown-check suppression not reported: %v", base)
	}
	if contains(base, "stale suppression") {
		t.Errorf("non-strict: stale suppression reported without -strict: %v", base)
	}

	strict := Run(Config{Strict: true}, pkgs)
	if len(strict) != 3 {
		t.Errorf("strict: got %d findings, want 3 (malformed + stale): %v", len(strict), strict)
	}
	if !contains(strict, "stale suppression: no walltime finding here") {
		t.Errorf("strict: stale walltime suppression not reported: %v", strict)
	}

	// When walltime did not run, its suppression had no chance to be used:
	// it must not count as stale.
	subset := Run(Config{Strict: true, EnabledChecks: []string{"detrange"}}, pkgs)
	if contains(subset, "stale suppression") {
		t.Errorf("strict subset: stale reported for a check that did not run: %v", subset)
	}
}
