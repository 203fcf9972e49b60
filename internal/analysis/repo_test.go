package analysis

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestRepositoryLintsCleanInStrictMode is the machine-checked form of the
// repo's invariants: every package must pass every check, and every
// //neo:lint-ok suppression must still be earning its keep. CI runs the
// same thing via `go run ./cmd/neo-lint -strict ./...`; having it as a test
// too means a plain `go test ./...` catches a violation before push.
//
// One invariant rides along that needs no type information: no package
// under cmd/, internal/ or pkg/ imports "testing" outside its _test.go
// files. Product code that links the test framework is how a benchmark
// library grows back beside the benchmark/ harness.
func TestRepositoryLintsCleanInStrictMode(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	pkgs, err := getLoader(t).LoadAll()
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("LoadAll found only %d packages; the walker is dropping the tree", len(pkgs))
	}
	cfg := DefaultConfig()
	cfg.Strict = true
	for _, f := range Run(cfg, pkgs) {
		t.Errorf("%s", f)
	}

	list := exec.Command("go", "list", "-f", `{{.ImportPath}} {{join .Imports " "}}`, "./cmd/...", "./internal/...", "./pkg/...")
	list.Dir = getLoader(t).Root
	out, err := list.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		pkg, imports, _ := strings.Cut(line, " ")
		if slices.Contains(strings.Fields(imports), "testing") {
			t.Errorf("%s imports \"testing\" from a non-test file", pkg)
		}
	}
}
