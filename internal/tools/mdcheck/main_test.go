package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree materializes a map of relative path -> content under a temp
// root, creating parent directories as needed.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, content := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestCheckResolvesRelativeLinks(t *testing.T) {
	root := writeTree(t, map[string]string{
		"README.md": "see [docs](docs/GUIDE.md) and [ops](docs/OPS.md#flags)\n" +
			"and the [img](./diagram.png)\n",
		"docs/GUIDE.md":  "back to [readme](../README.md)\n",
		"docs/OPS.md":    "ops\n",
		"diagram.png":    "png",
		"docs/other.txt": "not markdown, [broken](nope.md) ignored\n",
	})
	broken, checked, err := check(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(broken) != 0 {
		t.Fatalf("expected no broken links, got %v", broken)
	}
	// README has 3 resolvable targets, GUIDE has 1; OPS has none.
	if checked != 4 {
		t.Fatalf("checked = %d, want 4", checked)
	}
}

func TestCheckReportsBrokenLinksWithPosition(t *testing.T) {
	root := writeTree(t, map[string]string{
		"README.md": "fine line\n[gone](missing/FILE.md)\n",
	})
	broken, _, err := check(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(broken) != 1 {
		t.Fatalf("expected 1 broken link, got %v", broken)
	}
	if !strings.Contains(broken[0], "README.md:2") {
		t.Errorf("broken report %q does not carry file:line", broken[0])
	}
	if !strings.Contains(broken[0], `"missing/FILE.md"`) {
		t.Errorf("broken report %q does not name the target", broken[0])
	}
}

func TestCheckSkipsExternalFragmentAndFenced(t *testing.T) {
	content := "[ext](https://example.com/x) [mail](mailto:a@b.c) [frag](#section)\n" +
		"```\n[in fence](never/exists.md)\n```\n" +
		"[empty-after-fragment](#)\n"
	root := writeTree(t, map[string]string{"README.md": content})
	broken, checked, err := check(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(broken) != 0 {
		t.Fatalf("expected no broken links, got %v", broken)
	}
	if checked != 0 {
		t.Fatalf("checked = %d, want 0 (nothing resolvable outside fences)", checked)
	}
}

func TestCheckSkipsGitTestdataAndDotDirs(t *testing.T) {
	root := writeTree(t, map[string]string{
		"README.md":           "[ok](sub/OK.md)\n",
		"sub/OK.md":           "ok\n",
		".git/BAD.md":         "[broken](../nope.md)\n",
		"testdata/BAD.md":     "[broken](nope.md)\n",
		"pkg/testdata/BAD.md": "[broken](nope.md)\n",
		"_junk/BAD.md":        "[broken](nope.md)\n",
	})
	broken, checked, err := check(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(broken) != 0 {
		t.Fatalf("excluded dirs leaked into the walk: %v", broken)
	}
	if checked != 1 {
		t.Fatalf("checked = %d, want 1", checked)
	}
}

func TestCheckFragmentSuffixResolvesFile(t *testing.T) {
	root := writeTree(t, map[string]string{
		"README.md": "[ops](OPS.md#section) [gone](GONE.md#section)\n",
		"OPS.md":    "ops\n",
	})
	broken, checked, err := check(root)
	if err != nil {
		t.Fatal(err)
	}
	if checked != 2 {
		t.Fatalf("checked = %d, want 2", checked)
	}
	if len(broken) != 1 || !strings.Contains(broken[0], `"GONE.md#section"`) {
		t.Fatalf("expected exactly the fragment link to GONE.md to break, got %v", broken)
	}
}

func TestCheckGoDocNamesResolveUpward(t *testing.T) {
	root := writeTree(t, map[string]string{
		"OPS.md":                "ops\n",
		"pkg/FORMAT.md":         "format\n",
		"pkg/sub/a.go":          "// See OPS.md, FORMAT.md and pkg/FORMAT.md.\npackage sub\n",
		"pkg/sub/a_test.go":     "// GONE.md is only named by a test file.\npackage sub\n",
		"other/b.go":            "package other\n\n// The layout is in FORMAT.md.\nvar x = \"DESIGN.md\"\n",
		"other/testdata/c.go":   "// GONE.md inside testdata.\npackage testdata\n",
		"other/notes/README.md": "no links\n",
	})
	broken, checked, err := check(root)
	if err != nil {
		t.Fatal(err)
	}
	// a.go: OPS.md from the root, FORMAT.md from pkg, pkg/FORMAT.md from the
	// root; b.go: FORMAT.md and DESIGN.md, neither of which resolves upward.
	if checked != 5 {
		t.Fatalf("checked = %d, want 5", checked)
	}
	if len(broken) != 2 ||
		!strings.Contains(broken[0], filepath.Join("other", "b.go")+`:3: "FORMAT.md"`) ||
		!strings.Contains(broken[1], filepath.Join("other", "b.go")+`:4: "DESIGN.md"`) {
		t.Fatalf("expected b.go's FORMAT.md and DESIGN.md to break, got %v", broken)
	}
}
