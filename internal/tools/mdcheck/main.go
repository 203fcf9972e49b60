// Command mdcheck validates the repository's markdown cross-references: every
// inline link or image whose target is a relative path must point at a file
// or directory that exists, and every markdown file name in a non-test Go file
// must name a file in that file's directory or one of its parents up to the
// root. External links (http, https, mailto) are not fetched — CI should not
// fail on someone else's outage — and pure #fragment links are skipped. Run
// from the repo root:
//
//	go run ./internal/tools/mdcheck [dir]
//
// Exits nonzero listing every broken link, so the CI docs job catches a
// renamed file whose references were not updated.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"neo/internal/tools/walk"
)

// linkRE matches inline markdown links and images: [text](target) /
// ![alt](target). Targets with spaces or nested parens are not used in this
// repo and are out of scope.
var linkRE = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)\)`)

// codeFenceRE matches fenced code-block delimiters; links inside fences are
// examples, not references.
var codeFenceRE = regexp.MustCompile("^\\s*```")

// goDocRE matches a markdown file name, optionally with a directory path, in
// Go source.
var goDocRE = regexp.MustCompile(`[A-Za-z0-9_][A-Za-z0-9_./-]*\.md\b`)

// check walks every .md and non-test .go file under root (via the shared
// repo walker, so .git, testdata and dot-directories are excluded) and
// returns one message per broken reference plus the number it resolved.
func check(root string) (broken []string, checked int, err error) {
	mds, err := walk.Files(root, ".md")
	if err != nil {
		return nil, 0, err
	}
	gos, err := walk.Files(root, ".go")
	if err != nil {
		return nil, 0, err
	}
	for _, path := range append(mds, gos...) {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, 0, err
		}
		var b []string
		var c int
		if strings.HasSuffix(path, ".md") {
			b, c = checkFile(path, string(data))
		} else {
			b, c = checkGoFile(root, path, string(data))
		}
		broken = append(broken, b...)
		checked += c
	}
	return broken, checked, nil
}

// checkFile scans one markdown document for broken relative links. Targets
// are resolved against the document's own directory, exactly as a markdown
// renderer would.
func checkFile(path, content string) (broken []string, checked int) {
	inFence := false
	for lineNo, line := range strings.Split(content, "\n") {
		if codeFenceRE.MatchString(line) {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, m := range linkRE.FindAllStringSubmatch(line, -1) {
			target := m[1]
			if strings.Contains(target, "://") ||
				strings.HasPrefix(target, "mailto:") ||
				strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(path), filepath.FromSlash(target))
			checked++
			if _, err := os.Stat(resolved); err != nil {
				broken = append(broken, fmt.Sprintf("%s:%d: broken link %q (resolved %s)",
					path, lineNo+1, m[1], resolved))
			}
		}
	}
	return broken, checked
}

// checkGoFile reports every markdown name in a Go file that resolves neither
// from the file's directory nor from any parent of it up to root.
func checkGoFile(root, path, content string) (broken []string, checked int) {
	for lineNo, line := range strings.Split(content, "\n") {
		for _, name := range goDocRE.FindAllString(line, -1) {
			checked++
			if !resolvesUpward(root, filepath.Dir(path), name) {
				broken = append(broken, fmt.Sprintf("%s:%d: %q names no file in its directory or any parent",
					path, lineNo+1, name))
			}
		}
	}
	return broken, checked
}

// resolvesUpward reports whether name exists relative to dir or to one of
// its parents, stopping at root.
func resolvesUpward(root, dir, name string) bool {
	root = filepath.Clean(root)
	for {
		if _, err := os.Stat(filepath.Join(dir, filepath.FromSlash(name))); err == nil {
			return true
		}
		parent := filepath.Dir(dir)
		if dir == root || parent == dir {
			return false
		}
		dir = parent
	}
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	broken, checked, err := check(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mdcheck:", err)
		os.Exit(2)
	}
	if len(broken) > 0 {
		for _, b := range broken {
			fmt.Fprintln(os.Stderr, b)
		}
		fmt.Fprintf(os.Stderr, "mdcheck: %d broken reference(s)\n", len(broken))
		os.Exit(1)
	}
	fmt.Printf("mdcheck: %d references OK\n", checked)
}
