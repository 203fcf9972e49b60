package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"neo/internal/tools/walk"
)

// Package is one loaded, type-checked package: the syntax the checks walk
// and the type information they resolve identifiers against.
type Package struct {
	// Dir is the package directory on disk.
	Dir string
	// Path is the package's import path within the module.
	Path string
	// Files holds the parsed non-test Go files, in file-name order.
	Files []*ast.File
	// Fset positions every token of Files.
	Fset *token.FileSet
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the expression types, object resolution and selection
	// records the checks consult.
	Info *types.Info
}

// Loader loads and type-checks every package of one module from source.
// Module-internal imports are resolved by recursively loading the imported
// package; standard-library imports are resolved from the toolchain's
// compiled export data, located once per Loader via `go list -export`.
// Everything else (there is nothing else in this repository — it has no
// third-party dependencies) is an error.
type Loader struct {
	// Root is the absolute module root directory.
	Root string
	// Module is the module path from go.mod.
	Module string

	fset    *token.FileSet
	std     types.ImporterFrom
	exports map[string]string // stdlib import path -> export data file
	pkgs    map[string]*Package
	loading map[string]bool // cycle guard (cannot happen in valid Go; belt and braces)
}

// NewLoader creates a loader for the module containing dir (dir itself or
// any parent must hold go.mod). It runs `go list -export -deps` once to map
// the module's standard-library dependency closure to compiled export data;
// the go command is required on PATH, which is a given for a tool run as
// `go run ./cmd/neo-lint`.
func NewLoader(dir string) (*Loader, error) {
	root, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	l := &Loader{
		Root:    root,
		Module:  module,
		fset:    token.NewFileSet(),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
	if err := l.resolveStdExports(); err != nil {
		return nil, err
	}
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := l.exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q (not in the module's dependency closure)", path)
		}
		return os.Open(file)
	}
	imp, ok := importer.ForCompiler(l.fset, "gc", lookup).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("analysis: gc importer does not implement ImporterFrom")
	}
	l.std = imp
	return l, nil
}

// findModuleRoot walks up from dir to the directory containing go.mod.
func findModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("analysis: no go.mod found above %s", abs)
		}
		d = parent
	}
}

// modulePath reads the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// resolveStdExports maps every standard-library package in the module's
// dependency closure to its compiled export data. One `go list` run covers
// all packages a check could encounter, including the analysis fixtures
// (whose imports are restricted to this closure by the fixture tests).
func (l *Loader) resolveStdExports() error {
	cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Export,Standard", "./...")
	cmd.Dir = l.Root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("analysis: go list -export failed: %v\n%s", err, stderr.String())
	}
	type listPkg struct {
		ImportPath string
		Export     string
		Standard   bool
	}
	l.exports = make(map[string]string)
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		if p.Standard && p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
	}
	return nil
}

// Import implements types.Importer by delegating to ImportFrom.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.Root, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal packages load
// from source, everything else from stdlib export data.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// importPath converts a directory under the module root to its import path.
func (l *Loader) importPath(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.Root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module root %s", dir, l.Root)
	}
	if rel == "." {
		return l.Module, nil
	}
	return l.Module + "/" + filepath.ToSlash(rel), nil
}

// dirFor inverts importPath.
func (l *Loader) dirFor(path string) string {
	if path == l.Module {
		return l.Root
	}
	return filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(path, l.Module+"/")))
}

// LoadDir loads and type-checks the package in one directory (which may be
// anywhere under the module root, including a testdata fixture directory).
func (l *Loader) LoadDir(dir string) (*Package, error) {
	path, err := l.importPath(dir)
	if err != nil {
		return nil, err
	}
	return l.load(path)
}

// LoadAll discovers every package directory under the module root (the
// shared repo walker's exclusions apply: no testdata, no dot- or
// underscore-directories) and loads each one. Packages come back in import
// path order.
func (l *Loader) LoadAll() ([]*Package, error) {
	dirs, err := walk.GoPackageDirs(l.Root)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// load parses and type-checks one module package (memoized).
func (l *Loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirFor(path)
	names, err := l.sourceFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no buildable Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: parsing %s: %w", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg := &Package{Dir: dir, Path: path, Files: files, Fset: l.fset, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// sourceFiles lists the non-test Go files of dir that build under the
// current GOOS/GOARCH and build tags (so e.g. kernels_amd64.go and
// kernels_other.go never collide), in name order.
func (l *Loader) sourceFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	ctx := build.Default
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		match, err := ctx.MatchFile(dir, name)
		if err != nil {
			return nil, fmt.Errorf("analysis: matching %s: %w", name, err)
		}
		if match {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}
