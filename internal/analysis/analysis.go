// Package analysis is neo-lint's analyzer driver: it loads and type-checks
// every package of the module (loader.go) and runs a set of repo-specific
// checks over them. The checks machine-check invariants this repository
// otherwise enforces only by parity tests after the fact — bit-identical
// seeded training (detrange, walltime), immutable scoring snapshots
// (frozenwrite), the frozen little-endian NEOCKPT1 wire format (wireendian)
// and mutex discipline (guardedby). Every finding is suppressible per site
// with a `//neo:lint-ok <check> <reason>` comment; strict mode additionally
// fails on suppressions that no longer suppress anything, so the allowlist
// cannot rot.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// Check is one analyzer: a name (the handle suppressions and -checks use)
// and a function run once per loaded package.
type Check struct {
	// Name is the check's identifier, e.g. "detrange".
	Name string
	// Doc is a one-line description shown by `neo-lint -list`.
	Doc string
	// Run inspects one package and reports findings through the Pass.
	Run func(*Pass)
}

// Checks returns all registered checks, in stable order.
func Checks() []*Check {
	return []*Check{detrangeCheck, frozenwriteCheck, walltimeCheck, wireendianCheck, guardedbyCheck}
}

// CheckNames returns the names of all registered checks.
func CheckNames() []string {
	var names []string
	for _, c := range Checks() {
		names = append(names, c.Name)
	}
	return names
}

// Finding is one reported violation.
type Finding struct {
	// Pos locates the finding.
	Pos token.Position
	// Check names the check that produced it ("lint" for driver-level
	// findings: malformed or stale suppressions).
	Check string
	// Message describes the violation.
	Message string
}

// String formats a finding the way compilers do, so editors can jump to it.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Check, f.Message)
}

// Config parameterizes the checks. The zero value checks nothing useful;
// DefaultConfig returns the repository's real invariants, and the fixture
// tests point the same checks at fixture packages and types.
type Config struct {
	// DeterminismPkgs lists the import paths of the determinism-critical
	// packages: seeded runs through them must be bit-identical, so detrange
	// and walltime apply only there.
	DeterminismPkgs []string
	// FrozenTypes lists fully-qualified struct types ("path/to/pkg.Type")
	// whose fields must never be assigned after construction.
	FrozenTypes []string
	// FrozenAllow lists fully-qualified functions ("path/to/pkg.Type.Func",
	// pointer receivers spelled without the star) that are designated
	// constructor/swap sites, allowed to write FrozenTypes fields.
	FrozenAllow []string
	// WirePkg is the one package allowed to touch encoding/binary's
	// little-endian primitives directly; everything else must go through
	// its helpers. binary.BigEndian and binary.NativeEndian are flagged
	// everywhere — internal/checkpoint/FORMAT.md freezes the wire format as
	// little-endian.
	WirePkg string
	// Strict additionally reports suppression comments that no longer
	// suppress any finding, and FrozenTypes/FrozenAllow entries that name
	// nothing declared in their (loaded) package.
	Strict bool
	// EnabledChecks restricts which checks run (nil means all).
	EnabledChecks []string
}

// DefaultConfig returns the repository's production invariants.
func DefaultConfig() Config {
	return Config{
		DeterminismPkgs: []string{
			"neo/internal/nn",
			"neo/internal/treeconv",
			"neo/internal/valuenet",
			"neo/internal/core",
			"neo/internal/engine",
			"neo/internal/fastpath",
		},
		FrozenTypes: []string{
			"neo/internal/valuenet.Snapshot",
			"neo/internal/core.netSnapshot",
			// Plan nodes are shared between a search's parent and child
			// states, the plan cache and the experience. Leaf and Join2
			// build them with composite literals, so nothing needs an
			// exemption.
			"neo/internal/plan.Node",
		},
		// Network.Snapshot builds the frozen snapshot — its panels, widths,
		// target transform and parameter count — with one composite
		// literal, so nothing needs an exemption.
		WirePkg: "neo/internal/wire",
	}
}

// Pass hands one package to one check and collects its findings, applying
// suppressions.
type Pass struct {
	Pkg   *Package
	Cfg   *Config
	check *Check
	sup   *suppressions
	out   *[]Finding
}

// Reportf records one finding at pos unless a matching suppression covers
// it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	if p.sup.suppressed(p.check.Name, position) {
		return
	}
	*p.out = append(*p.out, Finding{Pos: position, Check: p.check.Name, Message: fmt.Sprintf(format, args...)})
}

// inDeterminismPkg reports whether the pass's package is one of the
// configured determinism-critical packages.
func (p *Pass) inDeterminismPkg() bool {
	for _, path := range p.Cfg.DeterminismPkgs {
		if p.Pkg.Path == path {
			return true
		}
	}
	return false
}

// Run executes the configured checks over the given packages and returns
// all findings sorted by position. Driver-level findings (malformed
// suppression comments and, in strict mode, stale suppressions) are
// reported under the check name "lint".
func Run(cfg Config, pkgs []*Package) []Finding {
	enabled := Checks()
	if cfg.EnabledChecks != nil {
		byName := make(map[string]*Check)
		for _, c := range Checks() {
			byName[c.Name] = c
		}
		enabled = nil
		for _, name := range cfg.EnabledChecks {
			if c, ok := byName[name]; ok {
				enabled = append(enabled, c)
			}
		}
	}
	var findings []Finding
	for _, pkg := range pkgs {
		sup, malformed := collectSuppressions(pkg)
		findings = append(findings, malformed...)
		for _, check := range enabled {
			pass := &Pass{Pkg: pkg, Cfg: &cfg, check: check, sup: sup, out: &findings}
			check.Run(pass)
		}
		if cfg.Strict {
			findings = append(findings, sup.stale(cfg.EnabledChecks)...)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return findings[i].Check < findings[j].Check
	})
	return findings
}

// enclosingFuncName returns the fully-qualified name of the function
// declaration containing pos ("pkgpath.Func" or "pkgpath.Recv.Func", the
// receiver spelled without any pointer star), or "" at package level.
func enclosingFuncName(pkg *Package, pos token.Pos) string {
	for _, file := range pkg.Files {
		if pos < file.Pos() || pos > file.End() {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || pos < fn.Pos() || pos > fn.End() {
				continue
			}
			return funcDeclName(pkg, fn)
		}
	}
	return ""
}

// funcDeclName returns fn's fully-qualified name in the FrozenAllow
// spelling: "pkgpath.Func" or "pkgpath.Recv.Func".
func funcDeclName(pkg *Package, fn *ast.FuncDecl) string {
	name := pkg.Path + "."
	if fn.Recv != nil && len(fn.Recv.List) > 0 {
		name += recvTypeName(fn.Recv.List[0].Type) + "."
	}
	return name + fn.Name.Name
}

// recvTypeName extracts the bare receiver type name from a receiver type
// expression (*T, T, or generic T[P]).
func recvTypeName(expr ast.Expr) string {
	switch t := expr.(type) {
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.IndexExpr:
		return recvTypeName(t.X)
	case *ast.IndexListExpr:
		return recvTypeName(t.X)
	case *ast.Ident:
		return t.Name
	}
	return ""
}
