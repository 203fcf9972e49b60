package analysis

import (
	"go/ast"
	"go/types"
)

// walltimeCheck flags wall-clock reads and global-randomness use inside the
// determinism-critical packages. The repo's contract (ARCHITECTURE.md's
// "Testing", the replay-parity suites) is that a seeded run is bit-identical
// across machines and worker counts; time.Now smuggles the host's clock into
// that computation and the global math/rand source is seeded per-process and
// shared across goroutines, so either one silently breaks replay. Code in
// these packages must thread an explicit timestamp/duration in from the
// caller and draw randomness from a seeded *rand.Rand it owns.
//
// Genuinely wall-clock things — measuring how long a real disk execution
// took, accounting training time for the retrain budget — live in these
// packages too; those sites carry //neo:lint-ok walltime suppressions
// explaining why the clock is the point.
var walltimeCheck = &Check{
	Name: "walltime",
	Doc:  "wall-clock or global-randomness use in a determinism-critical package",
	Run:  runWalltime,
}

func runWalltime(p *Pass) {
	if !p.inDeterminismPkg() {
		return
	}
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgIdent, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := p.Pkg.Info.Uses[pkgIdent].(*types.PkgName)
			if !ok {
				return true
			}
			// Referring to a package-level type (rand.Source in a field
			// declaration, time.Duration in a signature) is not an effect.
			if _, isType := p.Pkg.Info.Uses[sel.Sel].(*types.TypeName); isType {
				return true
			}
			switch pn.Imported().Path() {
			case "time":
				switch sel.Sel.Name {
				case "Now", "Since", "Until":
					p.Reportf(sel.Pos(), "time.%s reads the wall clock in a determinism-critical package; thread an explicit timestamp or duration in from the caller", sel.Sel.Name)
				}
			case "math/rand", "math/rand/v2":
				switch sel.Sel.Name {
				case "New", "NewSource", "NewPCG", "NewChaCha8":
					// Constructors for owned, seedable sources are the fix,
					// not the bug.
				default:
					p.Reportf(sel.Pos(), "rand.%s draws from the global, process-seeded source; use a seeded *rand.Rand owned by this component", sel.Sel.Name)
				}
			}
			return true
		})
	}
}
