package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// frozenwriteCheck flags assignments that mutate a frozen type outside its
// designated constructor/swap sites. The repository's scoring path depends
// on snapshots being immutable after publication: valuenet's Snapshot (and
// the netF32 panels it scores with) and core's netSnapshot are built once,
// then swapped in atomically and read lock-free by every serving goroutine;
// plan.Node is shared between a search's states, the plan cache and the
// experience. A write to a published value is a data race that no test
// reliably catches — the race detector only sees interleavings that actually
// happen — so the check bans the write syntactically: any assignment whose
// left-hand side reaches through a value of a frozen type is an error unless
// it occurs inside a function listed in Config.FrozenAllow. Building a value
// with a composite literal is construction, not mutation, and stays legal
// inside the type's own package; elsewhere it skips the constructors (and
// whatever unexported facts they derive), so it is flagged too.
//
// Both lists name declarations by string, so a rename would silently drop
// the protection (or the exemption). In strict mode every entry that belongs
// to the package under inspection must therefore still resolve to a type,
// respectively a function, declared there.
var frozenwriteCheck = &Check{
	Name: "frozenwrite",
	Doc:  "mutation of a frozen snapshot type outside its designated constructor/swap sites",
	Run:  runFrozenwrite,
}

func runFrozenwrite(p *Pass) {
	if len(p.Cfg.FrozenTypes) == 0 {
		return
	}
	frozen := make(map[string]bool, len(p.Cfg.FrozenTypes))
	for _, t := range p.Cfg.FrozenTypes {
		frozen[t] = true
	}
	allow := make(map[string]bool, len(p.Cfg.FrozenAllow))
	for _, f := range p.Cfg.FrozenAllow {
		allow[f] = true
	}
	if p.Cfg.Strict {
		reportUnresolvedFrozen(p)
	}
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					reportFrozenWrite(p, frozen, allow, lhs)
				}
			case *ast.IncDecStmt:
				reportFrozenWrite(p, frozen, allow, st.X)
			case *ast.CompositeLit:
				name := frozenTypeName(p.typeOf(st), frozen)
				if name != "" && !strings.HasPrefix(name, p.Pkg.Path+".") {
					p.Reportf(st.Pos(), "composite literal of frozen type %s outside its package; use its constructors", name)
				}
			}
			return true
		})
	}
}

// reportUnresolvedFrozen reports, at the package clause, every FrozenTypes
// and FrozenAllow entry of this package that no longer names a declaration.
func reportUnresolvedFrozen(p *Pass) {
	if len(p.Pkg.Files) == 0 {
		return
	}
	at := p.Pkg.Files[0].Package
	prefix := p.Pkg.Path + "."
	for _, t := range p.Cfg.FrozenTypes {
		name, ok := strings.CutPrefix(t, prefix)
		if !ok {
			continue
		}
		if _, isType := p.Pkg.Types.Scope().Lookup(name).(*types.TypeName); !isType {
			p.Reportf(at, "FrozenTypes entry %s resolves to no type declaration; a renamed frozen type has lost its protection", t)
		}
	}
	funcs := make(map[string]bool)
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				funcs[funcDeclName(p.Pkg, fn)] = true
			}
		}
	}
	for _, f := range p.Cfg.FrozenAllow {
		if strings.HasPrefix(f, prefix) && !funcs[f] {
			p.Reportf(at, "FrozenAllow entry %s resolves to no function declaration; drop or rename the exemption", f)
		}
	}
}

// reportFrozenWrite walks the lvalue chain of one assignment target and
// reports if any step reaches through a frozen type. Rebinding a plain
// variable (`s = other`) is not a mutation and is never flagged; writing a
// field, element, or dereference of a frozen value (`s.f = x`,
// `s.weights[i] = x`, `*p = x`) is.
func reportFrozenWrite(p *Pass, frozen, allow map[string]bool, lhs ast.Expr) {
	e := lhs
	for {
		var inner ast.Expr
		switch v := e.(type) {
		case *ast.ParenExpr:
			inner = v.X
		case *ast.SelectorExpr:
			inner = v.X
		case *ast.IndexExpr:
			inner = v.X
		case *ast.StarExpr:
			inner = v.X
		default:
			return
		}
		if name := frozenTypeName(p.typeOf(inner), frozen); name != "" {
			if fn := enclosingFuncName(p.Pkg, lhs.Pos()); allow[fn] {
				return
			}
			p.Reportf(lhs.Pos(), "%s mutates frozen type %s; snapshots are immutable after publication — build a new one and swap it in (or do this inside a designated constructor)", exprString(lhs), name)
			return
		}
		e = inner
	}
}

// frozenTypeName returns the fully-qualified name of t (pointers
// dereferenced) when it is one of the frozen types, else "".
func frozenTypeName(t types.Type, frozen map[string]bool) string {
	if t == nil {
		return ""
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return ""
	}
	name := obj.Pkg().Path() + "." + obj.Name()
	if frozen[name] {
		return name
	}
	return ""
}
