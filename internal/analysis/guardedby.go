package analysis

import (
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// guardedbyCheck verifies the repository's documented mutex discipline.
// Struct fields annotated
//
//	mu    sync.Mutex
//	cache map[string][]float32 // guarded by mu
//
// may only be touched while that mutex is held on the same receiver: writes
// require the exclusive lock (mu.Lock), reads accept either the exclusive
// or a shared lock (mu.RLock, for RWMutexes). The check is a linear,
// position-ordered scan per method: it replays Lock/Unlock/RLock/RUnlock
// calls on the receiver's annotated mutexes in source order and demands the
// right depth at each field access. That is a heuristic — it does not model
// arbitrary control flow — but it does understand the one branching idiom
// this repo's lock code actually uses: a block that terminates (its last
// statement is a return, or a panic call) has its lock-state changes
// isolated, so `if closed { mu.Unlock(); return }` does not make the scan
// believe the lock is released on the fall-through path. Everything else is
// strictly block structured (lock, defer unlock), for which the linear scan
// is exact.
//
// Two deliberate exemptions keep the convention usable:
//
//   - Methods whose name ends in "Locked" are skipped entirely: the repo's
//     existing convention (Router.classLocked) is that such methods
//     document "caller holds the lock" in their name, and their call sites
//     are inside locked sections the scan does verify.
//   - Function literals are not scanned: a closure may run on another
//     goroutine (where it must lock for itself) or synchronously under the
//     enclosing lock, and a positional scan cannot tell which.
//
// A deferred Unlock does not decrement the held depth — it runs at return,
// so the lock is held for the rest of the method body, which is exactly
// what the scan assumes.
var guardedbyCheck = &Check{
	Name: "guardedby",
	Doc:  "fields annotated '// guarded by <mu>' accessed without holding that mutex",
	Run:  runGuardedby,
}

var guardedbyRE = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*)`)

func runGuardedby(p *Pass) {
	guards := collectGuards(p)
	if len(guards) == 0 {
		return
	}
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Body == nil || len(fn.Recv.List) == 0 {
				continue
			}
			if strings.HasSuffix(fn.Name.Name, "Locked") {
				continue
			}
			fields := guards[recvTypeName(fn.Recv.List[0].Type)]
			if len(fields) == 0 {
				continue
			}
			checkLockDiscipline(p, fn, fields)
		}
	}
}

// collectGuards parses every struct declaration for `guarded by <mu>` field
// comments, returning typeName -> fieldName -> mutexFieldName. An
// annotation naming a mutex that is not itself a field of the same struct
// is reported: it can never be satisfied.
func collectGuards(p *Pass) map[string]map[string]string {
	guards := make(map[string]map[string]string)
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			fieldNames := make(map[string]bool)
			for _, f := range st.Fields.List {
				for _, name := range f.Names {
					fieldNames[name.Name] = true
				}
			}
			for _, f := range st.Fields.List {
				mu := guardAnnotation(f)
				if mu == "" {
					continue
				}
				if !fieldNames[mu] {
					p.Reportf(f.Pos(), "guarded-by annotation names %q, which is not a field of %s", mu, ts.Name.Name)
					continue
				}
				m := guards[ts.Name.Name]
				if m == nil {
					m = make(map[string]string)
					guards[ts.Name.Name] = m
				}
				for _, name := range f.Names {
					m[name.Name] = mu
				}
			}
			return true
		})
	}
	return guards
}

// guardAnnotation extracts the mutex name from a field's trailing or doc
// comment, or "" when unannotated.
func guardAnnotation(f *ast.Field) string {
	for _, group := range []*ast.CommentGroup{f.Comment, f.Doc} {
		if group == nil {
			continue
		}
		if m := guardedbyRE.FindStringSubmatch(group.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

type gbKind int

const (
	gbLock gbKind = iota
	gbUnlock
	gbRLock
	gbRUnlock
	gbRead
	gbWrite
)

// gbEvent is one lock operation or guarded-field access, ordered by source
// position.
type gbEvent struct {
	pos  token.Pos
	kind gbKind
	name string // mutex field for lock events, guarded field for accesses
}

// checkLockDiscipline replays one method's lock operations and guarded
// accesses in source order and reports accesses at insufficient depth.
func checkLockDiscipline(p *Pass, fn *ast.FuncDecl, fields map[string]string) {
	recvField := fn.Recv.List[0]
	if len(recvField.Names) == 0 || recvField.Names[0].Name == "_" {
		return // unnamed receiver: the method cannot touch any field
	}
	recvObj := p.Pkg.Info.Defs[recvField.Names[0]]
	if recvObj == nil {
		return
	}
	mutexes := make(map[string]bool)
	for _, mu := range fields {
		mutexes[mu] = true
	}

	// isRecvSel reports whether e is recv.<name> for the receiver object.
	isRecvSel := func(e ast.Expr) (string, *ast.SelectorExpr, bool) {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return "", nil, false
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || p.Pkg.Info.Uses[id] != recvObj {
			return "", nil, false
		}
		return sel.Sel.Name, sel, true
	}

	// First pass: which guarded-field selectors are write targets, which
	// lock calls are deferred, and where function literals live (their
	// bodies are exempt — see the check doc).
	writeAt := make(map[token.Pos]bool)
	deferredCall := make(map[token.Pos]bool)
	var funcLits []*ast.FuncLit
	markWrite := func(e ast.Expr) {
		for {
			if name, sel, ok := isRecvSel(e); ok {
				if _, guarded := fields[name]; guarded {
					writeAt[sel.Pos()] = true
				}
				return
			}
			switch v := e.(type) {
			case *ast.ParenExpr:
				e = v.X
			case *ast.StarExpr:
				e = v.X
			case *ast.IndexExpr:
				e = v.X
			case *ast.SelectorExpr:
				e = v.X
			default:
				return
			}
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.FuncLit:
			funcLits = append(funcLits, st)
			return false
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				markWrite(lhs)
			}
		case *ast.IncDecStmt:
			markWrite(st.X)
		case *ast.UnaryExpr:
			if st.Op == token.AND {
				// Taking a field's address escapes the lock's protection.
				markWrite(st.X)
			}
		case *ast.DeferStmt:
			deferredCall[st.Call.Pos()] = true
		}
		return true
	})
	inFuncLit := func(pos token.Pos) bool {
		for _, fl := range funcLits {
			if pos >= fl.Pos() && pos <= fl.End() {
				return true
			}
		}
		return false
	}

	// Second pass: collect events.
	var events []gbEvent
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			if fun, ok := v.Fun.(*ast.SelectorExpr); ok {
				if muName, _, ok := isRecvSel(fun.X); ok && mutexes[muName] {
					kind, isLockOp := map[string]gbKind{
						"Lock": gbLock, "Unlock": gbUnlock,
						"RLock": gbRLock, "RUnlock": gbRUnlock,
					}[fun.Sel.Name]
					if isLockOp && !inFuncLit(v.Pos()) {
						if deferredCall[v.Pos()] && (kind == gbUnlock || kind == gbRUnlock) {
							return true // runs at return; lock stays held below
						}
						events = append(events, gbEvent{pos: v.Pos(), kind: kind, name: muName})
					}
				}
			}
		case *ast.SelectorExpr:
			if name, sel, ok := isRecvSel(v); ok && !inFuncLit(sel.Pos()) {
				if _, guarded := fields[name]; guarded {
					kind := gbRead
					if writeAt[sel.Pos()] {
						kind = gbWrite
					}
					events = append(events, gbEvent{pos: sel.Pos(), kind: kind, name: name})
				}
			}
		}
		return true
	})
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	isolated := terminatingRanges(fn.Body)

	// Replay. Entering a terminating branch snapshots the lock depths;
	// leaving it restores them, so an early-exit branch's Unlock (or Lock)
	// does not leak into the fall-through path.
	wDepth := make(map[string]int)
	rDepth := make(map[string]int)
	type frame struct {
		end  token.Pos
		w, r map[string]int
	}
	var stack []frame
	next := 0
	for _, ev := range events {
		for len(stack) > 0 && ev.pos > stack[len(stack)-1].end {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			wDepth, rDepth = top.w, top.r
		}
		for next < len(isolated) && isolated[next][0] <= ev.pos {
			if ev.pos <= isolated[next][1] {
				stack = append(stack, frame{end: isolated[next][1], w: copyDepths(wDepth), r: copyDepths(rDepth)})
			}
			next++
		}
		switch ev.kind {
		case gbLock:
			wDepth[ev.name]++
		case gbUnlock:
			if wDepth[ev.name] > 0 {
				wDepth[ev.name]--
			}
		case gbRLock:
			rDepth[ev.name]++
		case gbRUnlock:
			if rDepth[ev.name] > 0 {
				rDepth[ev.name]--
			}
		case gbWrite:
			mu := fields[ev.name]
			if wDepth[mu] == 0 {
				p.Reportf(ev.pos, "%s is guarded by %s but written without holding it exclusively; call %s.Lock first or move this into a *Locked method", ev.name, mu, mu)
			}
		case gbRead:
			mu := fields[ev.name]
			if wDepth[mu] == 0 && rDepth[mu] == 0 {
				p.Reportf(ev.pos, "%s is guarded by %s but read without holding it; call %s.Lock or %s.RLock first or move this into a *Locked method", ev.name, mu, mu, mu)
			}
		}
	}
}

// terminatingRanges returns the source spans of blocks whose last statement
// is a return or a panic call, sorted by start position. Lock-state changes
// inside such a block never reach the statement after it, so the replay
// isolates them.
func terminatingRanges(body *ast.BlockStmt) [][2]token.Pos {
	var out [][2]token.Pos
	add := func(stmts []ast.Stmt) {
		if len(stmts) == 0 {
			return
		}
		last := stmts[len(stmts)-1]
		terminating := false
		switch t := last.(type) {
		case *ast.ReturnStmt:
			terminating = true
		case *ast.ExprStmt:
			if call, ok := t.X.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
					terminating = true
				}
			}
		}
		if terminating {
			out = append(out, [2]token.Pos{stmts[0].Pos(), last.End()})
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch b := n.(type) {
		case *ast.BlockStmt:
			if b != body {
				add(b.List)
			}
		case *ast.CaseClause:
			add(b.Body)
		case *ast.CommClause:
			add(b.Body)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// copyDepths clones a lock-depth map for branch isolation.
func copyDepths(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
