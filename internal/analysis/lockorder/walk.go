package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"plsh/internal/analysis/framework"
)

// state is the lock context at one program point: the mutexes held and
// the ambient (caller-held) mutexes released so far.
type state struct {
	held     map[string]token.Pos
	released map[string]bool
}

func newState() *state {
	return &state{held: map[string]token.Pos{}, released: map[string]bool{}}
}

func (s *state) clone() *state {
	c := newState()
	for id, pos := range s.held {
		c.held[id] = pos
	}
	for id := range s.released {
		c.released[id] = true
	}
	return c
}

func (s *state) heldLocks() []heldLock {
	out := make([]heldLock, 0, len(s.held))
	for id, pos := range s.held {
		out = append(out, heldLock{id: id, pos: pos})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

func (s *state) releasedSet() map[string]bool {
	out := map[string]bool{}
	for id := range s.released {
		out[id] = true
	}
	return out
}

// merge combines the fall-through states of sibling branches: a mutex
// is held only if every branch holds it; an ambient release survives
// only if every branch performed it. Both are the conservative choice
// for the blocking check (fewer mutexes presumed released).
func merge(states []*state) *state {
	if len(states) == 0 {
		return newState()
	}
	out := states[0].clone()
	for _, s := range states[1:] {
		for id := range out.held {
			if _, ok := s.held[id]; !ok {
				delete(out.held, id)
			}
		}
		for id := range out.released {
			if !s.released[id] {
				delete(out.released, id)
			}
		}
	}
	return out
}

// walker walks one function body, recording blocking points, calls,
// acquisitions, and order edges into w.cur.
type walker struct {
	pass     *framework.Pass
	policy   Policy
	cur      *summary
	funcName string
}

// walkStmts walks a statement list from st and returns the fall-through
// state, or nil if the list always terminates (return/branch).
func (w *walker) walkStmts(stmts []ast.Stmt, st *state) *state {
	for _, stmt := range stmts {
		st = w.walkStmt(stmt, st)
		if st == nil {
			return nil
		}
	}
	return st
}

func (w *walker) walkStmt(stmt ast.Stmt, st *state) *state {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok && w.lockCall(call, st, false) {
			return st
		}
		w.scanExpr(s.X, st)
		return st
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the mutex held to function end; the
		// deferred call itself runs after the body, so it is not a
		// blocking point of this walk.
		w.deferUnlock(s.Call, st)
		return st
	case *ast.SendStmt:
		w.scanExpr(s.Chan, st)
		w.scanExpr(s.Value, st)
		w.block(s.Arrow, "channel send", st)
		return st
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.scanExpr(e, st)
		}
		for _, e := range s.Lhs {
			w.scanExpr(e, st)
		}
		return st
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.scanExpr(v, st)
					}
				}
			}
		}
		return st
	case *ast.IncDecStmt:
		w.scanExpr(s.X, st)
		return st
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.scanExpr(e, st)
		}
		return nil
	case *ast.BranchStmt:
		// break/continue/goto leave the statement list; treating them as
		// terminal keeps the fall-through state honest for the common
		// "if cond { break }" shape.
		return nil
	case *ast.BlockStmt:
		return w.walkStmts(s.List, st)
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, st)
	case *ast.IfStmt:
		if s.Init != nil {
			st = w.walkStmt(s.Init, st)
			if st == nil {
				return nil
			}
		}
		w.scanExpr(s.Cond, st)
		var arms []*state
		if out := w.walkStmts(s.Body.List, st.clone()); out != nil {
			arms = append(arms, out)
		}
		if s.Else != nil {
			if out := w.walkStmt(s.Else, st.clone()); out != nil {
				arms = append(arms, out)
			}
		} else {
			arms = append(arms, st.clone())
		}
		if len(arms) == 0 {
			return nil
		}
		return merge(arms)
	case *ast.ForStmt:
		if s.Init != nil {
			st = w.walkStmt(s.Init, st)
			if st == nil {
				return nil
			}
		}
		if s.Cond != nil {
			w.scanExpr(s.Cond, st)
		}
		w.walkStmts(s.Body.List, st.clone())
		// The loop body's lock effects are assumed balanced per
		// iteration (the unlock/relock idiom); fall through with the
		// entry state. An infinite loop still falls through here, which
		// only errs toward checking more code.
		return st
	case *ast.RangeStmt:
		w.scanExpr(s.X, st)
		w.walkStmts(s.Body.List, st.clone())
		return st
	case *ast.SwitchStmt:
		if s.Init != nil {
			st = w.walkStmt(s.Init, st)
			if st == nil {
				return nil
			}
		}
		if s.Tag != nil {
			w.scanExpr(s.Tag, st)
		}
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.scanExpr(e, st)
				}
				w.walkStmts(cc.Body, st.clone())
			}
		}
		return st
	case *ast.TypeSwitchStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				w.walkStmts(cc.Body, st.clone())
			}
		}
		return st
	case *ast.SelectStmt:
		hasDefault := false
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			w.block(s.Select, "select with no default", st)
		}
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				// The comm ops are the select's own machinery — already
				// accounted for above — so only the clause bodies walk.
				w.walkStmts(cc.Body, st.clone())
			}
		}
		return st
	case *ast.GoStmt:
		// A new goroutine starts with no locks held; its body is walked
		// as an independent scope.
		w.walkFreshScope(s.Call)
		for _, arg := range s.Call.Args {
			w.scanExpr(arg, st)
		}
		return st
	default:
		return st
	}
}

// block records a blocking construct at pos in context st.
func (w *walker) block(pos token.Pos, desc string, st *state) {
	w.cur.points = append(w.cur.points, blockPoint{
		pos:      pos,
		desc:     desc,
		held:     st.heldLocks(),
		released: st.releasedSet(),
	})
}

// lockCall handles mu.Lock/RLock/Unlock/RUnlock statements. It reports
// direct re-acquisition and records order edges. Returns true when the
// call was a mutex operation.
func (w *walker) lockCall(call *ast.CallExpr, st *state, deferred bool) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	method := sel.Sel.Name
	if method != "Lock" && method != "RLock" && method != "Unlock" && method != "RUnlock" {
		return false
	}
	if !isMutex(w.pass.TypeOf(sel.X)) {
		return false
	}
	id := w.lockID(sel.X)
	switch method {
	case "Lock", "RLock":
		if _, held := st.held[id]; held && method == "Lock" {
			w.pass.Reportf(call.Pos(), "%s is acquired while already held; this deadlocks", id)
			return true
		}
		for h, hpos := range st.held {
			if h != id {
				w.cur.edges = append(w.cur.edges, edge{from: h, to: id, pos: call.Pos()})
				_ = hpos
			}
		}
		st.held[id] = call.Pos()
		delete(st.released, id)
		w.cur.acquiresDirect[id] = true
	case "Unlock", "RUnlock":
		if _, held := st.held[id]; held {
			delete(st.held, id)
		} else if !deferred {
			// Unlocking a mutex this function never locked: the caller
			// holds it — the unlock-around-blocking idiom.
			st.released[id] = true
		}
	}
	return true
}

// deferUnlock handles "defer mu.Unlock()" (directly or via a literal
// closure): the mutex stays held for the rest of the walk.
func (w *walker) deferUnlock(call *ast.CallExpr, st *state) {
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		w.walkFreshScope(nil)
		_ = lit
		return
	}
	// A deferred Lock would be bizarre; only Unlock/RUnlock matter, and
	// they keep the held entry in place (released at return).
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if (sel.Sel.Name == "Unlock" || sel.Sel.Name == "RUnlock") && isMutex(w.pass.TypeOf(sel.X)) {
			return
		}
	}
	w.scanExpr(call, st)
}

// walkFreshScope walks a function literal (a go body or deferred
// closure) as its own goroutine scope: empty held set, findings and
// edges still collected.
func (w *walker) walkFreshScope(call *ast.CallExpr) {
	if call == nil {
		return
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		w.walkStmts(lit.Body.List, newState())
	}
}

// scanExpr scans an expression for blocking constructs (channel
// receives, blocking callees, same-package calls) in context st.
// Function literals inside the expression are walked as fresh scopes.
func (w *walker) scanExpr(expr ast.Expr, st *state) {
	if expr == nil {
		return
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			w.walkStmts(e.Body.List, newState())
			return false
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				w.block(e.OpPos, "channel receive", st)
			}
		case *ast.CallExpr:
			w.classifyCall(e, st)
		}
		return true
	})
}

// classifyCall records a call as blocking (policy match) or as a
// same-package callee reference for the fixpoint.
func (w *walker) classifyCall(call *ast.CallExpr, st *state) {
	fn := calleeFunc(w.pass, call)
	if fn == nil {
		return
	}
	full := fn.FullName()
	for _, b := range w.policy.Blocking {
		if full == b || (strings.HasSuffix(b, ".*") && strings.HasPrefix(full, strings.TrimSuffix(b, "*"))) {
			w.block(call.Pos(), "call to "+full, st)
			return
		}
	}
	if fn.Pkg() == w.pass.Pkg && fn.Name() != w.funcName {
		w.cur.calls = append(w.cur.calls, calleeCall{
			fn:       fn,
			pos:      call.Pos(),
			held:     st.heldLocks(),
			released: st.releasedSet(),
		})
	}
}

// calleeFunc resolves the called function object, or nil.
func calleeFunc(pass *framework.Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fn, ok := pass.ObjectOf(fun).(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
		}
		if fn, ok := pass.ObjectOf(fun.Sel).(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isMutex reports whether t (or *t) is sync.Mutex or sync.RWMutex.
func isMutex(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// lockID names a mutex expression stably: Type.field for struct-field
// mutexes, pkg.var for package-level ones, func:var for locals.
func (w *walker) lockID(expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.SelectorExpr:
		base := w.pass.TypeOf(e.X)
		if p, ok := base.(*types.Pointer); ok {
			base = p.Elem()
		}
		if named, ok := base.(*types.Named); ok {
			return named.Obj().Name() + "." + e.Sel.Name
		}
		return types.ExprString(expr)
	case *ast.Ident:
		if obj := w.pass.ObjectOf(e); obj != nil {
			if obj.Parent() == w.pass.Pkg.Scope() {
				return w.pass.Pkg.Name() + "." + e.Name
			}
			return w.funcName + ":" + e.Name
		}
		return e.Name
	default:
		return types.ExprString(expr)
	}
}
