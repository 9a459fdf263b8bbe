package lint

// summary.go computes the per-function summary facts the interprocedural
// rules consume: does a function accept or see a context, may it block
// (channel ops, net/net/http calls, persist writes, sync waits,
// time.Sleep), does it spawn goroutines, does it signal
// a join (WaitGroup.Done, channel send, close), does it append to the
// persist journal, and which mutex fields does it acquire. Direct facts
// come from one AST pass per function; call-mediated facts are propagated
// over the call graph to a fixpoint. Go edges never propagate blocking:
// the spawned work runs on another goroutine.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DefaultPersistPath is the module's durability package; calls into it are
// classified as blocking writes and its Journal.Append is the WAL append
// the wal-order rule keys on. Fixtures override it via NewProgramWith.
const DefaultPersistPath = "graphio/internal/persist"

// BlockOp is one non-call blocking operation in a function body.
type BlockOp struct {
	Pos    token.Pos
	Reason string
}

// Summary holds the interprocedural facts of one FuncNode.
type Summary struct {
	AcceptsCtx  bool // has a context.Context parameter
	CtxInScope  bool // AcceptsCtx, or a literal nested in a function that has one
	MentionsCtx bool // body references a context.Context-typed value

	Blocks      bool // may block the calling goroutine
	BlockReason string
	BlockPos    token.Pos
	BlockVia    string // callee name when blocking is call-mediated

	Spawns     bool // contains a go statement
	Signals    bool // signals a join: WaitGroup.Done, channel send, close
	AppendsWAL bool // transitively calls persist Journal.Append or Log.Apply

	// Acquires maps mutex keys (see mutexKey) this function locks, directly
	// or transitively. Local-variable mutexes stay function-local and are
	// not propagated.
	Acquires map[string]bool

	// BlockOps lists the function's own non-call blocking operations.
	BlockOps []BlockOp
}

// summarize computes direct facts, then propagates to a fixpoint.
func (pr *Program) summarize() {
	for _, p := range pr.Packages {
		for _, n := range pr.perPkg[p] {
			pr.directFacts(n)
		}
	}
	// Context scope flows from enclosing functions into literals.
	for _, n := range pr.Funcs {
		s := &n.Summary
		s.CtxInScope = s.AcceptsCtx
		for a := n.Parent; a != nil && !s.CtxInScope; a = a.Parent {
			s.CtxInScope = a.Summary.AcceptsCtx
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range pr.Funcs {
			if pr.propagate(n) {
				changed = true
			}
		}
	}
}

// funcTypeAcceptsCtx reports whether the ast function type has a
// context.Context parameter.
func funcTypeAcceptsCtx(p *Package, ft *ast.FuncType) bool {
	if ft == nil || ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if tv, ok := p.Info.Types[field.Type]; ok && isContextType(tv.Type) {
			return true
		}
	}
	return false
}

// ownNodes visits the AST nodes belonging to n itself, stopping at nested
// function literals (they are their own nodes).
func ownNodes(n *FuncNode, visit func(ast.Node) bool) {
	body := n.Body()
	if body == nil {
		return
	}
	ast.Inspect(body, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		if x == nil {
			return false
		}
		return visit(x)
	})
}

// directFacts fills the facts visible in n's own body.
func (pr *Program) directFacts(n *FuncNode) {
	p := n.Pkg
	s := &n.Summary
	s.Acquires = make(map[string]bool)
	if n.Decl != nil {
		s.AcceptsCtx = funcTypeAcceptsCtx(p, n.Decl.Type)
	} else {
		s.AcceptsCtx = funcTypeAcceptsCtx(p, n.Lit.Type)
	}

	// Comm statements guarded by a select with a default clause do not
	// block; collect them so the op walk below can skip them.
	guarded := make(map[ast.Stmt]bool)
	ownNodes(n, func(x ast.Node) bool {
		sel, ok := x.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, c := range sel.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
				guarded[cc.Comm] = true
			}
		}
		return true
	})

	addOp := func(pos token.Pos, reason string) {
		s.BlockOps = append(s.BlockOps, BlockOp{Pos: pos, Reason: reason})
	}
	ownNodes(n, func(x ast.Node) bool {
		switch op := x.(type) {
		case *ast.GoStmt:
			s.Spawns = true
		case *ast.SendStmt:
			s.Signals = true
			if !guarded[op] {
				addOp(op.Pos(), "channel send")
			}
		case *ast.UnaryExpr:
			if op.Op == token.ARROW {
				if st := enclosingCommStmt(op, guarded); !st {
					addOp(op.Pos(), "channel receive")
				}
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range op.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				addOp(op.Pos(), "blocking select")
			}
		case *ast.RangeStmt:
			if tv, ok := p.Info.Types[op.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					addOp(op.Pos(), "range over channel")
				}
			}
		case *ast.CallExpr:
			pr.directCallFacts(n, op)
		case *ast.Ident:
			if obj := p.Info.Uses[x.(*ast.Ident)]; obj != nil && isContextType(obj.Type()) {
				s.MentionsCtx = true
			}
		}
		return true
	})
	if len(s.BlockOps) > 0 {
		s.Blocks = true
		s.BlockReason = s.BlockOps[0].Reason
		s.BlockPos = s.BlockOps[0].Pos
	}
}

// enclosingCommStmt reports whether the receive expr is itself (part of) a
// guarded select comm statement. A positional containment check suffices:
// guarded comm statements are single receive/send statements.
func enclosingCommStmt(e *ast.UnaryExpr, guarded map[ast.Stmt]bool) bool {
	for st := range guarded {
		if st.Pos() <= e.Pos() && e.End() <= st.End() {
			return true
		}
	}
	return false
}

// directCallFacts classifies one call in n's own body: close() and
// WaitGroup.Done are join signals; Mutex/RWMutex Lock calls record an
// acquire. External blocking calls are handled in propagate via the edges.
func (pr *Program) directCallFacts(n *FuncNode, call *ast.CallExpr) {
	p := n.Pkg
	s := &n.Summary
	fun := unparen(call.Fun)
	if id, ok := fun.(*ast.Ident); ok {
		if b, isB := p.Info.Uses[id].(*types.Builtin); isB && b.Name() == "close" {
			s.Signals = true
		}
		return
	}
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn := selectedFunc(p, sel)
	if fn == nil {
		return
	}
	switch syncMethod(fn) {
	case "WaitGroup.Done":
		s.Signals = true
	case "Mutex.Lock", "RWMutex.Lock", "RWMutex.RLock":
		if key := mutexKey(p, sel.X); key != "" {
			s.Acquires[key] = true
		}
	}
	if isJournalAppend(fn, pr.PersistPath) {
		s.AppendsWAL = true
	}
}

// selectedFunc resolves the method or function a selector call refers to.
func selectedFunc(p *Package, sel *ast.SelectorExpr) *types.Func {
	if s, ok := p.Info.Selections[sel]; ok {
		fn, _ := s.Obj().(*types.Func)
		return fn
	}
	fn, _ := p.Info.Uses[sel.Sel].(*types.Func)
	return fn
}

// syncMethod returns "Type.Method" when fn is a method of a sync package
// type, else "".
func syncMethod(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return ""
	}
	return named.Obj().Name() + "." + fn.Name()
}

// isJournalAppend reports whether fn is one of the persist package's WAL
// append primitives: Journal.Append, or Log.Apply (which appends before
// it applies). Calls through an instantiation of the generic Log match
// via the method's origin, so the check holds whether or not the persist
// package is itself a lint unit.
func isJournalAppend(fn *types.Func, persistPath string) bool {
	fn = fn.Origin()
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != persistPath {
		return false
	}
	return (obj.Name() == "Journal" && fn.Name() == "Append") || (obj.Name() == "Log" && fn.Name() == "Apply")
}

// extBlockReason classifies an external (outside the linted program)
// callee as blocking: net and net/http calls, os/exec, persist writes,
// time.Sleep, and sync waits. Plain mutex acquisition is deliberately NOT
// a blocking class — short critical sections are the normal case, and the
// deadlock-relevant part (re-acquiring a held mutex) is tracked separately
// through Summary.Acquires.
func extBlockReason(fn *types.Func, persistPath string) string {
	if fn.Pkg() == nil {
		return ""
	}
	switch path := fn.Pkg().Path(); {
	case path == "net" || path == "net/http" || strings.HasPrefix(path, "net/http/"):
		return "net call"
	case path == "os/exec":
		return "subprocess wait"
	case path == persistPath || strings.HasPrefix(path, persistPath+"/"):
		return "persist write"
	case path == "time" && fn.Name() == "Sleep":
		return "time.Sleep"
	case path == "sync":
		switch syncMethod(fn) {
		case "WaitGroup.Wait", "Cond.Wait":
			return "sync wait"
		}
	}
	return ""
}

// persistBoundary reports whether a program node lives in the persist
// package (or a subpackage). Crossing INTO the durability layer is itself
// the blocking fact — its exported calls fsync — regardless of what the
// callee's own summary says, so callers classify as "persist write" at the
// boundary instead of inheriting whatever reason surfaced inside.
func (pr *Program) persistBoundary(t *FuncNode) bool {
	base := strings.TrimSuffix(t.Pkg.Path, "_test")
	return base == pr.PersistPath || strings.HasPrefix(base, pr.PersistPath+"/")
}

// EdgeBlocks reports whether following e may block the caller's
// goroutine, with a reason and the callee's display name. Go edges never
// block the caller.
func (pr *Program) EdgeBlocks(e *CallEdge) (reason, via string, ok bool) {
	if e.Kind == EdgeGo {
		return "", "", false
	}
	if e.Callee != nil {
		if pr.persistBoundary(e.Callee) {
			return "persist write", e.Callee.Name(), true
		}
		if cs := e.Callee.Summary; cs.Blocks {
			return cs.BlockReason, e.Callee.Name(), true
		}
		return "", "", false
	}
	for _, t := range e.Iface {
		if pr.persistBoundary(t) {
			return "persist write", t.Name(), true
		}
		if t.Summary.Blocks {
			return t.Summary.BlockReason, t.Name(), true
		}
	}
	if e.Fn != nil {
		if r := extBlockReason(e.Fn, pr.PersistPath); r != "" {
			return r, shortFuncName(funcID(e.Fn)), true
		}
	}
	return "", "", false
}

// propagate merges callee facts into n over its non-go edges; it reports
// whether anything changed.
func (pr *Program) propagate(n *FuncNode) bool {
	s := &n.Summary
	changed := false
	for _, e := range n.Edges {
		if e.Kind == EdgeGo {
			continue
		}
		if !s.Blocks {
			if reason, via, ok := pr.EdgeBlocks(e); ok {
				s.Blocks = true
				s.BlockReason = reason
				s.BlockVia = via
				s.BlockPos = e.Pos
				changed = true
			}
		}
		targets := e.Iface
		if e.Callee != nil {
			targets = []*FuncNode{e.Callee}
		}
		for _, t := range targets {
			ts := t.Summary
			if ts.Signals && !s.Signals && e.Kind != EdgePass {
				s.Signals = true
				changed = true
			}
			if ts.AppendsWAL && !s.AppendsWAL {
				s.AppendsWAL = true
				changed = true
			}
			for key := range ts.Acquires {
				if !strings.HasPrefix(key, "local:") && !s.Acquires[key] {
					s.Acquires[key] = true
					changed = true
				}
			}
		}
	}
	return changed
}

// mutexKey canonicalizes the expression a Lock call selects its mutex
// from: "(pkg.Type).field" for struct fields, "pkg.var" for package-level
// mutexes, "local:name" for function-local ones, "" when unrecognized.
func mutexKey(p *Package, recv ast.Expr) string {
	switch e := unparen(recv).(type) {
	case *ast.SelectorExpr:
		tv, ok := p.Info.Types[e.X]
		if !ok {
			return ""
		}
		t := tv.Type
		if ptr, okp := t.(*types.Pointer); okp {
			t = ptr.Elem()
		}
		if named, okn := t.(*types.Named); okn {
			obj := named.Obj()
			pkg := ""
			if obj.Pkg() != nil {
				pkg = obj.Pkg().Path()
			}
			return "(" + pkg + "." + obj.Name() + ")." + e.Sel.Name
		}
		// Qualified package-level mutex: pkg.mu.
		if obj, okb := p.Info.Uses[e.Sel]; okb && obj.Pkg() != nil {
			return obj.Pkg().Path() + "." + obj.Name()
		}
		return ""
	case *ast.Ident:
		obj := p.Info.Uses[e]
		if obj == nil {
			return ""
		}
		if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + obj.Name()
		}
		return "local:" + e.Name
	}
	return ""
}
