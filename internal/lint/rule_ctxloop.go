package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CtxLoop enforces the cancellation contract from the robustness PR: a
// function that accepts a context.Context must actually consult it inside
// each of its outermost for loops — by calling ctx.Err()/ctx.Done(), by
// selecting on it, or by passing ctx to the loop body's callees. Otherwise
// -timeout and SIGINT stop working the moment someone adds one more sweep
// loop. Two classes of loop are exempt: inner loops (a mat-vec inside a
// Chebyshev sweep legitimately amortizes the check into the loop above it)
// and loops that do no real work — no calls at all, or only formatting
// calls (fmt/strings/strconv/errors) — whose cancellation latency is
// bounded by straight-line arithmetic.
//
// The rule also bans time.Sleep inside any loop (outer or inner) of a
// context-taking function: a sleeping poll loop consults ctx only between
// naps, so cancellation stalls for the full sleep — and the distributed
// sweep's claim-polling and lease-renewal loops are exactly where that
// latency turns a Ctrl-C into a hung worker. A timer plus a select on
// ctx.Done() gives the same pacing with immediate cancellation.
type CtxLoop struct{}

// NewCtxLoop returns the rule.
func NewCtxLoop() *CtxLoop { return &CtxLoop{} }

func (*CtxLoop) Name() string { return "ctx-loop" }

func (*CtxLoop) Doc() string {
	return "functions taking a context.Context must consult it inside their outermost for loops"
}

// Check implements Rule.
func (r *CtxLoop) Check(p *Package, report Reporter) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			if !funcTakesContext(p, fd) {
				return true
			}
			name := fd.Name.Name
			checkLoops(fd.Body, false, func(loop ast.Node) {
				if loopDoesWork(p, loop) && !mentionsContext(p, loop) {
					report(loop.Pos(), "%s accepts a context.Context but this loop never consults it; check ctx.Err()/ctx.Done() or pass ctx into the loop body", name)
				}
			})
			findLoopSleeps(p, fd.Body, false, func(pos token.Pos) {
				report(pos, "%s accepts a context.Context but time.Sleep in a loop ignores it; use a timer and select on ctx.Done() so cancellation does not stall", name)
			})
			return true
		})
	}
}

func funcTakesContext(p *Package, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		if tv, ok := p.Info.Types[field.Type]; ok && isContextType(tv.Type) {
			return true
		}
	}
	return false
}

// checkLoops walks body and invokes visit on every outermost for/range
// statement. Loops nested inside another loop are skipped; function
// literals keep the surrounding nesting level (a loop inside a goroutine
// launched from a loop is still an inner loop).
func checkLoops(body ast.Node, inLoop bool, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			if !inLoop {
				visit(n)
			}
			checkLoops(n.Body, true, visit)
			return false
		case *ast.RangeStmt:
			if !inLoop {
				visit(n)
			}
			checkLoops(n.Body, true, visit)
			return false
		case *ast.FuncDecl:
			// nested declarations don't occur; keep the walk simple
		}
		return true
	})
}

var timeSleepFuncs = map[string]bool{"Sleep": true}

// findLoopSleeps reports every time.Sleep call lexically inside a for or
// range loop of body, at any nesting depth — unlike the consult check,
// depth does not excuse a sleep: an uncancellable nap in an inner
// renewal/polling loop stalls shutdown just as surely as in the outer one.
// Function literals keep the surrounding nesting level, so a sleep in a
// goroutine launched from a loop still counts.
func findLoopSleeps(p *Package, body ast.Node, inLoop bool, report func(token.Pos)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			findLoopSleeps(p, n.Body, true, report)
			return false
		case *ast.RangeStmt:
			findLoopSleeps(p, n.Body, true, report)
			return false
		case *ast.CallExpr:
			if !inLoop {
				return true
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if _, ok := isPkgFunc(p, sel, "time", timeSleepFuncs); ok {
					report(n.Pos())
				}
			}
		}
		return true
	})
}

// formattingPkgs are call targets that don't count as work: a loop whose
// only calls format strings or wrap errors finishes in bounded
// straight-line time and needs no cancellation point.
var formattingPkgs = map[string]bool{"fmt": true, "strings": true, "strconv": true, "errors": true}

// loopDoesWork reports whether loop contains at least one call that could
// be expensive: any call that is not a builtin, not a type conversion, and
// not into a pure formatting package.
func loopDoesWork(p *Package, loop ast.Node) bool {
	work := false
	ast.Inspect(loop, func(n ast.Node) bool {
		if work {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
			return true // conversion, e.g. int32(i)
		}
		obj := useOf(p, call.Fun)
		if _, builtin := obj.(*types.Builtin); builtin {
			return true
		}
		if obj != nil && obj.Pkg() != nil && formattingPkgs[obj.Pkg().Path()] {
			return true
		}
		work = true
		return false
	})
	return work
}

// mentionsContext reports whether any expression inside loop has static
// type context.Context — an ident naming the parameter, a derived context,
// a ctx.Done() channel receive, or ctx passed as a call argument all
// qualify.
func mentionsContext(p *Package, loop ast.Node) bool {
	found := false
	ast.Inspect(loop, func(n ast.Node) bool {
		if found {
			return false
		}
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if tv, ok := p.Info.Types[e]; ok && isContextType(tv.Type) {
			found = true
			return false
		}
		return true
	})
	return found
}

func isContextType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
