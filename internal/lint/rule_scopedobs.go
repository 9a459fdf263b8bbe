package lint

import (
	"go/ast"
)

// ScopedObs keeps per-task telemetry attribution sound. obs has one
// emission path, the *Scope methods and the ctx helpers over them, so the
// compiler already rejects unattributed package-level emission everywhere.
// What it cannot reject is library code holding the raw default registry:
// obs.Default() is restricted to the obs package itself and CLI wiring,
// because a call site that writes to the default registry directly cannot
// be re-scoped later, and a sweep's per-experiment sections would silently
// undercount while the totals stay right. _test.go files are exempt:
// tests may pin the registry they assert against.
type ScopedObs struct {
	// ObsPath is the import path of the telemetry package.
	ObsPath string
	// DefaultExempt lists the import paths (subtrees included) allowed to
	// call obs.Default() directly.
	DefaultExempt []string
}

// NewScopedObs returns the rule bound to graphio's telemetry package.
func NewScopedObs() *ScopedObs {
	return &ScopedObs{
		ObsPath: "graphio/internal/obs",
		DefaultExempt: []string{
			"graphio/internal/obs",
			"graphio/cmd",
		},
	}
}

func (*ScopedObs) Name() string { return "scoped-obs" }

func (*ScopedObs) Doc() string {
	return "obs.Default() stays inside internal/obs and CLI wiring so library telemetry remains scope-attributable"
}

// Check implements Rule.
func (r *ScopedObs) Check(p *Package, report Reporter) {
	if pathExempt(p.Path, r.DefaultExempt) {
		return
	}
	for _, f := range p.Files {
		if isTestPos(p, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := p.Info.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != r.ObsPath {
				return true
			}
			if obj.Name() == "Default" {
				report(call.Pos(), "obs.Default() outside internal/obs and CLI wiring; emit through the ctx-scope-aware helpers (or take a *obs.Scope) so the call site stays attributable")
			}
			return true
		})
	}
}
