package lint

import (
	"path/filepath"
	"testing"
)

// loadProgram loads one fixture package and builds its Program with
// fix/journal standing in as the persist path.
func loadProgram(t *testing.T, name string) (*Program, []*Package) {
	t.Helper()
	ld := newFixtureLoader(t)
	pkgs, err := ld.LoadDir(filepath.Join(ld.ModuleRoot, name), "fix/"+name)
	if err != nil {
		t.Fatalf("load %s: %v", name, err)
	}
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			t.Fatalf("fixture %s (%s): type error: %v", name, p.Path, terr)
		}
	}
	return NewProgramWith(pkgs, "fix/journal"), pkgs
}

// nodeNamed finds the unique node whose short Name matches.
func nodeNamed(t *testing.T, pr *Program, name string) *FuncNode {
	t.Helper()
	var found *FuncNode
	for _, n := range pr.Funcs {
		if n.Name() == name {
			if found != nil {
				t.Fatalf("two nodes named %s: %s and %s", name, found.ID, n.ID)
			}
			found = n
		}
	}
	if found == nil {
		t.Fatalf("no node named %s", name)
	}
	return found
}

// edgesTo returns caller's edges resolved to callee (directly, not via
// devirtualization).
func edgesTo(caller, callee *FuncNode) []*CallEdge {
	var out []*CallEdge
	for _, e := range caller.Edges {
		if e.Callee == callee {
			out = append(out, e)
		}
	}
	return out
}

func TestCallGraphRecursion(t *testing.T) {
	pr, _ := loadProgram(t, "callgraph")
	loop := nodeNamed(t, pr, "loop")
	es := edgesTo(loop, loop)
	if len(es) != 1 || es[0].Kind != EdgeCall {
		t.Fatalf("loop self-edges = %v, want one EdgeCall", es)
	}
}

func TestCallGraphMethodValue(t *testing.T) {
	pr, _ := loadProgram(t, "callgraph")
	mv := nodeNamed(t, pr, "methodValue")
	bump := nodeNamed(t, pr, "(*box).bump")
	if len(edgesTo(mv, bump)) != 1 {
		t.Fatalf("methodValue edges = %v, want one resolved to (*box).bump", mv.Edges)
	}
}

func TestCallGraphGenericMethod(t *testing.T) {
	pr, _ := loadProgram(t, "callgraph")
	caller := nodeNamed(t, pr, "generic")
	set := nodeNamed(t, pr, "(*cell[T]).set")
	if len(edgesTo(caller, set)) != 1 {
		t.Fatalf("generic edges = %v, want one resolved to (*cell[T]).set", caller.Edges)
	}
}

func TestCallGraphGoAndDefer(t *testing.T) {
	pr, _ := loadProgram(t, "callgraph")
	spawn := nodeNamed(t, pr, "spawnAndDefer")
	lit := nodeNamed(t, pr, "spawnAndDefer$0")
	cleanup := nodeNamed(t, pr, "cleanup")
	helper := nodeNamed(t, pr, "helper")

	goEdges := edgesTo(spawn, lit)
	if len(goEdges) != 1 || goEdges[0].Kind != EdgeGo {
		t.Errorf("spawn -> literal edges = %v, want one EdgeGo", goEdges)
	}
	deferEdges := edgesTo(spawn, cleanup)
	if len(deferEdges) != 1 || deferEdges[0].Kind != EdgeDefer {
		t.Errorf("spawn -> cleanup edges = %v, want one EdgeDefer", deferEdges)
	}
	if len(edgesTo(lit, helper)) != 1 {
		t.Errorf("literal -> helper edges = %v, want one", lit.Edges)
	}
	if lit.Parent != spawn || lit.Root() != spawn {
		t.Errorf("literal parent = %v, want spawnAndDefer", lit.Parent)
	}
}

func TestCallGraphLiteralPass(t *testing.T) {
	pr, _ := loadProgram(t, "callgraph")
	passes := nodeNamed(t, pr, "passes")
	lit := nodeNamed(t, pr, "passes$0")
	runner := nodeNamed(t, pr, "runner")

	passEdges := edgesTo(passes, lit)
	if len(passEdges) != 1 || passEdges[0].Kind != EdgePass {
		t.Errorf("passes -> literal edges = %v, want one EdgePass", passEdges)
	}
	if len(edgesTo(passes, runner)) != 1 {
		t.Errorf("passes -> runner edges = %v, want one call", passes.Edges)
	}
}

func TestCallGraphDevirtualize(t *testing.T) {
	pr, _ := loadProgram(t, "callgraph")
	announce := nodeNamed(t, pr, "announce")
	dogSpeak := nodeNamed(t, pr, "(dog).speak")
	catSpeak := nodeNamed(t, pr, "(*cat).speak")

	var iface *CallEdge
	for _, e := range announce.Edges {
		if len(e.Iface) > 0 {
			iface = e
		}
	}
	if iface == nil {
		t.Fatalf("announce has no devirtualized edge: %v", announce.Edges)
	}
	if iface.Callee != nil {
		t.Errorf("interface edge has a direct callee: %v", iface.Callee)
	}
	if len(iface.Iface) != 2 || iface.Iface[0] != catSpeak || iface.Iface[1] != dogSpeak {
		t.Errorf("devirtualized targets = %v, want [(*cat).speak (dog).speak]", iface.Iface)
	}

	// Stdlib interfaces stay opaque: connecting io.Writer to every program
	// writer would invent aliasing that does not exist.
	external := nodeNamed(t, pr, "external")
	for _, e := range external.Edges {
		if len(e.Iface) > 0 {
			t.Errorf("io.Writer call was devirtualized: %v", e.Iface)
		}
	}
}

func TestCallGraphOwnsPath(t *testing.T) {
	pr, _ := loadProgram(t, "callgraph")
	for path, want := range map[string]bool{
		"fix/callgraph":      true,
		"fix/callgraph_test": true, // external test units fold into the base path
		"io":                 false,
		"fix/journal":        false, // not a unit of this run
	} {
		if got := pr.OwnsPath(path); got != want {
			t.Errorf("OwnsPath(%q) = %v, want %v", path, got, want)
		}
	}
}
