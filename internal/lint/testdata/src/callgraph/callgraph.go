// Fixture for the call-graph unit tests: recursion, method values, go and
// defer statements, literal passing, and interface devirtualization. It is
// loaded directly by TestCallGraph with explicit assertions, not by the
// want-comment harness.
package callgraph

import "io"

type speaker interface{ speak() }

type dog struct{}

func (dog) speak() {}

type cat struct{}

func (*cat) speak() {}

// announce calls through a program-defined interface: CHA resolves the
// edge to every implementation the run loaded.
func announce(s speaker) { s.speak() }

// external calls through a stdlib interface: CHA must leave it alone.
func external(w io.Writer) {
	_, _ = w.Write(nil)
}

// loop recurses: its edge points back at its own node.
func loop(n int) {
	if n > 0 {
		loop(n - 1)
	}
}

type box struct{ n int }

func (b *box) bump() { b.n++ }

// methodValue binds a method value to a local and calls it; one-assignment
// tracking resolves the call to (*box).bump.
func methodValue(b *box) {
	f := b.bump
	f()
}

func helper() {}

func cleanup() {}

// spawnAndDefer exercises the go and defer edge kinds; the go statement
// targets a function literal that itself calls helper.
func spawnAndDefer() {
	defer cleanup()
	go func() {
		helper()
	}()
}

func runner(f func()) { f() }

// passes hands a literal to runner: the literal gets an EdgePass from
// passes plus the ordinary call edge to runner.
func passes() {
	runner(func() { helper() })
}

// cell is generic: calls through an instantiation (cell[int]) must resolve
// to the one declared method node.
type cell[T any] struct{ v T }

func (c *cell[T]) set(v T) { c.v = v }

func generic(c *cell[int]) { c.set(1) }
