package lint

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The fixture harness: packages under testdata/src form a miniature module
// with path "fix". A line annotated
//
//	// want `regexp` `regexp` ...
//
// must produce exactly one diagnostic per regexp on that line (matched
// against the message, order-free); every other line must produce none.
// The directive fixture cannot carry want comments (its flagged lines
// already end in a comment), so TestDirectiveFixture states its
// expectations explicitly by locating marker lines.

func fixtureRoot(t *testing.T) string {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

func newFixtureLoader(t *testing.T) *Loader {
	t.Helper()
	return NewLoader(fixtureRoot(t), "fix")
}

// lintFixture loads one fixture package (in-package tests and the external
// test package included) and returns the surviving diagnostics.
func lintFixture(t *testing.T, ld *Loader, rules []Rule, name string) []Diagnostic {
	t.Helper()
	dir := filepath.Join(ld.ModuleRoot, name)
	pkgs, err := ld.LoadDir(dir, "fix/"+name)
	if err != nil {
		t.Fatalf("load %s: %v", name, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s loaded no packages", name)
	}
	r := &Runner{Loader: ld, Rules: rules}
	// The interprocedural rules need a Program; fix/journal stands in for
	// the persist package. Single-fixture scope is deliberate — each
	// fixture is its own closed world.
	prog := NewProgramWith(pkgs, "fix/journal")
	var got []Diagnostic
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			t.Errorf("fixture %s (%s): type error: %v", name, p.Path, terr)
		}
		p.Prog = prog
		got = append(got, r.RunPackage(p)...)
	}
	sortDiagnostics(got)
	return got
}

var wantArgRe = regexp.MustCompile("`([^`]*)`")

// parseWants scans the .go files directly in dir for want annotations and
// returns file:line -> expected message patterns.
func parseWants(t *testing.T, dir string) map[string][]*regexp.Regexp {
	t.Helper()
	wants := make(map[string][]*regexp.Regexp)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			_, rest, ok := strings.Cut(line, "// want ")
			if !ok {
				continue
			}
			ms := wantArgRe.FindAllStringSubmatch(rest, -1)
			if len(ms) == 0 {
				t.Fatalf("%s:%d: want annotation without a `regexp`", ent.Name(), i+1)
			}
			key := ent.Name() + ":" + strconv.Itoa(i+1)
			for _, m := range ms {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern: %v", ent.Name(), i+1, err)
				}
				wants[key] = append(wants[key], re)
			}
		}
	}
	return wants
}

// checkDiagnostics matches got against wants one-to-one.
func checkDiagnostics(t *testing.T, fixture string, got []Diagnostic, wants map[string][]*regexp.Regexp) {
	t.Helper()
	for _, d := range got {
		key := filepath.Base(d.File) + ":" + strconv.Itoa(d.Line)
		res := wants[key]
		hit := -1
		for i, re := range res {
			if re.MatchString(d.Message) {
				hit = i
				break
			}
		}
		if hit < 0 {
			t.Errorf("%s: unexpected diagnostic %s", fixture, d)
			continue
		}
		wants[key] = append(res[:hit], res[hit+1:]...)
	}
	for key, res := range wants {
		for _, re := range res {
			t.Errorf("%s: missing diagnostic at %s matching %q", fixture, key, re)
		}
	}
}

func TestRuleFixtures(t *testing.T) {
	ld := newFixtureLoader(t)
	cases := []struct {
		fixture string
		rules   []Rule
	}{
		{"persist", []Rule{NewPersistWrites()}},
		{"ctxloop", []Rule{NewCtxLoop()}},
		{"floateq", []Rule{NewFloatEq()}},
		{"nopanic", []Rule{NewNoPanic()}},
		{"nopanicmain", []Rule{NewNoPanic()}}, // package main: zero wants, zero findings
		{"timenow", []Rule{NewTimeNow()}},
		{"metricname", []Rule{&MetricName{
			ObsPath:  "fix/obs",
			Pattern:  MetricNamePattern,
			Families: []string{"metricname.family."},
		}}},
		{"errcheck", []Rule{NewErrCheck()}},
		{"scopedobs", []Rule{&ScopedObs{
			ObsPath:       "fix/obs",
			DefaultExempt: []string{"fix/obs"},
		}}},
		{"ctxflow", []Rule{NewCtxFlow()}},
		{"goroutinejoin", []Rule{NewGoroutineJoin()}},
		{"lockblocking", []Rule{NewLockBlocking()}},
		{"walorder", []Rule{&WalOrder{Packages: []string{"fix/walorder"}}}},
		{"journal", []Rule{NewCtxFlow(), NewGoroutineJoin(), NewLockBlocking(), NewWalOrder()}}, // the stand-in persist package itself is clean
	}
	for _, c := range cases {
		t.Run(c.fixture, func(t *testing.T) {
			got := lintFixture(t, ld, c.rules, c.fixture)
			checkDiagnostics(t, c.fixture, got, parseWants(t, filepath.Join(ld.ModuleRoot, c.fixture)))
		})
	}
}

// TestExemptPaths checks the Exempt knob of the path-scoped rules: the same
// fixture is dirty under the default configuration and clean once its path
// is listed.
func TestExemptPaths(t *testing.T) {
	ld := newFixtureLoader(t)
	cases := []struct {
		name            string
		dirty, exempted Rule
	}{
		{"persist-writes", NewPersistWrites(), &PersistWrites{Exempt: []string{"fix/exempt"}}},
		{"time-now", NewTimeNow(), &TimeNow{Exempt: []string{"fix/exempt"}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := lintFixture(t, ld, []Rule{c.dirty}, "exempt"); len(got) != 1 {
				t.Errorf("default config: got %d diagnostics, want 1: %v", len(got), got)
			}
			if got := lintFixture(t, ld, []Rule{c.exempted}, "exempt"); len(got) != 0 {
				t.Errorf("exempted config: got %d diagnostics, want 0: %v", len(got), got)
			}
		})
	}
}

// lineWhere returns the 1-based line of the unique line in file satisfying
// match.
func lineWhere(t *testing.T, file string, desc string, match func(string) bool) int {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for i, line := range strings.Split(string(data), "\n") {
		if match(line) {
			if found != 0 {
				t.Fatalf("%s: %q matches more than one line", file, desc)
			}
			found = i + 1
		}
	}
	if found == 0 {
		t.Fatalf("%s: no line matches %q", file, desc)
	}
	return found
}

func TestDirectiveFixture(t *testing.T) {
	ld := newFixtureLoader(t)
	got := lintFixture(t, ld, DefaultRules(), "directive")

	src := filepath.Join(ld.ModuleRoot, "directive", "directive.go")
	contains := func(sub string) func(string) bool {
		return func(line string) bool { return strings.Contains(line, sub) }
	}
	trimmedEq := func(want string) func(string) bool {
		return func(line string) bool { return strings.TrimSpace(line) == want }
	}

	type exp struct {
		rule  string
		line  int
		msgRe string
	}
	expected := []exp{
		{DirectiveRule, lineWhere(t, src, "missing-reason directive", trimmedEq("//lint:ignore no-panic")), `needs a reason`},
		{"no-panic", lineWhere(t, src, "missing-reason panic", contains("reason missing")), `panic in library code`},
		{DirectiveRule, lineWhere(t, src, "unknown-rule directive", contains("no-such-rule the rule name")), `unknown rule "no-such-rule"`},
		{"no-panic", lineWhere(t, src, "unknown-rule panic", contains("not suppressed: unknown rule")), `panic in library code`},
		{DirectiveRule, lineWhere(t, src, "meta-rule directive", contains("unused-suppression meta rules")), `unknown rule "unused-suppression"`},
		{"no-panic", lineWhere(t, src, "meta-rule panic", contains("not suppressed: meta rule")), `panic in library code`},
		{DirectiveRule, lineWhere(t, src, "malformed directive", trimmedEq("//lint:ignore")), `malformed directive`},
		{UnusedSuppRule, lineWhere(t, src, "unused suppression", contains("float-eq ints compare exactly")), `suppresses nothing`},
	}

	matched := make([]bool, len(expected))
outer:
	for _, d := range got {
		for i, e := range expected {
			if !matched[i] && d.Rule == e.rule && d.Line == e.line && regexp.MustCompile(e.msgRe).MatchString(d.Message) {
				matched[i] = true
				continue outer
			}
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for i, e := range expected {
		if !matched[i] {
			t.Errorf("missing diagnostic: rule %s at line %d matching %q", e.rule, e.line, e.msgRe)
		}
	}
}

// TestRunnerRun drives the pattern-expansion entry point end to end and
// checks the output encoders.
func TestRunnerRun(t *testing.T) {
	ld := newFixtureLoader(t)
	r := &Runner{Loader: ld, Rules: []Rule{NewFloatEq()}}
	ds, err := r.Run("./floateq")
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 4 {
		t.Fatalf("Run(./floateq): got %d diagnostics, want 4: %v", len(ds), ds)
	}
	for i := 1; i < len(ds); i++ {
		a, b := ds[i-1], ds[i]
		if a.File > b.File || (a.File == b.File && a.Line > b.Line) {
			t.Errorf("diagnostics not sorted: %s before %s", a, b)
		}
	}

	var text bytes.Buffer
	if err := WriteText(&text, ds[:1]); err != nil {
		t.Fatal(err)
	}
	line := text.String()
	if !strings.Contains(line, "floateq.go:") || !strings.Contains(line, "(float-eq)") {
		t.Errorf("WriteText output %q lacks file position or rule tag", line)
	}

	var js bytes.Buffer
	if err := WriteJSON(&js, nil); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(js.String()) != "[]" {
		t.Errorf("WriteJSON(nil) = %q, want []", js.String())
	}
}
