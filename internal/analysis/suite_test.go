package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"fdiam/internal/analysis"
	"fdiam/internal/analysis/analysistest"
)

func TestNakedGo(t *testing.T) {
	analysistest.Run(t, analysis.NakedGo, "nakedgo", "example.com/nakedgo")
}

// TestNakedGoExemptsPar type-checks the same kind of code under the
// internal/par import path, where spawning is the package's job.
func TestNakedGoExemptsPar(t *testing.T) {
	analysistest.Run(t, analysis.NakedGo, "nakedgo_par", "fdiam/internal/par")
}

func TestAtomicField(t *testing.T) {
	analysistest.Run(t, analysis.AtomicField, "atomicfield", "example.com/atomicfield")
}

func TestHotAlloc(t *testing.T) {
	analysistest.Run(t, analysis.HotAlloc, "hotalloc", "example.com/hotalloc")
}

func TestErrDrop(t *testing.T) {
	analysistest.Run(t, analysis.ErrDrop, "errdrop", "example.com/errdrop")
}

func TestLogKeys(t *testing.T) {
	analysistest.Run(t, analysis.LogKeys, "logkeys", "example.com/logkeys")
}

func TestCtxFlow(t *testing.T) {
	analysistest.Run(t, analysis.CtxFlow, "ctxflow", "example.com/internal/core")
}

func TestDeepAlloc(t *testing.T) {
	analysistest.Run(t, analysis.DeepAlloc, "deepalloc", "example.com/deepalloc")
}

// TestDeepAllocCycle pins the worklist fixpoint's behavior on a recursive
// call graph: the allocation on the far side of a ping/pong cycle must
// reach the kernel's callee, and a clean self-recursive helper must not be
// tainted by the cycle alone.
func TestDeepAllocCycle(t *testing.T) {
	analysistest.Run(t, analysis.DeepAlloc, "callcycle", "example.com/callcycle")
}

func TestBoundMono(t *testing.T) {
	analysistest.Run(t, analysis.BoundMono, "boundmono", "example.com/boundmono")
}

// TestFactPropagation runs ctxflow and deepalloc over a package whose only
// blocking and allocating paths cross a package boundary: the dependency
// fixture is summarized separately and its facts are handed to the target,
// as cmd/fdiamlint does between packages.
func TestFactPropagation(t *testing.T) {
	analysistest.RunWithDeps(t,
		[]*analysis.Analyzer{analysis.CtxFlow, analysis.DeepAlloc},
		"factuse", "example.com/internal/core",
		[]analysistest.Dep{{Dir: "factdep", Path: "example.com/factdep"}})
}

// TestAllStableOrder pins the suite composition: the usage text and CI
// logs both assume this order.
func TestAllStableOrder(t *testing.T) {
	want := []string{"nakedgo", "atomicfield", "hotalloc", "errdrop", "logkeys",
		"ctxflow", "deepalloc", "boundmono"}
	all := analysis.All()
	if len(all) != len(want) {
		t.Fatalf("All() returned %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("All()[%d] = %s, want %s", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %s missing Doc or Run", a.Name)
		}
	}
}

// TestSuppressorRequiresReason checks the directive grammar directly: a
// reasonless ignore must stay inert, a reasoned one must cover its own
// line and the next.
func TestSuppressorRequiresReason(t *testing.T) {
	src := `package p

func f() {
	//fdiamlint:ignore nakedgo justified because this is a test
	a := 1
	//fdiamlint:ignore nakedgo
	b := 2
	_, _ = a, b
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	sup := analysis.NewSuppressor(fset, []*ast.File{f})
	// Line 5 (a := 1) is under a reasoned directive on line 4.
	reasoned := posOnLine(fset, f, 5)
	if !sup.Suppressed("nakedgo", fset, reasoned) {
		t.Errorf("reasoned directive did not suppress the next line")
	}
	if sup.Suppressed("errdrop", fset, reasoned) {
		t.Errorf("directive suppressed a different analyzer")
	}
	// Line 7 (b := 2) follows a reasonless directive, which must be inert.
	if bare := posOnLine(fset, f, 7); sup.Suppressed("nakedgo", fset, bare) {
		t.Errorf("reasonless directive suppressed a diagnostic")
	}
}

// TestSuppressionHygiene checks the directive-discipline reporting: a
// reasonless directive is always a finding, a reasoned-but-unhit one only
// in a full-suite run, and a hit directive never.
func TestSuppressionHygiene(t *testing.T) {
	src := `package p

func f() {
	//fdiamlint:ignore nakedgo hit below
	a := 1
	//fdiamlint:ignore nakedgo never matched by any diagnostic
	b := 2
	//fdiamlint:ignore nakedgo
	c := 3
	_, _, _ = a, b, c
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	sup := analysis.NewSuppressor(fset, []*ast.File{f})
	if !sup.Suppressed("nakedgo", fset, posOnLine(fset, f, 5)) {
		t.Fatalf("directive on line 4 did not suppress line 5")
	}

	count := func(diags []analysis.Diagnostic, substr string) int {
		n := 0
		for _, d := range diags {
			if strings.Contains(d.Message, substr) {
				n++
			}
		}
		return n
	}
	plain := sup.HygieneDiagnostics(false)
	if got := count(plain, "suppresses nothing"); got != 1 {
		t.Errorf("reasonless findings without ReportUnused = %d, want 1", got)
	}
	if got := count(plain, "stale"); got != 0 {
		t.Errorf("stale findings without ReportUnused = %d, want 0", got)
	}
	full := sup.HygieneDiagnostics(true)
	if got := count(full, "stale"); got != 1 {
		t.Errorf("stale findings with ReportUnused = %d, want 1 (the unhit line-6 directive)", got)
	}
	if got := count(full, "suppresses nothing"); got != 1 {
		t.Errorf("reasonless findings with ReportUnused = %d, want 1", got)
	}
}

// TestHygieneExemptsTestdataAndTests pins where the hygiene rules do not
// apply: golden fixtures exercise the grammar deliberately, and analyzers
// skip test files entirely, so directives there can never be hit.
func TestHygieneExemptsTestdataAndTests(t *testing.T) {
	for _, name := range []string{
		"testdata/src/x/p.go",
		"/abs/repo/internal/analysis/testdata/src/x/p.go",
		"serve_fault_test.go",
	} {
		src := "package p\n\n//fdiamlint:ignore nakedgo\nvar X = 1\n"
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		sup := analysis.NewSuppressor(fset, []*ast.File{f})
		if diags := sup.HygieneDiagnostics(true); len(diags) != 0 {
			t.Errorf("%s: hygiene reported %d findings in an exempt file", name, len(diags))
		}
	}
}

// posOnLine returns a token.Pos on the given 1-based line of f's file.
func posOnLine(fset *token.FileSet, f *ast.File, line int) token.Pos {
	tf := fset.File(f.Pos())
	return tf.LineStart(line)
}
