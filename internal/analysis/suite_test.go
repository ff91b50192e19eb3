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

func TestHotAlloc(t *testing.T) {
	analysistest.Run(t, analysis.HotAlloc, "hotalloc", "example.com/hotalloc")
}

func TestErrDrop(t *testing.T) {
	analysistest.Run(t, analysis.ErrDrop, "errdrop", "example.com/errdrop")
}

func TestLogKeys(t *testing.T) {
	analysistest.Run(t, analysis.LogKeys, "logkeys", "example.com/logkeys")
}

func TestBoundMono(t *testing.T) {
	analysistest.Run(t, analysis.BoundMono, "boundmono", "example.com/boundmono")
}

// TestAllStableOrder pins the suite composition: the usage text and CI
// logs both assume this order.
func TestAllStableOrder(t *testing.T) {
	want := []string{"boundmono", "hotalloc", "errdrop", "logkeys"}
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
	//fdiamlint:ignore errdrop justified because this is a test
	a := 1
	//fdiamlint:ignore errdrop
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
	if !sup.Suppressed("errdrop", fset, reasoned) {
		t.Errorf("reasoned directive did not suppress the next line")
	}
	if sup.Suppressed("hotalloc", fset, reasoned) {
		t.Errorf("directive suppressed a different analyzer")
	}
	// Line 7 (b := 2) follows a reasonless directive, which must be inert.
	if bare := posOnLine(fset, f, 7); sup.Suppressed("errdrop", fset, bare) {
		t.Errorf("reasonless directive suppressed a diagnostic")
	}
}

// TestSuppressionHygiene checks the directive-discipline reporting: a
// reasonless directive is always a finding, a reasoned-but-unhit one only
// in a full-suite run, and a hit directive never.
func TestSuppressionHygiene(t *testing.T) {
	src := `package p

func f() {
	//fdiamlint:ignore errdrop hit below
	a := 1
	//fdiamlint:ignore errdrop never matched by any diagnostic
	b := 2
	//fdiamlint:ignore errdrop
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
	if !sup.Suppressed("errdrop", fset, posOnLine(fset, f, 5)) {
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
		src := "package p\n\n//fdiamlint:ignore errdrop\nvar X = 1\n"
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
