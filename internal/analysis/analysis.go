// Package analysis is a minimal, dependency-free analogue of the
// golang.org/x/tools/go/analysis framework, carrying the project-specific
// analyzers that machine-check fdiam's bound-monotonicity, hot-path,
// error-handling and logging rules (DESIGN.md §8). The container this repo
// builds in has no module network access, so the framework is
// reimplemented on the stdlib go/ast + go/types packages with the same
// shape as the upstream API: if x/tools ever becomes available, each
// Analyzer ports by swapping the import.
//
// Analyzers are pure functions from a type-checked package (a Pass) to
// diagnostics. Drivers — cmd/fdiamlint and the analysistest harness — own
// loading and reporting.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //fdiamlint:ignore directives. Lower-case, no spaces.
	Name string
	// Doc is the one-paragraph description shown by `fdiamlint -help`.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers a diagnostic to the driver. Drivers install a
	// suppression-aware sink; analyzers should call Reportf instead.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// InTestFile reports whether pos lies in a _test.go file. The repo rules
// the analyzers enforce are production-code rules; tests spawn goroutines
// and drop errors legitimately.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// WithStack walks the AST rooted at root, passing each node together with
// the stack of its ancestors (stack[len(stack)-1] == n). Returning false
// prunes the subtree.
func WithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if !fn(n, stack) {
			stack = stack[:len(stack)-1]
			return false
		}
		return true
	})
}

// All returns the project's analyzer suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{BoundMono, HotAlloc, ErrDrop, LogKeys}
}

// ignoreKey locates one suppression directive: diagnostics from the named
// analyzer on the directive's line or the line directly below are dropped.
type ignoreKey struct {
	file     string
	line     int
	analyzer string
}

// directive is one parsed //fdiamlint:ignore comment, tracked for
// suppression hygiene: reasonless directives are themselves diagnostics,
// and reasoned directives that suppressed nothing are flagged stale in a
// full-suite run.
type directive struct {
	pos      token.Pos
	file     string
	line     int
	analyzer string
	reasoned bool
	hit      bool
}

// exemptFromHygiene reports whether the directive sits where the hygiene
// rules do not apply: analyzer golden fixtures (testdata trees exercise
// the grammar deliberately) and test files (which the analyzers skip, so
// a directive there can never be hit).
func (d *directive) exemptFromHygiene() bool {
	norm := filepath.ToSlash(d.file)
	return strings.Contains(norm, "/testdata/") ||
		strings.HasPrefix(norm, "testdata/") ||
		strings.HasSuffix(norm, "_test.go")
}

// Suppressor indexes //fdiamlint:ignore directives across a package.
//
//	//fdiamlint:ignore hotalloc grow-once buffer, reused once capacity suffices
//	buf = make([]int32, n)
//
// A directive must name the analyzer and give a non-empty justification;
// a bare `//fdiamlint:ignore hotalloc` suppresses nothing, and is itself
// reported outside testdata, so every suppression in the tree documents
// why the rule does not apply.
type Suppressor struct {
	keys       map[ignoreKey]*directive
	directives []*directive
}

// NewSuppressor scans the comments of files for ignore directives.
func NewSuppressor(fset *token.FileSet, files []*ast.File) *Suppressor {
	s := &Suppressor{keys: make(map[ignoreKey]*directive)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//fdiamlint:ignore")
				if !ok || (rest != "" && rest[0] != ' ') {
					continue
				}
				name, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
				pos := fset.Position(c.Pos())
				d := &directive{
					pos:      c.Pos(),
					file:     pos.Filename,
					line:     pos.Line,
					analyzer: name,
					reasoned: name != "" && strings.TrimSpace(reason) != "",
				}
				s.directives = append(s.directives, d)
				if d.reasoned {
					s.keys[ignoreKey{d.file, d.line, name}] = d
				}
			}
		}
	}
	return s
}

// Suppressed reports whether a diagnostic from the named analyzer at pos is
// covered by an ignore directive on the same line or the line above, and
// marks the covering directive used.
func (s *Suppressor) Suppressed(analyzer string, fset *token.FileSet, pos token.Pos) bool {
	p := fset.Position(pos)
	for _, line := range [2]int{p.Line, p.Line - 1} {
		if d, ok := s.keys[ignoreKey{p.Filename, line, analyzer}]; ok {
			d.hit = true
			return true
		}
	}
	return false
}

// HygieneDiagnostics reports the suppression-discipline findings after a
// suite run: reasonless directives always, and — when reportUnused is set
// (a full-suite run, where "no diagnostic suppressed" is meaningful) —
// reasoned directives that covered nothing.
func (s *Suppressor) HygieneDiagnostics(reportUnused bool) []Diagnostic {
	var out []Diagnostic
	for _, d := range s.directives {
		if d.exemptFromHygiene() {
			continue
		}
		switch {
		case !d.reasoned:
			out = append(out, Diagnostic{Pos: d.pos, Message: "suppress: " +
				"//fdiamlint:ignore without an analyzer name and justification suppresses nothing; " +
				"write `//fdiamlint:ignore <analyzer> <reason>` or delete it"})
		case reportUnused && !d.hit:
			out = append(out, Diagnostic{Pos: d.pos, Message: fmt.Sprintf(
				"suppress: stale //fdiamlint:ignore %s directive suppressed no diagnostic; delete it",
				d.analyzer)})
		}
	}
	return out
}

// SuiteOptions configures one RunSuite invocation.
type SuiteOptions struct {
	// ReportUnused enables stale-suppression detection. Only meaningful
	// when the full analyzer suite runs (cmd/fdiamlint always sets it): a
	// partial run would misreport directives for the analyzers skipped.
	ReportUnused bool
}

// RunSuite applies the analyzers to one package and appends the
// suppression-hygiene findings, returning the surviving diagnostics.
func RunSuite(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File,
	pkg *types.Package, info *types.Info, opts SuiteOptions) ([]Diagnostic, error) {
	sup := NewSuppressor(fset, files)
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
		}
		name := a.Name
		pass.Report = func(d Diagnostic) {
			if !sup.Suppressed(name, fset, d.Pos) {
				d.Message = name + ": " + d.Message
				out = append(out, d)
			}
		}
		if err := a.Run(pass); err != nil {
			return out, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
	}
	return append(out, sup.HygieneDiagnostics(opts.ReportUnused)...), nil
}

// NewInfo returns a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}
