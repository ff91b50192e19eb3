// Package analysistest runs analyzers over golden testdata packages and
// checks their diagnostics against `// want "regexp"` comments, mirroring
// golang.org/x/tools/go/analysis/analysistest on the stdlib only.
//
// Layout: testdata/src/<dir>/*.go form one package. Each line that should
// produce diagnostics carries a trailing comment of the form
//
//	s := make([]int, 8) // want `make in //fdiam:hotpath`
//
// with one backquoted or quoted regexp per expected diagnostic on that
// line. Diagnostics with no matching want, and wants with no matching
// diagnostic, both fail the test.
package analysistest

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"fdiam/internal/analysis"
)

// wantRe extracts the expectation regexps from a `// want` comment.
var wantRe = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

// Run loads testdata/src/<dir> relative to the caller's package directory,
// type-checks it under the import path pkgpath, runs the analyzer, and
// compares diagnostics against the package's want comments.
func Run(t *testing.T, a *analysis.Analyzer, dir, pkgpath string) {
	t.Helper()
	root := filepath.Join("testdata", "src", dir)
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatalf("reading %s: %v", root, err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(root, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no Go files in %s", root)
	}
	info := analysis.NewInfo()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check(pkgpath, fset, files, info)
	if err != nil {
		t.Fatalf("typecheck %s: %v", dir, err)
	}
	diags, err := analysis.RunSuite([]*analysis.Analyzer{a}, fset, files, pkg, info,
		analysis.SuiteOptions{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	checkWants(t, fset, files, diags)
}

// checkWants compares diagnostics against the fixture's want comments.
func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*regexp.Regexp)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, m := range wantRe.FindAllStringSubmatch(c.Text[idx+len("// want "):], -1) {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
					}
					k := key{pos.Filename, pos.Line}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		k := key{pos.Filename, pos.Line}
		matched := -1
		for i, re := range wants[k] {
			if re.MatchString(d.Message) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, d.Message)
			continue
		}
		wants[k] = append(wants[k][:matched], wants[k][matched+1:]...)
	}

	var leftovers []string
	for k, res := range wants {
		for _, re := range res {
			leftovers = append(leftovers, k.file+":"+strconv.Itoa(k.line)+": no diagnostic matching "+re.String())
		}
	}
	sort.Strings(leftovers)
	for _, l := range leftovers {
		t.Errorf("%s", l)
	}
}
