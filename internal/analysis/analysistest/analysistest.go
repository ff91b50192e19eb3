// Package analysistest runs analyzers over golden testdata packages and
// checks their diagnostics against `// want "regexp"` comments, mirroring
// golang.org/x/tools/go/analysis/analysistest on the stdlib only.
//
// Layout: testdata/src/<dir>/*.go form one package. Each line that should
// produce diagnostics carries a trailing comment of the form
//
//	go func() {}() // want `naked go statement`
//
// with one backquoted or quoted regexp per expected diagnostic on that
// line. Diagnostics with no matching want, and wants with no matching
// diagnostic, both fail the test.
//
// RunWithDeps additionally loads dependency fixture packages first and
// hands their function summaries to the target package, the way
// cmd/fdiamlint threads facts between packages.
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

// Dep names one dependency fixture: the testdata/src subdirectory holding
// its files and the import path the target package uses for it.
type Dep struct {
	Dir  string
	Path string
}

// Run loads testdata/src/<dir> relative to the caller's package directory,
// type-checks it under the import path pkgpath (which analyzers may
// inspect — nakedgo exempts internal/par by path), runs the analyzer, and
// compares diagnostics against the package's want comments.
func Run(t *testing.T, a *analysis.Analyzer, dir, pkgpath string) {
	t.Helper()
	RunWithDeps(t, []*analysis.Analyzer{a}, dir, pkgpath, nil)
}

// RunWithDeps runs several analyzers together over one fixture package,
// after loading the dependency fixtures in order and threading their
// facts into the target's suite run.
func RunWithDeps(t *testing.T, analyzers []*analysis.Analyzer, dir, pkgpath string, deps []Dep) {
	t.Helper()
	fset := token.NewFileSet()
	loaded := make(map[string]*types.Package)
	imp := &fixtureImporter{
		fallback: importer.ForCompiler(fset, "source", nil),
		loaded:   loaded,
	}

	depFacts := analysis.Facts{}
	for _, d := range deps {
		files, pkg, info := loadFixture(t, fset, d.Dir, d.Path, imp)
		loaded[d.Path] = pkg
		depFacts.Merge(analysis.BuildSummaries(fset, files, pkg, info, depFacts).Export())
	}

	files, pkg, info := loadFixture(t, fset, dir, pkgpath, imp)
	loaded[pkgpath] = pkg
	res, err := analysis.RunSuite(analyzers, fset, files, pkg, info,
		analysis.SuiteOptions{Deps: depFacts})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	checkWants(t, fset, files, res.Diagnostics)
}

// fixtureImporter resolves already-loaded fixture packages by import path
// and falls back to source-importing the standard library.
type fixtureImporter struct {
	fallback types.Importer
	loaded   map[string]*types.Package
}

func (i *fixtureImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := i.loaded[path]; ok {
		return pkg, nil
	}
	return i.fallback.Import(path)
}

// loadFixture parses and type-checks one testdata/src/<dir> package.
func loadFixture(t *testing.T, fset *token.FileSet, dir, pkgpath string, imp types.Importer) ([]*ast.File, *types.Package, *types.Info) {
	t.Helper()
	root := filepath.Join("testdata", "src", dir)
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatalf("reading %s: %v", root, err)
	}
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
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(pkgpath, fset, files, info)
	if err != nil {
		t.Fatalf("typecheck %s: %v", dir, err)
	}
	return files, pkg, info
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
