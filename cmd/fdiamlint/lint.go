package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"fdiam/internal/analysis"
)

// listedPackage is the subset of `go list -json` output the driver consumes.
type listedPackage struct {
	ImportPath string
	ForTest    string
	Dir        string
	GoFiles    []string
	ImportMap  map[string]string
	Export     string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// lint loads the packages matched by patterns (resolved in dir) together
// with their test variants and the export data of every dependency, runs
// the analyzer suite over each matched package, and prints diagnostics to
// stdout. Only matched packages are parsed and type-checked; everything
// they import comes from export data. It returns the process exit code:
// 0 clean, 1 load failure, 2 diagnostics.
func lint(dir string, patterns []string, stdout, stderr io.Writer) int {
	cmd := exec.Command("go", append([]string{
		"list", "-e", "-test", "-deps", "-export",
		"-json=ImportPath,ForTest,Dir,GoFiles,ImportMap,Export,Standard,DepOnly,Error",
	}, patterns...)...)
	cmd.Dir = dir
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(stderr, "fdiamlint: go list: %v\n", err)
		return 1
	}

	var pkgs []*listedPackage
	packageFile := make(map[string]string)
	hasTestVariant := make(map[string]bool)
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			fmt.Fprintf(stderr, "fdiamlint: decoding go list output: %v\n", err)
			return 1
		}
		if p.Error != nil {
			fmt.Fprintf(stderr, "fdiamlint: %s: %s\n", p.ImportPath, p.Error.Err)
			return 1
		}
		if p.Export != "" {
			packageFile[p.ImportPath] = p.Export
		}
		if p.ForTest != "" && !p.DepOnly && strings.HasPrefix(p.ImportPath, p.ForTest+" [") {
			hasTestVariant[p.ForTest] = true
		}
		pkgs = append(pkgs, p)
	}

	fset := token.NewFileSet()
	exports := exportImporter(fset, packageFile)
	var diags []analysis.Diagnostic
	for _, p := range pkgs {
		// A matched package with an in-package test variant ("p [p.test]":
		// p's files plus its _test.go files) is analyzed as that variant.
		// Dependencies, the stdlib and generated .test mains are skipped.
		if p.DepOnly || hasTestVariant[p.ImportPath] || p.Standard ||
			len(p.GoFiles) == 0 || strings.HasSuffix(p.ImportPath, ".test") {
			continue
		}
		imp := importerFunc(func(path string) (*types.Package, error) {
			if mapped, ok := p.ImportMap[path]; ok {
				path = mapped // e.g. "p" → "p [p.test]" in p's external test
			}
			return exports.Import(path)
		})
		d, err := checkPackage(fset, p, imp)
		if err != nil {
			fmt.Fprintf(stderr, "fdiamlint: %s: %v\n", p.ImportPath, err)
			return 1
		}
		diags = append(diags, d...)
	}
	if len(diags) == 0 {
		return 0
	}
	printDiagnostics(stdout, fset, dir, diags)
	return 2
}

// checkPackage parses and type-checks one listed package and runs the
// full analyzer suite over it, stale-directive check included.
func checkPackage(fset *token.FileSet, p *listedPackage, imp types.Importer) ([]analysis.Diagnostic, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	// A test variant's ImportPath carries a " [p.test]" suffix; the
	// analyzers match on the real package path.
	pkgPath, _, _ := strings.Cut(p.ImportPath, " ")
	info := analysis.NewInfo()
	pkg, err := (&types.Config{Importer: imp}).Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, err
	}
	return analysis.RunSuite(analysis.All(), fset, files, pkg, info,
		analysis.SuiteOptions{ReportUnused: true})
}

// exportImporter resolves listed package paths from compiler export data,
// the way the compiler itself consumes dependencies. The compiler records
// every package under its listed path (a test variant as "p [p.test]"),
// so one importer, and its cache, serves every package.
func exportImporter(fset *token.FileSet, packageFile map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := packageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// printDiagnostics renders diagnostics in the conventional file:line:col
// format, with paths relative to dir when possible, sorted for
// deterministic output.
func printDiagnostics(w io.Writer, fset *token.FileSet, dir string, diags []analysis.Diagnostic) {
	base, _ := filepath.Abs(dir)
	lines := make([]string, 0, len(diags))
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		name := pos.Filename
		if rel, err := filepath.Rel(base, name); err == nil && !filepath.IsAbs(rel) {
			name = rel
		}
		lines = append(lines, fmt.Sprintf("%s:%d:%d: %s", name, pos.Line, pos.Column, d.Message))
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
}
