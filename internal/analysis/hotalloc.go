package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotAlloc guards the per-edge and per-level hot paths. A function whose
// doc comment carries the `//fdiam:hotpath` directive (the BFS expansion
// kernels, par's chunk loop) runs millions of times per diameter
// computation; an accidental allocation or clock read there is a
// regression that benchmarks catch late and reviews miss. The analyzer
// flags, inside such functions (including nested closures):
//
//   - make(...) — fresh slice/map/chan per call
//   - append(...) except the `x = append(x, ...)` reuse idiom, whose
//     amortized growth into a retained buffer is the substrate's design
//   - time.Now() — a vDSO call per invocation
//   - any fmt call — every fmt entry point allocates
//
// Deliberate grow-once allocations inside a hot function carry an
// //fdiamlint:ignore hotalloc justification.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "flag allocating or clock-reading calls (append/make/time.Now/fmt.*) " +
		"inside functions marked //fdiam:hotpath",
	Run: runHotAlloc,
}

func runHotAlloc(pass *Pass) error {
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hotpathMarked(fn.Doc) {
				continue
			}
			checkHotBody(pass, fn.Body)
		}
	}
	return nil
}

// hotpathMarked reports whether the doc group contains the
// //fdiam:hotpath directive. Directive comments are excluded from
// CommentGroup.Text, so the raw list is scanned.
func hotpathMarked(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == "//fdiam:hotpath" {
			return true
		}
	}
	return false
}

func checkHotBody(pass *Pass, body *ast.BlockStmt) {
	WithStack(body, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if b, ok := pass.TypesInfo.Uses[fun].(*types.Builtin); ok {
				switch b.Name() {
				case "make":
					pass.Reportf(call.Pos(), "make in //fdiam:hotpath function allocates per call")
				case "append":
					if !reuseAppend(call, stack) {
						pass.Reportf(call.Pos(),
							"append in //fdiam:hotpath function outside the `x = append(x, ...)` reuse idiom")
					}
				}
			}
		case *ast.SelectorExpr:
			pkg := calleePackage(pass, fun)
			switch {
			case pkg == "time" && fun.Sel.Name == "Now":
				pass.Reportf(call.Pos(), "time.Now in //fdiam:hotpath function; hoist the clock read out of the hot loop")
			case pkg == "fmt":
				pass.Reportf(call.Pos(), "fmt.%s in //fdiam:hotpath function allocates", fun.Sel.Name)
			}
		}
		return true
	})
}

// reuseAppend reports whether the append call is the RHS of a plain `=`
// assignment — the retained-buffer idiom `buf = append(buf, v)`. A `:=`
// define, or an append used as a bare expression/argument, allocates a
// value the function cannot have amortized.
func reuseAppend(call *ast.CallExpr, stack []ast.Node) bool {
	if len(stack) < 2 {
		return false
	}
	asg, ok := stack[len(stack)-2].(*ast.AssignStmt)
	return ok && asg.Tok == token.ASSIGN
}

// calleePackage returns the import path of the package a selector call
// resolves into, or "" when the selector is not a package-qualified call.
func calleePackage(pass *Pass, sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	if pkgName, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok {
		return pkgName.Imported().Path()
	}
	return ""
}
