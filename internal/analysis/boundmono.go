package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// BoundMono makes the solver's bound-monotonicity discipline a
// compile-time guarantee. The paper's exactness argument rests on the
// lower bound only rising, the upper bound only falling, and per-vertex
// eccentricity records only moving Active → resolved; the fdiam.checked
// build asserts this at runtime (invariant.go's checkRecord barrier), but
// an unchecked build would merge a non-monotone write silently. BoundMono
// restricts every mutation of the solver's bound state — the ecc, stage,
// bound, and ubCap fields — to functions in internal/core/state.go that
// carry the `//fdiam:boundsetter` directive, where the monotone contract
// is enforced and reviewed in one place. Constructing a fresh solver
// (composite literal) is initialization, not evolution of a run's state,
// and stays legal anywhere in the package.
var BoundMono = &Analyzer{
	Name: "boundmono",
	Doc: "restrict writes to the solver's monotone bound state (ecc/stage/bound/ubCap) " +
		"to //fdiam:boundsetter functions in state.go",
	Run: runBoundMono,
}

// boundFieldNames are the solver struct fields under the monotone-write
// discipline. witnessA/witnessB ride along with bound raises inside the
// setters but are not independently dangerous, so they stay unrestricted.
var boundFieldNames = map[string]bool{
	"ecc":   true,
	"stage": true,
	"bound": true,
	"ubCap": true,
}

func runBoundMono(pass *Pass) error {
	bounds := solverBoundFields(pass.Pkg)
	if len(bounds) == 0 {
		return nil // package has no solver bound state to police
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		inStateGo := filepath.Base(pass.Fset.Position(f.Pos()).Filename) == "state.go"
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			isSetter := boundsetterMarked(fn.Doc)
			if isSetter && !inStateGo {
				pass.Reportf(fn.Pos(),
					"//fdiam:boundsetter on %s: setters must live in state.go so the monotone contract is reviewed in one place",
					fn.Name.Name)
				isSetter = false
			}
			if isSetter {
				continue // designated setter: writes are its purpose
			}
			checkBoundWrites(pass, fn, bounds)
		}
	}
	return nil
}

// checkBoundWrites flags every mutation of a bound field inside fn:
// assignments (including op-assign), ++/--, copy-into, and taking the
// field's address (which would let the write escape the analysis).
func checkBoundWrites(pass *Pass, fn *ast.FuncDecl, bounds map[*types.Var]bool) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if name, ok := boundFieldRoot(lhs, pass.TypesInfo, bounds); ok {
					pass.Reportf(lhs.Pos(),
						"write to solver.%s outside a //fdiam:boundsetter function; use the monotone setters in state.go", name)
				}
			}
		case *ast.IncDecStmt:
			if name, ok := boundFieldRoot(n.X, pass.TypesInfo, bounds); ok {
				pass.Reportf(n.Pos(),
					"write to solver.%s outside a //fdiam:boundsetter function; use the monotone setters in state.go", name)
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && len(n.Args) > 0 {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "copy" {
					if name, ok := boundFieldRoot(n.Args[0], pass.TypesInfo, bounds); ok {
						pass.Reportf(n.Pos(),
							"copy into solver.%s outside a //fdiam:boundsetter function; use the monotone setters in state.go", name)
					}
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if name, ok := boundFieldRoot(n.X, pass.TypesInfo, bounds); ok {
					pass.Reportf(n.Pos(),
						"address of solver.%s escapes the boundmono discipline; mutate it through a state.go setter instead", name)
				}
			}
		}
		return true
	})
}

// boundsetterMarked reports whether the doc group carries the
// //fdiam:boundsetter directive.
func boundsetterMarked(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == "//fdiam:boundsetter" {
			return true
		}
	}
	return false
}

// solverBoundFields resolves the package's `solver` struct type and
// returns its bound-state field objects. Packages without a solver type
// (everything outside internal/core and the analyzer fixtures) get an
// empty map, which disables boundmono.
func solverBoundFields(pkg *types.Package) map[*types.Var]bool {
	if pkg == nil {
		return nil
	}
	tn, ok := pkg.Scope().Lookup("solver").(*types.TypeName)
	if !ok {
		return nil
	}
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	fields := make(map[*types.Var]bool)
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); boundFieldNames[f.Name()] {
			fields[f] = true
		}
	}
	return fields
}

// boundFieldRoot strips index/slice/paren/star wrappers from expr and
// reports whether the underlying selector names a bound field, returning
// the field name.
func boundFieldRoot(expr ast.Expr, info *types.Info, bounds map[*types.Var]bool) (string, bool) {
	for {
		switch e := expr.(type) {
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SliceExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.SelectorExpr:
			sel, ok := info.Selections[e]
			if !ok || sel.Kind() != types.FieldVal {
				return "", false
			}
			if v, ok := sel.Obj().(*types.Var); ok && bounds[v] {
				return v.Name(), true
			}
			return "", false
		default:
			return "", false
		}
	}
}
