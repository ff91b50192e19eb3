package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AtomicField checks the repo's shared-counter convention: a struct field
// whose trailing comment starts with the word "atomic" (e.g. the par
// job's chunk cursor) is accessed concurrently and must only be touched
// through sync/atomic. Any plain read or write of such a field is a latent
// data race that -race only catches when a test happens to hit the
// interleaving; the analyzer catches it on every build.
//
// Allowed access forms:
//
//	atomic.AddInt64(&j.cursor, d)   // any sync/atomic func taking &field
//	job{cursor: 0}                  // composite-literal initialization
//
// Fields of type atomic.Int64 etc. need no marker: their method set is the
// only access path. The marker exists for raw int32/int64/uint32 fields
// that stay raw for hot-path codegen reasons.
var AtomicField = &Analyzer{
	Name: "atomicfield",
	Doc: "flag non-atomic access to struct fields documented `// atomic ...`; " +
		"such fields are shared between goroutines and must go through sync/atomic",
	Run: runAtomicField,
}

func runAtomicField(pass *Pass) error {
	marked := collectAtomicFields(pass)
	if len(marked) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			// Whitebox tests may read counters after all goroutines have
			// joined; the production rule stops at the test boundary.
			continue
		}
		WithStack(f, func(n ast.Node, stack []ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			s := pass.TypesInfo.Selections[sel]
			if s == nil || s.Kind() != types.FieldVal {
				return true
			}
			fieldObj, ok := s.Obj().(*types.Var)
			if !ok || !marked[fieldObj] {
				return true
			}
			if atomicAccessOK(pass, stack) {
				return true
			}
			pass.Reportf(sel.Sel.Pos(),
				"non-atomic access to field %s.%s marked `// atomic`; use sync/atomic",
				fieldObj.Pkg().Name()+"."+selRecvName(s), fieldObj.Name())
			return true
		})
	}
	return nil
}

// collectAtomicFields gathers the *types.Var of every struct field whose
// line or doc comment starts with "atomic".
func collectAtomicFields(pass *Pass) map[*types.Var]bool {
	marked := make(map[*types.Var]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if !atomicMarked(field.Comment) && !atomicMarked(field.Doc) {
					continue
				}
				for _, name := range field.Names {
					if obj, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						marked[obj] = true
					}
				}
			}
			return true
		})
	}
	return marked
}

// atomicMarked reports whether a field comment opens with the word
// "atomic" ("// atomic chunk cursor").
func atomicMarked(cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		text := strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*"))
		if text == "atomic" || strings.HasPrefix(text, "atomic ") {
			return true
		}
	}
	return false
}

// atomicAccessOK reports whether the selector at the top of stack is in an
// allowed context: `&field` passed directly to a sync/atomic function, or a
// composite-literal value (initialization before the value is shared).
func atomicAccessOK(pass *Pass, stack []ast.Node) bool {
	// stack[len-1] is the SelectorExpr itself.
	if len(stack) >= 3 {
		if u, ok := stack[len(stack)-2].(*ast.UnaryExpr); ok && u.Op == token.AND {
			if call, ok := stack[len(stack)-3].(*ast.CallExpr); ok && atomicCallee(pass, call) {
				return true
			}
		}
	}
	// Struct composite-literal initialization (`job{cursor: 0}`) never
	// reaches here: literal keys are bare idents, not selectors.
	return false
}

// atomicCallee reports whether call's callee lives in sync/atomic.
func atomicCallee(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == "sync/atomic"
}

// selRecvName renders the receiver type name of a field selection for the
// diagnostic message.
func selRecvName(s *types.Selection) string {
	t := s.Recv()
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}
