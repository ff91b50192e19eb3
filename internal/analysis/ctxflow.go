package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxFlow polices context propagation along blocking call paths, using the
// interprocedural Blocks facts from the package summaries. PR 4 made the
// solver context-first precisely because blocking APIs without a context
// cannot be cancelled, drained, or deadlined. Three rules:
//
//	A. An exported API in the solver-facing packages (internal/core, bfs,
//	   serve, checkpoint, ecc) whose summary blocks must accept a
//	   context.Context as its first parameter. Exempt: methods on types
//	   with a SetCancel method (the Engine contract bridges contexts to an
//	   atomic stop flag at the rim, keeping the per-level kernels
//	   branch-free), and functions handed an *http.Request (its Context()
//	   is the caller context).
//	B. context.Background()/context.TODO() are forbidden outside main
//	   packages and tests: library code threads its caller's context.
//	C. A function that takes a ctx parameter and blocks must actually use
//	   the ctx — a received-but-dropped context silently severs the
//	   cancellation chain for every caller above it.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "require context.Context on exported blocking APIs, forbid " +
		"context.Background/TODO in library code, and flag dropped ctx parameters on blocking paths",
	Run: runCtxFlow,
}

// ctxScopeSuffixes are the package-path suffixes rule A applies to: the
// packages whose exported surface runs solves or serves traffic.
var ctxScopeSuffixes = []string{
	"internal/core",
	"internal/bfs",
	"internal/serve",
	"internal/checkpoint",
	"internal/ecc",
}

func runCtxFlow(pass *Pass) error {
	inScope := false
	for _, suffix := range ctxScopeSuffixes {
		if strings.HasSuffix(pass.Pkg.Path(), suffix) {
			inScope = true
			break
		}
	}
	for _, fi := range pass.Summaries.SortedFuncs() {
		if pass.InTestFile(fi.Decl.Pos()) {
			continue
		}
		if inScope {
			checkExportedBlocking(pass, fi)
		}
		checkDroppedCtx(pass, fi)
	}
	if pass.Pkg.Name() != "main" {
		checkBackgroundCalls(pass)
	}
	return nil
}

// checkExportedBlocking implements rule A for one function.
func checkExportedBlocking(pass *Pass, fi *FuncInfo) {
	if !fi.Fact.Blocks || fi.Fact.TakesCtx {
		return
	}
	obj := fi.Obj
	if !obj.Exported() || !receiverExported(obj) {
		return
	}
	if hasSetCancel(obj) || takesHTTPRequest(obj) {
		return
	}
	pass.Reportf(fi.Decl.Pos(),
		"exported blocking API %s must take a context.Context first parameter (%s)",
		obj.Name(), fi.Fact.BlockWhy)
}

// checkDroppedCtx implements rule C: a blocking function whose ctx
// parameter is never mentioned in its body has severed the cancellation
// chain.
func checkDroppedCtx(pass *Pass, fi *FuncInfo) {
	if !fi.Fact.TakesCtx || !fi.Fact.Blocks {
		return
	}
	sig := fi.Obj.Type().(*types.Signature)
	param := sig.Params().At(0)
	if param.Name() == "" || param.Name() == "_" {
		pass.Reportf(fi.Decl.Pos(),
			"%s discards its context parameter but blocks (%s); forward the ctx",
			fi.Obj.Name(), fi.Fact.BlockWhy)
		return
	}
	used := false
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == param {
			used = true
			return false
		}
		return !used
	})
	if !used {
		pass.Reportf(fi.Decl.Pos(),
			"%s receives ctx but drops it on a blocking path (%s); forward or consult it",
			fi.Obj.Name(), fi.Fact.BlockWhy)
	}
}

// checkBackgroundCalls implements rule B over the package's non-test files.
func checkBackgroundCalls(pass *Pass) {
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok {
				return true
			}
			switch fn.FullName() {
			case "context.Background", "context.TODO":
				pass.Reportf(call.Pos(),
					"context.%s() in library code severs cancellation; accept and forward a caller context",
					fn.Name())
			}
			return true
		})
	}
}

// receiverExported reports whether obj is a plain function, or a method on
// an exported named type — methods on unexported types are not public API.
func receiverExported(obj *types.Func) bool {
	recv := obj.Type().(*types.Signature).Recv()
	if recv == nil {
		return true
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Exported()
	}
	return false
}

// hasSetCancel reports whether obj's receiver type provides a SetCancel
// method — the Engine-style contract where cancellation arrives as an
// atomic stop flag installed by the context-aware rim.
func hasSetCancel(obj *types.Func) bool {
	recv := obj.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if _, ok := t.(*types.Pointer); !ok {
		t = types.NewPointer(t)
	}
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		if ms.At(i).Obj().Name() == "SetCancel" {
			return true
		}
	}
	return false
}

// takesHTTPRequest reports whether any parameter is *http.Request: HTTP
// handlers receive their context through the request.
func takesHTTPRequest(obj *types.Func) bool {
	params := obj.Type().(*types.Signature).Params()
	for i := 0; i < params.Len(); i++ {
		p, ok := params.At(i).Type().(*types.Pointer)
		if !ok {
			continue
		}
		named, ok := p.Elem().(*types.Named)
		if !ok {
			continue
		}
		o := named.Obj()
		if o.Name() == "Request" && o.Pkg() != nil && o.Pkg().Path() == "net/http" {
			return true
		}
	}
	return false
}
