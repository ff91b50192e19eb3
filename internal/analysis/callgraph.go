package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// CallEdge is one statically resolvable call site inside a function.
// Function values and interface-method calls produce no edge: the builder
// is deliberately bounded to what the type-checked AST names directly
// (DESIGN.md §13 documents the soundness limits that follow).
type CallEdge struct {
	Pos    token.Pos
	Callee string // callee's types.Func FullName
	// Spawned marks a call issued under a `go` statement: the spawned
	// goroutine's blocking does not block the caller, so Blocks does not
	// propagate across this edge (Allocates still does — the allocation
	// happens either way).
	Spawned bool
}

// FuncInfo is one declared function's node in the package call graph.
type FuncInfo struct {
	Obj   *types.Func
	Decl  *ast.FuncDecl
	Fact  FuncFact
	Calls []CallEdge
}

// Summaries is the package-level fact substrate: every declared function's
// summary plus the imported facts of the package's dependencies.
type Summaries struct {
	Pkg   *types.Package
	Funcs map[string]*FuncInfo
	Deps  Facts
}

// FactOf resolves a function summary by FullName: this package's own
// functions first, then imported dep facts, then the stdlib tables.
func (s *Summaries) FactOf(fullName string) (FuncFact, bool) {
	if fi, ok := s.Funcs[fullName]; ok {
		return fi.Fact, true
	}
	return LookupFact(s.Deps, fullName)
}

// Export returns the package's own function summaries, for the driver to
// fold into the fact set its dependents see.
func (s *Summaries) Export() Facts {
	out := make(Facts, len(s.Funcs))
	for name, fi := range s.Funcs {
		out[name] = fi.Fact
	}
	return out
}

// BuildSummaries computes the fact substrate for one type-checked package:
// a base pass collects each declared function's syntactic facts and call
// edges, then a worklist fixpoint propagates Blocks/Allocates over the
// call graph (monotone boolean ORs over a finite graph, so it terminates
// in at most |funcs|+1 sweeps, cycles included). Test files are excluded:
// the facts describe production code only.
func BuildSummaries(fset *token.FileSet, files []*ast.File, pkg *types.Package,
	info *types.Info, deps Facts) *Summaries {
	s := &Summaries{Pkg: pkg, Funcs: make(map[string]*FuncInfo), Deps: deps}
	if s.Deps == nil {
		s.Deps = Facts{}
	}
	bounds := solverBoundFields(pkg)
	for _, f := range files {
		if strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj, ok := info.Defs[fn.Name].(*types.Func)
			if !ok {
				continue
			}
			fi := &FuncInfo{Obj: obj, Decl: fn}
			fi.Fact.TakesCtx = firstParamIsContext(obj)
			fi.Fact.Hotpath = hotpathMarked(fn.Doc)
			collectBaseFacts(fn.Body, info, bounds, fi)
			s.Funcs[obj.FullName()] = fi
		}
	}

	// Fixpoint over sorted names: boolean facts are order-independent,
	// sorting just pins the first-witness strings for stable diagnostics.
	names := make([]string, 0, len(s.Funcs))
	for name := range s.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	for changed := true; changed; {
		changed = false
		for _, name := range names {
			fi := s.Funcs[name]
			for _, e := range fi.Calls {
				cf, ok := s.FactOf(e.Callee)
				if !ok {
					continue
				}
				if cf.Blocks && !e.Spawned && !fi.Fact.Blocks {
					fi.Fact.Blocks = true
					fi.Fact.BlockWhy = "calls " + e.Callee
					changed = true
				}
				// A hotpath-marked callee is an audited kernel: hotalloc
				// and deepalloc police its body directly, so its
				// (suppressed) allocations do not taint callers.
				if cf.Allocates && !cf.Hotpath && !fi.Fact.Allocates {
					fi.Fact.Allocates = true
					fi.Fact.AllocWhy = "calls " + e.Callee
					changed = true
				}
				if cf.WritesBounds && !fi.Fact.WritesBounds {
					fi.Fact.WritesBounds = true
					changed = true
				}
			}
		}
	}
	return s
}

// collectBaseFacts walks one function body, recording syntactic
// blocking/allocation witnesses, bound-field writes, and call edges.
// Closure bodies are attributed to the enclosing declaration (matching
// hotalloc), except that everything under a `go` statement is marked
// spawned and excluded from the caller's Blocks.
func collectBaseFacts(body *ast.BlockStmt, info *types.Info,
	bounds map[*types.Var]bool, fi *FuncInfo) {
	WithStack(body, func(n ast.Node, stack []ast.Node) bool {
		spawned := underGoStmt(stack)
		switch n := n.(type) {
		case *ast.SendStmt:
			fi.noteBlocks(spawned, "chan send")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				fi.noteBlocks(spawned, "chan receive")
			}
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				fi.noteBlocks(spawned, "select without default")
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					fi.noteBlocks(spawned, "range over channel")
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if rootsBoundField(lhs, info, bounds) {
					fi.Fact.WritesBounds = true
				}
			}
		case *ast.IncDecStmt:
			if rootsBoundField(n.X, info, bounds) {
				fi.Fact.WritesBounds = true
			}
		case *ast.CallExpr:
			collectCallFacts(n, info, bounds, fi, stack, spawned)
		}
		return true
	})
}

func (fi *FuncInfo) noteBlocks(spawned bool, why string) {
	if !spawned && !fi.Fact.Blocks {
		fi.Fact.Blocks = true
		fi.Fact.BlockWhy = why
	}
}

func (fi *FuncInfo) noteAllocates(why string) {
	if !fi.Fact.Allocates {
		fi.Fact.Allocates = true
		fi.Fact.AllocWhy = why
	}
}

// collectCallFacts classifies one call expression: builtin allocation
// witnesses (mirroring hotalloc's detectors), copy-into-bound-field
// writes, and resolvable call edges.
func collectCallFacts(call *ast.CallExpr, info *types.Info,
	bounds map[*types.Var]bool, fi *FuncInfo, stack []ast.Node, spawned bool) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Builtin:
			switch obj.Name() {
			case "make":
				fi.noteAllocates("make")
			case "append":
				if !reuseAppend(call, stack) {
					fi.noteAllocates("append outside the reuse idiom")
				}
			case "copy":
				if len(call.Args) > 0 && rootsBoundField(call.Args[0], info, bounds) {
					fi.Fact.WritesBounds = true
				}
			}
		case *types.Func:
			fi.Calls = append(fi.Calls, CallEdge{Pos: call.Pos(), Callee: obj.FullName(), Spawned: spawned})
		}
	case *ast.SelectorExpr:
		if obj, ok := info.Uses[fun.Sel].(*types.Func); ok {
			fi.Calls = append(fi.Calls, CallEdge{Pos: call.Pos(), Callee: obj.FullName(), Spawned: spawned})
		}
	}
}

// underGoStmt reports whether the innermost enclosing statement chain
// passes through a `go` statement: work there runs on a spawned goroutine,
// not the caller's.
func underGoStmt(stack []ast.Node) bool {
	for _, n := range stack {
		if _, ok := n.(*ast.GoStmt); ok {
			return true
		}
	}
	return false
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// firstParamIsContext reports whether fn's first parameter is a
// context.Context.
func firstParamIsContext(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return false
	}
	return isContextType(sig.Params().At(0).Type())
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
