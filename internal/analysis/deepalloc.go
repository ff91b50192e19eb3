package analysis

import "sort"

// DeepAlloc is the transitive extension of hotalloc. hotalloc inspects a
// //fdiam:hotpath body syntactically, so a kernel that outsources its
// allocation to a helper one call away passes unnoticed — exactly the
// regression shape that crept in twice during the PR 1 pool work. Using
// the Allocates facts from the package summaries (which the driver carries
// across package boundaries), DeepAlloc flags every call from a
// hotpath kernel to a function whose summary allocates, unless the callee
// is itself //fdiam:hotpath-annotated — an audited kernel whose body
// hotalloc and DeepAlloc police directly.
//
// Soundness limits (DESIGN.md §13): calls through function values and
// interface methods produce no call-graph edge, so an allocation reached
// only that way is not flagged.
var DeepAlloc = &Analyzer{
	Name: "deepalloc",
	Doc: "flag calls from //fdiam:hotpath kernels to functions whose summary " +
		"allocates (transitive hotalloc, cross-package via facts)",
	Run: runDeepAlloc,
}

func runDeepAlloc(pass *Pass) error {
	for _, fi := range pass.Summaries.SortedFuncs() {
		if !fi.Fact.Hotpath || pass.InTestFile(fi.Decl.Pos()) {
			continue
		}
		for _, edge := range fi.Calls {
			cf, ok := pass.Summaries.FactOf(edge.Callee)
			if !ok || !cf.Allocates || cf.Hotpath {
				continue
			}
			pass.Reportf(edge.Pos,
				"%s allocates (%s) and is called from //fdiam:hotpath %s; make it allocation-free or annotate it //fdiam:hotpath",
				edge.Callee, cf.AllocWhy, fi.Obj.Name())
		}
	}
	return nil
}

// SortedFuncs returns the package's function summaries in FullName order,
// for deterministic diagnostics.
func (s *Summaries) SortedFuncs() []*FuncInfo {
	names := make([]string, 0, len(s.Funcs))
	for name := range s.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*FuncInfo, len(names))
	for i, name := range names {
		out[i] = s.Funcs[name]
	}
	return out
}
