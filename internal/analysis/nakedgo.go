package analysis

import (
	"go/ast"
	"strings"
)

// NakedGo enforces the repo's goroutine-ownership rule: all compute
// parallelism goes through par.ForWorker, which spawns each call's workers
// and joins them before returning (DESIGN.md §6). A `go` statement
// anywhere else is either compute work that bypasses it — losing the
// dynamic chunking, the join and the par metrics — or an unmanaged
// lifecycle goroutine that needs an explicit //fdiamlint:ignore
// justification.
var NakedGo = &Analyzer{
	Name: "nakedgo",
	Doc: "flag go statements outside internal/par; compute parallelism " +
		"must use par.ForWorker, lifecycle goroutines must carry an " +
		"//fdiamlint:ignore nakedgo justification",
	Run: runNakedGo,
}

func runNakedGo(pass *Pass) error {
	if path := pass.Pkg.Path(); path == "fdiam/internal/par" || strings.HasSuffix(path, "/internal/par") {
		return nil // the parallel-for implementation is the one legitimate spawner
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(),
					"naked go statement outside internal/par; route compute work through par.ForWorker or justify with //fdiamlint:ignore nakedgo <reason>")
			}
			return true
		})
	}
	return nil
}
