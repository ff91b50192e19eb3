package analysis

import "strings"

// FuncFact is one function's interprocedural summary: everything the
// cross-package analyzers (ctxflow, deepalloc) need to know about a callee
// without seeing its body. Facts are computed per package by BuildSummaries
// and handed, in memory, to every package analyzed after it, so a unit
// sees the summaries of every dependency it imports.
type FuncFact struct {
	// Blocks records that calling the function may park the calling
	// goroutine: a channel operation, a select without default, or a call
	// to something that blocks (transitively, via the fixpoint in
	// BuildSummaries). BlockWhy is the first witness found.
	Blocks   bool
	BlockWhy string
	// Allocates records that the function performs work hotalloc would
	// reject in a //fdiam:hotpath body — make, growing append, time.Now,
	// fmt — directly or via a callee. AllocWhy is the first witness.
	Allocates bool
	AllocWhy  string
	// TakesCtx records that the first parameter is a context.Context.
	TakesCtx bool
	// Hotpath records a //fdiam:hotpath annotation: the function is an
	// audited kernel, so deepalloc stops propagating Allocates through it
	// (hotalloc checks its body directly).
	Hotpath bool
	// WritesBounds records that the function writes the solver's
	// monotone bound state (ecc/stage/bound/ubCap) — only ever true for
	// functions in internal/core, where boundmono polices the writes.
	WritesBounds bool
}

// Facts maps a function's types.Func FullName — e.g.
// "(*sync.WaitGroup).Wait" or "fdiam/internal/par.For" — to its summary.
type Facts map[string]FuncFact

// Merge folds other into f, preferring existing entries (a package and its
// test variant summarize the same functions; the first summary stays).
func (f Facts) Merge(other Facts) {
	for k, v := range other {
		if _, ok := f[k]; !ok {
			f[k] = v
		}
	}
}

// stdlibBlocking is the curated table of standard-library calls the
// analyzers treat as blocking. Stdlib units carry no computed facts (their
// bodies are never analyzed), so this table is the ground truth for them.
// Mutex/RWMutex locks and plain file I/O are deliberately absent: treating
// every micro-critical-section or disk read as "blocking" would make the
// ctxflow rules fire on essentially every function in the tree.
var stdlibBlocking = map[string]string{
	"(*sync.WaitGroup).Wait":               "sync.WaitGroup.Wait",
	"(*sync.Cond).Wait":                    "sync.Cond.Wait",
	"time.Sleep":                           "time.Sleep",
	"net.Dial":                             "net.Dial",
	"net.DialTimeout":                      "net.DialTimeout",
	"(*net.Dialer).Dial":                   "net.Dialer.Dial",
	"(*net.Dialer).DialContext":            "net.Dialer.DialContext",
	"(*os/exec.Cmd).Run":                   "exec.Cmd.Run",
	"(*os/exec.Cmd).Wait":                  "exec.Cmd.Wait",
	"(*os/exec.Cmd).Output":                "exec.Cmd.Output",
	"(*os/exec.Cmd).CombinedOutput":        "exec.Cmd.CombinedOutput",
	"(*net/http.Client).Do":                "http.Client.Do",
	"(*net/http.Client).Get":               "http.Client.Get",
	"(*net/http.Client).Head":              "http.Client.Head",
	"(*net/http.Client).Post":              "http.Client.Post",
	"(*net/http.Client).PostForm":          "http.Client.PostForm",
	"net/http.Get":                         "http.Get",
	"net/http.Head":                        "http.Head",
	"net/http.Post":                        "http.Post",
	"net/http.PostForm":                    "http.PostForm",
	"net/http.ListenAndServe":              "http.ListenAndServe",
	"net/http.Serve":                       "http.Serve",
	"(*net/http.Server).ListenAndServe":    "http.Server.ListenAndServe",
	"(*net/http.Server).ListenAndServeTLS": "http.Server.ListenAndServeTLS",
	"(*net/http.Server).Serve":             "http.Server.Serve",
	"(*net/http.Server).Shutdown":          "http.Server.Shutdown",
}

// stdlibAllocates mirrors hotalloc's syntactic detectors for the stdlib
// calls it names: time.Now is a vDSO/syscall clock read and every fmt entry
// point allocates for its interface arguments.
func stdlibAllocates(fullName string) (string, bool) {
	if fullName == "time.Now" {
		return "time.Now", true
	}
	if strings.HasPrefix(fullName, "fmt.") {
		return fullName, true
	}
	return "", false
}

// LookupFact resolves a callee's summary: the package's own summaries and
// imported dep facts first, then the stdlib tables.
func LookupFact(deps Facts, fullName string) (FuncFact, bool) {
	if f, ok := deps[fullName]; ok {
		return f, true
	}
	if why, ok := stdlibBlocking[fullName]; ok {
		return FuncFact{Blocks: true, BlockWhy: why}, true
	}
	if why, ok := stdlibAllocates(fullName); ok {
		return FuncFact{Allocates: true, AllocWhy: why}, true
	}
	return FuncFact{}, false
}
