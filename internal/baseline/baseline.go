// Package baseline implements the prior diameter algorithms the paper
// compares against (§5): iFUB (Crescenzi et al. 2013, serial and parallel)
// and a Graph-Diameter-style eccentricity-bounding algorithm (Akiba et al.
// 2015, adapted to undirected graphs where it coincides with the classic
// Takes–Kosters BoundingDiameters scheme). It also provides the stronger
// adaptive Takes–Kosters selection and the naive APSP-by-BFS reference.
//
// All baselines report the largest eccentricity over all connected
// components, flag disconnected inputs, count their BFS traversals
// (Table 3), and honor a timeout (the paper's 2.5 h cap, scaled down).
package baseline

import (
	"time"

	"fdiam/internal/graph"
)

// Options configures a baseline run.
type Options struct {
	// Workers sets the intra-BFS parallelism; 0 = GOMAXPROCS, 1 = serial
	// (the paper evaluates iFUB in both modes and Graph-Diameter
	// serially).
	Workers int
	// Timeout aborts the run; the result is then a lower bound with
	// TimedOut set, mirroring the paper's "T/O" table entries.
	Timeout time.Duration
}

// Result is the outcome of a baseline diameter computation.
type Result struct {
	// Diameter is the largest eccentricity over all components.
	Diameter int32
	// Infinite reports a disconnected input (true diameter ∞).
	Infinite bool
	// BFSTraversals counts full BFS calls (Table 3).
	BFSTraversals int64
	// TimedOut reports that Options.Timeout expired.
	TimedOut bool
}

// deadlineOf converts a timeout into an absolute deadline (zero = none).
func deadlineOf(opt Options) time.Time {
	if opt.Timeout <= 0 {
		return time.Time{}
	}
	return time.Now().Add(opt.Timeout)
}

func expired(deadline time.Time) bool {
	return !deadline.IsZero() && time.Now().After(deadline)
}

// isInfinite decides connectivity from a components labeling.
func isInfinite(g *graph.Graph) bool {
	if g.NumVertices() <= 1 {
		return false
	}
	return graph.ConnectedComponents(g).Count > 1
}
