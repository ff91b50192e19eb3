package main

import (
	"fmt"
	"runtime"

	"fdiam/internal/baseline"
	"fdiam/internal/graph"
)

// instance is one generated input with its reference answer.
type instance struct {
	name, class string
	g           *graph.Graph
	// ref is the diameter from an exact code of internal/baseline, which
	// shares no search code with the F-Diam solver.
	ref      int32
	infinite bool
	// witnesses memoizes witness-pair checks, so a repeated answer costs
	// one BFS only the first time it is seen.
	witnesses map[[2]uint32]error
}

// oracle is the exact baseline code a workload checks its answers against:
// iFUB on low-diameter inputs, Takes–Kosters bounding where iFUB's fringe
// sweep degenerates (grids and roads).
type oracle func(*graph.Graph, baseline.Options) baseline.Result

// newInstance computes g's reference answer.
// offset is added to the reference and is non-zero only when the smoke test
// checks that a wrong reference fails every answer.
func newInstance(s standIn, g *graph.Graph, ref oracle, offset int32) (*instance, error) {
	r := ref(g, baseline.Options{Workers: runtime.GOMAXPROCS(0)})
	if r.TimedOut {
		return nil, fmt.Errorf("%s: reference timed out", s.name)
	}
	return &instance{name: s.name, class: s.class, g: g, ref: r.Diameter + offset,
		infinite: r.Infinite, witnesses: map[[2]uint32]error{}}, nil
}

// answer is what one operation returned, from the library or the daemon.
type answer struct {
	diameter, upper        int32
	exact                  bool // the answer claims to be exact
	infinite, haveInfinite bool
	witnessA, witnessB     uint32
	cancelled              bool
}

// check reports why a is wrong for this instance, or nil. An exact answer
// must equal the reference and carry a witness pair at that distance; an
// approximate one must bracket the reference.
func (in *instance) check(a answer) error {
	switch {
	case a.cancelled:
		return fmt.Errorf("%s: solve cancelled or timed out", in.name)
	case a.exact && a.upper != a.diameter:
		return fmt.Errorf("%s: exact answer with open corridor [%d,%d]", in.name, a.diameter, a.upper)
	case !a.exact:
		if a.diameter > in.ref || a.upper < in.ref {
			return fmt.Errorf("%s: corridor [%d,%d] misses reference %d", in.name, a.diameter, a.upper, in.ref)
		}
		return nil
	case a.diameter != in.ref:
		return fmt.Errorf("%s: diameter %d, reference %d", in.name, a.diameter, in.ref)
	case a.haveInfinite && a.infinite != in.infinite:
		return fmt.Errorf("%s: infinite=%v, reference %v", in.name, a.infinite, in.infinite)
	}
	key := [2]uint32{a.witnessA, a.witnessB}
	err, seen := in.witnesses[key]
	if !seen {
		err = in.checkWitness(a.witnessA, a.witnessB)
		in.witnesses[key] = err
	}
	return err
}

// checkWitness runs one plain BFS from a: its eccentricity must be the
// reference diameter and b must sit at that distance.
func (in *instance) checkWitness(a, b uint32) error {
	n := uint32(in.g.NumVertices())
	if a >= n || b >= n {
		return fmt.Errorf("%s: witness pair (%d,%d) out of range", in.name, a, b)
	}
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[a] = 0
	queue := []graph.Vertex{a}
	ecc := int32(0)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		ecc = dist[v]
		for _, w := range in.g.Neighbors(v) {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	if ecc != in.ref || dist[b] != in.ref {
		return fmt.Errorf("%s: witness ecc(%d)=%d, d(%d,%d)=%d, reference %d",
			in.name, a, ecc, a, b, dist[b], in.ref)
	}
	return nil
}
