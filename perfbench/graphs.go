package main

import (
	"math"

	"fdiam/internal/gen"
	"fdiam/internal/graph"
)

// standIn is one catalog input: the generator call of internal/bench's
// catalog with the generator seed replaced by one derived from the
// benchmark seed. Inputs without a seed (grids) are the same on every seed.
type standIn struct {
	name, class string
	build       func(seed uint64) *graph.Graph
}

// sizes shrinks every stand-in for the smoke test; the zero value is the
// benchmark's real size.
type sizes struct{ tiny bool }

// lowDiameter returns the social, web, citation and Kronecker/RMAT
// stand-ins at the catalog's Quick scale (vertex counts divided by 16,
// RMAT/Kronecker scales reduced by 4).
func (z sizes) lowDiameter() []standIn {
	n := func(x int) int {
		x /= 16
		if z.tiny {
			x /= 64
		}
		return max(x, 256)
	}
	s := func(x int) int {
		if z.tiny {
			return x - 10
		}
		return x - 4
	}
	cw := func(name, class string, nv, k int, frac float64, depth int) standIn {
		return standIn{name, class, func(seed uint64) *graph.Graph {
			return gen.CoreWhiskers(n(nv), k, frac, depth, seed)
		}}
	}
	return []standIn{
		cw("as-skitter", "Internet topology", 1600000, 8, 0.12, 12),
		cw("soc-LiveJournal1", "journal community", 3000000, 10, 0.10, 7),
		cw("coPapersDBLP", "publication citations", 540000, 31, 0.10, 8),
		cw("in-2004", "web links", 1400000, 11, 0.15, 18),
		cw("uk-2002", "web links", 2000000, 15, 0.12, 19),
		cw("cit-Patents", "patent citations", 2000000, 5, 0.12, 10),
		{"kron_g500-logn21", "Kronecker", func(seed uint64) *graph.Graph {
			return gen.Kronecker(s(18), 16, seed)
		}},
		{"rmat22.sym", "RMAT", func(seed uint64) *graph.Graph {
			return gen.RMAT(s(19), 8, gen.DefaultRMAT, seed)
		}},
	}
}

// highDiameter returns the grid, triangulation and road stand-ins at the
// catalog's Full scale.
func (z sizes) highDiameter() []standIn {
	d := func(x int) int {
		if z.tiny {
			x /= 16
		}
		return max(x, 16)
	}
	return []standIn{
		{"2d-2e20.sym", "grid", func(uint64) *graph.Graph { return gen.Grid2D(d(512), d(512)) }},
		{"delaunay_n24", "triangulation", func(uint64) *graph.Graph { return gen.TriangularGrid(d(512), d(512)) }},
		{"europe_osm", "road map", func(seed uint64) *graph.Graph {
			return gen.Subdivide(gen.RoadNetwork(d(280), d(280), 0.30, seed), 4)
		}},
		{"USA-road-d.NY", "road map", func(seed uint64) *graph.Graph {
			return gen.RoadNetwork(d(512), d(512), 0.40, seed)
		}},
		{"USA-road-d.USA", "road map", func(seed uint64) *graph.Graph {
			return gen.Subdivide(gen.RoadNetwork(d(512), d(512), 0.50, seed), 2)
		}},
	}
}

// poolSizesPerClass and poolClasses shape the serve-mixed graph pool: every
// class at every size, so the pool holds poolClasses × poolSizesPerClass
// distinct graphs.
const (
	poolSizesPerClass = 6
	poolClasses       = 7
	poolSlots         = poolClasses * poolSizesPerClass
)

// servePool returns the serve-mixed pool: small and medium graphs of every
// topology class, slot c·poolSizesPerClass+i holding class c at size step i
// (about 1000·1.7^i vertices). The slot layout does not depend on the seed;
// the seed only changes each graph's random structure, so the pool's total
// cost stays put from seed to seed.
func (z sizes) servePool() []standIn {
	base := 1000.0
	if z.tiny {
		base = 64
	}
	out := make([]standIn, 0, poolSlots)
	for c := range poolClasses {
		for i := range poolSizesPerClass {
			nv := int(base * math.Pow(1.7, float64(i)))
			side := max(int(math.Sqrt(float64(nv))), 4)
			lg := max(int(math.Round(math.Log2(float64(nv)))), 5)
			var s standIn
			switch c {
			case 0:
				s = standIn{"grid", "grid", func(seed uint64) *graph.Graph {
					return gen.Grid2D(side, side+int(seed%7))
				}}
			case 1:
				s = standIn{"trigrid", "triangulation", func(seed uint64) *graph.Graph {
					return gen.TriangularGrid(side, side+int(seed%7))
				}}
			case 2:
				s = standIn{"road", "road map", func(seed uint64) *graph.Graph {
					return gen.RoadNetwork(side, side, 0.40, seed)
				}}
			case 3:
				s = standIn{"road-subdivided", "road map", func(seed uint64) *graph.Graph {
					return gen.Subdivide(gen.RoadNetwork(side/2+2, side/2+2, 0.50, seed), 3)
				}}
			case 4:
				s = standIn{"core-whiskers", "social/web", func(seed uint64) *graph.Graph {
					return gen.CoreWhiskers(nv, 6, 0.12, 10, seed)
				}}
			case 5:
				s = standIn{"kron", "Kronecker", func(seed uint64) *graph.Graph {
					return gen.Kronecker(lg, 8, seed)
				}}
			default:
				s = standIn{"rmat", "RMAT", func(seed uint64) *graph.Graph {
					return gen.RMAT(lg, 6, gen.DefaultRMAT, seed)
				}}
			}
			out = append(out, s)
		}
	}
	return out
}

// derive mixes the benchmark seed with a stream of labels into one
// generator seed (SplitMix64 finalizer per step).
func derive(seed uint64, labels ...uint64) uint64 {
	h := seed
	for _, l := range labels {
		h ^= l + 0x9E3779B97F4A7C15 + (h << 6) + (h >> 2)
		h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
		h = (h ^ (h >> 27)) * 0x94D049BB133111EB
		h ^= h >> 31
	}
	return h
}

// csrMiB is the resident size of g's CSR arrays: 8-byte offsets and 4-byte
// targets.
func csrMiB(g *graph.Graph) float64 {
	return float64(8*(int64(g.NumVertices())+1)+4*g.NumArcs()) / (1 << 20)
}
