package fdiam

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"fdiam/internal/gen"
	"fdiam/internal/graphio"
)

// TestFacadeSurface pins the exported names of package fdiam. The facade
// serves the examples and external callers; a new re-export must be added
// to this list deliberately.
func TestFacadeSurface(t *testing.T) {
	want := []string{
		// functions
		"ComputeGraphStats", "Diameter", "DiameterBounding", "DiameterCtx",
		"DiameterIFUB", "DiameterNaive", "DiameterWithOptions", "LoadFile",
		"NewBuilder", "NewRMAT", "NewRoadNetwork", "NewSocialNetwork",
		// types
		"BaselineOptions", "BaselineResult", "Builder", "CheckpointOptions",
		"Edge", "Graph", "GraphStats", "Options", "Result", "Stats",
		"Vertex",
	}
	slices.Sort(want)
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range pkgs["fdiam"].Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					got = append(got, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if spec.Name.IsExported() {
							got = append(got, spec.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							if n.IsExported() {
								got = append(got, n.Name)
							}
						}
					}
				}
			}
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("exported names:\n got %v\nwant %v", got, want)
	}
}

func TestQuickstartShape(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	res := Diameter(b.Build())
	if res.Diameter != 3 || res.Infinite {
		t.Fatalf("got %+v, want diameter 3, connected", res)
	}
}

func TestPublicDiameterAgreesWithBaselines(t *testing.T) {
	g := gen.RandomConnected(800, 600, 3)
	want := Diameter(g).Diameter
	if got := DiameterWithOptions(g, Options{Workers: 1}).Diameter; got != want {
		t.Errorf("serial: %d, want %d", got, want)
	}
	if got := DiameterCtx(context.Background(), g, Options{}).Diameter; got != want {
		t.Errorf("ctx: %d, want %d", got, want)
	}
	if got := DiameterIFUB(g, BaselineOptions{}).Diameter; got != want {
		t.Errorf("ifub: %d, want %d", got, want)
	}
	if got := DiameterBounding(g, BaselineOptions{}).Diameter; got != want {
		t.Errorf("bounding: %d, want %d", got, want)
	}
	if got := DiameterNaive(g, BaselineOptions{}).Diameter; got != want {
		t.Errorf("naive: %d, want %d", got, want)
	}
}

func TestComponentsHelpers(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	s := ComputeGraphStats(b.Build())
	if s.Degree0 != 1 || s.Components != 3 { // {0,1}, {2,3,4}, {5}
		t.Fatalf("stats %+v", s)
	}
}

func TestGeneratorsExposeExpectedShapes(t *testing.T) {
	if d := Diameter(gen.Grid2D(6, 6)).Diameter; d != 10 {
		t.Errorf("grid diameter %d, want 10", d)
	}
	if d := Diameter(gen.Path(20)).Diameter; d != 19 {
		t.Errorf("path diameter %d, want 19", d)
	}
	if d := Diameter(gen.Cycle(12)).Diameter; d != 6 {
		t.Errorf("cycle diameter %d, want 6", d)
	}
	if g := NewRMAT(8, 6, 1); g.NumVertices() != 256 {
		t.Errorf("rmat n = %d", g.NumVertices())
	}
	if g := NewSocialNetwork(500, 3, 0.2, 4, 1); g.NumVertices() != 500 {
		t.Errorf("social n = %d", g.NumVertices())
	}
	if s := ComputeGraphStats(NewRoadNetwork(10, 10, 0.2, 1)); s.Components != 1 {
		t.Errorf("road network has %d components", s.Components)
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("expected error for missing file")
	}
}

// LoadFile must read back every format graphio.WriteFile picks by
// extension, with the same structure.
func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := gen.RandomConnected(60, 40, 9)
	for _, name := range []string{"g.txt", "g.bin", "g.mtx", "g.gr"} {
		path := filepath.Join(dir, name)
		if err := graphio.WriteFile(path, g); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		got, err := LoadFile(path)
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		if got.NumEdges() != g.NumEdges() {
			t.Errorf("%s: edges %d, want %d", name, got.NumEdges(), g.NumEdges())
		}
		if Diameter(got).Diameter != Diameter(g).Diameter {
			t.Errorf("%s: diameter changed across round trip", name)
		}
	}
}

func TestMETISSaveLoad(t *testing.T) {
	dir := t.TempDir()
	g := gen.RandomConnected(50, 30, 4)
	path := filepath.Join(dir, "g.metis")
	if err := graphio.WriteFile(path, g); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEdges() != g.NumEdges() || Diameter(got).Diameter != Diameter(g).Diameter {
		t.Fatal("METIS round trip lost structure")
	}
}

func TestResultStatsExposed(t *testing.T) {
	g := gen.BarabasiAlbert(3000, 4, 5)
	res := Diameter(g)
	if res.Stats.BFSTraversals() <= 0 {
		t.Error("stats not populated")
	}
	if res.Stats.PctWinnow() <= 0 {
		t.Error("winnow percentage missing")
	}
}
