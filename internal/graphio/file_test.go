package graphio

import (
	"path/filepath"
	"testing"

	"fdiam/internal/gen"
)

func TestWriteFileReadFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := gen.RandomConnected(60, 40, 9)
	for _, name := range []string{"g.txt", "g.bin", "g.mtx", "g.gr", "g.metis", "g.graph"} {
		path := filepath.Join(dir, name)
		if err := WriteFile(path, g); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		got, err := ReadFile(path)
		if err != nil {
			t.Fatalf("%s: read: %v", name, err)
		}
		sameGraph(t, g, got)
	}
}

func TestWriteFileBadPath(t *testing.T) {
	if err := WriteFile(filepath.Join(t.TempDir(), "no", "such", "dir", "g.txt"), gen.Path(3)); err == nil {
		t.Error("expected error for unwritable path")
	}
}
