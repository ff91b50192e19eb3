package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"fdiam/internal/graphio"
	"os"
)

func TestGenerateEveryKind(t *testing.T) {
	dir := t.TempDir()
	kinds := []struct {
		args []string
	}{
		{[]string{"-kind", "grid", "-w", "8", "-h", "8"}},
		{[]string{"-kind", "trigrid", "-w", "6", "-h", "6"}},
		{[]string{"-kind", "path", "-n", "30"}},
		{[]string{"-kind", "cycle", "-n", "30"}},
		{[]string{"-kind", "star", "-n", "30"}},
		{[]string{"-kind", "rmat", "-scale", "7", "-edgefactor", "4"}},
		{[]string{"-kind", "kron", "-scale", "7", "-edgefactor", "4"}},
		{[]string{"-kind", "ba", "-n", "100", "-k", "3"}},
		{[]string{"-kind", "copy", "-n", "100", "-k", "3", "-p", "0.5"}},
		{[]string{"-kind", "er", "-n", "100", "-deg", "4"}},
		{[]string{"-kind", "ws", "-n", "100", "-k", "2", "-p", "0.1"}},
		{[]string{"-kind", "rgg", "-n", "200", "-deg", "6"}},
		{[]string{"-kind", "road", "-w", "10", "-h", "10", "-extra", "0.3"}},
		{[]string{"-kind", "tree", "-n", "50"}},
		{[]string{"-kind", "conn", "-n", "50", "-extra", "0.5"}},
		{[]string{"-kind", "catalog", "-name", "rmat16.sym", "-quick"}},
	}
	for i, k := range kinds {
		out := filepath.Join(dir, k.args[1]+".txt")
		var buf bytes.Buffer
		if err := run(append(k.args, "-o", out), &buf); err != nil {
			t.Fatalf("case %d (%v): %v", i, k.args, err)
		}
		if !strings.Contains(buf.String(), "generated:") {
			t.Errorf("case %d: no summary printed", i)
		}
		data, err := os.ReadFile(out)
		if err != nil || len(data) == 0 {
			t.Errorf("case %d: output file empty (%v)", i, err)
		}
	}
}

func TestGenerateFormats(t *testing.T) {
	dir := t.TempDir()
	for _, ext := range []string{".txt", ".bin", ".mtx", ".gr", ".metis"} {
		out := filepath.Join(dir, "g"+ext)
		var buf bytes.Buffer
		if err := run([]string{"-kind", "grid", "-w", "5", "-h", "5", "-o", out}, &buf); err != nil {
			t.Fatalf("%s: %v", ext, err)
		}
		g, err := graphio.ReadFile(out)
		if err != nil {
			t.Fatalf("%s: re-read: %v", ext, err)
		}
		if g.NumVertices() != 25 || g.NumEdges() != 40 {
			t.Errorf("%s: round trip lost structure: %v", ext, g)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-kind", "grid"}, &buf); err == nil {
		t.Error("missing -o accepted")
	}
	if err := run([]string{"-o", "x.txt"}, &buf); err == nil {
		t.Error("missing -kind accepted")
	}
	if err := run([]string{"-kind", "nope", "-o", "x.txt"}, &buf); err == nil {
		t.Error("unknown kind accepted")
	}
	if err := run([]string{"-kind", "catalog", "-name", "nope", "-o", "x.txt"}, &buf); err == nil {
		t.Error("unknown catalog workload accepted")
	}
}
