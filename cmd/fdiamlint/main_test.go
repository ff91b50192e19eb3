package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNegativeFixture runs the driver over the deliberately broken module
// in ci/negative and pins every finding: one per analyzer, and a reasoned
// directive that suppresses nothing.
func TestNegativeFixture(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := lint(filepath.Join("..", "..", "ci", "negative"), []string{"./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	want := []string{
		"internal/core/broken.go:24:2: boundmono: write to solver.bound outside a //fdiam:boundsetter function",
		"internal/core/broken.go:31:9: hotalloc: make in //fdiam:hotpath function allocates per call",
		"internal/core/broken.go:36:2: errdrop: os.Remove discards its error result",
		"internal/core/broken.go:41:22: logkeys: slog key \"vertexCount\" is not snake_case",
		"internal/core/broken.go:47:2: suppress: stale //fdiamlint:ignore errdrop directive",
	}
	got := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(got) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(got), len(want), &stdout)
	}
	for i := range want {
		if !strings.HasPrefix(got[i], filepath.FromSlash(want[i])) {
			t.Errorf("finding %d:\n got %s\nwant %s...", i, got[i], want[i])
		}
	}
}

// TestLoadsTestFiles checks that _test.go files are loaded and
// type-checked against the right package variant. A module whose only
// error sits in a test file must fail to lint, for an in-package test and
// for an external p_test package. An external test that reaches p's
// export_test.go helper, also through a package that imports p, must
// lint clean.
func TestLoadsTestFiles(t *testing.T) {
	const pkg = "package p\n\ntype T struct{ n int }\n\nfunc New() T { return T{n: 1} }\n"
	for name, tc := range map[string]struct {
		files map[string]string
		exit  int
	}{
		"in-package": {map[string]string{
			"p_test.go": "package p\n\nimport \"testing\"\n\nfunc TestF(t *testing.T) {\n\tvar s string = New()\n\t_ = s\n}\n",
		}, 1},
		"external": {map[string]string{
			"p_test.go": "package p_test\n\nimport (\n\t\"testing\"\n\n\t\"example.com/m\"\n)\n\nfunc TestF(t *testing.T) {\n\tvar s string = p.New()\n\t_ = s\n}\n",
		}, 1},
		"export_test": {map[string]string{
			"export_test.go": "package p\n\nfunc Get(t T) int { return t.n }\n",
			"q/q.go":         "package q\n\nimport \"example.com/m\"\n\nfunc Make() p.T { return p.New() }\n",
			"p_test.go":      "package p_test\n\nimport (\n\t\"testing\"\n\n\t\"example.com/m\"\n\t\"example.com/m/q\"\n)\n\nfunc TestGet(t *testing.T) {\n\tif p.Get(q.Make()) != 1 {\n\t\tt.Fatal(\"Get\")\n\t}\n}\n",
		}, 0},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			tc.files["go.mod"] = "module example.com/m\n\ngo 1.24\n"
			tc.files["p.go"] = pkg
			for file, body := range tc.files {
				path := filepath.Join(dir, filepath.FromSlash(file))
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var stdout, stderr bytes.Buffer
			if code := lint(dir, []string{"./..."}, &stdout, &stderr); code != tc.exit {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.exit, &stdout, &stderr)
			}
			if tc.exit == 1 && !strings.Contains(stderr.String(), "p_test.go") {
				t.Errorf("stderr does not name the broken test file:\n%s", &stderr)
			}
		})
	}
}
