package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunSingleExperimentOnSmallWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real measurements")
	}
	var buf bytes.Buffer
	err := run([]string{
		"-run", "table4", "-workloads", "rmat16.sym",
		"-runs", "1", "-timeout", "10s",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 4", "rmat16.sym", "Winnow"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunMultipleSelections(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real measurements")
	}
	var buf bytes.Buffer
	err := run([]string{
		"-run", "table3,fig8", "-workloads", "rmat16.sym",
		"-runs", "1", "-timeout", "10s",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table 3") || !strings.Contains(buf.String(), "Figure 8") {
		t.Errorf("selection broken:\n%s", buf.String())
	}
	if strings.Contains(buf.String(), "Table 4") {
		t.Error("unselected experiment ran")
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-run", "bogus"}, &buf); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := run([]string{"-scale", "bogus"}, &buf); err == nil {
		t.Error("unknown scale accepted")
	}
	if err := run([]string{"-badflag"}, &buf); err == nil {
		t.Error("bad flag accepted")
	}
	// An unknown workload fails the run before anything is measured, and
	// the error names both the culprit and the valid choices.
	buf.Reset()
	err := run([]string{"-workloads", "rmat16.sym,nosuch", "-run", "table1"}, &buf)
	if err == nil {
		t.Fatal("unknown workload accepted")
	}
	for _, want := range []string{`"nosuch"`, "rmat16.sym", "USA-road-d.NY"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
	if buf.Len() != 0 {
		t.Errorf("output written before the workload check:\n%s", buf.String())
	}
	for _, mode := range []string{"bfs", "ext-msbfs", "ext-obs"} {
		if err := run([]string{"-run", mode, "-workloads", "rmat16.sym"}, &buf); err == nil {
			t.Errorf("retired experiment %q accepted", mode)
		}
	}
}
