package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fdiam/internal/gen"
	"fdiam/internal/graphio"
)

func writeTempGraph(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := graphio.WriteEdgeList(f, gen.Grid2D(6, 6)); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunComputesDiameter(t *testing.T) {
	path := writeTempGraph(t)
	for _, algo := range []string{"fdiam", "ifub", "bounding", "naive"} {
		var buf bytes.Buffer
		if _, err := run([]string{"-algo", algo, path}, &buf); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !strings.Contains(buf.String(), "diameter: 10") {
			t.Errorf("%s: output %q does not report diameter 10", algo, buf.String())
		}
	}
}

func TestRunStatsAndVerbose(t *testing.T) {
	path := writeTempGraph(t)
	var buf bytes.Buffer
	if _, err := run([]string{"-stats", "-v", path}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"graph:", "diameter: 10", "stats:", "winnow"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunAblationFlags(t *testing.T) {
	path := writeTempGraph(t)
	var buf bytes.Buffer
	_, err := run([]string{"-no-winnow", "-no-eliminate", "-no-chain", "-no-u", path}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "diameter: 10") {
		t.Errorf("ablated run wrong: %q", buf.String())
	}
}

func TestRunDirectionAndProfileFlags(t *testing.T) {
	path := writeTempGraph(t)
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var buf bytes.Buffer
	_, err := run([]string{
		"-no-diropt", "-cpuprofile", cpu, "-memprofile", mem, path,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "diameter: 10") {
		t.Errorf("top-down-only run wrong: %q", buf.String())
	}
	for _, p := range []string{cpu, mem} {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Errorf("profile %s not written: %v", p, err)
			continue
		}
		// pprof profiles are gzipped protobuf; the gzip magic proves a
		// real profile was serialized, not just an empty file created.
		if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
			t.Errorf("profile %s is not a gzipped pprof profile (%d bytes)", p, len(data))
		}
	}
}

func TestRunJSONOutput(t *testing.T) {
	path := writeTempGraph(t)
	var buf bytes.Buffer
	if _, err := run([]string{"-json", path}, &buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Algorithm string `json:"algorithm"`
		Graph     string `json:"graph"`
		Diameter  int32  `json:"diameter"`
		Infinite  bool   `json:"infinite"`
		TimedOut  bool   `json:"timed_out"`
		WitnessA  int64  `json:"witness_a"`
		WitnessB  int64  `json:"witness_b"`
		ElapsedNS int64  `json:"elapsed_ns"`
		Stats     *struct {
			Vertices    int   `json:"vertices"`
			EccBFS      int64 `json:"ecc_bfs"`
			WinnowCalls int64 `json:"winnow_calls"`
			Removed     int64 `json:"removed_winnow"`
			TimeTotalNS int64 `json:"time_total_ns"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("-json output is not JSON: %v\n%s", err, buf.String())
	}
	if doc.Algorithm != "fdiam" || doc.Diameter != 10 || doc.Infinite || doc.TimedOut {
		t.Errorf("-json result wrong: %+v", doc)
	}
	if doc.WitnessA < 0 || doc.WitnessB < 0 || doc.ElapsedNS <= 0 {
		t.Errorf("-json witnesses/elapsed wrong: %+v", doc)
	}
	if doc.Stats == nil || doc.Stats.Vertices != 36 || doc.Stats.EccBFS == 0 || doc.Stats.TimeTotalNS <= 0 {
		t.Errorf("-json stats wrong: %+v", doc.Stats)
	}

	// Baselines emit bfs_traversals instead of the stats block.
	buf.Reset()
	if _, err := run([]string{"-json", "-algo", "ifub", path}, &buf); err != nil {
		t.Fatal(err)
	}
	var base struct {
		Diameter      int32            `json:"diameter"`
		WitnessA      int64            `json:"witness_a"`
		Stats         *json.RawMessage `json:"stats"`
		BFSTraversals int64            `json:"bfs_traversals"`
	}
	if err := json.Unmarshal(buf.Bytes(), &base); err != nil {
		t.Fatalf("baseline -json not JSON: %v\n%s", err, buf.String())
	}
	if base.Diameter != 10 || base.WitnessA != -1 || base.Stats != nil || base.BFSTraversals == 0 {
		t.Errorf("baseline -json wrong: %+v (%s)", base, buf.String())
	}
}

func TestRunTraceAndEventsFlags(t *testing.T) {
	path := writeTempGraph(t)
	dir := t.TempDir()
	trace := filepath.Join(dir, "run.trace.json")
	var buf bytes.Buffer
	if _, err := run([]string{"-trace", trace, path}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(data, &evs); err != nil {
		t.Fatalf("-trace output is not a JSON array: %v", err)
	}
	if len(evs) == 0 {
		t.Fatal("-trace output is empty")
	}
	begins, ends := 0, 0
	for _, e := range evs {
		switch e["ph"] {
		case "B":
			begins++
		case "E":
			ends++
		}
	}
	if begins == 0 || begins != ends {
		t.Errorf("trace has %d B and %d E events, want equal and > 0", begins, ends)
	}
	// The Chrome trace is the one event serialization: -events is not a
	// flag.
	if code, err := run([]string{"-events", filepath.Join(dir, "run.ndjson"), path}, &buf); err == nil || code != exitError {
		t.Errorf("-events accepted (code %d, err %v), want a usage error", code, err)
	}

	// The observability, checkpoint, anytime and ablation flags are wired
	// to the F-Diam solver only; a baseline must reject each of them
	// rather than ignore it.
	for _, flags := range [][]string{
		{"-trace", trace}, {"-progress", "1s"},
		{"-checkpoint-dir", filepath.Join(dir, "ck")}, {"-checkpoint-interval", "1s"},
		{"-epsilon", "1"}, {"-approx", "2"},
		{"-no-winnow"}, {"-no-eliminate"}, {"-no-chain"}, {"-no-u"}, {"-no-diropt"},
	} {
		args := append(append([]string{"-algo", "ifub"}, flags...), path)
		if code, err := run(args, &buf); err == nil || code != exitError {
			t.Errorf("%v with a baseline algorithm accepted (code %d, err %v)", flags, code, err)
		}
	}
}

func TestRunProgressFlag(t *testing.T) {
	// -progress writes to stderr; swap it for a pipe for the duration.
	path := writeTempGraph(t)
	rd, wr, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stderr
	os.Stderr = wr
	_, runErr := run([]string{"-progress", "1ms", "-workers", "1", path}, io.Discard)
	os.Stderr = old
	wr.Close()
	out, _ := io.ReadAll(rd)
	rd.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	// The run may finish before the first tick on a tiny graph; only the
	// format is asserted when lines did appear.
	if s := string(out); len(s) > 0 && (!strings.Contains(s, "fdiam: stage=") || !strings.Contains(s, "bound=")) {
		t.Errorf("-progress output wrong: %q", s)
	}
}

func TestRunHTTPFlag(t *testing.T) {
	path := writeTempGraph(t)
	var buf bytes.Buffer
	// 127.0.0.1:0 picks a free port; the server only lives for the run,
	// so this is a smoke test that the flag wires up and tears down.
	if _, err := run([]string{"-http", "127.0.0.1:0", path}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "diameter: 10") {
		t.Errorf("-http run wrong: %q", buf.String())
	}
}

func TestRunDisconnectedReportsInfinite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.txt")
	f, _ := os.Create(path)
	if err := graphio.WriteEdgeList(f, gen.Disjoint(gen.Path(4), gen.Path(8))); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var buf bytes.Buffer
	if _, err := run([]string{path}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "infinite") || !strings.Contains(buf.String(), "7") {
		t.Errorf("disconnected output wrong: %q", buf.String())
	}
}

// A METIS header reads as an edge list, so the extension must select the
// parser: sniffed, this 10-cycle came back as a disconnected 11-vertex graph.
func TestRunReadsMETISByExtension(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.metis")
	if err := graphio.WriteFile(path, gen.Cycle(10)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := run([]string{path}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "diameter: 5") || strings.Contains(buf.String(), "infinite") {
		t.Errorf("METIS 10-cycle: %q, want diameter 5", buf.String())
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if _, err := run([]string{}, &buf); err == nil {
		t.Error("missing file arg accepted")
	}
	if _, err := run([]string{"/nonexistent/file"}, &buf); err == nil {
		t.Error("missing file accepted")
	}
	path := writeTempGraph(t)
	if _, err := run([]string{"-algo", "nope", path}, &buf); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestRunCheckpointFlags(t *testing.T) {
	path := writeTempGraph(t)
	ckDir := filepath.Join(t.TempDir(), "ckpt")
	var buf bytes.Buffer
	if _, err := run([]string{"-checkpoint-dir", ckDir, "-checkpoint-interval", "1ms", path}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "diameter: 10") {
		t.Errorf("checkpointed run wrong: %q", buf.String())
	}
	// A completed run retires its snapshot; the directory itself remains.
	if _, err := os.Stat(filepath.Join(ckDir, "state.ckpt")); !os.IsNotExist(err) {
		t.Errorf("completed run left a snapshot: %v", err)
	}
	// Checkpointing is an F-Diam feature; baselines must reject the flag.
	if _, err := run([]string{"-algo", "ifub", "-checkpoint-dir", ckDir, path}, &buf); err == nil {
		t.Error("baseline accepted -checkpoint-dir")
	}
}

func TestRunExitCodes(t *testing.T) {
	path := writeTempGraph(t)
	var buf bytes.Buffer
	if code, err := run([]string{path}, &buf); err != nil || code != exitOK {
		t.Errorf("clean solve: code %d err %v, want %d nil", code, err, exitOK)
	}
	if code, err := run([]string{"/nonexistent/file"}, &buf); err == nil || code != exitError {
		t.Errorf("missing file: code %d err %v, want %d and an error", code, err, exitError)
	}
}

func TestRunTimedOutExitCode(t *testing.T) {
	// A graph big enough that a 1ns deadline always fires before the solve
	// finishes, and a seed small enough to build instantly.
	path := filepath.Join(t.TempDir(), "big.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graphio.WriteEdgeList(f, gen.Grid2D(200, 200)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var buf bytes.Buffer
	code, err := run([]string{"-timeout", "1ns", path}, &buf)
	if err != nil || code != exitTimedOut {
		t.Fatalf("timed-out solve: code %d err %v, want %d nil", code, err, exitTimedOut)
	}
	if !strings.Contains(buf.String(), "TIMEOUT") {
		t.Errorf("timed-out run still reported: %q", buf.String())
	}
}

func TestSolveExitCodeMapping(t *testing.T) {
	if got := solveExitCode(false, false); got != exitOK {
		t.Errorf("clean = %d, want %d", got, exitOK)
	}
	if got := solveExitCode(false, true); got != exitCancelled {
		t.Errorf("cancelled = %d, want %d", got, exitCancelled)
	}
	if got := solveExitCode(true, false); got != exitTimedOut {
		t.Errorf("timed out = %d, want %d", got, exitTimedOut)
	}
	// A deadline firing is itself a cancellation; the timeout code wins.
	if got := solveExitCode(true, true); got != exitTimedOut {
		t.Errorf("both = %d, want %d", got, exitTimedOut)
	}
}
