package serve

import (
	"bytes"
	"net/http"
	"testing"

	"fdiam/internal/gen"
	"fdiam/internal/graphio"
)

// gridGraphBytes serializes gen.Grid2D(10, 10) — true diameter 18, and no
// vertex has eccentricity below 10, so a double-sweep corridor never
// collapses (2·ecc(start) ≥ 20 > 18). The ideal shape for exercising the
// anytime tiers deterministically.
func gridGraphBytes(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graphio.WriteBinary(&buf, gen.Grid2D(10, 10)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAnytimeParamValidation(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 1})
	body := pathGraphBytes(t, 10)
	for _, query := range []string{
		"?epsilon=abc",
		"?epsilon=-1",
		"?mode=bogus",
		"?mode=approx&sweeps=0",
		"?mode=approx&sweeps=65",
		"?mode=approx&sweeps=abc",
	} {
		resp, _ := postGraph(t, ts, query, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", query, resp.StatusCode)
		}
	}
}

func TestApproxModeSoundCorridorAndCacheKeying(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 1})
	body := gridGraphBytes(t)

	resp, approx := postGraph(t, ts, "?mode=approx&sweeps=1", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !approx.Approximate {
		t.Fatalf("single-sweep grid estimate claims exactness: %+v", approx)
	}
	if approx.Diameter > 18 || approx.Upper < 18 {
		t.Fatalf("corridor [%d, %d] excludes the true diameter 18", approx.Diameter, approx.Upper)
	}
	if approx.Gap != approx.Upper-approx.Diameter {
		t.Fatalf("gap %d != upper %d - diameter %d", approx.Gap, approx.Upper, approx.Diameter)
	}
	if approx.Mode != "approx" {
		t.Fatalf("mode echo %q", approx.Mode)
	}
	if approx.ResultCacheHit {
		t.Fatal("first approx request claims a cache hit")
	}

	// The same parameters hit the approximate entry.
	_, again := postGraph(t, ts, "?mode=approx&sweeps=1", body)
	if !again.ResultCacheHit || !again.Approximate || again.Diameter != approx.Diameter {
		t.Fatalf("approx repeat: %+v", again)
	}

	// An exact request must miss the approximate entry and solve for real.
	_, exact := postGraph(t, ts, "", body)
	if exact.ResultCacheHit {
		t.Fatal("exact request was served from an approximate cache entry")
	}
	if exact.Approximate || exact.Diameter != 18 || exact.Upper != 18 || exact.Gap != 0 {
		t.Fatalf("exact solve: %+v", exact)
	}

	// Once the exact answer is cached, it satisfies approx requests too
	// (gap 0 is within any budget).
	_, served := postGraph(t, ts, "?mode=approx&sweeps=1", body)
	if !served.ResultCacheHit || served.Approximate || served.Diameter != 18 {
		t.Fatalf("approx after exact: %+v", served)
	}
}

func TestEpsilonRequestStopsWithBoundedGap(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 1})
	body := gridGraphBytes(t)

	resp, res := postGraph(t, ts, "?epsilon=20", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !res.Approximate {
		t.Fatalf("ε=20 on the grid should stop before collapsing: %+v", res)
	}
	if res.Gap > 20 {
		t.Fatalf("claimed convergence with gap %d > ε=20", res.Gap)
	}
	if res.Diameter > 18 || res.Upper < 18 {
		t.Fatalf("corridor [%d, %d] excludes the true diameter 18", res.Diameter, res.Upper)
	}
	if res.Epsilon != 20 {
		t.Fatalf("epsilon echo %d", res.Epsilon)
	}

	// A later exact request misses the ε entry and collapses the corridor.
	_, exact := postGraph(t, ts, "", body)
	if exact.ResultCacheHit || exact.Approximate || exact.Diameter != 18 {
		t.Fatalf("exact after ε: %+v", exact)
	}

	// ε=0 is a plain exact request (and now a bare-key cache hit).
	_, zero := postGraph(t, ts, "?epsilon=0", body)
	if !zero.ResultCacheHit || zero.Approximate || zero.Diameter != 18 || zero.Upper != 18 {
		t.Fatalf("ε=0: %+v", zero)
	}
}

// TestApproxCorridorSameFromEveryEntryPoint pins that the estimator's seed is
// derived once, from the content hash: the same graph and budget yield the
// same corridor whether it is solved by /diameter or by /jobs. Each endpoint
// gets a fresh server so neither answer comes from the other's cache entry.
func TestApproxCorridorSameFromEveryEntryPoint(t *testing.T) {
	var buf bytes.Buffer
	if err := graphio.WriteBinary(&buf, gen.Grid2D(40, 40)); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	const query = "?mode=approx&sweeps=8"

	_, tsSync, _ := newTestServer(t, Config{Workers: 1})
	resp, sync := postGraph(t, tsSync, query, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/diameter status %d", resp.StatusCode)
	}

	_, tsJob, _ := newTestServer(t, Config{Workers: 1})
	if resp, _ := postJob(t, tsJob.URL, query, body); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("/jobs status %d, want 202", resp.StatusCode)
	}
	job := waitJobDone(t, tsJob.URL, jobKey(body)).Result
	if job == nil || job.Diameter != sync.Diameter || job.Upper != sync.Upper ||
		job.WitnessA != sync.WitnessA || job.WitnessB != sync.WitnessB ||
		job.Stats.EccBFS != sync.Stats.EccBFS {
		t.Fatalf("/jobs answer %+v differs from /diameter [%d,%d] witnesses (%d,%d) ecc_bfs %d",
			job, sync.Diameter, sync.Upper, sync.WitnessA, sync.WitnessB, sync.Stats.EccBFS)
	}
}
