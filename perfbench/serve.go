package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fdiam/internal/graph"
	"fdiam/internal/graphio"
	"fdiam/internal/serve"
)

// The traffic shape below (zipfS, the mode shares, the ε value, the pool in
// graphs.go and the cache sizes in startDaemon) is an unverified
// assumption: no request data for fdiamd exists to fit it to. It is chosen
// to exercise every path of the daemon, not to model real callers, so a
// change should not be tuned to it.
const (
	// serveClients is the closed loop's client count: each client sends
	// its next request when the previous reply arrived, as fdiamd callers
	// wait for their answer.
	serveClients = 2
	// zipfS skews the request draw over the pool's ranks. Go's rand.Zipf
	// needs s > 1.
	zipfS = 1.1
	// rankStride maps Zipf rank r to slot r·rankStride mod poolSlots, so
	// the hottest graphs spread over classes and sizes. It is coprime with
	// poolSlots, and fixed, so the seed cannot move a heavy graph to the
	// top of the ranking.
	rankStride = 17
	// exactShare and approxShare split requests into exact, ?mode=approx
	// and ?epsilon= (the rest).
	exactShare  = 0.8
	approxShare = 0.1
	// warmRequests run before timing so both caches reach their steady
	// hit ratio.
	warmRequests = 200
	// serveBlock is the request count of one throughput block.
	serveBlock = 250
	// rssRequests is the fixed number of timed requests peak_rss_mb
	// covers, so a faster daemon does not read worse.
	rssRequests = 2000
	// streamLen is the pre-drawn request sequence; a longer run wraps.
	streamLen = 1 << 17
	// opHeader and spanHeader carry the client span to the daemon's side
	// in the traced run.
	opHeader   = "X-Perfbench-Op"
	spanHeader = "X-Perfbench-Span"
)

const (
	modeExact = iota
	modeApprox
	modeEpsilon
)

var modeQuery = [...]string{"", "?mode=approx", "?epsilon=2"}

// pool is serve-mixed's set of graphs with one request body each.
type pool struct {
	insts  []*instance
	bodies [][]byte
}

// buildPool generates the pool and encodes each graph as its body:
// alternately edge-list text and binary CSR along each class's size steps.
func buildPool(cfg *config, inputs []standIn) ([]*graph.Graph, [][]byte, error) {
	gs := make([]*graph.Graph, len(inputs))
	bodies := make([][]byte, len(inputs))
	for i, s := range inputs {
		gs[i] = s.build(derive(cfg.seed, 0x5e, uint64(i)))
		body, err := encode(gs[i], (i/poolSizesPerClass+i%poolSizesPerClass)%2 == 1)
		if err != nil {
			return nil, nil, err
		}
		bodies[i] = body
	}
	return gs, bodies, nil
}

func encode(g *graph.Graph, binary bool) ([]byte, error) {
	var b bytes.Buffer
	var err error
	if binary {
		err = graphio.WriteBinary(&b, g)
	} else {
		err = graphio.WriteEdgeList(&b, g)
	}
	return b.Bytes(), err
}

// daemon is fdiamd's handler, serve.New, mounted on a loopback server.
type daemon struct {
	api    *serve.Server
	hs     *http.Server
	url    string
	served chan error
}

// startDaemon serves a daemon sized for the pool: one solver worker, two
// concurrent solves, and caches that hold only a fraction of the pool, so
// the hit ratio settles below 1. With a tracer, every request becomes a
// serve span under the client's span.
func startDaemon(gs []*graph.Graph, tr *tracer) (*daemon, error) {
	var csr float64
	for _, g := range gs {
		csr += csrMiB(g)
	}
	api, err := serve.New(serve.Config{
		Workers:         1,
		MaxConcurrent:   2,
		ResultCacheSize: len(gs) / 8,
		GraphCacheBytes: int64(csr * (1 << 20) / 8),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var h http.Handler = api
	if tr != nil {
		h = tracedHandler(api, tr)
	}
	d := &daemon{api: api, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(),
		served: make(chan error, 1)}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the HTTP server and the daemon down and waits for both.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := errors.Join(d.hs.Shutdown(ctx), d.api.Shutdown(ctx))
	if e := <-d.served; !errors.Is(e, http.ErrServerClosed) {
		err = errors.Join(err, e)
	}
	return err
}

func tracedHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, err1 := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
		parent, err2 := strconv.ParseInt(r.Header.Get(spanHeader), 10, 32)
		if err1 != nil || err2 != nil {
			h.ServeHTTP(w, r)
			return
		}
		sp := tr.begin("serve.Server.ServeHTTP", int32(parent), op)
		h.ServeHTTP(w, r)
		tr.end(sp)
	})
}

// request is one draw of the seeded stream.
type request struct{ slot, mode int }

// requestStream draws n requests: a Zipf rank mapped to a pool slot, and a
// mode.
func requestStream(seed uint64, n int) []request {
	r := rand.New(rand.NewPCG(seed, 0x5e7e))
	z := rand.NewZipf(r, zipfS, 1, poolSlots-1)
	out := make([]request, n)
	for i := range out {
		rq := request{slot: int(z.Uint64()*rankStride) % poolSlots}
		switch u := r.Float64(); {
		case u >= exactShare+approxShare:
			rq.mode = modeEpsilon
		case u >= exactShare:
			rq.mode = modeApprox
		}
		out[i] = rq
	}
	return out
}

// reply is the part of the /diameter reply the benchmark reads.
type reply struct {
	Diameter       int32 `json:"diameter"`
	Upper          int32 `json:"upper"`
	Approximate    bool  `json:"approximate"`
	Cancelled      bool  `json:"cancelled"`
	TimedOut       bool  `json:"timed_out"`
	WitnessA       int64 `json:"witness_a"`
	WitnessB       int64 `json:"witness_b"`
	ElapsedNS      int64 `json:"elapsed_ns"`
	GraphCacheHit  bool  `json:"graph_cache_hit"`
	ResultCacheHit bool  `json:"result_cache_hit"`
}

// record is one completed request as the client saw it.
type record struct {
	req     request
	status  int
	latency float64 // ms
	end     time.Time
	reply   reply
	err     error
}

// drive runs the closed loop until more(completed) turns false, taking
// requests in stream order from next, and returns every record.
func (d *daemon) drive(ctx context.Context, p *pool, reqs []request, next *atomic.Int64,
	more func(done int64) bool, tr *tracer) []record {
	var (
		mu   sync.Mutex
		out  []record
		done atomic.Int64
		wg   sync.WaitGroup
	)
	for range serveClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tp := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tp.CloseIdleConnections()
			c := &http.Client{Transport: tp, Timeout: solveTimeout}
			var mine []record
			for ctx.Err() == nil && more(done.Load()) {
				i := next.Add(1) - 1
				mine = append(mine, d.post(c, p, reqs[i%int64(len(reqs))], i, tr))
				done.Add(1)
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// post sends one request and reads its reply; latency covers sending the
// body through decoding the reply.
func (d *daemon) post(c *http.Client, p *pool, rq request, op int64, tr *tracer) record {
	rec := record{req: rq}
	req, err := http.NewRequest(http.MethodPost, d.url+"/diameter"+modeQuery[rq.mode],
		bytes.NewReader(p.bodies[rq.slot]))
	if err != nil {
		rec.err = err
		return rec
	}
	sp := int32(-1)
	if tr != nil {
		sp = tr.begin("http.Client.Do", -1, op)
		req.Header.Set(opHeader, strconv.FormatInt(op, 10))
		req.Header.Set(spanHeader, strconv.Itoa(int(sp)))
	}
	start := time.Now()
	resp, err := c.Do(req)
	if err == nil {
		rec.status = resp.StatusCode
		if resp.StatusCode == http.StatusOK {
			err = json.NewDecoder(resp.Body).Decode(&rec.reply)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	rec.end = time.Now()
	rec.latency = float64(rec.end.Sub(start).Nanoseconds()) / 1e6
	if tr != nil {
		tr.end(sp)
	}
	rec.err = err
	return rec
}

// check tallies every record: transport errors, non-200 replies (429
// included), exact requests answered with a corridor, and answers the
// reference refutes all fail.
func (p *pool) check(rep *report, recs []record) {
	for _, rec := range recs {
		in := p.insts[rec.req.slot]
		r := rec.reply
		switch {
		case rec.err != nil:
			rep.tally(fmt.Errorf("%s: %w", in.name, rec.err))
		case rec.status != http.StatusOK:
			rep.tally(fmt.Errorf("%s: HTTP %d", in.name, rec.status))
		case rec.req.mode == modeExact && r.Approximate:
			rep.tally(fmt.Errorf("%s: exact request answered approximately", in.name))
		default:
			rep.tally(in.check(answer{diameter: r.Diameter, upper: r.Upper, exact: !r.Approximate,
				witnessA: witness(r.WitnessA), witnessB: witness(r.WitnessB),
				cancelled: r.Cancelled || r.TimedOut}))
		}
	}
}

// witness maps the reply's -1 ("none") to a vertex no graph has.
func witness(v int64) uint32 {
	if v < 0 || v > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(v)
}

// setupServe builds the pool and starts the daemon instanceSets times,
// keeping the last; it returns the set-up times, which exclude reference
// answers.
func setupServe(cfg *config, w *workload) (*pool, *daemon, []float64, error) {
	var secs []float64
	for k := range instanceSets {
		start := time.Now()
		gs, bodies, err := buildPool(cfg, w.inputs)
		if err != nil {
			return nil, nil, nil, err
		}
		d, err := startDaemon(gs, nil)
		if err != nil {
			return nil, nil, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
		if k < instanceSets-1 {
			if err := d.stop(); err != nil {
				return nil, nil, nil, err
			}
			continue
		}
		insts, err := referenceSet(cfg, w.inputs, gs, w.ref)
		if err != nil {
			return nil, nil, nil, errors.Join(err, d.stop())
		}
		return &pool{insts, bodies}, d, secs, nil
	}
	return nil, nil, nil, errors.New("no set-up")
}

// runServe is serve-mixed's timed run: warm-up, then the closed loop for
// --seconds and at least enough requests for the tail percentile and the
// memory reading.
func runServe(ctx context.Context, cfg *config, w *workload, rep *report, man *manifest) (err error) {
	p, d, setup, err := setupServe(cfg, w)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, d.stop()) }()
	rep.add("setup_s", median(setup), "s", fmt.Sprintf("median of %d set-ups", len(setup)))
	man.addGraphs(0, p.insts)

	reqs := requestStream(cfg.seed, streamLen)
	var next atomic.Int64
	p.check(rep, d.drive(ctx, p, reqs, &next, func(done int64) bool { return done < warmRequests }, nil))
	rep.add("peak_rss_mb.setup", peakRSSMiB(), "MiB", "set-up and warm-up")
	reset := resetPeakRSS()
	var rss sync.Once
	readRSS := func(n int64) {
		rss.Do(func() {
			rep.add("peak_rss_mb", peakRSSMiB(), "MiB",
				resetNote(reset, fmt.Sprintf("read after %d timed requests", n)))
		})
	}
	need := max(int64(minSamples(w.tailPct)), rssRequests)
	start := time.Now()
	recs := d.drive(ctx, p, reqs, &next, func(done int64) bool {
		if done >= rssRequests {
			readRSS(done)
		}
		e := time.Since(start)
		return e < maxMeasure && (e.Seconds() < cfg.seconds || done < need)
	}, nil)
	wall := time.Since(start).Seconds()
	readRSS(int64(len(recs))) // maxMeasure cut the loop short
	p.check(rep, recs)

	// Throughput is the median over blocks of serveBlock consecutive
	// completions, so a burst of load from elsewhere on the host moves one
	// block, not the figure. solve_vps scales it by the window's mean
	// vertices per request rather than taking each block's own mix.
	sort.Slice(recs, func(i, j int) bool { return recs[i].end.Before(recs[j].end) })
	var lat, hit, miss, rps []float64
	var vertices int
	last := start
	for i, rec := range recs {
		lat = append(lat, rec.latency)
		vertices += p.insts[rec.req.slot].g.NumVertices()
		if rec.reply.ResultCacheHit {
			hit = append(hit, rec.latency)
		} else {
			miss = append(miss, rec.latency)
		}
		if (i+1)%serveBlock == 0 {
			rps = append(rps, serveBlock/rec.end.Sub(last).Seconds())
			last = rec.end
		}
	}
	blocks := fmt.Sprintf("median of %d blocks of %d requests", len(rps), serveBlock)
	rep.add("fail_ratio", float64(rep.failed)/float64(rep.attempted), "ratio",
		fmt.Sprintf("%d of %d requests", rep.failed, rep.attempted))
	rep.add("solve_vps", median(rps)*float64(vertices)/float64(len(recs)), "vertices/s",
		"requests per second × mean vertices per request, "+blocks)
	rep.add("ops_per_s", median(rps), "1/s", "requests per second, "+blocks)
	rep.add("req_per_s", float64(len(recs))/wall, "req/s",
		fmt.Sprintf("%d clients, closed loop, whole window", serveClients))
	rep.add("latency_ms.p50", median(lat), "ms", fmt.Sprintf("n=%d", len(lat)))
	rep.addTail("latency_ms", lat, w.tailPct, "ms")
	rep.add("latency_ms.hit.p50", median(hit), "ms", fmt.Sprintf("n=%d result-cache hits", len(hit)))
	rep.add("latency_ms.miss.p50", median(miss), "ms", fmt.Sprintf("n=%d misses", len(miss)))
	return nil
}

// traceServe is serve-mixed's traced run: the library layers on the pool's
// graphs, timed parsing of every pool graph in both body formats, then a
// block of traced requests. The daemon starts only after the library
// layers are measured: serve.New arms the program's histograms
// process-wide, and the untraced passes must run with them disarmed.
func traceServe(ctx context.Context, cfg *config, w *workload, rep *report, man *manifest, tr *tracer) (err error) {
	gs, bodies, err := buildPool(cfg, w.inputs)
	if err != nil {
		return err
	}
	insts, err := referenceSet(cfg, w.inputs, gs, w.ref)
	if err != nil {
		return err
	}
	p := &pool{insts, bodies}
	man.addGraphs(0, p.insts)
	traceLayers(ctx, cfg, p.insts, rep, tr)

	var parse [2]float64
	for i, in := range p.insts {
		for f, binary := range []bool{false, true} {
			body, err := encode(in.g, binary)
			if err != nil {
				return err
			}
			sp := tr.begin("graphio.ReadAuto", -1, int64(i))
			start := time.Now()
			_, err = graphio.ReadAuto(body)
			parse[f] += float64(time.Since(start).Nanoseconds()) / 1e6
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("%s: parse: %w", in.name, err)
			}
		}
	}
	note := fmt.Sprintf("sum over %d pool graphs", len(p.insts))
	rep.add("graphio.parse_ms.text", parse[0], "ms", note)
	rep.add("graphio.parse_ms.binary", parse[1], "ms", note)

	d, err := startDaemon(gs, tr)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, d.stop()) }()
	reqs := requestStream(cfg.seed, streamLen)
	var next atomic.Int64
	p.check(rep, d.drive(ctx, p, reqs, &next, func(done int64) bool { return done < warmRequests }, nil))
	before, err := d.scrape(ctx)
	if err != nil {
		return err
	}
	start := time.Now()
	recs := d.drive(ctx, p, reqs, &next, func(done int64) bool {
		e := time.Since(start)
		return e < maxMeasure && (e.Seconds() < cfg.seconds/4 || done < warmRequests)
	}, tr)
	after, err := d.scrape(ctx)
	if err != nil {
		return err
	}
	p.check(rep, recs)

	var hits, graphHits, misses float64
	var solve, overhead, approx []float64
	for _, rec := range recs {
		r := rec.reply
		if r.ResultCacheHit {
			hits++
			continue
		}
		misses++
		if r.GraphCacheHit {
			graphHits++
		}
		ms := float64(r.ElapsedNS) / 1e6
		overhead = append(overhead, rec.latency-ms)
		if rec.req.mode == modeApprox {
			approx = append(approx, ms)
		} else {
			solve = append(solve, ms)
		}
	}
	n := float64(len(recs))
	rep.add("serve.result_hit_ratio", hits/n, "ratio", fmt.Sprintf("base %d requests", len(recs)))
	rep.add("serve.graph_hit_ratio", graphHits/max(misses, 1), "ratio",
		fmt.Sprintf("base %.0f result-cache misses", misses))
	waits := after["fdiamd_queue_wait_seconds_count"] - before["fdiamd_queue_wait_seconds_count"]
	waitSum := after["fdiamd_queue_wait_seconds_sum"] - before["fdiamd_queue_wait_seconds_sum"]
	rep.add("serve.queue_wait_ms", 1e3*waitSum/max(waits, 1), "ms",
		fmt.Sprintf("mean over %.0f admitted solves", waits))
	rep.add("serve.rejected", after["fdiamd_rejected_total"]-before["fdiamd_rejected_total"], "count")
	rep.add("serve.solve_ms.p50", median(solve), "ms", fmt.Sprintf("n=%d exact and ε misses", len(solve)))
	rep.add("serve.overhead_ms.p50", median(overhead), "ms", "client latency − elapsed_ns, misses")
	rep.add("serve.approx_solve_ms.p50", median(approx), "ms", fmt.Sprintf("n=%d approx misses", len(approx)))
	return nil
}

// scrape reads the daemon's /metrics page into name → value; labeled
// series keep their labels in the name.
func (d *daemon) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}
