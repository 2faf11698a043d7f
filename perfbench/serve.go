package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wwb/internal/chrome"
	"wwb/internal/crux"
	"wwb/internal/fleet"
	"wwb/internal/world"
)

const (
	// serveShards is the fleet's shard count, one replica each.
	serveShards = 2
	// warmupRequests is the prefix of the seeded sequence sent before
	// anything is timed: it fills the router's hedge-latency window,
	// the connection pools and the Go heap's pacing state.
	warmupRequests = 5000
	// checkPaths is how many distinct paths, the first of the measured
	// sequence, are byte-compared against an unsharded server.
	checkPaths = 256
	// serveWindows splits the measured phase into equal windows;
	// ops_per_s is the median window's throughput, so contention from
	// other guests during part of a run moves it less.
	serveWindows = 5
)

// rungs are the request-path ladder of a traced run: the unsharded
// handler in memory, the same server over loopback, and the N = 2
// router over loopback. The difference between neighbouring rungs is
// the cost of one layer.
var rungs = []string{"handler", "server", "router"}

// The middleware settings wwbserve and wwbrouter default to.
var (
	mcfgShard  = fleet.MiddlewareConfig{MaxInFlight: 64, RequestTimeout: time.Minute}
	mcfgRouter = fleet.MiddlewareConfig{MaxInFlight: 256, RequestTimeout: time.Minute}
)

// loopback serves a handler on a loopback port until closed.
type loopback struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second, IdleTimeout: time.Minute},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		l.srv.Serve(ln) // returns http.ErrServerClosed once closed
	}()
	return l, nil
}

// close stops the server and waits for its serve goroutine.
func (l *loopback) close() {
	l.srv.Close()
	<-l.done
}

// fleetUp is an in-process fleet: serveShards shard servers and a
// router in front of them, all on loopback.
type fleetUp struct {
	ds        *chrome.Dataset
	shards    []*loopback
	router    *loopback
	transport *http.Transport
}

// startFleet slices ds into shard servers and starts the router, wired
// as wwbserve -shard i/N and wwbrouter wire them.
func startFleet(e *env, ds *chrome.Dataset) (*fleetUp, error) {
	f := &fleetUp{ds: ds}
	var topology [][]string
	for i := 0; i < serveShards; i++ {
		s := e.tr.begin("fleet.NewServer(shard)", 0, setupOp)
		srv := fleet.NewServer(ds, fleet.ServerConfig{
			Shard: fleet.Assignment{Index: i, Count: serveShards},
			Month: ds.Opts.DistMonth,
		})
		e.tr.end(s)
		l, err := listen(srv.Routes(mcfgShard))
		if err != nil {
			f.close()
			return nil, err
		}
		f.shards = append(f.shards, l)
		topology = append(topology, []string{l.url})
	}
	f.transport = http.DefaultTransport.(*http.Transport).Clone()
	rt, err := fleet.NewRouter(fleet.RouterConfig{
		Shards:  topology,
		Client:  &http.Client{Timeout: 30 * time.Second, Transport: f.transport},
		Workers: e.nproc,
	})
	if err != nil {
		f.close()
		return nil, err
	}
	if f.router, err = listen(rt.Routes(mcfgRouter)); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *fleetUp) close() {
	if f.router != nil {
		f.router.close()
	}
	if f.transport != nil {
		f.transport.CloseIdleConnections()
	}
	for _, s := range f.shards {
		s.close()
	}
}

// client is one keep-alive HTTP client of the closed loop.
type client struct {
	tr *http.Transport
	c  *http.Client
}

func newClient() *client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	return &client{tr: tr, c: &http.Client{Timeout: 30 * time.Second, Transport: tr}}
}

// response is one answered request.
type response struct {
	status int
	header http.Header
	body   []byte
}

func (c *client) get(url string) (response, error) {
	resp, err := c.c.Get(url)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return response{}, err
	}
	return response{resp.StatusCode, resp.Header, body}, nil
}

// inMemory answers a request by calling h directly.
func inMemory(h http.Handler, path string) response {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return response{rec.Code, rec.Header(), rec.Body.Bytes()}
}

// routeOf maps a /v1 path to its route kind.
func routeOf(path string) string {
	r, _, _ := strings.Cut(strings.TrimPrefix(path, "/v1/"), "?")
	return r
}

// sequence hands out the seeded request sequence in order, starting
// after skip paths; the i-th call always returns the same path.
type sequence struct {
	mu sync.Mutex
	g  *fleet.Generator
	n  int64
}

// roster is the generator's input.
type roster struct{ countries, domains, months []string }

// rosterOf returns the roster wwbload discovers from a target serving
// ds: the country roster, the head of the first country's rank list
// and the covered months.
func rosterOf(ds *chrome.Dataset) roster {
	r := roster{countries: ds.Countries}
	for _, e := range ds.List(ds.Countries[0], world.Windows, world.PageLoads, ds.Opts.DistMonth).TopN(100) {
		r.domains = append(r.domains, e.Domain)
	}
	for _, m := range ds.Months {
		r.months = append(r.months, m.String())
	}
	return r
}

func newSequence(seed uint64, r roster, skip int) *sequence {
	s := &sequence{g: fleet.NewGenerator(seed, r.countries, r.domains, r.months)}
	for i := 0; i < skip; i++ {
		s.g.Next()
	}
	return s
}

func (s *sequence) next() (int64, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	return s.n - 1, s.g.Next()
}

// verifier checks every response: status 200, a checksum header the
// body matches, and, for the check paths, the exact bytes an
// unsharded server gives.
type verifier struct {
	expect   map[string][]byte
	compared sync.Map // path → struct{}: check paths seen
}

func (v *verifier) check(path string, r response) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", path, r.status, r.body)
	}
	if r.header.Get(fleet.ChecksumHeader) == "" {
		return fmt.Errorf("%s: no %s header", path, fleet.ChecksumHeader)
	}
	if err := fleet.VerifyBody(r.header, r.body); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if want, ok := v.expect[path]; ok {
		if !bytes.Equal(want, r.body) {
			return fmt.Errorf("%s: body (%d bytes) differs from the unsharded server's (%d bytes)", path, len(r.body), len(want))
		}
		v.compared.Store(path, struct{}{})
	}
	return nil
}

func (v *verifier) numCompared() int {
	n := 0
	v.compared.Range(func(any, any) bool { n++; return true })
	return n
}

// loopResult is the outcome of one closed-loop phase.
type loopResult struct {
	latMs   []float64
	starts  []time.Duration      // when each request was sent, from the phase start
	byRoute map[string][]float64 // latency in µs per route
	sizes   map[string][]float64 // body KiB per route
	bodies  map[string][][]byte  // a sample of bodies per route
	tally   tally
	wall    time.Duration
}

// closedLoop runs clients goroutines, each sending the next path of
// seq as soon as its previous request completes, until dur elapses
// (or, with dur 0, until count requests have been sent). do answers
// one request for client ci. With span set, each request is recorded
// as a span named span/<route>.
func closedLoop(e *env, clients int, seq *sequence, dur time.Duration, count int64, do func(ci int, path string) (response, error), v *verifier, span string) loopResult {
	results := make([]loopResult, clients)
	start := time.Now()
	deadline := start.Add(dur)
	var sent atomic.Int64
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			res := loopResult{byRoute: map[string][]float64{}, sizes: map[string][]float64{}, bodies: map[string][][]byte{}}
			for {
				if dur > 0 && !time.Now().Before(deadline) {
					break
				}
				if dur == 0 && sent.Add(1) > count {
					break
				}
				id, path := seq.next()
				t0 := time.Now()
				r, err := do(ci, path)
				t1 := time.Now()
				if err == nil {
					err = v.check(path, r)
				}
				res.tally.add(err)
				route := routeOf(path)
				ms := float64(t1.Sub(t0)) / float64(time.Millisecond)
				if err != nil {
					// A failed request misses every latency limit.
					ms = 1e9
				}
				res.latMs = append(res.latMs, ms)
				res.starts = append(res.starts, t0.Sub(start))
				res.byRoute[route] = append(res.byRoute[route], ms*1000)
				res.sizes[route] = append(res.sizes[route], float64(len(r.body))/1024)
				if len(res.bodies[route]) < 32 {
					res.bodies[route] = append(res.bodies[route], r.body)
				}
				if span != "" {
					e.tr.record(span+"/"+route, 0, id, t0, t1)
				}
			}
			results[ci] = res
		}(ci)
	}
	wg.Wait()
	out := loopResult{byRoute: map[string][]float64{}, sizes: map[string][]float64{}, bodies: map[string][][]byte{}, wall: time.Since(start)}
	for _, r := range results {
		out.latMs = append(out.latMs, r.latMs...)
		out.starts = append(out.starts, r.starts...)
		out.tally.merge(r.tally)
		for k, v := range r.byRoute {
			out.byRoute[k] = append(out.byRoute[k], v...)
		}
		for k, v := range r.sizes {
			out.sizes[k] = append(out.sizes[k], v...)
		}
		for k, v := range r.bodies {
			out.bodies[k] = append(out.bodies[k], v...)
		}
	}
	return out
}

// windowRates splits dur into n equal windows and returns the requests
// per second sent in each.
func windowRates(starts []time.Duration, dur time.Duration, n int) []float64 {
	w := dur / time.Duration(n)
	rates := make([]float64, n)
	for _, s := range starts {
		rates[min(int(s/w), n-1)]++
	}
	for i := range rates {
		rates[i] /= w.Seconds()
	}
	return rates
}

// overHTTP returns a do function sending each request over loopback to
// base, one keep-alive client per closed-loop client.
func overHTTP(base string, clients []*client) func(int, string) (response, error) {
	return func(ci int, path string) (response, error) { return clients[ci].get(base + path) }
}

func newClients(n int) []*client {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = newClient()
	}
	return cs
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.tr.CloseIdleConnections()
	}
}

// loadFleet is the serve cold start: read and decode the artifact,
// bring the fleet up, and get the first answer on every route kind.
func loadFleet(e *env, path string) (*fleetUp, error) {
	s := e.tr.begin("os.ReadFile", 0, setupOp)
	data, err := os.ReadFile(path)
	e.tr.end(s)
	if err != nil {
		return nil, err
	}
	s = e.tr.begin("chrome.DecodeSnapshotBytes", 0, setupOp)
	ds, _, err := chrome.DecodeSnapshotBytes(data)
	e.tr.end(s)
	if err != nil {
		return nil, err
	}
	f, err := startFleet(e, ds)
	if err != nil {
		return nil, err
	}
	c := newClient()
	defer c.tr.CloseIdleConnections()
	c0, domain := ds.Countries[0], rosterOf(ds).domains[0]
	for _, path := range []string{
		"/v1/list?country=" + c0 + "&platform=windows&metric=loads&n=100",
		"/v1/site?domain=" + domain + "&platform=windows&metric=loads",
		"/v1/dist?platform=windows&metric=loads",
		"/v1/crux?country=" + c0,
		"/v1/countries",
	} {
		t0 := time.Now()
		r, err := c.get(f.router.url + path)
		e.tr.record("first/"+routeOf(path), 0, setupOp, t0, time.Now())
		if err == nil && r.status != http.StatusOK {
			err = fmt.Errorf("status %d", r.status)
		}
		if err != nil {
			f.close()
			return nil, fmt.Errorf("first answer on %s: %w", path, err)
		}
	}
	return f, nil
}

// runServe is the serve workload: a closed loop of nproc keep-alive
// clients replays the seeded wwbload mix through an in-process N = 2
// router serving the six-month default-scale artifact.
func runServe(e *env) (*report, error) {
	rep := newReport()
	path := filepath.Join(e.dir, "study.wwb")
	var f *fleetUp
	defer func() {
		if f != nil {
			f.close()
		}
	}()
	var artifactBytes int
	setup, err := repeatSetup(e, setups, func(i int) error {
		if f != nil {
			f.close()
			f = nil
		}
		data, _, err := buildArtifact(e, 0, setupOp, nil, world.Feb2022)
		if err != nil {
			return err
		}
		artifactBytes = len(data)
		if err := writeArtifact(e, 0, setupOp, path, data); err != nil {
			return err
		}
		if f, err = loadFleet(e, path); err != nil {
			return err
		}
		return warmUp(e, f)
	})
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setup
	rep.e2e["artifact_mib"] = float64(artifactBytes) / (1 << 20)

	oracle, v, err := checkSet(e, f.ds)
	if err != nil {
		return nil, err
	}
	clients := newClients(e.nproc)
	defer closeClients(clients)
	phase := e.seconds
	if e.traced {
		// A traced run splits its time between one untraced router
		// phase, the reference for the tracing overhead, and the three
		// traced rungs.
		phase = e.seconds / 4
	}
	coldHeap()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	res := measured(e, f.ds, phase, "", overHTTP(f.router.url, clients), v)
	if rep.e2e["peak_rss_mib"], err = peakRSSMiB(); err != nil {
		return nil, err
	}
	rep.tally.merge(res.tally)
	s := summarize(res.latMs)
	rates := windowRates(res.starts, phase, serveWindows)
	rep.e2e["op_p50_ms"] = s.p50
	rep.e2e["ops_per_s"] = median(rates)
	fmt.Fprintf(e.out, "requests (ms): %s; req/s per window %.1f\n", s, rates)
	if n := v.numCompared(); n < checkPaths {
		rep.tally.add(fmt.Errorf("only %d of %d check paths were byte-compared: the run is too short", n, checkPaths))
	} else {
		fmt.Fprintf(e.out, "byte-compared %d distinct paths against the unsharded server\n", n)
	}

	rep.e2e["load_ms"], err = probeLoad(e, func() error {
		lf, err := loadFleet(e, path)
		if err != nil {
			return err
		}
		lf.close()
		return nil
	})
	if err != nil {
		return nil, err
	}

	if e.traced {
		if err := ladder(e, rep, f, oracle, v, phase, &res); err != nil {
			return nil, err
		}
		if err := traceAppend(e, rep, path); err != nil {
			return nil, err
		}
	}
	layerMetrics(e, rep)
	return rep, nil
}

// warmUp sends the first warmupRequests of the seeded sequence through
// the router; nothing is timed.
func warmUp(e *env, f *fleetUp) error {
	clients := newClients(e.nproc)
	defer closeClients(clients)
	seq := newSequence(e.seed, rosterOf(f.ds), 0)
	res := closedLoop(e, e.nproc, seq, 0, warmupRequests, overHTTP(f.router.url, clients), &verifier{}, "")
	if res.tally.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed: %v", res.tally.failed, res.tally.attempted, res.tally.first)
	}
	return nil
}

// checkSet builds the oracle, an unsharded server over ds, and a
// verifier holding its answers to the first checkPaths distinct paths
// of the measured sequence.
func checkSet(e *env, ds *chrome.Dataset) (http.Handler, *verifier, error) {
	oracle := fleet.NewServer(ds, fleet.ServerConfig{Month: ds.Opts.DistMonth}).Routes(mcfgShard)
	v := &verifier{expect: map[string][]byte{}}
	for seq := newSequence(e.seed, rosterOf(ds), warmupRequests); len(v.expect) < checkPaths; {
		_, p := seq.next()
		if _, ok := v.expect[p]; ok {
			continue
		}
		r := inMemory(oracle, p)
		if r.status != http.StatusOK {
			return nil, nil, fmt.Errorf("unsharded server answers %s with %d: the mix expects 200", p, r.status)
		}
		v.expect[p] = r.body
	}
	return oracle, v, nil
}

// measured replays the seeded sequence after the warm-up prefix for
// dur, sending each request with do.
func measured(e *env, ds *chrome.Dataset, dur time.Duration, span string, do func(int, string) (response, error), v *verifier) loopResult {
	return closedLoop(e, e.nproc, newSequence(e.seed, rosterOf(ds), warmupRequests), dur, 0, do, v, span)
}

// ladder replays the post-warm-up sequence through the handler,
// server and router rungs, phase each, tracing every request, and
// derives the fleet and crux layer metrics. untraced, when given, is
// an untraced router phase to state the tracing overhead against.
func ladder(e *env, rep *report, f *fleetUp, oracle http.Handler, v *verifier, phase time.Duration, untraced *loopResult) error {
	single, err := listen(oracle)
	if err != nil {
		return err
	}
	defer single.close()
	singleClients, routerClients := newClients(e.nproc), newClients(e.nproc)
	defer closeClients(singleClients)
	defer closeClients(routerClients)

	byRung := map[string]loopResult{}
	byRung["handler"] = measured(e, f.ds, phase, "fleet.handler", func(_ int, p string) (response, error) { return inMemory(oracle, p), nil }, v)
	byRung["server"] = measured(e, f.ds, phase, "fleet.server", overHTTP(single.url, singleClients), v)
	before, err := scrape(routerClients[0], f.router.url)
	if err != nil {
		return err
	}
	g0 := readGoStats()
	byRung["router"] = measured(e, f.ds, phase, "fleet.router", overHTTP(f.router.url, routerClients), v)
	g1 := readGoStats()
	after, err := scrape(routerClients[0], f.router.url)
	if err != nil {
		return err
	}
	for _, rung := range rungs {
		rep.tally.merge(byRung[rung].tally)
		for _, r := range routes {
			rep.layer["fleet."+rung+"_us."+r] = median(byRung[rung].byRoute[r])
		}
	}
	router := byRung["router"]
	for _, r := range []string{"list", "site"} {
		s := summarize(router.byRoute[r])
		rep.layer["fleet.router_us_p99."+r] = s.p99
		if !supported(s.n, 0.99) {
			fmt.Fprintf(e.out, "note: fleet.router_us_p99.%s rests on %d samples, fewer than %d beyond p99\n", r, s.n, minBeyond)
		}
	}
	for _, r := range routes {
		rep.layer["fleet.resp_kib."+r] = median(router.sizes[r])
		rep.layer["fleet.checksum_us."+r] = checksumMicros(router.bodies[r])
	}
	reqs := float64(len(router.latMs))
	rep.layer["fleet.alloc_kib_per_req"] = float64(g1.allocBytes-g0.allocBytes) / 1024 / reqs
	if cpu := g1.totalCPU - g0.totalCPU; cpu > 0 {
		rep.layer["go.gc_cpu_frac"] = (g1.gcCPU - g0.gcCPU) / cpu
	}
	rep.layer["go.gc_per_kreq"] = float64(g1.gcCycles-g0.gcCycles) * 1000 / reqs
	delta := func(name string) float64 { return after[name] - before[name] }
	rep.layer["fleet.subreq_per_req"] = delta("fleet_shard_request_seconds_count") / reqs
	if h := delta("fleet_hedges_total"); h > 0 {
		rep.layer["fleet.hedge_win_ratio"] = delta("fleet_hedge_wins_total") / h
	}
	rep.layer["fleet.retries_per_kreq"] = delta("fleet_replica_retries_total") * 1000 / reqs

	for i := 0; i < 3; i++ {
		s := e.tr.begin("crux.Export", 0, setupOp)
		crux.Export(f.ds, f.ds.Opts.DistMonth)
		e.tr.end(s)
	}

	if untraced != nil {
		ut, tr := summarize(untraced.latMs), summarize(router.latMs)
		fmt.Fprintf(e.out, "tracing overhead: router p50 %.4g ms traced vs %.4g ms untraced (%+.1f%%); %.1f vs %.1f req/s\n",
			tr.p50, ut.p50, 100*(tr.p50/ut.p50-1), reqs/router.wall.Seconds(), float64(len(untraced.latMs))/untraced.wall.Seconds())
	}
	for _, rung := range rungs {
		fmt.Fprintf(e.out, "rung %-7s (µs):", rung)
		for _, r := range routes {
			fmt.Fprintf(e.out, " %s %.4g", r, median(byRung[rung].byRoute[r]))
		}
		fmt.Fprintln(e.out)
	}
	return nil
}

// traceServing measures the fleet and crux layers in a traced build
// or append run: it serves the workload's .wwb from an N = 2 fleet,
// warms it up and runs the ladder, an eighth of the run's seconds per
// rung.
func traceServing(e *env, rep *report, path string) error {
	f, err := loadFleet(e, path)
	if err != nil {
		return err
	}
	defer f.close()
	if err := warmUp(e, f); err != nil {
		return err
	}
	oracle, v, err := checkSet(e, f.ds)
	if err != nil {
		return err
	}
	return ladder(e, rep, f, oracle, v, e.seconds/8, nil)
}

// checksumMicros times fleet.BodyChecksum over sample bodies and
// returns the median µs per body.
func checksumMicros(bodies [][]byte) float64 {
	const reps = 50
	var us []float64
	for _, b := range bodies {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fleet.BodyChecksum(b)
		}
		us = append(us, float64(time.Since(t0))/float64(time.Microsecond)/reps)
	}
	return median(us)
}

// scrape reads the router's /metrics, summing each family over labels.
func scrape(c *client, base string) (map[string]float64, error) {
	r, err := c.get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping metrics: %w", err)
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("scraping metrics: status %d", r.status)
	}
	return parseProm(r.body)
}

// parseProm sums each family's samples in a Prometheus text exposition
// over their labels.
func parseProm(body []byte) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out, sc.Err()
}
