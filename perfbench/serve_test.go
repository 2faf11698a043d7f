package main

import (
	"net/http"
	"testing"
	"time"

	"wwb/internal/fleet"
)

var testRoster = roster{
	countries: []string{"US", "IN", "BR", "DE"},
	domains:   []string{"google.com", "youtube.com", "example.com"},
	months:    []string{"2022-01", "2022-02"},
}

func take(s *sequence, n int) []string {
	out := make([]string, n)
	for i := range out {
		id, p := s.next()
		if id != int64(i) {
			panic("sequence ids are not consecutive")
		}
		out[i] = p
	}
	return out
}

func TestSequenceIsSeedDeterministic(t *testing.T) {
	a := take(newSequence(7, testRoster, 0), 2000)
	b := take(newSequence(7, testRoster, 0), 2000)
	c := take(newSequence(8, testRoster, 0), 2000)
	same := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 gave %q then %q at %d", a[i], b[i], i)
		}
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("seeds 7 and 8 gave the same sequence")
	}
	// Skipping the warm-up prefix continues the same sequence.
	d := take(newSequence(7, testRoster, 500), 1500)
	for i := range d {
		if d[i] != a[500+i] {
			t.Fatalf("after skipping 500, path %d is %q, want %q", i, d[i], a[500+i])
		}
	}
}

func TestSequenceRouteMix(t *testing.T) {
	const n = 40000
	want := map[string]float64{"list": 0.55, "site": 0.20, "dist": 0.10, "crux": 0.07, "countries": 0.05, "experiments": 0.03}
	for _, seed := range []uint64{1, 2} {
		got := map[string]int{}
		for _, p := range take(newSequence(seed, testRoster, 0), n) {
			got[routeOf(p)]++
		}
		for r, share := range want {
			if f := float64(got[r]) / n; f < share-0.01 || f > share+0.01 {
				t.Errorf("seed %d: route %s is %.3f of the mix, want %.2f", seed, r, f, share)
			}
		}
		if len(got) != len(want) {
			t.Errorf("seed %d: routes %v, want exactly %v", seed, got, want)
		}
	}
}

func TestRouteOf(t *testing.T) {
	for path, want := range map[string]string{
		"/v1/list?country=US&n=10": "list",
		"/v1/countries":            "countries",
		"/v1/crux?country=DE":      "crux",
	} {
		if got := routeOf(path); got != want {
			t.Errorf("routeOf(%q) = %q, want %q", path, got, want)
		}
	}
}

func TestVerifierCountsEveryKindOfFailure(t *testing.T) {
	body := []byte(`[{"rank":1}]`)
	good := http.Header{}
	good.Set(fleet.ChecksumHeader, fleet.BodyChecksum(body))
	v := &verifier{expect: map[string][]byte{"/v1/list?a": body, "/v1/list?b": []byte("other")}}
	cases := []struct {
		name string
		path string
		r    response
		ok   bool
	}{
		{"ok", "/v1/dist", response{200, good, body}, true},
		{"byte-compared ok", "/v1/list?a", response{200, good, body}, true},
		{"shed", "/v1/dist", response{503, http.Header{}, []byte(`{"error":"x"}`)}, false},
		{"not found", "/v1/dist", response{404, good, body}, false},
		{"no checksum", "/v1/dist", response{200, http.Header{}, body}, false},
		{"garbled", "/v1/dist", response{200, good, []byte(`[{"rank":2}]`)}, false},
		{"differs from unsharded", "/v1/list?b", response{200, good, body}, false},
	}
	var tl tally
	for _, c := range cases {
		err := v.check(c.path, c.r)
		if (err == nil) != c.ok {
			t.Errorf("%s: check = %v, want ok %v", c.name, err, c.ok)
		}
		tl.add(err)
	}
	if tl.attempted != 7 || tl.failed != 5 {
		t.Errorf("tally %d/%d, want 5 failed of 7", tl.failed, tl.attempted)
	}
	if v.numCompared() != 1 {
		t.Errorf("compared %d check paths, want 1", v.numCompared())
	}
}

func TestParseProm(t *testing.T) {
	got, err := parseProm([]byte(`# HELP fleet_hedges_total x
# TYPE fleet_hedges_total counter
fleet_hedges_total 4
fleet_shard_request_seconds_count{shard="0"} 10
fleet_shard_request_seconds_count{shard="1"} 15
fleet_shard_request_seconds_bucket{shard="0",le="0.005"} 9
`))
	if err != nil {
		t.Fatal(err)
	}
	if got["fleet_hedges_total"] != 4 || got["fleet_shard_request_seconds_count"] != 25 {
		t.Errorf("parseProm = %v", got)
	}
}

func TestWindowRates(t *testing.T) {
	ms := time.Millisecond
	starts := []time.Duration{0, 100 * ms, 999 * ms, 1000 * ms, 2500 * ms, 2999 * ms, 3100 * ms}
	got := windowRates(starts, 3*time.Second, 3)
	want := []float64{3, 1, 3} // a request sent after the phase lands in the last window
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("windowRates = %v, want %v", got, want)
		}
	}
}

// TestClosedLoopAccounting drives the closed loop from several clients
// at once: every request of the sequence is sent exactly once, traced
// once, and each wrong answer counts as one failure.
func TestClosedLoopAccounting(t *testing.T) {
	const n = 2000
	e := &env{tr: newTracer(true)}
	body := []byte(`[]`)
	ok := http.Header{}
	ok.Set(fleet.ChecksumHeader, fleet.BodyChecksum(body))
	do := func(_ int, p string) (response, error) {
		if routeOf(p) == "crux" {
			return response{503, http.Header{}, []byte(`{"error":"shed"}`)}, nil
		}
		return response{200, ok, body}, nil
	}
	res := closedLoop(e, 4, newSequence(3, testRoster, 0), 0, n, do, &verifier{}, "test")

	wantFailed := 0
	for _, p := range take(newSequence(3, testRoster, 0), n) {
		if routeOf(p) == "crux" {
			wantFailed++
		}
	}
	if res.tally.attempted != n || res.tally.failed != wantFailed || wantFailed == 0 {
		t.Errorf("tally %d failed of %d, want %d of %d", res.tally.failed, res.tally.attempted, wantFailed, n)
	}
	if len(res.latMs) != n || len(res.starts) != n {
		t.Errorf("%d latencies, %d start times, want %d", len(res.latMs), len(res.starts), n)
	}
	seen := map[int64]bool{}
	for _, s := range e.tr.spans {
		if seen[s.Op] {
			t.Fatalf("request %d traced twice", s.Op)
		}
		seen[s.Op] = true
	}
	if len(seen) != n {
		t.Errorf("%d requests traced, want %d", len(seen), n)
	}
	if got := len(res.byRoute["crux"]); got != wantFailed {
		t.Errorf("%d crux latencies, want %d", got, wantFailed)
	}
}
