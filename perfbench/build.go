package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"wwb/internal/chrome"
	"wwb/internal/fleet"
	"wwb/internal/telemetry"
	"wwb/internal/world"
)

// setups is how many times each workload sets up; setup_s is the
// median. Every set-up must produce the same bytes.
const setups = 2

// Each workload times load_ms at least minLoadProbes times and until
// loadProbeTime has passed, at most maxLoadProbes times; the metric is
// the median. A cheap load (build's, about 90 ms) gets more probes.
const (
	minLoadProbes = 3
	maxLoadProbes = 25
	loadProbeTime = 2 * time.Second
)

// buildMonths is the build workload's window: Jan–Feb 2022, Feb being
// the default distribution month. Two months keep one op near 3.5 s on a
// 2-CPU machine, so a run holds several ops.
var buildMonths = []world.Month{world.Jan2022, world.Feb2022}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// worldConfig is the default-scale world for the run's seed.
func worldConfig(seed uint64) world.Config {
	c := world.DefaultConfig()
	c.Seed = seed
	return c
}

// provFor is the provenance wwbgen embeds for a default-scale world.
func provFor(seed uint64) chrome.SnapshotProvenance {
	return chrome.SnapshotProvenance{Tool: "wwbgen", WorldSeed: seed, Scale: "default"}
}

// buildArtifact does what `wwbgen -format wwb` does in memory: generate
// the world, assemble months (nil: the whole study window) with dist
// as the distribution month, and encode a .wwb snapshot.
func buildArtifact(e *env, parent int, op int64, months []world.Month, dist world.Month) ([]byte, *chrome.Dataset, error) {
	s := e.tr.beginMem("world.Generate", parent, op)
	w := world.Generate(worldConfig(e.seed))
	e.tr.end(s)
	opts := chrome.DefaultOptions()
	opts.Months = months
	opts.DistMonth = dist
	opts.Workers = e.nproc
	s = e.tr.beginMem("chrome.AssembleCtx", parent, op)
	ds, err := chrome.AssembleCtx(context.Background(), w, telemetry.DefaultConfig(), opts)
	e.tr.end(s)
	if err != nil {
		return nil, nil, fmt.Errorf("assembling: %w", err)
	}
	if e.traced {
		e.tr.count("world.sites", float64(len(w.Sites())))
		e.tr.count("chrome.cells", float64(len(ds.Countries)*len(world.Platforms)*len(ds.Months)))
		e.tr.count("chrome.assemble_heap_peak_mib", float64(chrome.AssemblePeakHeapBytes())/(1<<20))
	}
	var buf bytes.Buffer
	s = e.tr.beginMem("chrome.EncodeSnapshot", parent, op)
	err = ds.EncodeSnapshot(&buf, provFor(e.seed))
	e.tr.end(s)
	if err != nil {
		return nil, nil, fmt.Errorf("encoding: %w", err)
	}
	return buf.Bytes(), ds, nil
}

// writeArtifact writes data to path. Flush policy, the same on every
// run: one write into the page cache, no fsync — the benchmark
// measures encoding, not the disk.
func writeArtifact(e *env, parent int, op int64, path string, data []byte) error {
	s := e.tr.begin("os.WriteFile", parent, op)
	defer e.tr.end(s)
	return os.WriteFile(path, data, 0o644)
}

// firstList answers one /v1/list request from an unsharded server over
// ds, in memory, and checks it succeeded.
func firstList(ds *chrome.Dataset) error {
	h := fleet.NewServer(ds, fleet.ServerConfig{Month: ds.Opts.DistMonth}).Routes(mcfgShard)
	rec := httptest.NewRecorder()
	path := "/v1/list?country=" + ds.Countries[0] + "&platform=windows&metric=loads&n=100"
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("first %s: status %d", path, rec.Code)
	}
	return fleet.VerifyBody(rec.Header(), rec.Body.Bytes())
}

// timeOps runs op back to back until the measured phase ends, each
// from a cold heap, and returns the op times in ms and the peak RSS.
// Every op's output is checked by op itself; a failed check counts in
// the tally.
func timeOps(e *env, rep *report, op func(i int64) error) (times []float64, rssMiB float64, err error) {
	coldHeap()
	if err := resetPeakRSS(); err != nil {
		return nil, 0, err
	}
	// A traced run traces every other op, so its untraced ops state
	// the tracing overhead.
	traced := e.tr.on
	var withSpans, without []float64
	deadline := time.Now().Add(e.seconds)
	for i := int64(0); i == 0 || time.Now().Before(deadline); i++ {
		e.tr.on = traced && i%2 == 0
		coldHeap()
		t0 := time.Now()
		opErr := op(i)
		ms := float64(time.Since(t0)) / float64(time.Millisecond)
		times = append(times, ms)
		if e.tr.on {
			withSpans = append(withSpans, ms)
		} else {
			without = append(without, ms)
		}
		rep.tally.add(opErr)
	}
	e.tr.on = traced
	if traced && len(without) > 0 {
		a, b := median(withSpans), median(without)
		fmt.Fprintf(e.out, "tracing overhead: traced ops p50 %.4g ms (n %d) vs untraced ops p50 %.4g ms (n %d): %+.1f%%\n",
			a, len(withSpans), b, len(without), 100*(a/b-1))
	}
	rssMiB, err = peakRSSMiB()
	return times, rssMiB, err
}

// opMetrics fills the op-derived end-to-end metrics.
func opMetrics(e *env, rep *report, times []float64) {
	s := summarize(times)
	var total float64
	for _, t := range times {
		total += t
	}
	rep.e2e["op_p50_ms"] = s.p50
	rep.e2e["ops_per_s"] = float64(len(times)) / (total / 1000)
	fmt.Fprintf(e.out, "ops (ms): %s\n", s)
}

// repeatSetup runs setup n times from a cold heap and returns the
// median wall time in seconds.
func repeatSetup(e *env, n int, setup func(i int) error) (float64, error) {
	var secs []float64
	for i := 0; i < n; i++ {
		coldHeap()
		t0 := time.Now()
		if err := setup(i); err != nil {
			return 0, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	fmt.Fprintf(e.out, "set-up (s): %v\n", secs)
	return median(secs), nil
}

// runBuild is the build workload: one op is one artifact build as
// wwbgen does it — generate a default-scale world, assemble Jan–Feb
// 2022 at Workers = nproc, encode and write a .wwb. Every op's bytes
// must equal the reference built in set-up.
func runBuild(e *env) (*report, error) {
	rep := newReport()
	var ref []byte
	var refCRC uint32
	setup, err := repeatSetup(e, setups, func(i int) error {
		data, _, err := buildArtifact(e, 0, setupOp, buildMonths, world.Feb2022)
		if err != nil {
			return err
		}
		if i > 0 && crc32.Checksum(data, castagnoli) != refCRC {
			return fmt.Errorf("reference artifact differs between set-ups: the build is not deterministic")
		}
		ref, refCRC = data, crc32.Checksum(data, castagnoli)
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setup
	rep.e2e["artifact_mib"] = float64(len(ref)) / (1 << 20)

	times, rss, err := timeOps(e, rep, func(i int64) error {
		root := e.tr.begin("op", 0, i)
		defer e.tr.end(root)
		data, _, err := buildArtifact(e, root, i, buildMonths, world.Feb2022)
		if err != nil {
			return err
		}
		path := filepath.Join(e.dir, fmt.Sprintf("op-%d.wwb", i))
		if err := writeArtifact(e, root, i, path, data); err != nil {
			return err
		}
		defer os.Remove(path)
		if crc := crc32.Checksum(data, castagnoli); crc != refCRC || len(data) != len(ref) {
			return fmt.Errorf("op %d: artifact crc32c %08x (%d bytes), reference %08x (%d bytes)", i, crc, len(data), refCRC, len(ref))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	opMetrics(e, rep, times)
	rep.e2e["peak_rss_mib"] = rss

	// load_ms: open the artifact and answer the first /v1/list.
	path := filepath.Join(e.dir, "ref.wwb")
	if err := os.WriteFile(path, ref, 0o644); err != nil {
		return nil, err
	}
	rep.e2e["load_ms"], err = probeLoad(e, func() error {
		s := e.tr.begin("os.ReadFile", 0, setupOp)
		data, err := os.ReadFile(path)
		e.tr.end(s)
		if err != nil {
			return err
		}
		s = e.tr.begin("chrome.DecodeSnapshotBytes", 0, setupOp)
		ds, _, err := chrome.DecodeSnapshotBytes(data)
		e.tr.end(s)
		if err != nil {
			return err
		}
		return firstList(ds)
	})
	if err != nil {
		return nil, err
	}
	if e.traced {
		if err := traceServing(e, rep, path); err != nil {
			return nil, err
		}
		if err := traceAppend(e, rep, path); err != nil {
			return nil, err
		}
	}
	layerMetrics(e, rep)
	return rep, nil
}

// probeLoad times load from a cold heap, as often as the constants
// above say, and returns the median in ms.
func probeLoad(e *env, load func() error) (float64, error) {
	var ms []float64
	start := time.Now()
	for i := 0; i < maxLoadProbes && (i < minLoadProbes || time.Since(start) < loadProbeTime); i++ {
		coldHeap()
		t0 := time.Now()
		if err := load(); err != nil {
			return 0, fmt.Errorf("load probe: %w", err)
		}
		ms = append(ms, float64(time.Since(t0))/float64(time.Millisecond))
	}
	fmt.Fprintf(e.out, "load (ms): %s\n", summarize(ms))
	return median(ms), nil
}
