// Command perfbench is the repository's end-to-end benchmark. It runs
// one of three workloads from a single process and prints every metric
// by name and unit, then, as its last line, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run records a span around every call into a layer and reports the
// per-layer metrics derived from the spans instead.
//
//	bash perfbench/run.sh --workload build --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a user of the system sees. Every workload
// reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"load_ms", "ms"},
	{"artifact_mib", "MiB"},
	{"peak_rss_mib", "MiB"},
}

// routes are the /v1 route kinds of the request mix, in mix order.
var routes = []string{"list", "site", "dist", "crux", "countries", "experiments"}

// perLayer lists the per-layer metrics of a traced run. Every workload
// reports all of them, measured on its own data.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"world.generate_ms", "ms"},
		{"world.alloc_mib", "MiB"},
		{"world.sites", "count"},
		{"chrome.assemble_ms", "ms"},
		{"chrome.assemble_alloc_mib", "MiB"},
		{"chrome.assemble_heap_peak_mib", "MiB"},
		{"chrome.cells", "count"},
		{"chrome.encode_ms", "ms"},
		{"chrome.encode_alloc_mib", "MiB"},
		{"chrome.decode_base_ms", "ms"},
		{"chrome.append_ms", "ms"},
		{"chrome.index_keys_added", "count"},
		{"chrome.delta_encode_ms", "ms"},
		{"chrome.chain_decode_ms", "ms"},
		{"chrome.decode_ms", "ms"},
		{"chrome.shard_view_ms", "ms"},
		{"crux.export_ms", "ms"},
	}
	for _, rung := range rungs {
		for _, r := range routes {
			defs = append(defs, metricDef{"fleet." + rung + "_us." + r, "us"})
		}
	}
	for _, r := range []string{"list", "site"} {
		defs = append(defs, metricDef{"fleet.router_us_p99." + r, "us"})
	}
	for _, r := range routes {
		defs = append(defs, metricDef{"fleet.resp_kib." + r, "KiB"})
	}
	for _, r := range routes {
		defs = append(defs, metricDef{"fleet.checksum_us." + r, "us"})
	}
	return append(defs,
		metricDef{"fleet.alloc_kib_per_req", "KiB"},
		metricDef{"go.gc_cpu_frac", "ratio"},
		metricDef{"go.gc_per_kreq", "count"},
		metricDef{"fleet.subreq_per_req", "count"},
		metricDef{"fleet.hedge_win_ratio", "ratio"},
		metricDef{"fleet.retries_per_kreq", "count"},
	)
}()

// env is what every workload receives.
type env struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	// nproc bounds worker goroutines, Workers and client connections.
	nproc int
	// dir holds the run's artifacts; it is removed when the run ends.
	dir string
	tr  *tracer
	// out receives the human-readable report lines.
	out io.Writer
}

// report is a workload's outcome.
type report struct {
	e2e   map[string]float64
	layer map[string]float64
	tally tally
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

var workloads = map[string]func(*env) (*report, error){
	"build":  runBuild,
	"append": runAppend,
	"serve":  runServe,
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run: build, append or serve")
		seed     = flag.Uint64("seed", 1, "input seed: world seed and request-sequence seed")
		seconds  = flag.Int("seconds", 15, "length of the measured phase in seconds")
		trace    = flag.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload build|append|serve --seed N --seconds S --trace 0|1")
		return 2
	}

	base := filepath.Join(".bench_build", "perfbench")
	dir := filepath.Join(base, fmt.Sprintf("run-%s-%d", *workload, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	// The servers' request log (one line per request per hop) goes to a
	// file: its formatting cost stays in the measurement, terminal I/O
	// does not.
	logPath := filepath.Join(base, *workload+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer logf.Close()
	log.SetOutput(logf)

	e := &env{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		nproc:   runtime.GOMAXPROCS(0),
		dir:     dir,
		tr:      newTracer(*trace == 1),
		out:     os.Stdout,
	}
	fmt.Fprintf(e.out, "perfbench: workload %s, seed %d, %ds measured, trace %d, nproc %d, %s\n",
		*workload, *seed, *seconds, *trace, e.nproc, runtime.Version())
	total0, steal0, statErr := cpuTicks()
	rep, err := fn(e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	// Steal is CPU time the hypervisor gave other guests; on a shared
	// machine it is the main cause of run-to-run spread.
	if total1, steal1, err := cpuTicks(); statErr == nil && err == nil && total1 > total0 {
		fmt.Fprintf(e.out, "cpu steal during the run: %.1f%%\n", 100*float64(steal1-steal0)/float64(total1-total0))
	}

	fmt.Fprintf(e.out, "attempted %d, failed %d, fail_frac %.6f\n", rep.tally.attempted, rep.tally.failed, rep.tally.failFrac())
	for _, m := range rep.tally.first {
		fmt.Fprintf(e.out, "  failure: %s\n", m)
	}
	defs, vals := endToEnd, rep.e2e
	if e.traced {
		defs, vals = perLayer, rep.layer
		e.tr.table(e.out)
		tracePath := filepath.Join(base, fmt.Sprintf("%s-seed%d.spans.jsonl", *workload, *seed))
		if err := e.tr.writeJSONL(tracePath); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Fprintf(e.out, "spans written to %s\n", tracePath)
	}
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]metricOut, len(defs))
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", d.name, v)
			return 1
		}
		ms[d.name] = metricOut{v, d.unit}
		fmt.Fprintf(e.out, "metric %-34s %14.4f %s\n", d.name, v, d.unit)
	}
	correct := rep.tally.failed == 0 && rep.tally.attempted > 0
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{correct, rep.tally.attempted, rep.tally.failed, ms})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(e.out, string(line))
	if !correct {
		return 1
	}
	return 0
}
