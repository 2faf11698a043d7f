package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// setupOp is the op id of spans recorded outside the measured ops.
const setupOp = -1

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Spans of one op or request share Op.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root span
	Op     int64  `json:"op"`     // op or request id; setupOp outside ops
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Alloc is the bytes the process allocated during the span; only
	// spans begun with beginMem record it.
	Alloc uint64 `json:"alloc_bytes,omitempty"`
	// allocFrom is the allocation counter when a beginMem span opened.
	allocFrom uint64
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and its methods cost a branch.
type tracer struct {
	on bool
	t0 time.Time

	mu    sync.Mutex
	spans []span
	// cnt holds counts read at layer boundaries; the last reading wins.
	cnt map[string]float64
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, t0: time.Now(), cnt: map[string]float64{}}
}

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, parent int, op int64) int {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Op: op, Start: time.Since(t.t0).Nanoseconds()})
	return id
}

// beginMem opens a span that also records the bytes allocated during
// it. Reading the allocation counter stops the world briefly, so it is
// meant for coarse spans (a whole generate, assemble or encode call),
// never for requests.
func (t *tracer) beginMem(name string, parent int, op int64) int {
	if !t.on {
		return 0
	}
	a := totalAlloc()
	id := t.begin(name, parent, op)
	t.mu.Lock()
	t.spans[id-1].allocFrom = a
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	from := t.spans[id-1].allocFrom
	t.mu.Unlock()
	var alloc uint64
	if from != 0 {
		alloc = totalAlloc() - from
	}
	t.mu.Lock()
	t.spans[id-1].End = now
	t.spans[id-1].Alloc = alloc
	t.mu.Unlock()
}

// record adds a span whose start and end the caller measured.
func (t *tracer) record(name string, parent int, op int64, start, end time.Time) {
	if !t.on {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Op: op,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// count records a count read at a layer boundary, such as the sites a
// generate call produced.
func (t *tracer) count(name string, v float64) {
	if !t.on {
		return
	}
	t.mu.Lock()
	t.cnt[name] = v
	t.mu.Unlock()
}

// counts returns the recorded counts.
func (t *tracer) counts() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]float64, len(t.cnt))
	for k, v := range t.cnt {
		out[k] = v
	}
	return out
}

// named returns the closed spans called name; with opsOnly, only those
// recorded inside measured ops.
func (t *tracer) named(name string, opsOnly bool) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name && s.End != 0 && (!opsOnly || s.Op != setupOp) {
			out = append(out, s)
		}
	}
	return out
}

// layerSpans returns name's spans from the measured ops, or from
// set-up when the ops never call that layer.
func (t *tracer) layerSpans(name string) []span {
	if s := t.named(name, true); len(s) > 0 {
		return s
	}
	return t.named(name, false)
}

// durationsMs returns the spans' durations in milliseconds.
func durationsMs(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur()) / float64(time.Millisecond)
	}
	return out
}

// allocsMiB returns the spans' allocations in MiB.
func allocsMiB(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.Alloc) / (1 << 20)
	}
	return out
}

// selfTimes returns each span's self time, keyed by span id: its
// duration minus the part of its interval that its child spans cover.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of kids
// covers.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if len(ivs) > 0 {
		total += curB - curA
	}
	return time.Duration(total)
}

// table writes one line per span name: count, duration and self-time
// distributions in milliseconds.
func (t *tracer) table(w io.Writer) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	type agg struct{ durs, selfs []float64 }
	by := map[string]*agg{}
	var names []string
	for _, s := range spans {
		if s.End == 0 {
			continue
		}
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
			names = append(names, s.Name)
		}
		a.durs = append(a.durs, float64(s.dur())/float64(time.Millisecond))
		a.selfs = append(a.selfs, float64(self[s.ID])/float64(time.Millisecond))
	}
	sort.Strings(names)
	fmt.Fprintf(w, "trace: %d spans; per name, duration and self time in ms:\n", len(spans))
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(w, "  %-34s %s  self p50 %.4g\n", n, summarize(a.durs), median(a.selfs))
	}
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// totalAlloc is the process's cumulative heap allocation in bytes.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// layerMetrics derives the world, chrome and crux layer metrics from
// the spans and counts: op spans where the workload's ops call the
// layer, set-up spans otherwise.
func layerMetrics(e *env, rep *report) {
	if !e.traced {
		return
	}
	for metric, name := range map[string]string{
		"world.generate_ms":      "world.Generate",
		"chrome.assemble_ms":     "chrome.AssembleCtx",
		"chrome.encode_ms":       "chrome.EncodeSnapshot",
		"chrome.decode_ms":       "chrome.DecodeSnapshotBytes",
		"chrome.decode_base_ms":  "chrome.DecodeAnyPath(base)",
		"chrome.chain_decode_ms": "chrome.DecodeAnyPath(chain)",
		"chrome.append_ms":       "chrome.AppendMonthCtx",
		"chrome.delta_encode_ms": "chrome.EncodeDelta",
		"chrome.shard_view_ms":   "fleet.NewServer(shard)",
		"crux.export_ms":         "crux.Export",
	} {
		if s := e.tr.layerSpans(name); len(s) > 0 {
			rep.layer[metric] = median(durationsMs(s))
		}
	}
	for metric, name := range map[string]string{
		"world.alloc_mib":           "world.Generate",
		"chrome.assemble_alloc_mib": "chrome.AssembleCtx",
		"chrome.encode_alloc_mib":   "chrome.EncodeSnapshot",
	} {
		if s := e.tr.layerSpans(name); len(s) > 0 {
			rep.layer[metric] = median(allocsMiB(s))
		}
	}
	for name, v := range e.tr.counts() {
		rep.layer[name] = v
	}
}
