package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{Name: "op", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "b", ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps a
		{Name: "c", ID: 4, Parent: 1, Start: 90, End: 120}, // runs past op
		{Name: "d", ID: 5, Parent: 3, Start: 25, End: 35},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestDisabledTracerRecordsNothing(t *testing.T) {
	tr := newTracer(false)
	if id := tr.begin("x", 0, 1); id != 0 {
		t.Errorf("begin on a disabled tracer = %d, want 0", id)
	}
	tr.end(0)
	tr.record("y", 0, 1, time.Now(), time.Now())
	tr.count("z", 1)
	if len(tr.spans) != 0 || len(tr.counts()) != 0 {
		t.Error("a disabled tracer recorded spans or counts")
	}
}

func TestLayerSpansPreferOps(t *testing.T) {
	tr := newTracer(true)
	tr.end(tr.begin("world.Generate", 0, setupOp))
	if got := tr.layerSpans("world.Generate"); len(got) != 1 || got[0].Op != setupOp {
		t.Fatalf("with only set-up spans, layerSpans = %+v", got)
	}
	tr.end(tr.begin("world.Generate", 0, 0))
	tr.end(tr.begin("world.Generate", 0, 1))
	got := tr.layerSpans("world.Generate")
	if len(got) != 2 || got[0].Op != 0 || got[1].Op != 1 {
		t.Errorf("with op spans, layerSpans = %+v, want the two op spans", got)
	}
	if open := tr.begin("open", 0, 2); len(tr.named("open", true)) != 0 || open == 0 {
		t.Error("an open span was returned")
	}
}
