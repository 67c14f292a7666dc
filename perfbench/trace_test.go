package main

import (
	"testing"
	"time"
)

// TestSelfTimeOverlappingChildren: children that overlap each other are
// subtracted once, and a child sticking out of its parent only up to
// the parent's end.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "rpc.Submit", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "jobs.run", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "rpc.Result", Start: 90, End: 120},
		{ID: 5, Parent: 3, Name: "sim.Run", Start: 35, End: 45},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"bench": 40,      // 100 - union{[10,60], [90,100]}
		"rpc":   30 + 30, // children of neither
		"jobs":  20,      // 30 - 10
		"sim":   10,
	}
	for layer, d := range want {
		if got[layer] != d {
			t.Errorf("self time of %s = %d, want %d", layer, got[layer], d)
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers = %v, want %v", got, want)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer(false)
	id := tr.begin("main", "bench.sweep", 0)
	tr.end(id)
	tr.record("main", "jobs.run", id, time.Now(), time.Now())
	if id != 0 || len(tr.finished()) != 0 {
		t.Errorf("disabled tracer returned id %d and kept %d spans", id, len(tr.finished()))
	}
}

func TestTracerKeepsParentsAndRunIDs(t *testing.T) {
	tr := newTracer(true)
	root := tr.begin("main", "bench.sweep", 0)
	child := tr.begin("main", "agentring.Explore", root)
	tr.end(child)
	open := tr.begin("main", "agentring.Explore", root)
	_ = open // never ended: not reported
	tr.end(root)
	spans := tr.finished()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Run != "main" {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].End < spans[1].End {
		t.Errorf("root ended before its child: %+v", spans)
	}
}
