package main

import (
	"testing"
	"time"
)

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: noSpan, Start: 0, End: 100},
		// Two concurrent children overlapping on [20, 30): together they
		// cover [10, 40).
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 40},
		// A disjoint child, and one that runs past its parent's end and
		// only counts up to it.
		{Name: "c", Parent: 0, Start: 50, End: 60},
		{Name: "d", Parent: 0, Start: 90, End: 120},
		// A grandchild is charged to its parent only.
		{Name: "e", Parent: 1, Start: 12, End: 18},
		// A second root under the same name adds up.
		{Name: "root", Parent: noSpan, Start: 200, End: 210},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"root": 100 - 30 - 10 - 10 + 10,
		"a":    20 - 6,
		"b":    20,
		"c":    10,
		"d":    30,
		"e":    6,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
}

func TestTracerRecordsNesting(t *testing.T) {
	tr := newTracer()
	root := tr.start("root", noSpan)
	child := tr.start("child", root)
	tr.end(child)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[0].End < spans[1].End || spans[1].End < spans[1].Start {
		t.Fatalf("spans %+v", spans)
	}
	var nilTracer *tracer
	if nilTracer.start("x", noSpan) != noSpan {
		t.Error("nil tracer recorded a span")
	}
	nilTracer.end(noSpan)
}
