package main

import (
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{name: "run", start: ms(0), end: ms(100), parent: -1},
		{name: "a", start: ms(10), end: ms(30), parent: 0},
		{name: "b", start: ms(20), end: ms(40), parent: 0},  // overlaps a: union 10..40
		{name: "c", start: ms(90), end: ms(120), parent: 0}, // spills past the parent: counts 90..100
		{name: "g", start: ms(50), end: ms(80), parent: 1},  // grandchild: not a direct child of run
	}
	if got, want := selfTime(spans, 0), ms(100-30-10); got != want {
		t.Errorf("self(run) = %v, want %v", got, want)
	}
	// a's only child lies outside a's interval, so nothing is subtracted.
	if got, want := selfTime(spans, 1), ms(20); got != want {
		t.Errorf("self(a) = %v, want %v", got, want)
	}
}

func TestSelfTimeNeverNegative(t *testing.T) {
	spans := []span{
		{name: "p", start: ms(0), end: ms(10), parent: -1},
		{name: "x", start: ms(0), end: ms(10), parent: 0},
		{name: "y", start: ms(0), end: ms(10), parent: 0},
	}
	if got := selfTime(spans, 0); got != 0 {
		t.Errorf("fully covered parent self = %v, want 0", got)
	}
}

func TestTracerNestsAndTotals(t *testing.T) {
	tr := newTracer()
	root := tr.begin("run")
	in := tr.begin("call")
	tr.add("phase", ms(1))
	tr.end(in)
	tr.end(root)
	if tr.spans[in].parent != root || tr.spans[2].parent != in {
		t.Fatalf("parents = %d, %d; want %d, %d", tr.spans[in].parent, tr.spans[2].parent, root, in)
	}
	if tr.open != -1 {
		t.Errorf("open span after closing all = %d", tr.open)
	}
	if got := tr.totals()["phase"]; got != 0.001 {
		t.Errorf("phase total = %g s, want 0.001", got)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("ignored")) // a nil tracer records nothing
}
