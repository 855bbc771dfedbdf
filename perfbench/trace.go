package main

import (
	"sort"
	"time"
)

// span is one timed interval of the harness's trace: a public call the
// harness made into a layer, or a phase the facade reported through
// FleetRun.SetPhaseHook. Times are offsets from the tracer's epoch;
// parent is the index of the enclosing span, -1 for a root.
type span struct {
	name       string
	start, end time.Duration
	parent     int
}

// tracer keeps spans in memory for the length of a run. A nil tracer
// records nothing, so untraced runs pay only a nil check per call.
type tracer struct {
	epoch time.Time
	spans []span
	open  int // innermost open span, -1 when none
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), open: -1} }

// begin opens a span nested in the innermost open one and returns its
// index for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch), end: -1, parent: t.open})
	t.open = len(t.spans) - 1
	return t.open
}

// end closes span i and makes its parent the innermost open span again.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].end = time.Since(t.epoch)
	t.open = t.spans[i].parent
}

// add records a span that already finished: the facade's phase hook
// reports a duration at the phase's end, so the span is [now-d, now].
func (t *tracer) add(name string, d time.Duration) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.spans = append(t.spans, span{name: name, start: now - d, end: now, parent: t.open})
}

// selfTime is span i's duration minus the part of its interval that its
// direct children cover. Children may overlap each other (parallel
// work) or spill past the parent's edges; only the union of their
// clipped intervals is subtracted, never more than the parent's length.
func selfTime(spans []span, i int) time.Duration {
	p := spans[i]
	type iv struct{ a, b time.Duration }
	var kids []iv
	for _, s := range spans {
		if s.parent != i {
			continue
		}
		a, b := max(s.start, p.start), min(s.end, p.end)
		if a < b {
			kids = append(kids, iv{a, b})
		}
	}
	sort.Slice(kids, func(x, y int) bool { return kids[x].a < kids[y].a })
	var covered time.Duration
	var curA, curB time.Duration
	have := false
	for _, k := range kids {
		switch {
		case !have:
			curA, curB, have = k.a, k.b, true
		case k.a <= curB:
			curB = max(curB, k.b)
		default:
			covered += curB - curA
			curA, curB = k.a, k.b
		}
	}
	if have {
		covered += curB - curA
	}
	return p.end - p.start - covered
}

// totals sums span durations by name, in seconds.
func (t *tracer) totals() map[string]float64 {
	out := map[string]float64{}
	for _, s := range t.spans {
		out[s.name] += (s.end - s.start).Seconds()
	}
	return out
}

// selfTotal sums the self time of every span with the given name, in
// seconds.
func (t *tracer) selfTotal(name string) float64 {
	var sum time.Duration
	for i, s := range t.spans {
		if s.name == name {
			sum += selfTime(t.spans, i)
		}
	}
	return sum.Seconds()
}
