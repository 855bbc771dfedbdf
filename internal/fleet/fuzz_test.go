package fleet

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// Fuzz targets for the user-facing spec parsers and the snapshot
// decoder. The checked-in seeds (f.Add plus testdata/fuzz corpora) run
// on every ordinary `go test`; the CI fuzz job additionally explores for
// a bounded time. The contract under fuzzing: malformed specs and
// snapshots must error — never panic — and accepted specs must land
// inside their documented domains (no silent clamping) and round-trip
// through String().

func FuzzParseInjections(f *testing.F) {
	for _, seed := range []string{
		"emc-fail@t=500",
		"emc-fail@t=500:emc=1",
		"host-drain@t=800:host=2",
		"surge@t=300:dur=200:x=3",
		"drift@t=2000:mag=0.6",
		"drift@t=2000:cells=2-3:mag=0.6",
		"drift@t=100:cells=1",
		"emc-fail@t=500, host-drain@t=800:host=2, surge@t=300:dur=200:x=3",
		"",
		"meteor@t=1",
		"emc-fail",
		"emc-fail@t=-1",
		"emc-fail@t=NaN",
		"emc-fail@t=Inf",
		"surge@t=1:x=0.5",
		"drift@t=1:mag=2",
		"drift@t=1:cells=3-1",
		"drift@t=1:cells=1-2-3",
		"drift@t=1:cells=-1",
		"emc-fail@t=1:cells=0-1",
		"emc-fail@t=1:emc=99999999999999999999",
		"drift@t=1e308:mag=0.5",
		"surge@t=0:dur=0:x=1.0000001",
		"@t=1",
		"emc-fail@",
		"emc-fail@t=1:",
		"emc-fail@t=1:=2",
		"resize@t=500:emc=1:slices=-8",
		"resize@t=500:emc=0:slices=+16",
		"resize@t=500:emc=0:slices=16",
		"resize@t=1",
		"resize@t=1:slices=0",
		"resize@t=1:slices=1.5",
		"resize@t=1:emc=-1:slices=4",
		"resize@t=1:dur=5:slices=4",
		"resize@t=1:mag=0.5",
		"resize@t=1:host=2:slices=4",
		"resize@t=1:cells=0-1:slices=4",
		"resize@t=1:slices=99999999999999999999",
		"resize@t=1:slices=-9223372036854775808",
		"resize@t=1:emc=0:slices=2000000",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		ins, err := ParseInjections(spec)
		if err != nil {
			return // rejected is fine; panicking is not
		}
		for _, in := range ins {
			// Accepted values must be inside the documented domains —
			// rejecting is fine, silently clamping is not.
			if in.AtSec < 0 || math.IsNaN(in.AtSec) || math.IsInf(in.AtSec, 0) {
				t.Fatalf("accepted injection %q with t=%v", spec, in.AtSec)
			}
			switch in.Kind {
			case InjectEMCFail, InjectHostDrain, InjectSurge, InjectDrift, InjectResize:
			default:
				t.Fatalf("accepted unknown kind %q from %q", in.Kind, spec)
			}
			if in.EMC < 0 || in.Host < 0 {
				t.Fatalf("accepted negative target from %q: %+v", spec, in)
			}
			if in.Kind == InjectSurge && (in.Factor <= 1 || in.DurSec < 0) {
				t.Fatalf("accepted out-of-domain surge from %q: %+v", spec, in)
			}
			if in.Kind == InjectDrift {
				if in.Mag <= 0 || in.Mag > 1 {
					t.Fatalf("accepted out-of-domain drift magnitude from %q: %+v", spec, in)
				}
				if in.CellHi >= 0 && (in.CellLo < 0 || in.CellLo > in.CellHi) {
					t.Fatalf("accepted empty cell range from %q: %+v", spec, in)
				}
			}
			if in.Kind == InjectResize && (in.Slices == 0 || in.Slices < -MaxResizeSlices || in.Slices > MaxResizeSlices) {
				t.Fatalf("accepted out-of-domain resize from %q: %+v", spec, in)
			}
			// String() must render a spec that parses back to the same
			// injection.
			again, rerr := ParseInjections(in.String())
			if rerr != nil {
				t.Fatalf("rendered spec %q does not re-parse: %v", in.String(), rerr)
			}
			if len(again) != 1 || again[0] != in {
				t.Fatalf("injection %+v did not round-trip via %q: %+v", in, in.String(), again)
			}
		}
	})
}

func FuzzParseArrival(f *testing.F) {
	for _, seed := range []string{
		"", "poisson", "poisson:rate=0.05", "poisson:rate=0.05:life=600",
		"trace", "trace:rate=1", "uniform", "poisson:rate=-1", "poisson:rate=0",
		"poisson:burst=3", "poisson:rate=", "poisson:rate", "poisson:rate=Inf",
		"poisson:rate=NaN", "poisson::life=1", "poisson:rate=1e308:life=1e-308",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		m, err := ParseArrival(spec)
		if err != nil {
			return
		}
		if m.Kind != ArrivalPoisson && m.Kind != ArrivalTrace {
			t.Fatalf("accepted unknown arrival kind %q from %q", m.Kind, spec)
		}
		if m.RatePerSec <= 0 || m.MeanLifetimeSec <= 0 ||
			math.IsInf(m.RatePerSec, 0) || math.IsNaN(m.RatePerSec) ||
			math.IsInf(m.MeanLifetimeSec, 0) || math.IsNaN(m.MeanLifetimeSec) {
			t.Fatalf("accepted out-of-domain arrival from %q: %+v", spec, m)
		}
		// Round trip.
		again, rerr := ParseArrival(m.String())
		if rerr != nil || again != m {
			t.Fatalf("arrival %+v did not round-trip via %q: %+v (%v)", m, m.String(), again, rerr)
		}
	})
}

// FuzzNormalizeArrival feeds arrival values and a surge spec straight
// to normalize, the path the Go API and pondserve bodies take without
// the -arrival string parser: whatever it accepts must be a known
// process with finite positive values whose expected stream fits under
// maxExpectedArrivals, so arrival generation can allocate it.
func FuzzNormalizeArrival(f *testing.F) {
	for _, seed := range []struct {
		kind            string
		rate, life, dur float64
		surge           string
	}{
		{"poisson", 0.05, 600, 1800, ""},
		{"poisson", 0.2, 600, 120000, ""},
		{"trace", 0, 0, 86400, ""},
		{"", 0, 0, 0, ""},
		{"bogus", 0.05, 600, 1800, ""},
		{"poisson", 1e300, 600, 1800, ""},
		{"poisson", 25, 600, 120000, ""},
		{"poisson", math.NaN(), 600, 1800, ""},
		{"poisson", math.Inf(1), 600, 1800, ""},
		{"poisson", 0.05, math.Inf(1), 1800, ""},
		{"poisson", 0.05, 600, math.NaN(), ""},
		{"poisson", 0.05, 600, math.Inf(1), ""},
		{"poisson", 0.2, 600, 1800, "surge@t=300:dur=200:x=3"},
		{"poisson", 0.2, 600, 1800, "surge@t=0:dur=1e300:x=1e300"},
		{"poisson", 0.2, 600, 1800, "surge@t=100:dur=1e9:x=3"},
	} {
		f.Add(seed.kind, seed.rate, seed.life, seed.dur, seed.surge)
	}
	f.Fuzz(func(t *testing.T, kind string, rate, life, dur float64, surge string) {
		o := DefaultOptions()
		o.Arrival = ArrivalModel{Kind: kind, RatePerSec: rate, MeanLifetimeSec: life}
		o.DurationSec = dur
		if ins, err := ParseInjections(surge); err == nil {
			o.Injections = ins
		}
		n, err := normalize(o)
		if err != nil {
			return
		}
		if n.Arrival.Kind != ArrivalPoisson && n.Arrival.Kind != ArrivalTrace {
			t.Fatalf("accepted unknown arrival kind %q", n.Arrival.Kind)
		}
		for _, v := range []float64{n.Arrival.RatePerSec, n.Arrival.MeanLifetimeSec, n.DurationSec} {
			if !(v > 0) || math.IsInf(v, 0) {
				t.Fatalf("accepted out-of-domain arrival %+v over %gs", n.Arrival, n.DurationSec)
			}
		}
		if e := expectedArrivals(n); !(e >= 0 && e <= maxExpectedArrivals) {
			t.Fatalf("accepted %+v over %gs with %v: %g expected arrivals, want [0, %d]",
				n.Arrival, n.DurationSec, n.Injections, e, maxExpectedArrivals)
		}
	})
}

func FuzzParseTopologies(f *testing.F) {
	for _, seed := range []string{
		"flat", "flat,sharded,sparse", "flat, sharded", "", ",", "flat,",
		",flat", "flat,,sparse", "moebius", "FLAT", "flat sharded", "flat;sharded",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, list string) {
		names, err := ParseTopologies(list)
		if err != nil {
			return
		}
		if len(names) == 0 {
			t.Fatalf("accepted %q as an empty topology list", list)
		}
		for _, n := range names {
			if n != "flat" && n != "sharded" && n != "sparse" {
				t.Fatalf("accepted unknown topology %q from %q", n, list)
			}
			if strings.TrimSpace(n) != n || n == "" {
				t.Fatalf("returned unnormalized topology %q from %q", n, list)
			}
		}
	})
}

// fuzzSnapshotOptions are the tiny cell-scoped runs whose snapshots seed
// FuzzRestoreSnapshot: one with monitor-only mlops managers, one that
// retrains (so the state carries trained models and training rows), and
// one without predictions. Restoring either of the first two trains the
// bootstrap forest; the third skips it, so mutations of the
// model-independent state run many times faster. The first also seeds a
// copy in the shape an older build wrote: a memo-carrying server
// section and a queue holding every future arrival.
func fuzzSnapshotOptions() []Options {
	o := DefaultOptions()
	o.Cells = 1
	o.Hosts = 2
	o.EMCs = 2
	o.PoolGB = 32
	o.DurationSec = 200
	o.Arrival = ArrivalModel{Kind: ArrivalPoisson, RatePerSec: 0.3, MeanLifetimeSec: 60}
	o.Predictions = true
	o.Injections = mustParseInjections("emc-fail@t=120")
	retrain := o
	retrain.RetrainEverySec = 50
	retrain.MinTrainRows = 8
	plain := o
	plain.Predictions = false
	return []Options{o, retrain, plain}
}

// FuzzRestoreSnapshot mutates real snapshots: json.Unmarshal followed by
// RestoreRunner must return an error or a runner, never panic, and a
// restored runner must then run to its horizon without panicking (it
// may fail with an error), so state that restores but cannot be
// simulated is caught too. Inputs whose options differ from the seeds'
// are skipped, so a mutation cannot ask for an arbitrarily large fleet
// or horizon; the target explores the captured state and the SetState
// chain that installs it.
func FuzzRestoreSnapshot(f *testing.F) {
	ctx := context.Background()
	pinned := map[string]bool{}
	var parentShaped []byte
	for i, o := range fuzzSnapshotOptions() {
		r, err := NewRunner(ctx, o)
		if err != nil {
			f.Fatal(err)
		}
		if err := r.Advance(ctx, 150); err != nil {
			f.Fatal(err)
		}
		snap, err := r.Snapshot()
		if err != nil {
			f.Fatal(err)
		}
		data, err := json.Marshal(snap)
		if err != nil {
			f.Fatal(err)
		}
		opts, err := json.Marshal(snap.Options)
		if err != nil {
			f.Fatal(err)
		}
		pinned[string(opts)] = true
		f.Add(data)
		if i == 0 {
			addParentArrivals(f, snap)
			parentShaped = withParentServerState(f, mustMarshal(f, snap))
		}
	}
	// The first snapshot again, in the shape an older build wrote, so
	// the fuzzer also explores the fields and entries dropped on decode.
	f.Add(parentShaped)
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Snapshot
		if err := json.Unmarshal(data, &s); err != nil {
			return
		}
		if opts, err := json.Marshal(s.Options); err != nil || !pinned[string(opts)] {
			return
		}
		r, err := RestoreRunner(ctx, &s)
		if err != nil {
			return
		}
		if r == nil {
			t.Fatal("RestoreRunner returned neither a runner nor an error")
		}
		_, _ = r.Finish(ctx) // an error is a clean refusal; a panic fails the target
	})
}
