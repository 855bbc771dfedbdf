package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

func TestBucketInnermostModule(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"sort.Float64s", "pond/internal/telemetry.(*Store).CustomerHistory", "pond/internal/fleet.(*cellSim).arrive"}, "telemetry"},
		{[]string{"pond/internal/mlops/fleetpipeline.(*Manager).Tick", "pond/internal/fleet.(*Runner).processBarrier"}, "fleetpipeline"},
		{[]string{"pond/internal/engine.Map[go.shape.*uint8,go.shape.struct {}].func1"}, "engine"},
		{[]string{"encoding/json.(*encodeState).marshal", "pond/internal/fleet.(*Runner).Snapshot"}, "json"},
		{[]string{"pond/internal/ml.(*Tree).Predict", "encoding/json.Unmarshal"}, "ml"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "pond/internal/pmu.SampleInto"}, "gc"},
		{[]string{"runtime.mallocgc", "pond/internal/pmu.SampleInto"}, "pmu"},
		{[]string{"pond.(*FleetRun).Advance", "main.main"}, "other"},
		{nil, "other"},
	} {
		if got := bucket(c.stack); got != c.want {
			t.Errorf("bucket(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

func TestProfileSamplesDecodesRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	spin(200 * time.Millisecond)
	pprof.StopCPUProfile()
	by, err := profileSamples(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, n := range by {
		total += n
	}
	if total == 0 || by["other"] == 0 {
		t.Errorf("decoded samples %v: want the spin loop's samples in other", by)
	}
}
