// Command perfbench is the repository benchmark: it drives named
// workloads through pond's public entry points (StartFleet/FleetRun for
// batch runs, the pondserve HTTP handler for daemon restarts), checks
// the event-log hashes, and prints every metric by name and unit.
//
//	perfbench --workload scale|lifecycle|restart --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones, measured untraced; with --trace 1 a traced
// run reports the per-layer split. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// gate counts checked operations and failures; every run, request and
// hash comparison the harness makes is one attempted operation.
type gate struct {
	attempted, failed int
}

// check records one operation, logging it when it failed.
func (g *gate) check(ok bool, format string, args ...any) bool {
	g.attempted++
	if !ok {
		g.failed++
		logf("FAIL "+format, args...)
	}
	return ok
}

// op records one operation that failed when err is non-nil.
func (g *gate) op(err error, what string) bool {
	if err != nil {
		return g.check(false, "%s: %v", what, err)
	}
	return g.check(true, "%s", what)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// seedFor maps the harness's --seed to a positive engine seed; the salt
// separates the held-out seed's stream from the measured one.
func seedFor(n int64, salt uint64) int64 {
	z := uint64(n) + salt + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>1) | 1
}

// Runtime counters sampled around the measured work.
var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/live:bytes"},
}

// heapAllocs returns the process's cumulative heap allocation count.
func heapAllocs() uint64 {
	metrics.Read(rtSamples[:1])
	return rtSamples[0].Value.Uint64()
}

// liveHeap returns the live heap as of the last GC, in bytes.
func liveHeap() uint64 {
	metrics.Read(rtSamples[1:])
	return rtSamples[1].Value.Uint64()
}

// peakHeap tracks the highest live heap seen at the safe points a run
// samples, and how long the sampling took so timed intervals can leave
// it out.
type peakHeap struct {
	peak  uint64
	spent time.Duration
}

// sample forces a full collection, so the reading is the exact live
// heap rather than whatever the last background cycle saw.
func (p *peakHeap) sample() {
	t := time.Now()
	runtime.GC()
	p.peak = max(p.peak, liveHeap())
	p.spent += time.Since(t)
}

// settle forces a collection without sampling, so the next timed step
// starts from the same heap state every run.
func (p *peakHeap) settle() {
	t := time.Now()
	runtime.GC()
	p.spent += time.Since(t)
}

// mb converts bytes to MB (2^20).
func mb(b uint64) float64 { return float64(b) / (1 << 20) }

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "how long to measure")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer split instead of the end-to-end metrics")
		workdir = flag.String("workdir", ".bench_build/perfbench-work", "scratch directory for checkpoint files")
		profile = flag.String("cpuprofile", "", "with --trace 1, also write the traced runs' CPU profiles to this file prefix (one .pprof per run)")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	b := &bench{
		w:       w,
		seed:    seedFor(*seed, 0),
		heldOut: seedFor(*seed, 0x5eed),
		budget:  time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		workdir: *workdir,
		profile: *profile,
		counts:  map[string]float64{},
		layers:  map[string][]float64{},
		cpu:     map[string]int64{},
	}
	res := b.run(context.Background())
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// finite replaces NaN and infinities, which JSON cannot carry, with 0.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// printSummary writes the human-readable sample summaries ahead of the
// result line.
func printSummary(samples map[string][]float64, units map[string]string) {
	names := make([]string, 0, len(samples))
	for n := range samples {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if len(samples[n]) > 0 {
			fmt.Println(summary(n, units[n], samples[n]))
		}
	}
}
