package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"pond"
)

// workload is one named benchmark input: the options a seed maps to,
// whether it runs through the daemon, and how the traced run checks
// that it stresses the layers it was chosen for.
type workload struct {
	opts   func(seed int64) pond.FleetOpts
	daemon bool
	// holds are the simulated times a run checkpoints and restores at.
	holds []float64
	// claim computes stress.claimed_share_pct from the traced run.
	claim func(b *bench) float64
	// claimText names the share claim and its threshold for the log.
	claimText string
}

func mustInjections(spec string) []pond.Injection {
	ins, err := pond.ParseInjections(spec)
	if err != nil {
		panic(err)
	}
	return ins
}

var workloads = map[string]*workload{
	// scale: the CLI-scale batch run — predictions on, frozen models, no
	// barriers; per-arrival admission, placement, telemetry history,
	// scoring and log formatting dominate.
	"scale": {
		opts: func(seed int64) pond.FleetOpts {
			o := pond.Defaults()
			o.Cluster = pond.ClusterOpts{Topology: "flat", Cells: 3, Hosts: 8, EMCs: 4, PoolGB: 512, DurationSec: 120000}
			o.Arrivals = pond.ArrivalOpts{Process: "poisson", RatePerSec: 0.2, MeanLifetimeSec: 600}
			o.Engine = pond.EngineOpts{Workers: 1, Seed: seed}
			return o
		},
		holds: []float64{30000, 60000, 90000},
		claim: func(b *bench) float64 {
			return b.cpuShareOfPond("telemetry", "predict", "mlops", "pmu")
		},
		claimText: "telemetry+predict+mlops+pmu share of pond CPU > 50%",
	},
	// lifecycle: fleet-scope retraining with canary rollout, elastic pool
	// planning, a pool resize and a drift injection, on the parallel
	// engine; model training at the retrain barriers dominates.
	"lifecycle": {
		opts: func(seed int64) pond.FleetOpts {
			o := pond.Defaults()
			o.Cluster.Topology = "sharded"
			o.Cluster.Cells = 4
			o.Cluster.DurationSec = 40000
			o.Arrivals = pond.ArrivalOpts{Process: "poisson", RatePerSec: 0.1, MeanLifetimeSec: 600}
			o.Model = pond.ModelOpts{RetrainEverySec: 1000, Scope: "fleet", CanaryFraction: 0.25, BakeWindowSec: 2000}
			o.Capacity = pond.CapacityOpts{Elastic: true, PlanEverySec: 2000}
			o.Injections = mustInjections("resize@t=5000:emc=1:slices=-32,drift@t=8000:cells=2-3:mag=0.8")
			o.Engine = pond.EngineOpts{Workers: 2, Seed: seed}
			return o
		},
		holds: []float64{10000, 20000, 30000},
		claim: func(b *bench) float64 {
			return 100 * median(b.layers["fleet.retrain_s"]) / median(b.layers["run_s"])
		},
		claimText: "fleet.retrain_s share of the run > 50%",
	},
	// restart: the default configuration served by the daemon, parked,
	// checkpointed and restored in a fresh server at three holds while
	// the event log streams live.
	"restart": {
		opts: func(seed int64) pond.FleetOpts {
			o := pond.Defaults()
			o.Cluster.DurationSec = 120000
			o.Engine = pond.EngineOpts{Workers: 1, Seed: seed}
			return o
		},
		daemon: true,
		holds:  []float64{30000, 60000, 90000},
		claim: func(b *bench) float64 {
			return 100 * median(b.layers["restart_cycle_s"]) / median(b.layers["run_s"])
		},
		claimText: "park+checkpoint+restore share of the run > 50%",
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// bench accumulates one invocation's samples.
type bench struct {
	w       *workload
	seed    int64
	heldOut int64
	budget  time.Duration
	traced  bool
	workdir string
	profile string // file prefix for raw traced CPU profiles; "" keeps none
	g       gate

	// End-to-end samples: one per rep (setup, throughput, allocations,
	// heap) or per checkpoint/restore cycle.
	setup, vps, allocsPerVM, heapMB []float64
	ckpt, restore, ckptMB           byHold

	// sha is the event-log hash every run of the seed must reproduce;
	// counts the deterministic counts of the first rep, which every
	// later rep must repeat.
	sha            string
	counts         map[string]float64
	countMismatch  int
	qos, poolShare float64
	dramSaved      float64

	// Traced run: per-layer samples (one per traced rep or cycle), CPU
	// profile samples by module, and throughput with tracing off and on.
	layers                map[string][]float64
	cpu                   map[string]int64
	profiles              int
	untracedVPS, traceVPS []float64
}

// run does the untimed correctness passes, then measures in steps — a
// measured run (with extra set-ups), and for batch workloads a
// checkpoint/restore probe — alternating until the next step would
// overrun the time budget. Every step kind runs at least once.
func (b *bench) run(ctx context.Context) result {
	opts := b.w.opts(b.seed)
	b.verify(ctx, opts)
	steps := []func(){
		func() {
			if b.traced {
				b.rep(ctx, opts, false)
			} else {
				b.extraSetups(ctx, opts, 8)
			}
			b.rep(ctx, opts, b.traced)
		},
	}
	if !b.w.daemon {
		steps = append(steps, func() { b.probe(ctx, opts, b.traced) })
	}
	took := make([]time.Duration, len(steps))
	start := time.Now()
	for i := 0; ; i++ {
		k := i % len(steps)
		if i >= len(steps) && time.Since(start)+took[k] > b.budget {
			logf("%d steps in %.1fs", i, time.Since(start).Seconds())
			break
		}
		t := time.Now()
		steps[k]()
		took[k] = time.Since(t)
	}
	return b.result()
}

// rep is one measured run of the workload.
func (b *bench) rep(ctx context.Context, opts pond.FleetOpts, traced bool) {
	if b.w.daemon {
		b.restartRep(ctx, opts, traced)
	} else {
		b.libRep(ctx, opts, traced)
	}
}

// verify runs the untimed correctness passes. The reference run, whose
// hash every measured run of the seed must reproduce, uses the other
// worker count, so each measured run is also a workers 1-against-2
// check; the daemon workload, whose simulation is cheap, also runs the
// reference at its own worker count. The held-out seed must give a
// different hash.
func (b *bench) verify(ctx context.Context, opts pond.FleetOpts) {
	flip := opts
	flip.Engine.Workers = 3 - opts.Engine.Workers
	ref, err := runFleet(ctx, flip)
	if !b.g.op(err, "reference run") {
		return
	}
	b.sha = ref.LogSHA256
	b.qos = pct(ref.QoSViolations, ref.Departed)
	b.poolShare = 100 * ref.PoolShare
	b.dramSaved = ref.DRAMSavedGB
	if b.w.daemon {
		if rep, err := runFleet(ctx, opts); b.g.op(err, "uninterrupted run") {
			b.g.check(rep.LogSHA256 == b.sha, "workers %d vs %d: sha %s != %s",
				opts.Engine.Workers, flip.Engine.Workers, rep.LogSHA256, b.sha)
		}
	}
	held := opts
	held.Engine.Seed = b.heldOut
	if rep, err := runFleet(ctx, held); b.g.op(err, "held-out seed run") {
		b.g.check(rep.LogSHA256 != b.sha, "held-out seed gave the measured seed's sha %s", b.sha)
	}
}

// extraSetups adds n set-up samples beyond the one each measured run
// gives: StartFleet calls for batch workloads, POST /runs round trips
// (of runs that hold at t=0 and never simulate) on a stateless daemon
// for the daemon workload.
func (b *bench) extraSetups(ctx context.Context, opts pond.FleetOpts, n int) {
	if b.w.daemon {
		d, err := startDaemon("")
		if !b.g.op(err, "serve.New") {
			return
		}
		defer d.close()
		defer d.srv.Park()
		c := client()
		defer c.CloseIdleConnections()
		for range n {
			runtime.GC()
			t := time.Now()
			err := call(c, "POST", d.url+"/runs", startRequest{Opts: opts, HoldAtSec: []float64{0}}, nil)
			if b.g.op(err, "POST /runs") {
				b.setup = append(b.setup, time.Since(t).Seconds())
			}
		}
		return
	}
	for range n {
		runtime.GC()
		t := time.Now()
		_, err := pond.StartFleet(ctx, opts)
		if b.g.op(err, "StartFleet") {
			b.setup = append(b.setup, time.Since(t).Seconds())
		}
	}
}

// runFleet is an untraced batch run through StartFleet/Finish.
func runFleet(ctx context.Context, opts pond.FleetOpts) (*pond.FleetReport, error) {
	fr, err := pond.StartFleet(ctx, opts)
	if err != nil {
		return nil, err
	}
	return fr.Finish(ctx)
}

func pct(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return 100 * float64(n) / float64(of)
}

// libRun is what one batch drive through the facade observed.
type libRun struct {
	setup, wall time.Duration
	allocs      uint64
	rep         *pond.FleetReport
	log         string
	lines       int
}

// drive runs opts through StartFleet, advancing in 1/64-horizon slices
// and draining the event log after each, as a closed-loop caller does.
// At each of holds it hands the paused run to atHold, which may replace
// it (a checkpoint/restore cycle). tr, when set, records a span around
// every facade call plus the facade's own phase spans. heap, when set,
// samples the live heap every eighth slice and at the end.
func drive(ctx context.Context, opts pond.FleetOpts, tr *tracer, heap *peakHeap, holds []float64,
	atHold func(*pond.FleetRun) (*pond.FleetRun, error)) (libRun, error) {
	var lr libRun
	runtime.GC()
	root := tr.begin("run")
	defer tr.end(root)
	hook := func(fr *pond.FleetRun) {
		if tr != nil {
			fr.SetPhaseHook(func(phase string, _, sec float64) {
				tr.add("phase."+phase, time.Duration(sec*float64(time.Second)))
			})
		}
	}

	t0 := time.Now()
	sp := tr.begin("fleet.start")
	fr, err := pond.StartFleet(ctx, opts)
	tr.end(sp)
	if err != nil {
		return lr, err
	}
	lr.setup = time.Since(t0)
	hook(fr)

	var log strings.Builder
	drain := func() {
		sp := tr.begin("fleet.drain")
		evs := fr.DrainEvents()
		tr.end(sp)
		for _, e := range evs {
			log.WriteString(e.Line)
			log.WriteByte('\n')
		}
		lr.lines += len(evs)
	}
	a0 := heapAllocs()
	t1 := time.Now()
	horizon := fr.Progress().DurationSec
	slice := horizon / 64
	for i := 1; !fr.Done(); i++ {
		next := min(fr.Now()+slice, horizon)
		holding := len(holds) > 0 && holds[0] <= next
		if holding {
			next = holds[0]
		}
		sp := tr.begin("fleet.advance")
		err := fr.Advance(ctx, next)
		tr.end(sp)
		if err != nil {
			return lr, err
		}
		drain()
		if heap != nil && i%8 == 0 {
			heap.sample()
		}
		if holding {
			holds = holds[1:]
			if fr, err = atHold(fr); err != nil {
				return lr, err
			}
			hook(fr)
			if heap != nil {
				heap.sample()
			}
		}
	}
	sp = tr.begin("fleet.finish")
	rep, err := fr.Finish(ctx)
	tr.end(sp)
	if err != nil {
		return lr, err
	}
	drain()
	lr.wall = time.Since(t1)
	lr.allocs = heapAllocs() - a0
	if heap != nil {
		heap.sample()
	}
	lr.rep = rep
	lr.log = log.String()
	return lr, nil
}

// libRep is one measured batch run; traced runs also take a CPU
// profile and record the per-layer split.
func (b *bench) libRep(ctx context.Context, opts pond.FleetOpts, traced bool) {
	var tr *tracer
	var prof bytes.Buffer
	profiling := false
	if traced {
		tr = newTracer()
		profiling = b.g.op(pprof.StartCPUProfile(&prof), "cpu profile")
	}
	lr, err := drive(ctx, opts, tr, nil, nil, nil)
	if profiling {
		pprof.StopCPUProfile()
		b.addProfile(prof.Bytes())
	}
	if !b.g.op(err, "run") {
		return
	}
	vps := float64(lr.rep.Arrivals) / lr.wall.Seconds()
	b.checkRun(lr.rep.LogSHA256, pond.EventLogSHA256(lr.log, opts.Cluster.Cells), map[string]float64{
		"count.arrivals":   float64(lr.rep.Arrivals),
		"count.placed":     float64(lr.rep.Placed),
		"count.events":     float64(lr.lines),
		"count.log_bytes":  float64(len(lr.log)),
		"count.retrains":   float64(lr.rep.Retrains),
		"count.promotions": float64(lr.rep.Promotions),
		"count.fallbacks":  float64(lr.rep.Fallbacks),
	})
	b.g.check(len(lr.log) == len(lr.rep.EventLog), "drained log holds %d bytes, the report's event log %d", len(lr.log), len(lr.rep.EventLog))
	if b.traced && !traced {
		b.untracedVPS = append(b.untracedVPS, vps)
		return
	}
	if traced {
		b.traceVPS = append(b.traceVPS, vps)
		tot := tr.totals()
		b.layer("fleet.start_s", tot["fleet.start"])
		b.layer("fleet.advance_s", tot["phase.advance"])
		b.layer("fleet.retrain_s", tot["phase.retrain"])
		b.layer("fleet.plan_s", tot["phase.plan"])
		b.layer("fleet.finish_s", tot["fleet.finish"])
		b.layer("fleet.drain_s", tot["fleet.drain"])
		b.layer("run_s", tot["run"])
		b.layer("trace.unattributed_s", tr.selfTotal("run"))
		return
	}
	b.setup = append(b.setup, lr.setup.Seconds())
	b.vps = append(b.vps, vps)
	b.allocsPerVM = append(b.allocsPerVM, float64(lr.allocs)/float64(lr.rep.Arrivals))
}

// probeCycles is how many checkpoint/restore cycles a probe makes at
// each hold; repeating the cycle at one hold gives samples of the same
// state size, so their median is steady.
const probeCycles = 2

// probe runs the workload with checkpoint/restore cycles at each hold:
// FleetRun.Snapshot written to a file, then read back through
// RestoreFleet, the run continuing on the restored copy. The restored
// run must end with the uninterrupted run's hash. The probe also gives
// the peak live heap: the timed runs never pause to collect.
// A traced probe instead keeps each checkpoint file for the snapshot
// layer replay.
func (b *bench) probe(ctx context.Context, opts pond.FleetOpts, traced bool) {
	path := filepath.Join(b.workdir, "snapshot.json")
	var files [][]byte
	var ckpt, restore, size byHold
	var heap peakHeap
	cycle := func(hold int, fr *pond.FleetRun) (*pond.FleetRun, error) {
		heap.settle()
		t := time.Now()
		snap, err := fr.Snapshot()
		if err != nil {
			return nil, err
		}
		data, err := json.Marshal(snap)
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return nil, err
		}
		ckpt.add(hold, time.Since(t).Seconds())
		size.add(hold, mb(uint64(len(data))))

		heap.settle()
		t = time.Now()
		data, err = os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var back pond.FleetSnapshot
		if err := json.Unmarshal(data, &back); err != nil {
			return nil, err
		}
		restored, err := pond.RestoreFleet(ctx, &back)
		if err != nil {
			return nil, err
		}
		restore.add(hold, time.Since(t).Seconds())
		if traced {
			files = append(files, data)
		}
		return restored, nil
	}
	hold := 0
	atHold := func(fr *pond.FleetRun) (*pond.FleetRun, error) {
		heap.sample()
		for range probeCycles {
			var err error
			if fr, err = cycle(hold, fr); err != nil {
				return nil, err
			}
		}
		hold++
		return fr, nil
	}
	lr, err := drive(ctx, opts, nil, &heap, b.w.holds, atHold)
	if !b.g.op(err, "checkpoint/restore run") {
		return
	}
	b.g.check(lr.rep.LogSHA256 == b.sha, "restored run sha %s != uninterrupted %s", lr.rep.LogSHA256, b.sha)
	b.g.check(pond.EventLogSHA256(lr.log, opts.Cluster.Cells) == b.sha, "restored run's drained log hash != uninterrupted sha")
	if !traced {
		b.ckpt.merge(ckpt)
		b.restore.merge(restore)
		b.ckptMB.merge(size)
		b.heapMB = append(b.heapMB, mb(heap.peak))
		return
	}
	for _, f := range files {
		b.replay(ctx, f, false)
	}
}

// replay records the snapshot layer split of one checkpoint file.
func (b *bench) replay(ctx context.Context, file []byte, daemon bool) {
	rp, err := replayCheckpoint(ctx, file, daemon)
	if !b.g.op(err, "snapshot replay") {
		return
	}
	b.layer("snapshot.decode_s", rp.decode.Seconds())
	b.layer("snapshot.rebuild_s", rp.rebuild.Seconds())
	b.layer("snapshot.capture_s", rp.capture.Seconds())
	b.layer("snapshot.encode_s", rp.encode.Seconds())
	for _, s := range snapshotSections {
		b.layer("snapshot.bytes."+s, rp.sections[s])
	}
	b.layer("checkpoint.events_bytes", float64(rp.eventsBytes))
}

// checkRun checks one run's hashes and deterministic counts against the
// other runs of the same seed.
func (b *bench) checkRun(reportSHA, drainedSHA string, counts map[string]float64) {
	b.g.check(reportSHA == b.sha, "run sha %s != reference %s", reportSHA, b.sha)
	b.g.check(drainedSHA == reportSHA, "drained log hash %s != report sha %s", drainedSHA, reportSHA)
	if len(b.counts) == 0 {
		for k, v := range counts {
			b.counts[k] = v
		}
		return
	}
	for k, v := range counts {
		if !b.g.check(v == b.counts[k], "%s = %g differs from an earlier run's %g", k, v, b.counts[k]) {
			b.countMismatch++
		}
	}
}

func (b *bench) layer(name string, v float64) {
	b.layers[name] = append(b.layers[name], v)
}

// addProfile folds one CPU profile into the per-module sample counts
// and, with --cpuprofile, keeps the raw profile for go tool pprof.
func (b *bench) addProfile(gz []byte) {
	if b.profile != "" {
		b.profiles++
		name := fmt.Sprintf("%s.%d.pprof", b.profile, b.profiles)
		b.g.op(os.WriteFile(name, gz, 0o644), "write "+name)
	}
	by, err := profileSamples(gz)
	if !b.g.op(err, "cpu profile decode") {
		return
	}
	for k, v := range by {
		b.cpu[k] += v
	}
}

// cpuShareOfPond is the given modules' share of the CPU samples that
// landed in any pond/internal module, in percent.
func (b *bench) cpuShareOfPond(mods ...string) float64 {
	var pondTotal, part int64
	for k, v := range b.cpu {
		if k != "gc" && k != "json" && k != "other" {
			pondTotal += v
		}
	}
	for _, m := range mods {
		part += b.cpu[m]
	}
	if pondTotal == 0 {
		return 0
	}
	return 100 * float64(part) / float64(pondTotal)
}

// result assembles the output metrics for the mode that ran: each is
// the median of its samples, printed with its spread above the result.
func (b *bench) result() result {
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{Value: finite(v), Unit: unit} }
	if !b.traced {
		samples := map[string][]float64{
			"setup_s": b.setup, "vms_per_s": b.vps, "allocs_per_vm": b.allocsPerVM,
			"peak_heap_mb": b.heapMB, "checkpoint_s": b.ckpt.all(), "restore_s": b.restore.all(),
			"checkpoint_mb": b.ckptMB.all(),
		}
		units := map[string]string{
			"setup_s": "s", "vms_per_s": "1/s", "allocs_per_vm": "count", "peak_heap_mb": "MB",
			"checkpoint_s": "s", "restore_s": "s", "checkpoint_mb": "MB",
		}
		printSummary(samples, units)
		for name, xs := range samples {
			put(name, units[name], median(xs))
		}
		// Checkpoint samples come from holds of different state sizes:
		// average the per-hold medians instead of taking one median
		// across the mix.
		put("checkpoint_s", "s", b.ckpt.estimate())
		put("restore_s", "s", b.restore.estimate())
		put("checkpoint_mb", "MB", b.ckptMB.estimate())
	} else {
		units := map[string]string{}
		for name := range b.layers {
			units[name] = layerUnit(name)
		}
		printSummary(b.layers, units)
		for _, name := range layerMetrics {
			put(name, layerUnit(name), median(b.layers[name]))
		}
		var total int64
		for _, v := range b.cpu {
			total += v
		}
		for _, mod := range append(append([]string(nil), cpuModules...), "json", "gc", "other") {
			put("cpu."+mod, "%", 100*float64(b.cpu[mod])/float64(max(total, 1)))
		}
		for name, v := range b.counts {
			unit := "count"
			if strings.HasSuffix(name, "_bytes") {
				unit = "bytes"
			}
			put(name, unit, v)
		}
		put("count.mismatches", "count", float64(b.countMismatch))
		put("model.qos_violation_pct", "%", b.qos)
		put("model.pool_share_pct", "%", b.poolShare)
		put("model.dram_saved_gb", "GB", b.dramSaved)
		put("trace.overhead_pct", "%", 100*(1-median(b.traceVPS)/median(b.untracedVPS)))
		claim := b.w.claim(b)
		put("stress.claimed_share_pct", "%", claim)
		verdict := "met"
		if claim <= 50 {
			verdict = "NOT met"
		}
		logf("stress claim (%s): %.1f%% — %s", b.w.claimText, claim, verdict)
	}
	return result{Correct: b.g.failed == 0, Attempted: b.g.attempted, Failed: b.g.failed, Metrics: m}
}

// layerMetrics are the per-layer timing and size metrics every traced
// run reports; a layer a workload never enters reads 0.
var layerMetrics = []string{
	"fleet.start_s", "fleet.advance_s", "fleet.retrain_s", "fleet.plan_s",
	"fleet.finish_s", "fleet.drain_s",
	"snapshot.capture_s", "snapshot.encode_s", "snapshot.decode_s", "snapshot.rebuild_s",
	"serve.park_s", "serve.checkpoint_write_s", "serve.new_s",
	"trace.unattributed_s",
	"snapshot.bytes.heap", "snapshot.bytes.running", "snapshot.bytes.log",
	"snapshot.bytes.store", "snapshot.bytes.server", "snapshot.bytes.mlops",
	"snapshot.bytes.collector", "snapshot.bytes.hosts", "snapshot.bytes.pool",
	"snapshot.bytes.emcs", "checkpoint.events_bytes",
}

func layerUnit(name string) string {
	if strings.HasSuffix(name, "_s") {
		return "s"
	}
	return "bytes"
}
