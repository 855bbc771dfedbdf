package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"pond/internal/predict"
	"pond/internal/stats"
)

// snapshotCases are the configurations the round-trip tests cover: the
// plain cell-scoped path, the same with retraining off (monitor-only
// mlops managers), the barriered fleet-scope release train, and the
// elastic pool — every subsystem a snapshot must carry.
func snapshotCases() map[string]Options {
	plain := testOptions()
	plain.Predictions = true
	plain.RetrainEverySec = 100
	plain.MinTrainRows = 16
	plain.Injections = mustParseInjections("emc-fail@t=200")

	monitorOnly := plain
	monitorOnly.RetrainEverySec = 0

	fleetScope := testOptions()
	fleetScope.Predictions = true
	fleetScope.Arrival.RatePerSec = 0.2
	fleetScope.RetrainEverySec = 100
	fleetScope.MinTrainRows = 16
	fleetScope.ModelScope = ScopeFleet
	fleetScope.Injections = mustParseInjections("surge@t=100:dur=100:x=3")

	elastic := testOptions()
	elastic.Predictions = true
	elastic.Arrival.RatePerSec = 0.2
	elastic.ElasticPool = true
	elastic.PlanEverySec = 100
	elastic.Injections = mustParseInjections("resize@t=150:emc=1:slices=-8,drift@t=250:mag=0.5")

	return map[string]Options{
		"cell-scope":   plain,
		"monitor-only": monitorOnly,
		"fleet-scope":  fleetScope,
		"elastic":      elastic,
	}
}

// monitorOnly reports whether o builds cell-scoped mlops managers that
// are never ticked.
func monitorOnly(o Options) bool {
	return o.Predictions && o.ModelScope != ScopeFleet && o.RetrainEverySec == 0
}

// addDeadTrainingRows gives every cell's mlops section the training rows
// and pending feature copies an older build wrote for monitor-only
// managers, failing if the snapshot already carried any.
func addDeadTrainingRows(t *testing.T, s *Snapshot) {
	t.Helper()
	checkNoTrainingRows(t, s)
	row := make([]float64, 200)
	for k := range row {
		row[k] = float64(k) / 200
	}
	for i := range s.Cells {
		ms := s.Cells[i].Mlops
		if ms == nil {
			t.Fatalf("cell %d: no mlops section", i)
		}
		ms.UMX = [][]float64{{1, 2, 3}, {4, 5, 6}}
		ms.UMY = []float64{0.25, 0.5}
		ms.InsX = [][]float64{row, row}
		ms.InsY = []float64{0, 1}
		for k := range ms.Pending {
			ms.Pending[k].Feats = []float64{7, 8, 9}
		}
	}
}

// checkNoTrainingRows fails if any cell's mlops section carries training
// rows or pending feature copies.
func checkNoTrainingRows(t *testing.T, s *Snapshot) {
	t.Helper()
	for i, c := range s.Cells {
		ms := c.Mlops
		if ms == nil {
			continue
		}
		if len(ms.UMX)+len(ms.UMY)+len(ms.InsX)+len(ms.InsY) > 0 {
			t.Fatalf("cell %d: monitor-only snapshot carries %d/%d/%d/%d training rows",
				i, len(ms.UMX), len(ms.UMY), len(ms.InsX), len(ms.InsY))
		}
		for _, p := range ms.Pending {
			if p.Feats != nil {
				t.Fatalf("cell %d: pending vm %d carries a feature copy", i, p.VM)
			}
		}
	}
}

// parentServerState is the server section older builds wrote: request
// counters, an untouched-memory memo cache, opaque-VM memo entries
// mixed into sens_cache, and a generation on every cache entry.
type parentServerState struct {
	Generation       int                `json:"generation"`
	Requests         int64              `json:"requests"`
	CacheHits        int64              `json:"cache_hits"`
	ServedCostMicros float64            `json:"served_cost_micros"`
	SensCache        []parentCacheEntry `json:"sens_cache,omitempty"`
	UMCache          []parentCacheEntry `json:"um_cache"`
}

// parentCacheEntry is a cache entry as older builds wrote it.
type parentCacheEntry struct {
	Key        int64   `json:"key"`
	Generation int     `json:"gen"`
	Value      float64 `json:"value"`
}

// withParentServerState rewrites every cell's server section of a
// snapshot's JSON to the shape an older build wrote. The added opaque
// entries carry a score no request of the run computes, under keys no
// named (customer, workload) pair of the run uses.
func withParentServerState(tb testing.TB, wire []byte) []byte {
	tb.Helper()
	var snap map[string]json.RawMessage
	var cells []map[string]json.RawMessage
	if err := json.Unmarshal(wire, &snap); err != nil {
		tb.Fatal(err)
	}
	if err := json.Unmarshal(snap["cells"], &cells); err != nil {
		tb.Fatal(err)
	}
	for i, c := range cells {
		var st predict.ServerState
		if c["server"] == nil {
			tb.Fatalf("cell %d: no server section", i)
		}
		if err := json.Unmarshal(c["server"], &st); err != nil {
			tb.Fatal(err)
		}
		named := map[int64]bool{}
		old := parentServerState{Generation: st.Generation, Requests: 1000, CacheHits: 400, ServedCostMicros: 72800}
		for _, e := range st.SensCache {
			named[e.Key] = true
			old.SensCache = append(old.SensCache, parentCacheEntry{Key: e.Key, Generation: st.Generation, Value: e.Value})
		}
		for k := uint64(0); k < 8; k++ {
			opaque := stats.NewDigest().Word(0x0dead).Word(uint64(i)).Word(k).Sum()
			um := stats.NewDigest().Word(0x1dead).Word(uint64(i)).Word(k).Sum()
			if named[opaque] {
				tb.Fatalf("cell %d: opaque key %d collides with a named pair", i, opaque)
			}
			old.SensCache = append(old.SensCache, parentCacheEntry{Key: opaque, Generation: st.Generation, Value: 0.999})
			old.UMCache = append(old.UMCache, parentCacheEntry{Key: um, Generation: st.Generation, Value: 0.999})
		}
		sort.Slice(old.SensCache, func(a, b int) bool { return old.SensCache[a].Key < old.SensCache[b].Key })
		c["server"] = mustMarshal(tb, old)
	}
	snap["cells"] = mustMarshal(tb, cells)
	return mustMarshal(tb, snap)
}

// addParentArrivals gives every cell's queue the arrival entries an
// older build stored there: one kind-0 entry, seq and idx equal to its
// stream index, per arrival at or after the snapshot's clock. The queue
// is then reversed, so restore must re-heapify rather than trust the
// layout. It fails if the snapshot already queued an arrival.
func addParentArrivals(tb testing.TB, s *Snapshot) {
	tb.Helper()
	checkNoQueuedArrivals(tb, s)
	for i := range s.Cells {
		c := &s.Cells[i]
		arr := generateArrivals(s.Options, c.Cell, c.ArrSeed)
		for k := range arr {
			if arr[k].ArrivalSec >= s.NowSec {
				c.Heap = append(c.Heap, EventState{At: arr[k].ArrivalSec, Seq: k, Kind: evArrive, Idx: k})
			}
		}
		slices.Reverse(c.Heap)
	}
}

// checkNoQueuedArrivals fails if any cell's queue carries an arrival.
func checkNoQueuedArrivals(tb testing.TB, s *Snapshot) {
	tb.Helper()
	for i, c := range s.Cells {
		for _, es := range c.Heap {
			if es.Kind == evArrive {
				tb.Fatalf("cell %d: snapshot queues arrival %d at t=%g", i, es.Idx, es.At)
			}
		}
	}
}

func mustMarshal(tb testing.TB, v any) []byte {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// checkNoParentServerFields fails if a captured snapshot carries any
// server field only older builds wrote.
func checkNoParentServerFields(t *testing.T, s *Snapshot) {
	t.Helper()
	wire := mustMarshal(t, s)
	for _, field := range []string{"um_cache", "requests", "cache_hits", "served_cost_micros", "gen"} {
		if bytes.Contains(wire, []byte(`"`+field+`"`)) {
			t.Fatalf("re-captured snapshot carries %q", field)
		}
	}
}

// TestSnapshotRestoreMatchesUninterrupted is the tentpole's correctness
// bar: snapshot at a mid-run safe point, restore in a fresh Runner
// (through the JSON wire form, as a fresh process would), and the
// remaining event log plus the final report hash must be byte-identical
// to the uninterrupted batch run — for worker counts 1 and 4.
func TestSnapshotRestoreMatchesUninterrupted(t *testing.T) {
	for name, o := range snapshotCases() {
		for _, workers := range []int{1, 4} {
			o := o
			o.Workers = workers
			t.Run(name+"/workers="+string(rune('0'+workers)), func(t *testing.T) {
				t.Parallel()
				ctx := context.Background()
				batch, err := Run(ctx, o)
				if err != nil {
					t.Fatal(err)
				}

				r, err := NewRunner(ctx, o)
				if err != nil {
					t.Fatal(err)
				}
				if err := r.Advance(ctx, 170); err != nil {
					t.Fatal(err)
				}
				drained := r.DrainEvents()
				prefix := ""
				// Reassemble the drained prefix per stream for the byte check
				// below: cells in cell order, fleet last — report layout.
				perCell := make([]string, o.Cells)
				fleetPart := ""
				for _, ev := range drained {
					if ev.Cell < 0 {
						fleetPart += ev.Line + "\n"
					} else {
						perCell[ev.Cell] += ev.Line + "\n"
					}
				}
				for _, s := range perCell {
					prefix += s
				}
				prefix += fleetPart

				snap, err := r.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				wire, err := json.Marshal(snap)
				if err != nil {
					t.Fatal(err)
				}
				// Every case serves predictions: restore the server
				// section an older build wrote, whose memo caches and
				// counters the restore must drop without changing a
				// byte of the remaining run.
				var loaded Snapshot
				if err := json.Unmarshal(withParentServerState(t, wire), &loaded); err != nil {
					t.Fatal(err)
				}
				if monitorOnly(o) {
					// Restore what an older build wrote: dead training
					// rows the restore must drop without changing a byte
					// of the remaining run.
					addDeadTrainingRows(t, &loaded)
				}
				// Older builds also queued every future arrival; the
				// restore must drop them in favour of the stream cursor.
				addParentArrivals(t, &loaded)

				restored, err := RestoreRunner(ctx, &loaded)
				if err != nil {
					t.Fatal(err)
				}
				if restored.Now() != r.Now() {
					t.Fatalf("restored clock %g, want %g", restored.Now(), r.Now())
				}
				again, err := restored.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				checkNoParentServerFields(t, again)
				checkNoQueuedArrivals(t, again)
				if monitorOnly(o) {
					checkNoTrainingRows(t, again)
				}
				rep, err := restored.Finish(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if rep.LogSHA256 != batch.LogSHA256 {
					gotLines := splitLines(rep.EventLog)
					wantLines := splitLines(batch.EventLog)
					line, g, w := firstDiff(gotLines, wantLines)
					t.Fatalf("restored run hash %s, batch %s; first divergence at line %d:\n  got:  %s\n  want: %s",
						rep.LogSHA256, batch.LogSHA256, line, g, w)
				}
				if rep.EventLog != batch.EventLog {
					t.Fatalf("restored EventLog differs from batch (%d vs %d bytes)", len(rep.EventLog), len(batch.EventLog))
				}
				if rep.Events != batch.Events {
					t.Fatalf("restored Events=%d, batch %d", rep.Events, batch.Events)
				}

				// The remaining log after the snapshot point must be exactly
				// the batch log minus the drained prefix, stream by stream.
				restored2, err := RestoreRunner(ctx, snap)
				if err != nil {
					t.Fatal(err)
				}
				if err := restored2.Advance(ctx, o.DurationSec); err != nil {
					t.Fatal(err)
				}
				rest := restored2.DrainEvents()
				perCell2 := make([]string, o.Cells)
				fleet2 := ""
				for _, ev := range rest {
					if ev.Cell < 0 {
						fleet2 += ev.Line + "\n"
					} else {
						perCell2[ev.Cell] += ev.Line + "\n"
					}
				}
				if _, err := restored2.Finish(ctx); err != nil {
					t.Fatal(err)
				}
				final := restored2.DrainEvents()
				for _, ev := range final {
					if ev.Cell < 0 {
						fleet2 += ev.Line + "\n"
					} else {
						perCell2[ev.Cell] += ev.Line + "\n"
					}
				}
				full := ""
				for i := range perCell2 {
					full += perCell[i] + perCell2[i]
				}
				full += fleetPart + fleet2
				if full != batch.EventLog {
					t.Fatalf("drained-prefix + restored-remainder reassembly differs from batch log (%d vs %d bytes)",
						len(full), len(batch.EventLog))
				}
			})
		}
	}
}

func splitLines(s string) []string {
	var out []string
	for len(s) > 0 {
		i := 0
		for i < len(s) && s[i] != '\n' {
			i++
		}
		out = append(out, s[:i])
		if i < len(s) {
			i++
		}
		s = s[i:]
	}
	return out
}

// TestSnapshotRefusedAfterFinish pins the safe-point contract: a
// finished run cannot be snapshotted.
func TestSnapshotRefusedAfterFinish(t *testing.T) {
	o := testOptions()
	ctx := context.Background()
	r, err := NewRunner(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Finish(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Snapshot(); err == nil {
		t.Fatal("snapshot of a finished run succeeded")
	}
}

// TestRestoreRejectsVersionAndShape pins the validation surface.
func TestRestoreRejectsVersionAndShape(t *testing.T) {
	o := testOptions()
	ctx := context.Background()
	r, err := NewRunner(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Advance(ctx, 50); err != nil {
		t.Fatal(err)
	}
	snap, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	bad := *snap
	bad.Version = SnapshotVersion + 1
	if _, err := RestoreRunner(ctx, &bad); err == nil {
		t.Fatal("wrong snapshot version accepted")
	}
	bad = *snap
	bad.Cells = snap.Cells[:1]
	if _, err := RestoreRunner(ctx, &bad); err == nil {
		t.Fatal("truncated cell list accepted")
	}
	if _, err := RestoreRunner(ctx, nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
}

// TestRestoreRejectsMalformedQueue pins that a queue entry the run
// cannot process fails the restore, instead of restoring and then
// panicking on the next Advance, while an older build's arrival entry —
// whatever index it names — is dropped for the stream cursor.
func TestRestoreRejectsMalformedQueue(t *testing.T) {
	o := testOptions()
	o.Injections = mustParseInjections("emc-fail@t=300")
	ctx := context.Background()
	batch, err := Run(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	// withEntry snapshots a run of opts at t=100 and queues es in cell 1.
	withEntry := func(opts Options, es EventState) *Snapshot {
		t.Helper()
		r, err := NewRunner(ctx, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Advance(ctx, 100); err != nil {
			t.Fatal(err)
		}
		snap, err := r.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		var s Snapshot
		if err := json.Unmarshal(mustMarshal(t, snap), &s); err != nil {
			t.Fatal(err)
		}
		s.Cells[1].Heap = append(s.Cells[1].Heap, es)
		return &s
	}
	monitor := o
	monitor.Predictions = true
	tick := EventState{At: 150, Seq: seqRetrainBand, Kind: evRetrain}
	for name, bad := range map[string]*Snapshot{
		"unknown-kind":        withEntry(o, EventState{At: 150, Seq: seqRuntimeBand + 1<<20, Kind: evRetrain + 1}),
		"injection-past-list": withEntry(o, EventState{At: 150, Seq: seqInjectBand + 99, Kind: evInject, Idx: 99}),
		"negative-injection":  withEntry(o, EventState{At: 150, Seq: seqInjectBand + 98, Kind: evInject, Idx: -1}),
		"retrain-no-manager":  withEntry(o, tick),
		"retrain-monitor":     withEntry(monitor, tick),
	} {
		t.Run(name, func(t *testing.T) {
			restored, err := RestoreRunner(ctx, bad)
			if err == nil {
				_, ferr := restored.Finish(ctx)
				t.Fatalf("restore accepted the entry (finish: %v)", ferr)
			}
		})
	}
	for name, edit := range map[string]func(*CellResult){
		"counts-past-stream": func(res *CellResult) { res.Placed = 1 << 30 },
		"negative-count":     func(res *CellResult) { res.Placed, res.Rejected = -1, res.Placed+res.Rejected+1 },
		"count-overflow":     func(res *CellResult) { res.Placed, res.Rejected = math.MaxInt, 1 },
	} {
		t.Run(name, func(t *testing.T) {
			bad := withEntry(o, EventState{At: 150, Seq: 1 << 30, Kind: evArrive, Idx: 1 << 30})
			edit(&bad.Cells[1].Result)
			if _, err := RestoreRunner(ctx, bad); err == nil {
				t.Fatal("restore accepted arrival counts that are no cursor")
			}
		})
	}
	restored, err := RestoreRunner(ctx, withEntry(o, EventState{At: 150, Seq: 1 << 30, Kind: evArrive, Idx: 1 << 30}))
	if err != nil {
		t.Fatalf("older build's arrival entry refused: %v", err)
	}
	rep, err := restored.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LogSHA256 != batch.LogSHA256 {
		t.Fatalf("run restored past a stale arrival entry hashes %s, batch %s", rep.LogSHA256, batch.LogSHA256)
	}
}

// cancelAfter is a context that reports cancellation from its (n+1)th
// Err call on: at workers 1 the engine checks it before each cell, so an
// Advance under it runs exactly the first n cells.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n > 0 {
		c.n--
		return nil
	}
	return context.Canceled
}

// TestRestoreTornAdvance snapshots a runner whose Advance was cancelled
// after its first cell, as a daemon shutdown can leave it: cell 0 has run
// to the target while the other cells and the runner's clock have not.
// The restored run must admit none of cell 0's processed arrivals again
// and finish on the batch hash.
func TestRestoreTornAdvance(t *testing.T) {
	o := testOptions()
	o.Workers = 1
	ctx := context.Background()
	batch, err := Run(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Advance(ctx, 100); err != nil {
		t.Fatal(err)
	}
	if err := r.Advance(&cancelAfter{Context: ctx, n: 1}, 250); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled advance returned %v", err)
	}
	snap, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.NowSec != 100 {
		t.Fatalf("torn runner's clock reads %g, want 100", snap.NowSec)
	}
	c0 := snap.Cells[0]
	before := 0
	for _, vm := range generateArrivals(snap.Options, c0.Cell, c0.ArrSeed) {
		if vm.ArrivalSec < snap.NowSec {
			before++
		}
	}
	if done := c0.Result.Placed + c0.Result.Rejected; done <= before {
		t.Fatalf("cell 0 processed %d arrivals, %d before the clock: the advance was not torn", done, before)
	}
	wire := mustMarshal(t, snap)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var loaded Snapshot
			if err := json.Unmarshal(wire, &loaded); err != nil {
				t.Fatal(err)
			}
			loaded.Options.Workers = workers
			restored, err := RestoreRunner(ctx, &loaded)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := restored.Finish(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if rep.LogSHA256 != batch.LogSHA256 {
				t.Fatalf("torn snapshot's run hashes %s, batch %s", rep.LogSHA256, batch.LogSHA256)
			}
			if rep.Arrivals != batch.Arrivals || rep.Placed != batch.Placed {
				t.Fatalf("torn snapshot's run: %d arrivals, %d placed; batch %d, %d",
					rep.Arrivals, rep.Placed, batch.Arrivals, batch.Placed)
			}
		})
	}
}

// TestRestoredRunTakesLiveArrivalInjections restores a run through the
// wire form, then adds a live surge and a live drift: both regenerate
// the arrival stream under the restored cursor, and the run must still
// finish on the batch hash of the options with both appended.
func TestRestoredRunTakesLiveArrivalInjections(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			o := testOptions()
			o.Workers = workers
			o.Injections = mustParseInjections("host-drain@t=120:host=1")
			ctx := context.Background()
			r, err := NewRunner(ctx, o)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Advance(ctx, 150); err != nil {
				t.Fatal(err)
			}
			snap, err := r.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			var loaded Snapshot
			if err := json.Unmarshal(mustMarshal(t, snap), &loaded); err != nil {
				t.Fatal(err)
			}
			restored, err := RestoreRunner(ctx, &loaded)
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range mustParseInjections("surge@t=180:dur=100:x=3,drift@t=220:mag=0.6") {
				if err := restored.AddInjection(in); err != nil {
					t.Fatal(err)
				}
			}
			if err := restored.Advance(ctx, 250); err != nil {
				t.Fatal(err)
			}
			rep, err := restored.Finish(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(restored.Options().Injections); n != 3 {
				t.Fatalf("restored run lists %d injections, want 3", n)
			}
			batch, err := Run(ctx, restored.Options())
			if err != nil {
				t.Fatal(err)
			}
			if rep.LogSHA256 != batch.LogSHA256 {
				t.Fatalf("restored run with live surge and drift hashes %s, batch %s", rep.LogSHA256, batch.LogSHA256)
			}
			if rep.Arrivals != batch.Arrivals {
				t.Fatalf("restored run counts %d arrivals, batch %d", rep.Arrivals, batch.Arrivals)
			}
		})
	}
}

// TestSnapshotQueueTracksLiveState bounds the snapshot's queue by the
// run's live state: at every hold each cell queues at most one
// departure per running VM or per VM an EMC failure released (their
// departures stay queued and are skipped when popped), plus the
// injections and retrain ticks not yet fired — never the future
// arrivals.
func TestSnapshotQueueTracksLiveState(t *testing.T) {
	o := testOptions()
	o.Predictions = true
	o.RetrainEverySec = 100
	o.MinTrainRows = 16
	o.Injections = mustParseInjections("surge@t=50:dur=100:x=3,emc-fail@t=200,host-drain@t=300:host=1")
	ctx := context.Background()
	r, err := NewRunner(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, hold := range []float64{0, 75, 150, 250, 350} {
		if err := r.Advance(ctx, hold); err != nil {
			t.Fatal(err)
		}
		snap, err := r.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		checkNoQueuedArrivals(t, snap)
		injections := 0
		for _, in := range snap.Options.Injections {
			if in.AtSec >= hold {
				injections++
			}
		}
		ticks := 0
		for tick := o.RetrainEverySec; tick <= o.DurationSec; tick += o.RetrainEverySec {
			if tick >= hold {
				ticks++
			}
		}
		for i, c := range snap.Cells {
			bound := len(c.Running) + c.Result.BlastVMs + injections + ticks
			if len(c.Heap) > bound {
				t.Fatalf("t=%g cell %d: %d queued events, live bound %d (running %d, blast %d, injections %d, ticks %d)",
					hold, i, len(c.Heap), bound, len(c.Running), c.Result.BlastVMs, injections, ticks)
			}
		}
	}
}

// TestAdvanceClampsToNow is the monotonic-clock regression test:
// advancing to the past neither rewinds the clock nor perturbs the run.
func TestAdvanceClampsToNow(t *testing.T) {
	o := testOptions()
	ctx := context.Background()
	r, err := NewRunner(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Advance(ctx, 200); err != nil {
		t.Fatal(err)
	}
	if r.Now() != 200 {
		t.Fatalf("Now() = %g, want 200", r.Now())
	}
	if err := r.Advance(ctx, 50); err != nil {
		t.Fatal(err)
	}
	if r.Now() != 200 {
		t.Fatalf("Now() after Advance(50) = %g, want 200 (clock went backwards)", r.Now())
	}
	// An injection at a time after the true clock but before a bogus
	// rewound one must still be accepted.
	if err := r.AddInjection(Injection{Kind: InjectSurge, AtSec: 250, DurSec: 50, Factor: 2}); err != nil {
		t.Fatalf("injection at t=250 refused after Advance(50): %v", err)
	}
	rep, err := r.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	batchOpts := r.Options()
	batch, err := Run(ctx, batchOpts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LogSHA256 != batch.LogSHA256 {
		t.Fatalf("clamped run hash %s differs from batch %s", rep.LogSHA256, batch.LogSHA256)
	}
}

// TestCompactDrainedPreservesHash pins the compaction satellite: with
// drained-prefix compaction on, the runner releases drained bytes but
// the final report hash, event count, and the drained-stream reassembly
// all still match the uncompacted batch run.
func TestCompactDrainedPreservesHash(t *testing.T) {
	o := testOptions()
	o.Predictions = true
	o.Injections = mustParseInjections("emc-fail@t=200")
	ctx := context.Background()
	batch, err := Run(ctx, o)
	if err != nil {
		t.Fatal(err)
	}

	r, err := NewRunner(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	r.SetCompactDrained(true)
	perCell := make([]string, o.Cells)
	fleetPart := ""
	drain := func() {
		for _, ev := range r.DrainEvents() {
			if ev.Cell < 0 {
				fleetPart += ev.Line + "\n"
			} else {
				perCell[ev.Cell] += ev.Line + "\n"
			}
		}
	}
	for _, tAt := range []float64{33, 90, 91, 250, 399} {
		if err := r.Advance(ctx, tAt); err != nil {
			t.Fatal(err)
		}
		drain()
	}
	rep, err := r.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	drain()
	if rep.LogSHA256 != batch.LogSHA256 {
		t.Fatalf("compacted run hash %s, batch %s", rep.LogSHA256, batch.LogSHA256)
	}
	if rep.Events != batch.Events {
		t.Fatalf("compacted Events=%d, batch %d", rep.Events, batch.Events)
	}
	if len(rep.EventLog) >= len(batch.EventLog) {
		t.Fatalf("compaction retained the whole log (%d bytes, batch %d)", len(rep.EventLog), len(batch.EventLog))
	}
	full := ""
	for i := range perCell {
		full += perCell[i]
	}
	full += fleetPart
	if full != batch.EventLog {
		t.Fatalf("drained reassembly differs from batch log (%d vs %d bytes)", len(full), len(batch.EventLog))
	}
	if got := EventLogSHA256(full, o.Cells); got != batch.LogSHA256 {
		t.Fatalf("EventLogSHA256(reassembly) = %s, want %s", got, batch.LogSHA256)
	}
}

// TestSnapshotOfCompactedRunRestores covers the interaction of the two
// new mechanisms: a snapshot taken mid-run with compaction on carries
// the digest midstates, and the restored run still finishes with the
// batch hash.
func TestSnapshotOfCompactedRunRestores(t *testing.T) {
	o := testOptions()
	o.Predictions = true
	ctx := context.Background()
	batch, err := Run(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	r.SetCompactDrained(true)
	if err := r.Advance(ctx, 180); err != nil {
		t.Fatal(err)
	}
	r.DrainEvents()
	snap, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	wire, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var loaded Snapshot
	if err := json.Unmarshal(wire, &loaded); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreRunner(ctx, &loaded)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := restored.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LogSHA256 != batch.LogSHA256 {
		t.Fatalf("restored compacted run hash %s, batch %s", rep.LogSHA256, batch.LogSHA256)
	}
}

// BenchmarkRestoreRunner pins the O(state) restore claim: rebuilding a
// runner from a snapshot taken deep into a long horizon costs the same
// as from one taken early, because restore rebuilds live state instead
// of replaying elapsed simulated time. Run both pause depths and
// compare: the deep restore must not scale with the elapsed horizon.
func BenchmarkRestoreRunner(b *testing.B) {
	for _, pause := range []float64{1000, 18000} {
		b.Run(fmt.Sprintf("pause=%g", pause), func(b *testing.B) {
			o := testOptions()
			o.DurationSec = 20000
			ctx := context.Background()
			r, err := NewRunner(ctx, o)
			if err != nil {
				b.Fatal(err)
			}
			r.SetCompactDrained(true)
			if err := r.Advance(ctx, pause); err != nil {
				b.Fatal(err)
			}
			r.DrainEvents()
			snap, err := r.Snapshot()
			if err != nil {
				b.Fatal(err)
			}
			wire, err := json.Marshal(snap)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(wire)), "snapshot-bytes")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var s Snapshot
				if err := json.Unmarshal(wire, &s); err != nil {
					b.Fatal(err)
				}
				if _, err := RestoreRunner(ctx, &s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
