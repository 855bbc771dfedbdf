package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
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
// counters, an untouched-memory memo cache, and opaque-VM memo entries
// mixed into sens_cache.
type parentServerState struct {
	Generation       int                       `json:"generation"`
	Requests         int64                     `json:"requests"`
	CacheHits        int64                     `json:"cache_hits"`
	ServedCostMicros float64                   `json:"served_cost_micros"`
	SensCache        []predict.CacheEntryState `json:"sens_cache,omitempty"`
	UMCache          []predict.CacheEntryState `json:"um_cache"`
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
		for _, e := range st.SensCache {
			named[e.Key] = true
		}
		old := parentServerState{Generation: st.Generation, Requests: 1000, CacheHits: 400, ServedCostMicros: 72800, SensCache: st.SensCache}
		for k := uint64(0); k < 8; k++ {
			opaque := stats.NewDigest().Word(0x0dead).Word(uint64(i)).Word(k).Sum()
			um := stats.NewDigest().Word(0x1dead).Word(uint64(i)).Word(k).Sum()
			if named[opaque] {
				tb.Fatalf("cell %d: opaque key %d collides with a named pair", i, opaque)
			}
			old.SensCache = append(old.SensCache, predict.CacheEntryState{Key: opaque, Generation: st.Generation, Value: 0.999})
			old.UMCache = append(old.UMCache, predict.CacheEntryState{Key: um, Generation: st.Generation, Value: 0.999})
		}
		sort.Slice(old.SensCache, func(a, b int) bool { return old.SensCache[a].Key < old.SensCache[b].Key })
		c["server"] = mustMarshal(tb, old)
	}
	snap["cells"] = mustMarshal(tb, cells)
	return mustMarshal(tb, snap)
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
	for _, field := range []string{"um_cache", "requests", "cache_hits", "served_cost_micros"} {
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
