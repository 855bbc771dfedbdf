package mlops

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"

	"pond/internal/cluster"
	"pond/internal/core"
	"pond/internal/pmu"
	"pond/internal/predict"
	"pond/internal/workload"
)

func coreDecision() core.Decision { return core.Decision{} }

// testVM builds a VM whose ground-truth untouched fraction is known.
func testVM(id int, untouched float64) cluster.VMRequest {
	w := workload.Catalogue()[id%4]
	return cluster.VMRequest{
		ID:       cluster.VMID(id),
		Customer: cluster.CustomerID(1 + id%8),
		Type:     cluster.VMTypes()[0],
		GroundTruth: cluster.VMGroundTruth{
			UntouchedFrac: untouched,
			Workload:      w,
		},
	}
}

// feats is a fixed-size feature vector whose first entry tracks the
// label, so a trained GBM can actually learn the mapping.
func feats(label float64) []float64 {
	return []float64{label, 1, 2, 3}
}

func testConfig() Config {
	c := DefaultConfig()
	c.MinTrainRows = 16
	c.MinHoldout = 8
	c.HoldoutWindow = 32
	return c
}

// drive feeds n (decision, outcome) pairs with the given untouched
// fraction through the manager.
func drive(m *Manager, startID, n int, untouched float64) {
	for i := 0; i < n; i++ {
		vm := testVM(startID+i, untouched)
		m.ObserveDecision(vm, nil, feats(untouched), coreDecision())
		m.ObserveOutcome(vm, pmu.Vector{}, false)
	}
}

func TestUMLossAsymmetric(t *testing.T) {
	if got := UMLoss(0.8, 0.5, 3); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("overprediction loss = %v", got)
	}
	if got := UMLoss(0.2, 0.5, 3); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("underprediction loss = %v", got)
	}
	if UMLoss(0.5, 0.5, 3) != 0 {
		t.Fatal("exact prediction should cost nothing")
	}
}

func TestChallengerPromotionAndDemotion(t *testing.T) {
	srv := predict.NewServer(nil, predict.FixedUntouched{Frac: 0})
	m := NewManager(testConfig(), 0, srv, nil, 0, predict.FixedUntouched{Frac: 0}, 1.82, 0.05, nil)

	// Phase 1: the bootstrap champion predicts 0 while the truth is a
	// learnable 0.6 — a trained challenger must get promoted.
	drive(m, 0, 24, 0.6)
	ev := m.Tick(100) // trains ver 1
	if len(ev) != 1 || ev[0].Kind != EventRetrain || ev[0].Ver != 1 {
		t.Fatalf("first tick events = %v", ev)
	}
	drive(m, 100, 24, 0.6)
	ev = m.Tick(200)
	if len(ev) == 0 || ev[0].Kind != EventPromote || ev[0].Family != FamilyUM {
		t.Fatalf("expected promotion, got %v", ev)
	}
	q := m.Quality()
	if q.UMChampVer != 1 || q.Promotions != 1 {
		t.Fatalf("quality after promotion = %+v", q)
	}

	// The serving layer must now predict ~0.6 (hot-swapped model).
	frac, err := srv.PredictUntouched(feats(0.6))
	if err != nil {
		t.Fatal(err)
	}
	if frac < 0.3 {
		t.Fatalf("server still serves the old champion: %v", frac)
	}

	// Phase 2: the world flips to 0 untouched. The fallback (Fixed 0) is
	// now perfect while the promoted champion overpredicts, so the next
	// verdict demotes.
	drive(m, 200, 24, 0)
	ev = m.Tick(300)
	demoted := false
	for _, e := range ev {
		if e.Kind == EventDemote && e.Family == FamilyUM {
			demoted = true
			if e.Ver != 0 {
				t.Fatalf("demotion restored ver %d, want 0", e.Ver)
			}
		}
	}
	if !demoted {
		t.Fatalf("expected demotion, got %v", ev)
	}
	if q := m.Quality(); q.UMChampVer != 0 || q.Demotions != 1 {
		t.Fatalf("quality after demotion = %+v", q)
	}
}

func TestNoPromotionWithoutHoldout(t *testing.T) {
	srv := predict.NewServer(nil, predict.FixedUntouched{Frac: 0})
	m := NewManager(testConfig(), 0, srv, nil, 0, predict.FixedUntouched{Frac: 0}, 1.82, 0.05, nil)
	drive(m, 0, 24, 0.6)
	m.Tick(100) // trains ver 1
	// No shadow observations for the challenger yet: next tick must not
	// promote, and must not replace the unjudged challenger either.
	ev := m.Tick(200)
	for _, e := range ev {
		if e.Kind != EventRetrain || e.Family != FamilyInsens {
			t.Fatalf("unexpected event before holdout filled: %v", e)
		}
	}
	if q := m.Quality(); q.UMChampVer != 0 {
		t.Fatalf("champion changed without holdout: %+v", q)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	srv := predict.NewServer(nil, predict.FixedUntouched{Frac: 0})
	m := NewManager(testConfig(), 3, srv, nil, 0, predict.FixedUntouched{Frac: 0}, 1.82, 0.05, nil)
	drive(m, 0, 24, 0.6)
	m.Tick(100)
	snaps, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var chall *ModelSnapshot
	for i := range snaps {
		if snaps[i].Cell != 3 {
			t.Fatalf("snapshot cell = %d", snaps[i].Cell)
		}
		if snaps[i].Family == FamilyUM && snaps[i].Role == "challenger" {
			chall = &snaps[i]
		}
	}
	if chall == nil || chall.Ver != 1 || chall.Rows != 24 || chall.TrainedAtSec != 100 {
		t.Fatalf("challenger snapshot = %+v", chall)
	}
	rebuilt, err := LoadUM(*chall)
	if err != nil {
		t.Fatal(err)
	}
	x := feats(0.6)
	if got, want := rebuilt.PredictUntouchedFrac(x), m.umChall.PredictUntouchedFrac(x); got != want {
		t.Fatalf("rebuilt model predicts %v, original %v", got, want)
	}
}

func TestLifecycleEventsDeterministic(t *testing.T) {
	run := func() string {
		srv := predict.NewServer(nil, predict.FixedUntouched{Frac: 0})
		m := NewManager(testConfig(), 0, srv, nil, 0, predict.FixedUntouched{Frac: 0}, 1.82, 0.05, nil)
		var sb strings.Builder
		for round := 0; round < 4; round++ {
			drive(m, round*32, 32, 0.4)
			for _, e := range m.Tick(float64(100 * (round + 1))) {
				sb.WriteString(e.String())
				sb.WriteByte('\n')
			}
		}
		return sb.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("lifecycle events differ between identical runs:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, "retrain") {
		t.Fatal("no retrain events produced")
	}
}

// TestConcurrentScoringDuringSwap hammers the manager (and through it
// predict.Server.Swap) from concurrent goroutines; run under -race this
// is the swap-safety stress test.
func TestConcurrentScoringDuringSwap(t *testing.T) {
	srv := predict.NewServer(predict.CounterThreshold{Counter: pmu.DRAMBound}, predict.FixedUntouched{Frac: 0})
	m := NewManager(testConfig(), 0, srv, predict.CounterThreshold{Counter: pmu.DRAMBound}, 0.5,
		predict.FixedUntouched{Frac: 0}, 1.82, 0.05, nil)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := g*1000 + i
				vm := testVM(id, 0.5)
				m.ObserveDecision(vm, nil, feats(0.5), coreDecision())
				if _, err := srv.PredictUntouched(feats(0.5)); err != nil {
					t.Error(err)
					return
				}
				if _, err := srv.ScoreNamed(int64(id), pmu.Vector{}); err != nil {
					t.Error(err)
					return
				}
				m.ObserveOutcome(vm, pmu.Vector{}, true)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			m.Tick(float64(i))
		}
	}()
	wg.Wait()
}

// TestMonitorOnlyKeepsNoTrainingRows drives a monitor-only manager and a
// training-capable one through the same never-ticked stream. The
// monitor-only State must be the other's with the training rows and the
// pending feature copies removed, and restoring the full state (as an
// older build wrote it) into a monitor-only manager must drop them too.
func TestMonitorOnlyKeepsNoTrainingRows(t *testing.T) {
	build := func(monitorOnly bool) *Manager {
		cfg := testConfig()
		cfg.MonitorOnly = monitorOnly
		srv := predict.NewServer(nil, predict.FixedUntouched{Frac: 0.2})
		return NewManager(cfg, 0, srv, predict.CounterThreshold{Counter: pmu.MemoryBound}, 0.5,
			predict.FixedUntouched{Frac: 0.2}, 1.82, 0.05, nil)
	}
	full, mon := build(false), build(true)
	for _, m := range []*Manager{full, mon} {
		for i := 0; i < 40; i++ {
			vm := testVM(i, 0.1*float64(i%10))
			m.ObserveDecision(vm, nil, feats(vm.GroundTruth.UntouchedFrac), coreDecision())
			if i%4 != 3 { // every fourth VM stays in flight
				m.ObserveOutcome(vm, pmu.Vector{pmu.MemoryBound: 0.1 * float64(i%7)}, true)
			}
		}
	}
	fs, err := full.State()
	if err != nil {
		t.Fatal(err)
	}
	ms, err := mon.State()
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.UMX) == 0 || len(fs.InsX) == 0 || len(fs.Pending) != 10 || fs.Pending[0].Feats == nil {
		t.Fatalf("training-capable manager buffered %d/%d rows and %d pending", len(fs.UMX), len(fs.InsX), len(fs.Pending))
	}
	msJSON, err := json.Marshal(ms)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"um_x"`, `"um_y"`, `"ins_x"`, `"ins_y"`, `"feats"`} {
		if strings.Contains(string(msJSON), key) {
			t.Errorf("monitor-only state carries %s", key)
		}
	}
	stripped := fs
	stripped.UMX, stripped.UMY, stripped.InsX, stripped.InsY = nil, nil, nil, nil
	stripped.Pending = append([]PendingState(nil), fs.Pending...)
	for i := range stripped.Pending {
		stripped.Pending[i].Feats = nil
	}
	want, err := json.Marshal(stripped)
	if err != nil {
		t.Fatal(err)
	}
	if string(msJSON) != string(want) {
		t.Fatal("monitor-only state differs from the full state beyond its training rows")
	}

	restored := build(true)
	if err := restored.SetState(fs); err != nil {
		t.Fatal(err)
	}
	rs, err := restored.State()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := json.Marshal(rs); err != nil || string(got) != string(want) {
		t.Fatalf("monitor-only restore kept an older snapshot's training rows (err %v)", err)
	}
}
