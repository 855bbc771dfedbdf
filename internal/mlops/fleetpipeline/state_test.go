package fleetpipeline

import (
	"encoding/json"
	"testing"

	"pond/internal/cluster"
	"pond/internal/core"
	"pond/internal/pmu"
	"pond/internal/predict"
	"pond/internal/stats"
	"pond/internal/workload"
)

// rolloutStates runs the SyntheticRollout workload with a small holdout
// window, so the per-cell windows wrap many times. With restoreEvery > 0
// it replaces the manager and every collector with fresh ones restored
// from their states after every restoreEvery-th barrier. It returns the
// encoded manager and collector states after each barrier.
func rolloutStates(t *testing.T, restoreEvery int) []string {
	t.Helper()
	const cells, barriers, perCell = 3, 9, 20
	cfg := DefaultConfig(cells)
	cfg.HoldoutWindow = 8
	cfg.MinHoldout = 6
	cfg.MaxTrainRows = 96
	cfg.BakeWindowSec = 2
	bootstrap := predict.HistoryQuantileUM{}
	newCollector := func(c int) *Collector {
		return NewCollector(c, bootstrap, nil, 1.82, 0.05, cfg.withDefaults().OverPenalty, cfg.HoldoutWindow)
	}
	m := NewManager(cfg, bootstrap)
	cols := make([]*Collector, cells)
	for c := range cols {
		cols[c] = newCollector(c)
	}
	r := stats.NewRand(5)
	catalogue := workload.Catalogue()
	types := cluster.VMTypes()

	var out []string
	id := 0
	for b := 1; b <= barriers; b++ {
		for c, col := range cols {
			for i := 0; i < perCell; i++ {
				id++
				w := catalogue[id%len(catalogue)]
				base := 0.2 + 0.6*float64((id+c)%8)/8
				if b > barriers/2 {
					base = 1 - base
				}
				vm := cluster.VMRequest{
					ID:       cluster.VMID(id),
					Customer: cluster.CustomerID(1 + id%16),
					Type:     types[id%len(types)],
					GroundTruth: cluster.VMGroundTruth{
						UntouchedFrac: stats.Clamp(base+r.Bounded(-0.05, 0.05), 0, 1),
						Workload:      w,
					},
				}
				feats := []float64{vm.Type.MemoryGB, float64(id % 64), base - 0.1, base, base + 0.1}
				col.ObserveDecision(vm, nil, feats, core.Decision{})
				col.ObserveOutcome(vm, pmu.Sample(w, r), true)
			}
		}
		rows := make([][]Row, cells)
		obs := make([][]Obs, cells)
		for c, col := range cols {
			rows[c], obs[c] = col.Drain()
		}
		if _, err := m.Tick(float64(b), rows, obs); err != nil {
			t.Fatal(err)
		}
		for c, col := range cols {
			col.Install(m.AssignmentFor(c))
		}

		ms, err := m.State()
		if err != nil {
			t.Fatal(err)
		}
		cs := make([]CollectorState, cells)
		for c, col := range cols {
			cs[c] = col.State()
		}
		js, err := json.Marshal(struct {
			M ManagerState
			C []CollectorState
		}{ms, cs})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(js))

		if restoreEvery > 0 && b%restoreEvery == 0 {
			m = NewManager(cfg, bootstrap)
			if err := m.SetState(ms); err != nil {
				t.Fatal(err)
			}
			for c := range cols {
				a, err := m.AssignmentForServeVer(cs[c].ServeVer)
				if err != nil {
					t.Fatal(err)
				}
				cols[c] = newCollector(c)
				cols[c].Install(a)
				if err := cols[c].SetState(cs[c]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if counts := m.Counts(); counts.Retrains == 0 {
		t.Fatalf("counts %+v: no release was ever trained", counts)
	}
	return out
}

// TestStateRestoreContinuesIdentically restores the release train and
// its collectors from their states every other barrier; every later
// state — pooled corpus, wrapped holdout windows, serve windows, models
// — must encode to the same bytes as the run that was never restored.
func TestStateRestoreContinuesIdentically(t *testing.T) {
	want := rolloutStates(t, 0)
	got := rolloutStates(t, 2)
	for b := range want {
		if got[b] != want[b] {
			t.Fatalf("barrier %d: state after restores differs from the uninterrupted run", b+1)
		}
	}
	var ms struct{ M ManagerState }
	if err := json.Unmarshal([]byte(want[len(want)-1]), &ms); err != nil {
		t.Fatal(err)
	}
	for c, w := range ms.M.Win {
		if len(w) != 8 {
			t.Fatalf("cell %d holdout window holds %d entries, want the cap of 8", c, len(w))
		}
	}
}

// TestSetStateRejectsWrongCellCount pins the shape check.
func TestSetStateRejectsWrongCellCount(t *testing.T) {
	m := NewManager(DefaultConfig(3), predict.HistoryQuantileUM{})
	st, err := m.State()
	if err != nil {
		t.Fatal(err)
	}
	st.Win = st.Win[:2]
	if err := NewManager(DefaultConfig(3), predict.HistoryQuantileUM{}).SetState(st); err == nil {
		t.Fatal("state with 2 cell windows restored onto a 3-cell manager")
	}
}
