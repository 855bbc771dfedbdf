package mlops

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"slices"
	"testing"

	"pond/internal/cluster"
	"pond/internal/core"
	"pond/internal/pmu"
	"pond/internal/predict"
	"pond/internal/stats"
	"pond/internal/workload"
)

// shiftCapped is the shifting FIFO the training and holdout buffers
// used before they became amortised windows: append, dropping the oldest
// entry once limit entries are held.
func shiftCapped[T any](buf []T, v T, limit int) []T {
	if len(buf) >= limit {
		copy(buf, buf[1:])
		buf = buf[:len(buf)-1]
	}
	return append(buf, v)
}

// TestBuffersMatchShiftingFIFO drives a manager through many wraparounds
// of small training and holdout buffers, with retrain ticks that train,
// promote and demote along the way, and a snapshot restore into a fresh
// manager every 90 outcomes. The training rows in State() must equal a
// shifting-FIFO reference fed the same outcomes, every snapshot must
// stay byte-stable after later outcomes recycle row storage, and the
// snapshot digests — which cover the buffers, the holdout windows and
// every fitted model's wire form — must equal those the shifting
// implementation produced.
func TestBuffersMatchShiftingFIFO(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinTrainRows = 24
	cfg.MaxTrainRows = 40
	cfg.HoldoutWindow = 12
	cfg.MinHoldout = 6
	cfg.Seed = 3
	const ratio, pdm = 1.82, 0.05
	srv := predict.NewServer(nil, predict.HistoryQuantileUM{})
	m := NewManager(cfg, 0, srv, nil, 0, predict.HistoryQuantileUM{}, ratio, pdm, nil)
	r := stats.NewRand(11)
	catalogue := workload.Catalogue()
	types := cluster.VMTypes()

	var refUMX, refInsX [][]float64
	var refUMY, refInsY []float64
	type snap struct {
		at   int
		st   State
		json []byte
	}
	var snaps []snap
	want := []string{
		"c25c041f3c75ebd873456688506086d14afe492f1555f5313e3d1cbf2ef0ddb5",
		"fca24d4f53eab1ab115a031d66d6345fae9a809796cfe49574314016eeb592d5",
		"8b4ab59b4b83067f06256bdb19f9df8a8bf14971b9cb98cff7032742e9b7ed8f",
		"0acd205f0b4b1a6535a25ea316ad99e483740f6297134f4db34ab365a9f6b141",
	}
	for i := 0; i < 360; i++ {
		w := catalogue[(i*7)%len(catalogue)]
		base := 0.2 + 0.6*float64(i%8)/8
		if i >= 180 {
			base = 1 - base // drift, so later challengers differ
		}
		uf := stats.Clamp(base+r.Bounded(-0.05, 0.05), 0, 1)
		vm := cluster.VMRequest{
			ID:       cluster.VMID(i + 1),
			Customer: cluster.CustomerID(1 + i%16),
			Type:     types[i%len(types)],
			GroundTruth: cluster.VMGroundTruth{
				UntouchedFrac: uf,
				Workload:      w,
			},
		}
		fs := []float64{vm.Type.MemoryGB, float64(i % 64), base - 0.1, base, base + 0.1}
		counters := pmu.Sample(w, r)
		m.ObserveDecision(vm, nil, fs, core.Decision{})
		m.ObserveOutcome(vm, counters, true)

		refUMX = shiftCapped(refUMX, append([]float64(nil), fs...), cfg.MaxTrainRows)
		refUMY = shiftCapped(refUMY, uf, cfg.MaxTrainRows)
		label := 0.0
		if w.Slowdown(ratio, 1) <= pdm {
			label = 1
		}
		refInsX = shiftCapped(refInsX, append([]float64(nil), counters[:]...), cfg.MaxTrainRows)
		refInsY = shiftCapped(refInsY, label, cfg.MaxTrainRows)

		if (i+1)%30 == 0 {
			m.Tick(float64(i + 1))
		}
		if (i+1)%90 == 0 {
			st, err := m.State()
			if err != nil {
				t.Fatal(err)
			}
			if !rowsEqual(st.UMX, refUMX) || !slices.Equal(st.UMY, refUMY) ||
				!rowsEqual(st.InsX, refInsX) || !slices.Equal(st.InsY, refInsY) {
				t.Fatalf("outcome %d: training rows differ from the shifting FIFO", i+1)
			}
			if len(st.UMLC.Window) != cfg.HoldoutWindow || len(st.InsLC.Window) != cfg.HoldoutWindow {
				t.Fatalf("outcome %d: holdout windows hold %d/%d entries, cap %d",
					i+1, len(st.UMLC.Window), len(st.InsLC.Window), cfg.HoldoutWindow)
			}
			js, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			snaps = append(snaps, snap{at: i + 1, st: st, json: js})

			// Continue on a manager restored from the snapshot: the
			// refilled buffers must evict exactly as the originals would.
			restored := NewManager(cfg, 0, predict.NewServer(nil, predict.HistoryQuantileUM{}),
				nil, 0, predict.HistoryQuantileUM{}, ratio, pdm, nil)
			if err := restored.SetState(st); err != nil {
				t.Fatal(err)
			}
			rst, err := restored.State()
			if err != nil {
				t.Fatal(err)
			}
			if rjs, err := json.Marshal(rst); err != nil || string(rjs) != string(js) {
				t.Fatalf("outcome %d: restored manager's state differs (err %v)", i+1, err)
			}
			m = restored
		}
	}
	q := m.Quality()
	if q.Retrains < 4 || q.Promotions == 0 || q.Demotions == 0 {
		t.Fatalf("quality %+v: the loop exercised too little of the lifecycle", q)
	}
	for k, s := range snaps {
		// A snapshot must not alias rows the buffers later recycle.
		again, err := json.Marshal(s.st)
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(s.json) {
			t.Errorf("outcome %d: snapshot changed after later outcomes", s.at)
		}
		sum := sha256.Sum256(s.json)
		got := hex.EncodeToString(sum[:])
		if got != want[k] {
			t.Errorf("outcome %d: state digest %s, want %s", s.at, got, want[k])
		}
	}
}

func rowsEqual(a, b [][]float64) bool {
	return slices.EqualFunc(a, b, func(x, y []float64) bool { return slices.Equal(x, y) })
}
