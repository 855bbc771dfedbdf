package predict

import (
	"math"
	"sync"
	"testing"

	"pond/internal/cluster"
	"pond/internal/pmu"
	"pond/internal/telemetry"
	"pond/internal/workload"
)

func TestBuildSensitivityDatasetShape(t *testing.T) {
	ds := BuildSensitivityDataset(workload.Ratio182, 0.05, 3, 1)
	if got := len(ds.X); got != 158*3 {
		t.Fatalf("samples = %d, want %d", got, 158*3)
	}
	if len(ds.Insensitive) != len(ds.X) || len(ds.Sensitive) != len(ds.X) || len(ds.WorkloadIdx) != len(ds.X) {
		t.Fatal("parallel arrays out of sync")
	}
	for i := range ds.X {
		if (ds.Insensitive[i] == 1) == ds.Sensitive[i] {
			t.Fatalf("label %d inconsistent: insensitive=%v sensitive=%v",
				i, ds.Insensitive[i], ds.Sensitive[i])
		}
	}
}

func TestSensitivityDatasetLabelBalance(t *testing.T) {
	// At PDM=5%/182%, ~43% of workloads are insensitive (Figure 4).
	ds := BuildSensitivityDataset(workload.Ratio182, 0.05, 1, 1)
	pos := 0
	for _, l := range ds.Insensitive {
		if l == 1 {
			pos++
		}
	}
	frac := float64(pos) / float64(len(ds.Insensitive))
	if math.Abs(frac-0.43) > 0.06 {
		t.Fatalf("insensitive fraction = %v, want ~0.43", frac)
	}
}

func TestForestModelSeparates(t *testing.T) {
	ds := BuildSensitivityDataset(workload.Ratio182, 0.05, 3, 2)
	m := TrainForest(ds.X, ds.Insensitive, 7)
	// Training-set scores must separate classes on average.
	var insMean, sensMean float64
	var insN, sensN int
	for i := range ds.X {
		var v pmu.Vector
		copy(v[:], ds.X[i])
		s := m.Score(v)
		if ds.Sensitive[i] {
			sensMean += s
			sensN++
		} else {
			insMean += s
			insN++
		}
	}
	insMean /= float64(insN)
	sensMean /= float64(sensN)
	if insMean < sensMean+0.3 {
		t.Fatalf("forest does not separate: insensitive %.2f vs sensitive %.2f", insMean, sensMean)
	}
}

func TestCounterThresholdNames(t *testing.T) {
	if (CounterThreshold{Counter: pmu.MemoryBound}).Name() != "Memory-Bound" {
		t.Fatal("memory-bound name")
	}
	if (CounterThreshold{Counter: pmu.DRAMBound}).Name() != "DRAM-Bound" {
		t.Fatal("dram-bound name")
	}
	if (CounterThreshold{Counter: 42}).Name() != "Counter-42" {
		t.Fatal("generic name")
	}
}

func TestSensitivityCurveMonotoneFP(t *testing.T) {
	// More labeled insensitive => FP rate cannot systematically fall.
	curve := SensitivityCurve(KindDRAMBound, workload.Ratio182, 0.05, 4, 2, 3)
	if len(curve) < 5 {
		t.Fatalf("curve too short: %d", len(curve))
	}
	first, last := curve[0], curve[len(curve)-1]
	if last.FPRate < first.FPRate {
		t.Fatalf("FP rate fell from %.3f to %.3f as LI grew", first.FPRate, last.FPRate)
	}
}

func TestFigure17ForestBeatsMemoryBound(t *testing.T) {
	// Figure 17: RandomForest <= DRAM-bound <= Memory-bound (FP at
	// matched label rates). Compare mean FP over the grid.
	folds, samples := 6, 2
	rf := SensitivityCurve(KindRandomForest, workload.Ratio182, 0.05, folds, samples, 5)
	mb := SensitivityCurve(KindMemoryBound, workload.Ratio182, 0.05, folds, samples, 5)
	db := SensitivityCurve(KindDRAMBound, workload.Ratio182, 0.05, folds, samples, 5)
	mean := func(pts []SensPoint) float64 {
		var s float64
		for _, p := range pts {
			s += p.FPRate
		}
		return s / float64(len(pts))
	}
	if mean(rf) > mean(db) {
		t.Fatalf("RandomForest FP %.4f worse than DRAM-bound %.4f", mean(rf), mean(db))
	}
	if mean(db) > mean(mb) {
		t.Fatalf("DRAM-bound FP %.4f worse than Memory-bound %.4f", mean(db), mean(mb))
	}
}

func TestFigure17OperatingPoint(t *testing.T) {
	// "Our RandomForest can place 30% of workloads on the pool with
	// only 2% of false positives" (Finding 5 implication).
	curve := SensitivityCurve(KindRandomForest, workload.Ratio182, 0.05, 6, 2, 6)
	for _, p := range curve {
		if p.InsensitiveFrac >= 0.295 && p.InsensitiveFrac <= 0.305 {
			if p.FPRate > 0.05 {
				t.Fatalf("FP at 30%% insensitive = %.3f, want <= 0.05", p.FPRate)
			}
			return
		}
	}
	t.Fatal("30% operating point missing from curve")
}

func TestUMFeaturesShape(t *testing.T) {
	vm := cluster.VMRequest{
		Type:         cluster.VMType{Name: "D4s", Cores: 4, MemoryGB: 16},
		OS:           "linux",
		Region:       "eu-west",
		WorkloadName: "redis-ycsb-a",
	}
	h := telemetry.History{Count: 5, P0: 0.1, P25: 0.2, P50: 0.3, P75: 0.4, P100: 0.5}
	f := UMFeatures(vm, h)
	if len(f) != UMFeatureCount {
		t.Fatalf("features = %d, want %d", len(f), UMFeatureCount)
	}
	if f[0] != 16 || f[1] != 4 || f[2] != 4 {
		t.Fatalf("shape features wrong: %v", f[:3])
	}
	if f[7] != 0.1 || f[11] != 0.5 {
		t.Fatalf("history features wrong: %v", f[7:])
	}
}

func TestHashCodeStableAndDistinct(t *testing.T) {
	if hashCode("", 16) != 0 {
		t.Fatal("empty string must map to 0")
	}
	if hashCode("linux", 16) != hashCode("linux", 16) {
		t.Fatal("hash not stable")
	}
	if hashCode("linux", 16) == hashCode("windows", 16) {
		t.Skip("hash collision; acceptable but unexpected")
	}
}

func smallTraces() []cluster.Trace {
	cfg := cluster.DefaultGenConfig()
	cfg.Clusters = 4
	cfg.Days = 30
	cfg.ServersPerCluster = 8
	return cluster.Generate(cfg)
}

func TestBuildUMDatasetCausal(t *testing.T) {
	ds := BuildUMDataset(smallTraces())
	if ds.Len() == 0 {
		t.Fatal("empty dataset")
	}
	// Arrivals must be sorted.
	for i := 1; i < ds.Len(); i++ {
		if ds.ArrivalSec[i] < ds.ArrivalSec[i-1] {
			t.Fatal("dataset not in arrival order")
		}
	}
	// Early VMs must have no history.
	if ds.X[0][6] != 0 {
		t.Fatalf("first VM has history count %v", ds.X[0][6])
	}
}

func TestSplitAtDay(t *testing.T) {
	ds := BuildUMDataset(smallTraces())
	cut := ds.SplitAtDay(15)
	if cut <= 0 || cut >= ds.Len() {
		t.Fatalf("cut = %d of %d", cut, ds.Len())
	}
	if ds.ArrivalSec[cut-1] >= 15*86400 || ds.ArrivalSec[cut] < 15*86400 {
		t.Fatal("split boundary wrong")
	}
}

func TestGBMUntouchedBeatsFixed(t *testing.T) {
	// Figure 18: at matched average untouched memory, the GBM's
	// overprediction rate is several times lower than the strawman's.
	ds := BuildUMDataset(smallTraces())
	cut := ds.SplitAtDay(20)
	m := TrainGBMUntouched(ds.X[:cut], ds.TrueUntouched[:cut], 0.05, 1)
	eval := ds.Eval(cut, ds.Len())

	gbmCurve := eval.Curve(m, DefaultMargins())
	fixedCurve := eval.FixedCurve([]float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5})

	// Compare OP at ~20% average untouched memory.
	opAt := func(pts []UMPoint, target float64) float64 {
		best, bestDist := 1.0, 1e9
		for _, p := range pts {
			d := math.Abs(p.AvgUM - target)
			if d < bestDist {
				bestDist = d
				best = p.OPRate
			}
		}
		return best
	}
	gbmOP := opAt(gbmCurve, 0.20)
	fixedOP := opAt(fixedCurve, 0.20)
	if gbmOP >= fixedOP {
		t.Fatalf("GBM OP %.3f not below fixed OP %.3f at 20%% UM", gbmOP, fixedOP)
	}
	if fixedOP/math.Max(gbmOP, 0.005) < 2 {
		t.Fatalf("GBM advantage only %.1fx, want >= 2x (paper: ~5x)", fixedOP/math.Max(gbmOP, 0.005))
	}
}

func TestUMCurveTradeoffDirection(t *testing.T) {
	ds := BuildUMDataset(smallTraces())
	cut := ds.SplitAtDay(20)
	m := TrainGBMUntouched(ds.X[:cut], ds.TrueUntouched[:cut], 0.05, 1)
	curve := ds.Eval(cut, ds.Len()).Curve(m, DefaultMargins())
	if len(curve) < 3 {
		t.Fatalf("curve too short")
	}
	// Higher average UM must come with higher (or equal) OP.
	if curve[0].OPRate > curve[len(curve)-1].OPRate {
		t.Fatalf("curve not monotone: %v .. %v", curve[0], curve[len(curve)-1])
	}
}

func TestFixedUntouchedBehaviour(t *testing.T) {
	m := FixedUntouched{Frac: 0.3}
	if m.PredictUntouchedFrac(nil) != 0.3 || m.Name() != "Fixed" {
		t.Fatal("fixed model broken")
	}
}

func TestGBMUntouchedClamps(t *testing.T) {
	ds := BuildUMDataset(smallTraces())
	cut := ds.SplitAtDay(20)
	m := TrainGBMUntouched(ds.X[:cut], ds.TrueUntouched[:cut], 0.05, 1)
	big := m.WithMargin(10) // predictions - 10 must clamp to 0
	for i := cut; i < cut+50 && i < ds.Len(); i++ {
		if p := big.PredictUntouchedFrac(ds.X[i]); p != 0 {
			t.Fatalf("margin-10 prediction = %v, want clamp to 0", p)
		}
	}
}

func TestExceedProbGivenSpill(t *testing.T) {
	p := ExceedProbGivenSpill(workload.Ratio182, 0.05, TypicalOverpredictionSpill)
	// The paper's back-of-envelope: about 1/4 of spilling workloads
	// break a 5% PDM.
	if p < 0.1 || p > 0.5 {
		t.Fatalf("exceed probability = %v, want ~0.25", p)
	}
}

func TestOptimizeRespectsBudget(t *testing.T) {
	sens := []SensPoint{{0.1, 0.001}, {0.3, 0.02}, {0.5, 0.08}}
	um := []UMPoint{{0.1, 0.01}, {0.25, 0.04}, {0.4, 0.15}}
	c, ok := Optimize(sens, um, 0.98, 0.25, 0.01)
	if !ok {
		t.Fatal("no feasible point")
	}
	if c.MispredictFrac > 0.03+1e-9 {
		t.Fatalf("budget exceeded: %v", c.MispredictFrac)
	}
	if c.PoolFrac <= 0 {
		t.Fatal("empty solution")
	}
}

func TestOptimizePicksMaxPool(t *testing.T) {
	sens := []SensPoint{{0.1, 0.0}, {0.4, 0.0}}
	um := []UMPoint{{0.1, 0.0}, {0.3, 0.0}}
	c, ok := Optimize(sens, um, 0.98, 0.25, 0)
	if !ok {
		t.Fatal("no feasible point")
	}
	want := 0.4 + 0.6*0.3
	if math.Abs(c.PoolFrac-want) > 1e-9 {
		t.Fatalf("pool frac = %v, want %v", c.PoolFrac, want)
	}
}

func TestOptimizeInfeasible(t *testing.T) {
	sens := []SensPoint{{0.5, 0.5}}
	um := []UMPoint{{0.3, 0.5}}
	if _, ok := Optimize(sens, um, 0.999, 1.0, 0); ok {
		t.Fatal("infeasible problem solved")
	}
}

func TestFrontierGrowsWithBudget(t *testing.T) {
	sens := []SensPoint{{0.1, 0.001}, {0.3, 0.02}, {0.5, 0.08}}
	um := []UMPoint{{0.1, 0.01}, {0.25, 0.04}, {0.4, 0.15}}
	frontier := Frontier(sens, um, 0.25, []float64{0.01, 0.05, 0.2})
	if len(frontier) < 2 {
		t.Fatalf("frontier size = %d", len(frontier))
	}
	for i := 1; i < len(frontier); i++ {
		if frontier[i].PoolFrac < frontier[i-1].PoolFrac {
			t.Fatal("pool fraction fell as budget grew")
		}
	}
}

func TestModelKindString(t *testing.T) {
	if KindRandomForest.String() != "RandomForest" ||
		KindMemoryBound.String() != "Memory-Bound" ||
		KindDRAMBound.String() != "DRAM-Bound" {
		t.Fatal("model kind names wrong")
	}
}

func TestCombinedString(t *testing.T) {
	c := Combined{Sens: SensPoint{0.3, 0.02}, UM: UMPoint{0.25, 0.04}, PoolFrac: 0.475, MispredictFrac: 0.027}
	if c.String() == "" {
		t.Fatal("empty string")
	}
}

func TestTopCountersAreTMAFamily(t *testing.T) {
	// Figure 12's design claim: the model's signal lives in the TMA
	// memory-hierarchy counters, not the 190 generic events.
	ds := BuildSensitivityDataset(workload.Ratio182, 0.05, 3, 11)
	m := TrainForest(ds.X, ds.Insensitive, 11)
	top := TopCounters(m, ds, 5, 1)
	if len(top) != 5 {
		t.Fatalf("top counters = %d", len(top))
	}
	informative := map[int]bool{
		pmu.BackendBound: true, pmu.MemoryBound: true, pmu.DRAMBound: true,
		pmu.StoreBound: true, pmu.LLCMPI: true, pmu.BandwidthGBps: true,
		pmu.MemParallelism: true, pmu.IPC: true, pmu.Retiring: true,
	}
	hits := 0
	for _, c := range top[:3] {
		if informative[c.Index] {
			hits++
		}
	}
	if hits < 2 {
		t.Fatalf("top-3 counters mostly generic noise: %+v", top)
	}
}

func TestLogisticBaselineLosesToForest(t *testing.T) {
	// The linear baseline over all 200 counters is instructive in how
	// it fails: with ~190 noise features and a few hundred training
	// rows, it cannot match the forest (whose per-split feature
	// subsampling suppresses the noise), and it does not reliably beat
	// the domain-chosen DRAM-bound threshold either. The paper's choice
	// of a RandomForest is not incidental.
	folds, samples := 4, 2
	lr := SensitivityCurve(KindLogistic, workload.Ratio182, 0.05, folds, samples, 15)
	rf := SensitivityCurve(KindRandomForest, workload.Ratio182, 0.05, folds, samples, 15)
	mean := func(pts []SensPoint) float64 {
		var s float64
		for _, p := range pts {
			s += p.FPRate
		}
		return s / float64(len(pts))
	}
	if mean(rf) > mean(lr)+0.005 {
		t.Fatalf("forest FP %.4f worse than logistic %.4f", mean(rf), mean(lr))
	}
	if (&LogisticModel{}).Name() != "Logistic" || KindLogistic.String() != "Logistic" {
		t.Fatal("naming wrong")
	}
}

// TestServerCachesWithinGeneration pins the serving contract: a named
// (customer, workload) pair is served the score of its first request in
// a generation, whatever counters later requests carry, and a Swap or a
// Pin to another generation re-scores it.
func TestServerCachesWithinGeneration(t *testing.T) {
	srv := NewServer(CounterThreshold{Counter: pmu.DRAMBound}, FixedUntouched{Frac: 0.3})
	score := func(dram float64) float64 {
		t.Helper()
		var v pmu.Vector
		v[pmu.DRAMBound] = dram
		s, err := srv.ScoreNamed(7, v)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if s := score(0.4); math.Abs(s-0.6) > 1e-9 {
		t.Fatalf("first score %v, want 0.6", s)
	}
	if s := score(0.9); math.Abs(s-0.6) > 1e-9 {
		t.Fatalf("second request with other counters scored %v, want the first score 0.6", s)
	}
	srv.Swap(CounterThreshold{Counter: pmu.DRAMBound}, FixedUntouched{Frac: 0.3})
	if s := score(0.9); math.Abs(s-0.1) > 1e-9 {
		t.Fatalf("after Swap scored %v, want a fresh 0.1", s)
	}
	srv.Pin(srv.Generation(), CounterThreshold{Counter: pmu.MemoryBound}, FixedUntouched{Frac: 0.3})
	if s := score(0.2); math.Abs(s-0.1) > 1e-9 {
		t.Fatalf("same-generation Pin re-scored: %v, want the cached 0.1", s)
	}
	srv.Pin(srv.Generation()+5, CounterThreshold{Counter: pmu.DRAMBound}, FixedUntouched{Frac: 0.3})
	if s := score(0.2); math.Abs(s-0.8) > 1e-9 {
		t.Fatalf("after Pin to a new generation scored %v, want a fresh 0.8", s)
	}
}

func TestServerSwapInvalidatesCache(t *testing.T) {
	srv := NewServer(CounterThreshold{Counter: pmu.DRAMBound}, FixedUntouched{Frac: 0.3})
	var v pmu.Vector
	v[pmu.DRAMBound] = 0.4
	if _, err := srv.ScoreNamed(7, v); err != nil {
		t.Fatal(err)
	}
	// Swap to a model that scores differently.
	srv.Swap(CounterThreshold{Counter: pmu.MemoryBound}, FixedUntouched{Frac: 0.1})
	v[pmu.MemoryBound] = 0.9
	s, err := srv.ScoreNamed(7, v)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-0.1) > 1e-9 {
		t.Fatalf("stale cache served after swap: %v", s)
	}
	um, err := srv.PredictUntouched(nil)
	if err != nil || um != 0.1 {
		t.Fatalf("um = %v, %v", um, err)
	}
}

func TestServerWithoutModels(t *testing.T) {
	srv := NewServer(nil, nil)
	if _, err := srv.ScoreInsensitivity(pmu.Vector{}); err == nil {
		t.Fatal("nil insensitivity model served")
	}
	if _, err := srv.ScoreNamed(1, pmu.Vector{}); err == nil {
		t.Fatal("nil insensitivity model served a named pair")
	}
	if _, err := srv.PredictUntouched(nil); err == nil {
		t.Fatal("nil um model served")
	}
}

// firstFeatureUM predicts the first feature as the untouched fraction, so
// a test can tell a fresh prediction from a remembered one.
type firstFeatureUM struct{}

func (firstFeatureUM) PredictUntouchedFrac(f []float64) float64 { return f[0] }
func (firstFeatureUM) Name() string                             { return "first-feature" }

// TestServerScoresUncachedRequestsFresh: untouched-memory and opaque-VM
// insensitivity requests score their own input every time and leave no
// entry in the server state.
func TestServerScoresUncachedRequestsFresh(t *testing.T) {
	srv := NewServer(CounterThreshold{Counter: pmu.DRAMBound}, firstFeatureUM{})
	for _, x := range []float64{0.25, 0.5, 0.25, 0.75} {
		got, err := srv.PredictUntouched([]float64{x, 1})
		if err != nil || got != x {
			t.Fatalf("PredictUntouched(%v) = %v, %v", x, got, err)
		}
		var v pmu.Vector
		v[pmu.DRAMBound] = x
		s, err := srv.ScoreInsensitivity(v)
		if err != nil || math.Abs(s-(1-x)) > 1e-9 {
			t.Fatalf("ScoreInsensitivity(%v) = %v, %v; want %v", x, s, err, 1-x)
		}
	}
	if st := srv.State(); len(st.SensCache) != 0 {
		t.Fatalf("uncached requests left %d cache entries", len(st.SensCache))
	}
}

// fillNamed inserts the named pairs [from, to) into srv's cache, each
// scored 0.5.
func fillNamed(t *testing.T, srv *Server, from, to int) {
	t.Helper()
	var v pmu.Vector
	for k := from; k < to; k++ {
		v[pmu.DRAMBound] = 0.5
		if _, err := srv.ScoreNamed(int64(k), v); err != nil {
			t.Fatal(err)
		}
	}
}

// checkWipesOnNextInsert asserts srv's cache holds maxCacheEntries
// entries and that the next named insert wipes it: afterwards only the
// new pair is cached and pair 0 re-scores from its new counters.
func checkWipesOnNextInsert(t *testing.T, srv *Server) {
	t.Helper()
	if n := len(srv.State().SensCache); n != maxCacheEntries {
		t.Fatalf("cache holds %d entries, want %d", n, maxCacheEntries)
	}
	var v pmu.Vector
	v[pmu.DRAMBound] = 0.5
	if _, err := srv.ScoreNamed(maxCacheEntries, v); err != nil {
		t.Fatal(err)
	}
	if st := srv.State(); len(st.SensCache) != 1 || st.SensCache[0].Key != maxCacheEntries {
		t.Fatalf("insert %d did not wipe the cache: %d entries", maxCacheEntries+1, len(st.SensCache))
	}
	v[pmu.DRAMBound] = 0.9
	if s, _ := srv.ScoreNamed(0, v); math.Abs(s-0.1) > 1e-9 {
		t.Fatalf("pair 0 served %v after the wipe, want a fresh 0.1", s)
	}
}

// TestServerWipesNamedCacheWhenFull: the named cache is wiped on the
// insert that finds it holding maxCacheEntries pairs, and opaque requests
// in the same generation do not count toward that bound.
func TestServerWipesNamedCacheWhenFull(t *testing.T) {
	srv := NewServer(CounterThreshold{Counter: pmu.DRAMBound}, nil)
	fillNamed(t, srv, 0, maxCacheEntries)
	for i := 0; i < 100; i++ {
		if _, err := srv.ScoreInsensitivity(pmu.Vector{}); err != nil {
			t.Fatal(err)
		}
	}
	checkWipesOnNextInsert(t, srv)
}

// TestServerWipeSurvivesRestore: state saved one entry short of the bound
// and restored with SetState on a fresh server wipes on the same insert
// as the uninterrupted server.
func TestServerWipeSurvivesRestore(t *testing.T) {
	srv := NewServer(CounterThreshold{Counter: pmu.DRAMBound}, nil)
	fillNamed(t, srv, 0, maxCacheEntries-1)
	st := srv.State()
	restored := NewServer(CounterThreshold{Counter: pmu.DRAMBound}, nil)
	restored.Pin(st.Generation, CounterThreshold{Counter: pmu.DRAMBound}, nil)
	restored.SetState(st)
	for _, s := range []*Server{srv, restored} {
		fillNamed(t, s, maxCacheEntries-1, maxCacheEntries)
		checkWipesOnNextInsert(t, s)
	}
}

// TestServerConcurrentScoringDuringSwap hammers every inference path
// while another goroutine hot-swaps models, as the mlops lifecycle does
// mid-run. Run under -race this is the serving-layer swap stress test.
func TestServerConcurrentScoringDuringSwap(t *testing.T) {
	srv := NewServer(CounterThreshold{Counter: pmu.DRAMBound}, FixedUntouched{Frac: 0.3})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var v pmu.Vector
			v[pmu.DRAMBound] = 0.4
			for i := 0; i < 500; i++ {
				key := int64(g*1000 + i%7)
				if _, err := srv.ScoreNamed(key, v); err != nil {
					t.Error(err)
					return
				}
				if _, err := srv.ScoreInsensitivity(v); err != nil {
					t.Error(err)
					return
				}
				if _, err := srv.PredictUntouched(nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	swapperDone := make(chan struct{})
	go func() {
		defer close(swapperDone)
		for i := 0; ; i++ {
			srv.Swap(CounterThreshold{Counter: pmu.MemoryBound}, FixedUntouched{Frac: float64(i%10) / 10})
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-swapperDone
	if srv.Generation() == 0 {
		t.Fatal("no swap landed")
	}
}
