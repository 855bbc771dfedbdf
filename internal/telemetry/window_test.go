package telemetry

import (
	"math"
	"sort"
	"testing"

	"pond/internal/cluster"
	"pond/internal/stats"
)

// refStore is the sort-based reference for CustomerHistory: every query
// scans the customer's outcomes in recorded order, copies the in-window
// fractions and sorts them from scratch.
type refStore map[cluster.CustomerID][]untouchedRecord

func (r refStore) record(c cluster.CustomerID, endSec, u float64) {
	r[c] = append(r[c], untouchedRecord{endSec: endSec, untouched: u})
}

func (r refStore) history(c cluster.CustomerID, beforeSec, windowSec float64) History {
	var xs []float64
	for _, rec := range r[c] {
		if rec.endSec < beforeSec && rec.endSec >= beforeSec-windowSec {
			xs = append(xs, rec.untouched)
		}
	}
	if len(xs) == 0 {
		return History{}
	}
	sort.Float64s(xs)
	return summarize(xs)
}

// sameHistory compares bit patterns, so NaN and signed-zero outcomes
// must match exactly too.
func sameHistory(a, b History) bool {
	bits := func(h History) [5]uint64 {
		return [5]uint64{math.Float64bits(h.P0), math.Float64bits(h.P25),
			math.Float64bits(h.P50), math.Float64bits(h.P75), math.Float64bits(h.P100)}
	}
	return a.Count == b.Count && bits(a) == bits(b)
}

// outcomeValue draws a fraction from a coarse grid, so windows hold many
// ties, with rare NaN and signed zeros when odd is set.
func outcomeValue(r *stats.Rand, odd bool) float64 {
	if odd {
		switch r.Intn(40) {
		case 0:
			return math.NaN()
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return 0
		}
	}
	return float64(r.Intn(21)) / 20
}

// TestCustomerHistoryMatchesSortReference drives random outcome streams
// through the store and checks every query against the reference, bit
// for bit: short sliding windows that evict, bursts larger than an
// incremental update takes, repeated identical queries, queries that
// step back in time, a customer whose outcomes arrive out of order, NaN
// and signed-zero outcomes, and a State/SetState round trip mid-stream.
func TestCustomerHistoryMatchesSortReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		r := stats.NewRand(seed)
		s := NewStore()
		ref := refStore{}
		odd := seed%2 == 0
		now := 0.0
		queries := 0
		check := func(c cluster.CustomerID, before, window float64) {
			t.Helper()
			queries++
			got, want := s.CustomerHistory(c, before, window), ref.history(c, before, window)
			if !sameHistory(got, want) {
				t.Fatalf("seed %d query %d: customer %d before %g window %g: got %+v, want %+v",
					seed, queries, c, before, window, got, want)
			}
		}
		for step := 0; step < 3000; step++ {
			c := cluster.CustomerID(r.Intn(4))
			switch k := r.Intn(100); {
			case k < 45:
				// In-order outcomes, sometimes a burst.
				n := 1
				if r.Intn(20) == 0 {
					n = 1 + r.Intn(3*maxWindowMoves)
				}
				for i := 0; i < n; i++ {
					now += r.Float64() * 3
					u := outcomeValue(r, odd)
					s.RecordOutcome(c, now, u)
					ref.record(c, now, u)
				}
			case k < 47 && c == 3:
				// Customer 3 alone receives late outcomes, switching it
				// to the out-of-order scan.
				end := now - 50*r.Float64()
				u := outcomeValue(r, odd)
				s.RecordOutcome(c, end, u)
				ref.record(c, end, u)
			case k < 85:
				// Sliding window: short spans evict records.
				window := []float64{8, 30, 120, 1e9}[r.Intn(4)]
				check(c, now+r.Float64(), window)
			case k < 93:
				// Repeat, then step back in time.
				window := 30.0
				check(c, now, window)
				check(c, now, window)
				check(c, now-40*r.Float64(), window)
			case k < 95:
				// Snapshot round trip: continue on the restored store.
				restored := NewStore()
				if err := restored.SetState(s.State()); err != nil {
					t.Fatal(err)
				}
				s = restored
			default:
				check(c, now+1, 1e9)
			}
		}
		if queries < 1000 {
			t.Fatalf("seed %d: only %d queries exercised", seed, queries)
		}
	}
}
