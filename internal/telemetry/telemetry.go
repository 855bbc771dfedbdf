// Package telemetry is Pond's distributed telemetry database (§4.2, §5):
// per-VM core-PMU counter samples recorded once per second by the
// hypervisor, per-VM untouched-memory outcomes gathered from access-bit
// scans at VM departure, and the per-customer aggregations that feed the
// prediction models' features (Figure 14's "percentiles of memory usage
// in previous VMs by same customer").
package telemetry

import (
	"math"
	"slices"
	"sort"
	"sync"

	"pond/internal/cluster"
	"pond/internal/pmu"
	"pond/internal/stats"
)

// maxSamplesPerVM bounds per-VM counter retention (a day of 1 Hz samples
// in production; much smaller here since the models consume means).
const maxSamplesPerVM = 256

// untouchedRecord is one completed VM's outcome.
type untouchedRecord struct {
	endSec    float64
	untouched float64 // fraction of rented memory never touched
}

// histWindow is one customer's percentile window over the record span
// [lo, hi): the span's untouched fractions in ascending order, and the
// History they summarize. A later query whose span only moves forward
// updates sorted in place — binary-deleting the records that left the
// span and binary-inserting the ones that entered — instead of sorting
// the whole span again; any other span rebuilds it with a sort. Both
// paths yield the same sorted multiset, so the percentiles are
// bit-identical.
//
// exact is false while the span holds a NaN or a negative zero. Those
// values have no unique place in sorted order (NaNs are unordered and
// -0 == +0), so such windows always rebuild, from the records in
// recorded order, exactly as a fresh sort would.
type histWindow struct {
	lo, hi int
	sorted []float64
	exact  bool
	h      History
}

// maxWindowMoves bounds the records an incremental window update
// deletes and inserts; each move is a binary search plus a memmove, so
// past a handful of moves one sort of the span is cheaper.
const maxWindowMoves = 16

// orderable reports whether x has a unique position in ascending order
// (it is neither NaN nor a negative zero).
func orderable(x float64) bool {
	return x == x && (x != 0 || !math.Signbit(x))
}

// Small windows are carved out of shared chunks rather than allocated
// one by one: a fleet has many customers with only a few outcomes each,
// and a window of its own per customer would cost each an allocation.
const (
	histChunkLen    = 1024
	histSmallWindow = 8
)

// windowBuf returns an empty buffer with room for n fractions.
func (s *Store) windowBuf(n int) []float64 {
	if n > histSmallWindow {
		return make([]float64, 0, n)
	}
	if len(s.histChunk) < histSmallWindow {
		s.histChunk = make([]float64, histChunkLen)
	}
	buf := s.histChunk[:0:histSmallWindow]
	s.histChunk = s.histChunk[histSmallWindow:]
	return buf
}

// rebuild sorts the span [lo, hi) of recs into the window's buffer.
func (w *histWindow) rebuild(recs []untouchedRecord, lo, hi int) {
	xs := w.sorted[:0]
	w.exact = true
	for _, rec := range recs[lo:hi] {
		xs = append(xs, rec.untouched)
		if !orderable(rec.untouched) {
			w.exact = false
		}
	}
	sort.Float64s(xs)
	w.sorted, w.lo, w.hi = xs, lo, hi
}

// slide moves an exact window forward to the span [lo, hi), which must
// satisfy w.lo <= lo <= w.hi <= hi. It reports false, leaving the window
// to be rebuilt, when an entering record is not orderable.
func (w *histWindow) slide(recs []untouchedRecord, lo, hi int) bool {
	xs := w.sorted
	for _, rec := range recs[w.lo:lo] {
		i, _ := slices.BinarySearch(xs, rec.untouched)
		xs = slices.Delete(xs, i, i+1)
	}
	for _, rec := range recs[w.hi:hi] {
		if !orderable(rec.untouched) {
			return false
		}
		i, _ := slices.BinarySearch(xs, rec.untouched)
		xs = slices.Insert(xs, i, rec.untouched)
	}
	w.sorted, w.lo, w.hi = xs, lo, hi
	return true
}

// maxFreeSampleBufs bounds the recycled sample-buffer freelist; buffers
// beyond it are dropped to the garbage collector.
const maxFreeSampleBufs = 256

// Store is the in-memory stand-in for the central telemetry database.
// It is safe for concurrent use.
type Store struct {
	mu        sync.Mutex
	samples   map[cluster.VMID][]pmu.Vector
	history   map[cluster.CustomerID][]untouchedRecord
	sensitive map[cluster.CustomerID]bool // QoS-confirmed latency sensitivity

	// Hot-path reuse, all guarded by mu. sampleFree recycles departed
	// VMs' sample buffers into the next RecordSample; histUnsorted marks
	// customers whose outcomes arrived out of endSec order (offline
	// replays), disabling the binary-search window; histCache holds each
	// customer's sorted percentile window, small ones carved from
	// histChunk; histScratch is the sort buffer of the out-of-order scan.
	sampleFree   [][]pmu.Vector
	histUnsorted map[cluster.CustomerID]bool
	histCache    map[cluster.CustomerID]histWindow
	histScratch  []float64
	histChunk    []float64
}

// NewStore creates an empty telemetry store.
func NewStore() *Store {
	return &Store{
		samples:      make(map[cluster.VMID][]pmu.Vector),
		sampleFree:   make([][]pmu.Vector, 0, maxFreeSampleBufs),
		history:      make(map[cluster.CustomerID][]untouchedRecord),
		sensitive:    make(map[cluster.CustomerID]bool),
		histUnsorted: make(map[cluster.CustomerID]bool),
		histCache:    make(map[cluster.CustomerID]histWindow),
	}
}

// RecordSample appends a 1 Hz PMU sample for a running VM. First samples
// land in buffers recycled from departed VMs, so a churning fleet
// reaches a steady state where sampling allocates nothing.
func (s *Store) RecordSample(id cluster.VMID, v pmu.Vector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	buf, ok := s.samples[id]
	if !ok {
		if n := len(s.sampleFree); n > 0 {
			buf = s.sampleFree[n-1][:0]
			s.sampleFree = s.sampleFree[:n-1]
		} else {
			// Admission records two samples; start at capacity 2 so a
			// fresh VM never pays the 1→2 growth copy of a 1.6 KB vector.
			buf = make([]pmu.Vector, 0, 2)
		}
	}
	if len(buf) >= maxSamplesPerVM {
		copy(buf, buf[1:])
		buf = buf[:len(buf)-1]
	}
	s.samples[id] = append(buf, v)
}

// MeanCounters returns the mean counter vector for a VM, if any samples
// exist.
func (s *Store) MeanCounters(id cluster.VMID) (pmu.Vector, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	buf := s.samples[id]
	if len(buf) == 0 {
		return pmu.Vector{}, false
	}
	return pmu.MeanVector(buf), true
}

// ForgetVM drops a departed VM's samples (after outcome extraction) and
// recycles the buffer for a future VM's first sample.
func (s *Store) ForgetVM(id cluster.VMID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	buf, ok := s.samples[id]
	if !ok {
		return
	}
	delete(s.samples, id)
	if cap(buf) > 0 && len(s.sampleFree) < maxFreeSampleBufs {
		s.sampleFree = append(s.sampleFree, buf[:0])
	}
}

// RecordOutcome stores a completed VM's minimum untouched-memory fraction
// (the label of Figure 14).
func (s *Store) RecordOutcome(c cluster.CustomerID, endSec, untouchedFrac float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := s.history[c]
	if recs == nil {
		// Most customers accumulate a handful of outcomes quickly; start
		// at capacity 8 so the steady churn of departures does not pay a
		// growth reallocation per power of two per customer.
		recs = make([]untouchedRecord, 0, 8)
	} else if n := len(recs); n > 0 && endSec < recs[n-1].endSec {
		// Out-of-order outcome (offline trace replays): this customer's
		// windows fall back to the full scan from here on.
		s.histUnsorted[c] = true
		delete(s.histCache, c)
	}
	s.history[c] = append(recs, untouchedRecord{endSec: endSec, untouched: untouchedFrac})
}

// MarkSensitive records that QoS monitoring found this customer's
// workload latency-sensitive; the scheduler consults this history first
// (§4.4 "retaining a history of VMs that have been latency sensitive").
func (s *Store) MarkSensitive(c cluster.CustomerID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sensitive[c] = true
}

// KnownSensitive reports whether the customer was ever QoS-flagged.
func (s *Store) KnownSensitive(c cluster.CustomerID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sensitive[c]
}

// History summarizes a customer's untouched-memory record in a trailing
// window: the 0/25/50/75/100th percentiles Figure 14 lists as the
// untouched-memory model's most important features.
type History struct {
	Count                   int
	P0, P25, P50, P75, P100 float64
}

// HasHistory reports whether enough prior VMs exist to trust the
// percentiles. The paper finds ~80% of VMs have sufficient history.
func (h History) HasHistory() bool { return h.Count >= 3 }

// CustomerHistory aggregates the customer's outcomes from the window
// [beforeSec - windowSec, beforeSec). Using only strictly earlier records
// keeps training causal: the nightly model never sees the future.
//
// The online path (every fleet admission calls this) keeps a sorted
// window per customer: records appended in time order are window-selected
// by binary search, a span that only moved forward since the customer's
// previous query is updated in place rather than re-sorted, and an
// identical span returns the memoized result. Customers with
// out-of-order outcomes take the original scan and sort.
func (s *Store) CustomerHistory(c cluster.CustomerID, beforeSec, windowSec float64) History {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := s.history[c]
	if s.histUnsorted[c] {
		xs := s.histScratch[:0]
		for _, rec := range recs {
			if rec.endSec < beforeSec && rec.endSec >= beforeSec-windowSec {
				xs = append(xs, rec.untouched)
			}
		}
		s.histScratch = xs
		if len(xs) == 0 {
			return History{}
		}
		sort.Float64s(xs)
		return summarize(xs)
	}
	// Records are endSec-ascending: the window is the contiguous span
	// [lo, hi) with lo the first record >= beforeSec-windowSec and hi the
	// first record >= beforeSec.
	from := beforeSec - windowSec
	lo := sort.Search(len(recs), func(i int) bool { return recs[i].endSec >= from })
	hi := sort.Search(len(recs), func(i int) bool { return recs[i].endSec >= beforeSec })
	if hi <= lo {
		return History{}
	}
	w, ok := s.histCache[c]
	if ok && w.lo == lo && w.hi == hi {
		return w.h
	}
	if !ok || !w.exact || lo < w.lo || lo > w.hi || hi < w.hi ||
		(lo-w.lo)+(hi-w.hi) > maxWindowMoves || !w.slide(recs, lo, hi) {
		if cap(w.sorted) < hi-lo {
			w.sorted = s.windowBuf(hi - lo)
		}
		w.rebuild(recs, lo, hi)
	}
	w.h = summarize(w.sorted)
	s.histCache[c] = w
	return w.h
}

// summarize computes a History from ascending untouched fractions.
func summarize(xs []float64) History {
	return History{
		Count: len(xs),
		P0:    xs[0],
		P25:   stats.QuantileSorted(xs, 0.25),
		P50:   stats.QuantileSorted(xs, 0.50),
		P75:   stats.QuantileSorted(xs, 0.75),
		P100:  xs[len(xs)-1],
	}
}

// UntouchedQuantiles pools every recorded outcome across customers and
// returns the requested quantiles of the fleet's untouched-memory
// distribution — the provisioning input behind Pond's §2 argument that
// untouched (and stranded) memory is what a right-sized pool absorbs.
// It returns nil when no outcomes exist.
func (s *Store) UntouchedQuantiles(qs ...float64) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for _, recs := range s.history {
		total += len(recs)
	}
	xs := make([]float64, 0, total)
	for _, recs := range s.history {
		for _, rec := range recs {
			xs = append(xs, rec.untouched)
		}
	}
	if len(xs) == 0 {
		return nil
	}
	sort.Float64s(xs)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = stats.QuantileSorted(xs, q)
	}
	return out
}

// Customers returns all customers with recorded outcomes.
func (s *Store) Customers() []cluster.CustomerID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]cluster.CustomerID, 0, len(s.history))
	for c := range s.history {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// OutcomeCount returns the number of outcomes stored for a customer.
func (s *Store) OutcomeCount(c cluster.CustomerID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.history[c])
}
