package predict

import (
	"sort"

	"pond/internal/ml"
)

// CacheEntryState is one cached insensitivity score, keyed by its
// (customer, workload) pair. Every entry belongs to the state's
// generation; the per-entry "gen" older builds wrote is ignored.
type CacheEntryState struct {
	Key   int64   `json:"key"`
	Value float64 `json:"value"`
}

// ServerState is the serializable state of a serving Server: the pinned
// generation and the named-pair insensitivity cache. Models are
// installed separately (via Pin, from the mlops/fleetpipeline model
// snapshots). The cache is semantic state, not a recomputable memo: its
// key identifies a (customer, workload) pair while the sampled counters
// change between requests, so within a generation the server serves the
// score computed at the pair's FIRST request. Restoring it empty would
// re-score later arrivals against their own fresher counters and diverge
// from the uninterrupted run. Snapshots from older builds also carry
// um_cache, request counters and opaque-VM entries in sens_cache; the
// first three are dropped on decode, and the opaque entries are never
// looked up again and go at the next generation.
type ServerState struct {
	Generation int               `json:"generation"`
	SensCache  []CacheEntryState `json:"sens_cache,omitempty"`
}

// State captures the server's generation and cache for serialization,
// key-sorted so the encoding is stable across map iteration orders.
func (s *Server) State() ServerState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := ServerState{Generation: s.generation}
	if len(s.sensCache) == 0 {
		return st
	}
	st.SensCache = make([]CacheEntryState, 0, len(s.sensCache))
	for k, v := range s.sensCache {
		st.SensCache = append(st.SensCache, CacheEntryState{Key: k, Value: v})
	}
	sort.Slice(st.SensCache, func(i, j int) bool { return st.SensCache[i].Key < st.SensCache[j].Key })
	return st
}

// SetState restores the state captured by State. Call it after the
// models have been re-installed with Pin. Restoring the full cache also
// preserves its size, so the wholesale wipe at maxCacheEntries fires at
// the same insert it would have in the uninterrupted run.
func (s *Server) SetState(st ServerState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.generation = st.Generation
	s.sensCache = make(map[int64]float64, len(st.SensCache))
	for _, e := range st.SensCache {
		s.sensCache[e.Key] = e.Value
	}
}

// WrapForestModel adopts a deserialized forest as the insensitivity
// model, mirroring WrapGBMUntouched for the untouched-memory side —
// the restore path that round-trips models through ml/serialize uses
// both.
func WrapForestModel(f *ml.Forest) *ForestModel {
	return &ForestModel{forest: f}
}
