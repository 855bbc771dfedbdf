package predict

import (
	"errors"
	"sync"

	"pond/internal/pmu"
)

// Inference serving. The paper's prototype "adds the prediction (the size
// of zNUMA) on the VM request path using a custom inference serving
// system" (§5) — predictions must be fast enough not to delay VM starts.
// Server wraps the two models behind one lock so retrained models can be
// hot-swapped mid-run, and holds the one cache that changes results: the
// first insensitivity score served to a named (customer, workload) pair
// in a model generation. Every other request scores its own input.

// Server serves both models and the per-generation named-pair cache.
type Server struct {
	mu sync.Mutex

	insens Insensitivity
	um     Untouched

	// generation numbers the installed models (nightly retrain, §4.4).
	// Every install replaces the cache wholesale, so all its entries
	// belong to the current generation.
	generation int

	sensCache map[int64]float64
}

var errNoInsens = errors.New("predict: no insensitivity model installed")

// NewServer wraps the given models.
func NewServer(insens Insensitivity, um Untouched) *Server {
	return &Server{
		insens:    insens,
		um:        um,
		sensCache: make(map[int64]float64),
	}
}

// maxCacheEntries bounds the named-pair cache: it is wiped outright when
// an insert finds it this full, so a long soak over many customers does
// not grow it without bound.
const maxCacheEntries = 1 << 16

// Swap installs retrained models and invalidates all cached scores.
// The cache is dropped outright: every surviving entry would be from a
// stale generation, and rebuilding frees their memory.
func (s *Server) Swap(insens Insensitivity, um Untouched) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.insens = insens
	s.um = um
	s.generation++
	s.sensCache = make(map[int64]float64)
}

// Pin installs the models of one distributed release under an explicit,
// caller-owned generation number — the fleet pipeline's staged rollout
// pins each cell's server to the model version its deployment ring
// serves, so canary and control cells run different versions
// concurrently and each cell's cache belongs to its release, not to a
// local swap counter. Re-pinning the current generation is a no-op on
// the models and the cache; any other generation installs the models and
// drops every cached score.
func (s *Server) Pin(generation int, insens Insensitivity, um Untouched) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if generation == s.generation {
		return
	}
	s.insens = insens
	s.um = um
	s.generation = generation
	s.sensCache = make(map[int64]float64)
}

// Generation returns the serving generation: the release version pinned
// by Pin, or the local swap count under Swap.
func (s *Server) Generation() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.generation
}

// ScoreInsensitivity scores v with the installed insensitivity model.
// Opaque VMs, which carry no workload identity, are served here.
func (s *Server) ScoreInsensitivity(v pmu.Vector) (float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.insens == nil {
		return 0, errNoInsens
	}
	return s.insens.Score(v), nil
}

// ScoreNamed serves the insensitivity score of a named (customer,
// workload) pair: the score computed at the pair's first request in the
// current generation, whatever counters later requests carry.
func (s *Server) ScoreNamed(pair int64, v pmu.Vector) (float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.insens == nil {
		return 0, errNoInsens
	}
	if score, ok := s.sensCache[pair]; ok {
		return score, nil
	}
	score := s.insens.Score(v)
	if len(s.sensCache) >= maxCacheEntries {
		s.sensCache = make(map[int64]float64)
	}
	s.sensCache[pair] = score
	return score, nil
}

// PredictUntouched serves an untouched-memory fraction.
func (s *Server) PredictUntouched(features []float64) (float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.um == nil {
		return 0, errors.New("predict: no untouched-memory model installed")
	}
	return s.um.PredictUntouchedFrac(features), nil
}

// Installed reports which models the server currently serves, without
// touching the cache.
func (s *Server) Installed() (insens, um bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.insens != nil, s.um != nil
}
