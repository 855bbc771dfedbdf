// Package core implements Pond's distributed control plane (§4.3,
// Figures 11 and 13): the prediction-driven VM scheduling path (A) that
// decides each VM's local/pool memory split, and the QoS monitoring path
// (B) that detects mispredictions and triggers the one-time memory
// reconfiguration.
//
// The pipeline composes the substrates built elsewhere in this repo: the
// latency-insensitivity and untouched-memory models from
// internal/predict, telemetry from internal/telemetry, the workload
// performance model for ground-truth evaluation, and the cluster
// simulator's SplitPlan as its output format.
package core

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"

	"pond/internal/cluster"
	"pond/internal/pmu"
	"pond/internal/predict"
	"pond/internal/sim"
	"pond/internal/stats"
	"pond/internal/telemetry"
)

// Config sets Pond's two externally visible knobs — the performance
// degradation margin (PDM) and the target tail percentage (TP) — plus the
// operating-point parameters the Eq. (1) optimizer chooses.
type Config struct {
	// Ratio is the pool latency level (e.g. 1.82 for a 182% increase).
	Ratio float64

	// PDM is the allowed slowdown fraction (0.05 = 5%).
	PDM float64

	// TP is the fraction of VMs that must stay within the PDM (0.98).
	TP float64

	// InsensScoreThreshold gates the all-pool path: VMs whose
	// insensitivity score reaches it go entirely onto pool DRAM.
	InsensScoreThreshold float64

	// UMMargin is the safety margin subtracted from untouched-memory
	// predictions.
	UMMargin float64

	// MonitorDelaySec is how long the QoS monitor takes to detect a
	// misprediction and trigger mitigation.
	MonitorDelaySec float64
}

// DefaultConfig returns the paper's headline configuration: PDM = 5%,
// TP = 98%, at the 182% latency level, with a conservative insensitivity
// threshold.
func DefaultConfig() Config {
	return Config{
		Ratio:                1.82,
		PDM:                  0.05,
		TP:                   0.98,
		InsensScoreThreshold: 0.85,
		UMMargin:             0,
		MonitorDelaySec:      600,
	}
}

// DecisionKind is the Figure 13 scheduling outcome.
type DecisionKind int

// The three allocation outcomes of Figure 13 (A).
const (
	AllLocal DecisionKind = iota // entirely socket-local DRAM
	ZNUMA                        // local vNUMA + pool-backed zNUMA
	AllPool                      // entirely pool DRAM (latency-insensitive)
)

// String names the decision kind.
func (k DecisionKind) String() string {
	switch k {
	case AllLocal:
		return "all-local"
	case ZNUMA:
		return "zNUMA"
	case AllPool:
		return "all-pool"
	default:
		return fmt.Sprintf("DecisionKind(%d)", int(k))
	}
}

// Decision is the scheduler's memory split for one VM.
type Decision struct {
	Kind    DecisionKind
	LocalGB float64
	PoolGB  float64
	// Score is the insensitivity score when the model ran (else 0).
	Score float64
}

// PoolFrac returns the pool share of the VM's memory.
func (d Decision) PoolFrac() float64 {
	total := d.LocalGB + d.PoolGB
	if total == 0 {
		return 0
	}
	return d.PoolGB / total
}

// ShadowHook observes every scheduling decision with its model inputs.
// The mlops lifecycle registers one to shadow-score each admission with
// champion and challenger models (A/B validation before promotion).
type ShadowHook func(vm cluster.VMRequest, counters *pmu.Vector, umFeatures []float64, d Decision)

// Pipeline wires the prediction models and telemetry into the scheduling
// and monitoring flows.
type Pipeline struct {
	cfg    Config
	insens predict.Insensitivity
	um     predict.Untouched
	store  *telemetry.Store

	// srv, when set, routes inference through the serving layer so
	// retrained models hot-swap via predict.Server.Swap (§5).
	srv    *predict.Server
	shadow ShadowHook

	// insensThr is the live all-pool gate, stored atomically so a
	// promotion can move it while decisions are being served.
	insensThr atomic.Uint64
}

// NewPipeline builds the control plane. Either model may be nil: a nil
// insensitivity model disables the all-pool path, a nil untouched model
// makes every non-LI VM all-local.
func NewPipeline(cfg Config, insens predict.Insensitivity, um predict.Untouched, store *telemetry.Store) *Pipeline {
	if store == nil {
		store = telemetry.NewStore()
	}
	p := &Pipeline{cfg: cfg, insens: insens, um: um, store: store}
	p.insensThr.Store(math.Float64bits(cfg.InsensScoreThreshold))
	return p
}

// Config returns the pipeline's configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// Store returns the telemetry store backing the pipeline.
func (p *Pipeline) Store() *telemetry.Store { return p.store }

// UseServer routes all model inference through the inference server: the
// models installed there (not the ones passed to NewPipeline) serve every
// decision, a named (customer, workload) pair keeps the insensitivity
// score of its first request in a model generation, and Server.Swap
// hot-swaps retrained models without rebuilding the pipeline.
func (p *Pipeline) UseServer(s *predict.Server) { p.srv = s }

// Server returns the attached inference server (nil when inference runs
// from the directly held models). The fleet pipeline pins per-cell model
// generations through it during staged rollouts.
func (p *Pipeline) Server() *predict.Server { return p.srv }

// SetShadowHook registers fn to observe every Decide call after the
// decision is made. Pass nil to remove.
func (p *Pipeline) SetShadowHook(fn ShadowHook) { p.shadow = fn }

// SetInsensThreshold updates the all-pool gate at runtime: a promoted
// insensitivity model serves at its own operating point. Safe to call
// concurrently with Decide (the gate is read atomically).
func (p *Pipeline) SetInsensThreshold(t float64) { p.insensThr.Store(math.Float64bits(t)) }

// InsensThreshold returns the live all-pool gate.
func (p *Pipeline) InsensThreshold() float64 { return math.Float64frombits(p.insensThr.Load()) }

// Decide runs the Figure 13 scheduling flow for one VM.
//
// counters carries the workload-history PMU telemetry (nil when the VM's
// customer has no prior observed VMs); umFeatures is the Figure 14
// metadata feature vector. The decision order matches the paper: known
// latency-sensitive customers skip the all-pool path; with history, an
// insensitivity score above the threshold places the VM entirely on pool
// DRAM; otherwise the untouched-memory prediction sizes a zNUMA node
// (rounded down to whole GB), and a zero prediction keeps the VM local.
func (p *Pipeline) Decide(vm cluster.VMRequest, counters *pmu.Vector, umFeatures []float64) Decision {
	d := p.decide(vm, counters, umFeatures)
	if p.shadow != nil {
		p.shadow(vm, counters, umFeatures, d)
	}
	return d
}

func (p *Pipeline) decide(vm cluster.VMRequest, counters *pmu.Vector, umFeatures []float64) Decision {
	mem := vm.Type.MemoryGB

	if counters != nil && !p.store.KnownSensitive(vm.Customer) {
		if score, ok := p.scoreInsens(vm, counters); ok {
			if score >= p.InsensThreshold() {
				return Decision{Kind: AllPool, PoolGB: mem, Score: score}
			}
			// Fall through to the untouched-memory path with the score
			// recorded for observability.
			d := p.decideUM(vm, umFeatures)
			d.Score = score
			return d
		}
	}
	return p.decideUM(vm, umFeatures)
}

// scoreInsens serves the latency-insensitivity score — through the
// inference server when one is attached (hot-swapped models, and for a
// named VM the per-(customer, workload) cache), else from the directly
// held model.
func (p *Pipeline) scoreInsens(vm cluster.VMRequest, v *pmu.Vector) (float64, bool) {
	if p.srv != nil {
		if vm.WorkloadName == "" {
			score, err := p.srv.ScoreInsensitivity(*v)
			return score, err == nil
		}
		score, err := p.srv.ScoreNamed(pairKey(vm), *v)
		return score, err == nil
	}
	if p.insens == nil {
		return 0, false
	}
	return p.insens.Score(*v), true
}

// pairKey identifies a named VM's (customer, workload) pair, as the
// serving contract requires. Opaque VMs carry no workload identity, so
// they get no key and every one scores its own counters rather than
// inheriting another workload's cached score. The key is folded through
// the streaming digest so it allocates nothing.
func pairKey(vm cluster.VMRequest) int64 {
	return stats.NewDigest().Word(uint64(vm.Customer)).Word(hashString(vm.WorkloadName)).Sum()
}

// predictUM serves the untouched-memory fraction, scored from the
// customer's current history features on every request.
func (p *Pipeline) predictUM(features []float64) (float64, bool) {
	if features == nil {
		return 0, false
	}
	if p.srv != nil {
		frac, err := p.srv.PredictUntouched(features)
		return frac, err == nil
	}
	if p.um == nil {
		return 0, false
	}
	return p.um.PredictUntouchedFrac(features), true
}

func (p *Pipeline) decideUM(vm cluster.VMRequest, umFeatures []float64) Decision {
	mem := vm.Type.MemoryGB
	frac, ok := p.predictUM(umFeatures)
	if !ok {
		return Decision{Kind: AllLocal, LocalGB: mem}
	}
	frac -= p.cfg.UMMargin
	if frac < 0 {
		frac = 0
	}
	poolGB := float64(int(frac * mem)) // GB-aligned, rounded down (§4.4)
	if poolGB <= 0 {
		return Decision{Kind: AllLocal, LocalGB: mem}
	}
	return Decision{Kind: ZNUMA, LocalGB: mem - poolGB, PoolGB: poolGB}
}

// hashString digests a string with FNV-1a. The fold is inlined —
// identical to hash/fnv's 64-bit variant — so key construction never
// allocates.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Outcome is the ground-truth consequence of a decision, as the QoS
// monitor would observe it.
type Outcome struct {
	// SlowdownFrac is the VM's realized slowdown versus all-local.
	SlowdownFrac float64

	// ExceedsPDM marks a scheduling misprediction.
	ExceedsPDM bool

	// SpilledGB is the touched memory that landed on the zNUMA node.
	SpilledGB float64

	// Mitigated is set when the QoS monitor detects the problem and
	// schedules the one-time reconfiguration.
	Mitigated     bool
	MitigateAtSec float64
}

// Evaluate computes the decision's outcome from the VM's hidden ground
// truth (the simulator's stand-in for actually running the workload).
// Detected mispredictions are flagged for mitigation after the monitoring
// delay, and the customer is recorded as latency-sensitive so future VMs
// skip the all-pool path (§4.4).
func (p *Pipeline) Evaluate(vm cluster.VMRequest, d Decision) Outcome {
	w := vm.GroundTruth.Workload
	var out Outcome
	switch d.Kind {
	case AllPool:
		out.SlowdownFrac = w.Slowdown(p.cfg.Ratio, 1)
		out.SpilledGB = vm.TouchedGB()
	case ZNUMA:
		touched := vm.TouchedGB()
		spilled := touched - d.LocalGB
		if spilled < 0 {
			spilled = 0
		}
		out.SpilledGB = spilled
		if touched > 0 {
			out.SlowdownFrac = w.SpillSlowdown(p.cfg.Ratio, stats.Clamp(spilled/touched, 0, 1))
		}
	default:
		// All-local VMs run at baseline speed.
	}
	out.ExceedsPDM = out.SlowdownFrac > p.cfg.PDM
	if out.ExceedsPDM && d.PoolGB > 0 {
		out.Mitigated = true
		out.MitigateAtSec = vm.ArrivalSec + p.cfg.MonitorDelaySec
		p.store.MarkSensitive(vm.Customer)
	}
	return out
}

// PlanStats aggregates a trace replay.
type PlanStats struct {
	VMs        int
	AllPoolN   int
	ZNUMAN     int
	AllLocalN  int
	ExceedPDMN int
	MitigatedN int

	// PoolGBShare is the GB-weighted share of memory placed on pools at
	// scheduling time.
	PoolGBShare float64
}

// MispredictFrac returns the fraction of VMs exceeding the PDM.
func (s PlanStats) MispredictFrac() float64 {
	if s.VMs == 0 {
		return 0
	}
	return float64(s.ExceedPDMN) / float64(s.VMs)
}

// MitigatedFrac returns the fraction of VMs the QoS monitor reconfigured.
func (s PlanStats) MitigatedFrac() float64 {
	if s.VMs == 0 {
		return 0
	}
	return float64(s.MitigatedN) / float64(s.VMs)
}

// String renders the stats.
func (s PlanStats) String() string {
	return fmt.Sprintf("vms=%d all-pool=%d zNUMA=%d all-local=%d pool-share=%.1f%% mispredict=%.2f%% mitigated=%.2f%%",
		s.VMs, s.AllPoolN, s.ZNUMAN, s.AllLocalN, 100*s.PoolGBShare,
		100*s.MispredictFrac(), 100*s.MitigatedFrac())
}

// PlanTrace replays one cluster trace through the full control plane and
// returns the simulator split plan plus statistics. The RNG drives the
// PMU sampling noise the scheduler sees. History features are built
// causally from the trace itself, exactly as the nightly production
// pipeline would have them.
func (p *Pipeline) PlanTrace(tr *cluster.Trace, r *stats.Rand) (sim.SplitPlan, PlanStats) {
	ds := predict.BuildUMDataset([]cluster.Trace{*tr})
	plan := sim.SplitPlan{
		PoolFrac:      make([]float64, len(tr.VMs)),
		MitigateAtSec: make(map[int]float64),
	}
	var st PlanStats
	var poolGB, totalGB float64
	for i := range tr.VMs {
		vm := tr.VMs[i]
		st.VMs++

		// Workload history exists once the customer has completed VMs.
		var counters *pmu.Vector
		if ds.X[i][6] > 0 { // history count feature
			v := pmu.Sample(vm.GroundTruth.Workload, r)
			counters = &v
		}
		d := p.Decide(vm, counters, ds.X[i])
		switch d.Kind {
		case AllPool:
			st.AllPoolN++
		case ZNUMA:
			st.ZNUMAN++
		default:
			st.AllLocalN++
		}
		plan.PoolFrac[i] = d.PoolFrac()
		poolGB += d.PoolGB
		totalGB += vm.Type.MemoryGB

		out := p.Evaluate(vm, d)
		if out.ExceedsPDM {
			st.ExceedPDMN++
		}
		if out.Mitigated {
			st.MitigatedN++
			plan.MitigateAtSec[i] = out.MitigateAtSec
		}

		// Departure telemetry feeds future history (the dataset already
		// encodes causality; this records QoS outcomes).
		p.store.RecordOutcome(vm.Customer, vm.DepartureSec(), vm.GroundTruth.UntouchedFrac)
	}
	if totalGB > 0 {
		st.PoolGBShare = poolGB / totalGB
	}
	return plan, st
}

// Explain renders the reasoning behind a decision for operators: which
// Figure 13 branch fired and with what inputs. Decision audit trails are
// how a platform team debugs "why did this VM get pool memory".
func (p *Pipeline) Explain(vm cluster.VMRequest, counters *pmu.Vector, umFeatures []float64) string {
	// The inner decide skips the shadow hook: an audit must not register
	// pending shadow scores (or re-stamp a running VM's) in the mlops
	// lifecycle.
	d := p.decide(vm, counters, umFeatures)
	var b strings.Builder
	fmt.Fprintf(&b, "VM %d (%d cores, %g GB, customer %d): %s",
		vm.ID, vm.Type.Cores, vm.Type.MemoryGB, vm.Customer, d.Kind)
	// Availability reflects whatever serves the decision — the inference
	// server's installed models when one is attached, the directly held
	// models otherwise — probed without running (and accounting) real
	// inference.
	switch {
	case counters == nil:
		b.WriteString("\n  no workload history: latency-insensitivity path skipped")
	case p.store.KnownSensitive(vm.Customer):
		b.WriteString("\n  customer previously QoS-flagged: all-pool path skipped")
	default:
		if !p.hasInsensModel() {
			b.WriteString("\n  no insensitivity model: all-pool path skipped")
		} else {
			fmt.Fprintf(&b, "\n  insensitivity score %.3f vs threshold %.3f", d.Score, p.InsensThreshold())
		}
	}
	if d.Kind != AllPool {
		if !p.hasUMModel() || umFeatures == nil {
			b.WriteString("\n  no untouched-memory model: all-local")
		} else {
			fmt.Fprintf(&b, "\n  untouched-memory prediction => %g GB zNUMA / %g GB local", d.PoolGB, d.LocalGB)
		}
	}
	return b.String()
}

func (p *Pipeline) hasInsensModel() bool {
	if p.srv != nil {
		insens, _ := p.srv.Installed()
		return insens
	}
	return p.insens != nil
}

func (p *Pipeline) hasUMModel() bool {
	if p.srv != nil {
		_, um := p.srv.Installed()
		return um
	}
	return p.um != nil
}
