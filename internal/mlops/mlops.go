// Package mlops closes Pond's model-lifecycle loop (§4.4, §5): the
// production system retrains its untouched-memory and latency-
// insensitivity models periodically on fleet telemetry and rolls a new
// model out only after it beats the serving one in an A/B comparison.
//
// A Manager owns one cell's lifecycle. The serving ("champion") models
// live in a predict.Server on the VM request path; every placement
// decision is additionally shadow-scored by the latest retrained
// ("challenger") model and — after a promotion — by the previous champion
// kept as a fallback. When a VM departs, its ground-truth outcome turns
// those shadow scores into per-model losses on a rolling holdout window.
// At each retrain tick the Manager:
//
//  1. demotes the champion back to the fallback if the fallback's rolling
//     loss beats the champion's by the promotion margin (regression
//     after a bad rollout),
//  2. otherwise promotes the challenger via Server.Swap when its rolling
//     loss beats the champion's by the margin,
//  3. trains a fresh challenger from the cell's accumulated
//     (features, outcome) rows once enough have been observed.
//
// Everything is deterministic: training seeds derive from the configured
// seed and the model version, buffers are append-ordered, and no map is
// ever iterated, so the lifecycle event stream is byte-identical for any
// worker count when driven from the fleet's discrete-event loop.
package mlops

import (
	"fmt"
	"sync"

	"pond/internal/cluster"
	"pond/internal/core"
	"pond/internal/fifo"
	"pond/internal/pmu"
	"pond/internal/predict"
)

// Config tunes the lifecycle loop. Zero fields fall back to
// DefaultConfig values.
type Config struct {
	// MinTrainRows is the minimum number of completed VMs before a
	// challenger is trained.
	MinTrainRows int
	// MaxTrainRows caps the training buffer; the most recent rows are
	// kept so models track workload drift instead of ancient history.
	MaxTrainRows int
	// HoldoutWindow is the rolling window (completed VMs) over which
	// champion and challenger losses are compared.
	HoldoutWindow int
	// MinHoldout is the minimum number of decisions both contenders
	// shadow-scored before a promotion or demotion verdict.
	MinHoldout int
	// PromoteMargin is the fractional loss improvement a challenger must
	// show over the champion to be promoted (and a fallback to force a
	// demotion): promote when chall < champ * (1 - PromoteMargin).
	PromoteMargin float64
	// OverPenalty weights overprediction in the untouched-memory loss:
	// predicting memory untouched that the VM then touches causes spills
	// and QoS violations, while underprediction only forgoes pool
	// savings. The matching training quantile is 1/(1+OverPenalty).
	OverPenalty float64
	// LabelRate is the target labeled-insensitive fraction used to pick
	// each insensitivity challenger's serving threshold.
	LabelRate float64
	// Seed roots every challenger's training RNG.
	Seed int64
	// MonitorOnly marks a manager that is never ticked: it shadow-scores
	// decisions and keeps the rolling holdout losses, but it never trains,
	// so it keeps no training rows and no per-VM feature copies, in memory
	// or in State.
	MonitorOnly bool
}

// DefaultConfig returns the lifecycle defaults used by the fleet loop.
func DefaultConfig() Config {
	return Config{
		MinTrainRows:  48,
		MaxTrainRows:  512,
		HoldoutWindow: 64,
		MinHoldout:    24,
		PromoteMargin: 0.05,
		OverPenalty:   3,
		LabelRate:     0.30,
		Seed:          1,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.MinTrainRows <= 0 {
		c.MinTrainRows = d.MinTrainRows
	}
	if c.MaxTrainRows <= 0 {
		c.MaxTrainRows = d.MaxTrainRows
	}
	if c.HoldoutWindow <= 0 {
		c.HoldoutWindow = d.HoldoutWindow
	}
	if c.MinHoldout <= 0 {
		c.MinHoldout = d.MinHoldout
	}
	if c.PromoteMargin <= 0 {
		c.PromoteMargin = d.PromoteMargin
	}
	if c.OverPenalty <= 0 {
		c.OverPenalty = d.OverPenalty
	}
	if c.LabelRate <= 0 {
		c.LabelRate = d.LabelRate
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	return c
}

// UMLoss is the asymmetric untouched-memory prediction loss:
// overpredicting (promising pool-backed memory the VM then touches)
// costs overPenalty per GB-fraction, underpredicting costs 1.
func UMLoss(pred, label, overPenalty float64) float64 {
	if pred > label {
		return overPenalty * (pred - label)
	}
	return label - pred
}

// Lifecycle event kinds.
const (
	EventRetrain = "retrain"
	EventPromote = "promote"
	EventDemote  = "demote"
)

// Model families under lifecycle management.
const (
	FamilyUM     = "um"
	FamilyInsens = "insens"
)

// Event is one lifecycle action, in event-log order.
type Event struct {
	Cell   int     `json:"cell"`
	AtSec  float64 `json:"at_sec"`
	Family string  `json:"family"`
	Kind   string  `json:"kind"`
	// Ver is the version acted on: the trained challenger for retrain,
	// the newly serving champion for promote/demote.
	Ver int `json:"version"`
	// Rows is the training-set size (retrain only).
	Rows int `json:"rows,omitempty"`
	// ChampLoss and ChallLoss are the rolling holdout losses that decided
	// a promotion or demotion, over N shared decisions.
	ChampLoss float64 `json:"champ_loss,omitempty"`
	ChallLoss float64 `json:"chall_loss,omitempty"`
	N         int     `json:"n,omitempty"`
}

// String renders the event as one deterministic log line (no cell/time
// prefix; the fleet loop adds its own).
func (e Event) String() string {
	switch e.Kind {
	case EventRetrain:
		return fmt.Sprintf("mlops %s retrain ver=%d rows=%d", e.Family, e.Ver, e.Rows)
	default:
		return fmt.Sprintf("mlops %s %s ver=%d loss=%.4f champ-loss=%.4f n=%d",
			e.Family, e.Kind, e.Ver, e.ChallLoss, e.ChampLoss, e.N)
	}
}

// obs is one completed VM's shadow-scoring result for one family.
type obs struct {
	champVer, challVer, fbVer    int
	champLoss, challLoss, fbLoss float64
}

// lifecycle tracks one model family's contenders by version and rolling
// losses. Version 0 is the bootstrap champion (offline model or
// heuristic); each trained challenger gets the next version.
type lifecycle struct {
	family                    string
	champVer, challVer, fbVer int // -1 = slot empty
	nextVer                   int

	window fifo.Window[obs] // rolling, capped at HoldoutWindow

	sumChampLoss float64 // over every outcome, whichever champion served
	outcomes     int
}

func newLifecycle(family string) lifecycle {
	return lifecycle{family: family, champVer: 0, challVer: -1, fbVer: -1, nextVer: 1}
}

// observe appends one outcome. The caller stamps the obs with the
// versions that actually produced each prediction — for untouched-memory
// those are the versions live at admission, which may differ from the
// current ones when a retrain or promotion tick fell inside the VM's
// lifetime.
func (lc *lifecycle) observe(o obs, windowCap int) {
	lc.window.Push(o, windowCap)
	lc.sumChampLoss += o.champLoss
	lc.outcomes++
}

// pairLoss computes mean losses over window entries where the current
// champion and the given contender slot were both shadow-scored live.
func (lc *lifecycle) pairLoss(contender string) (champ, other float64, n int) {
	for _, o := range lc.window.Items() {
		if o.champVer != lc.champVer {
			continue
		}
		switch contender {
		case "chall":
			if lc.challVer < 0 || o.challVer != lc.challVer {
				continue
			}
			other += o.challLoss
		case "fb":
			if lc.fbVer < 0 || o.fbVer != lc.fbVer {
				continue
			}
			other += o.fbLoss
		}
		champ += o.champLoss
		n++
	}
	if n > 0 {
		champ /= float64(n)
		other /= float64(n)
	}
	return champ, other, n
}

// champWindowLoss is the mean champion loss over the rolling window,
// whatever versions served — the "current serving quality" metric.
func (lc *lifecycle) champWindowLoss() float64 {
	window := lc.window.Items()
	if len(window) == 0 {
		return 0
	}
	var sum float64
	for _, o := range window {
		sum += o.champLoss
	}
	return sum / float64(len(window))
}

func (lc *lifecycle) champMeanLoss() float64 {
	if lc.outcomes == 0 {
		return 0
	}
	return lc.sumChampLoss / float64(lc.outcomes)
}

// challObs counts window entries shadow-scored by the current
// (champion, challenger) pair: a fresh challenger must earn MinHoldout
// of these before it is judged or replaced.
func (lc *lifecycle) challObs() int {
	_, _, n := lc.pairLoss("chall")
	return n
}

// umPending holds a placed VM's shadow predictions until departure,
// together with the model versions that produced them — losses must be
// attributed to the versions that predicted, not whichever models happen
// to be live when the VM departs.
type umPending struct {
	feats                     []float64
	champ, chall, fb          float64
	champVer, challVer, fbVer int
}

// trainMeta records how a version was produced, for snapshots.
type trainMeta struct {
	Ver   int     `json:"version"`
	AtSec float64 `json:"trained_at_sec"`
	Rows  int     `json:"rows"`
}

// Manager runs one cell's model lifecycle. It is safe for concurrent
// use; the fleet loop drives it sequentially for determinism.
type Manager struct {
	mu  sync.Mutex
	cfg Config

	srv *predict.Server
	// onThreshold installs a newly promoted insensitivity model's serving
	// threshold into the scheduling pipeline.
	onThreshold func(float64)

	ratio, pdm float64

	// Untouched-memory family.
	umChamp, umChall, umFb predict.Untouched
	umLC                   lifecycle
	umPending              map[cluster.VMID]umPending
	umX                    fifo.Window[[]float64]
	umY                    fifo.Window[float64]
	umMeta                 map[int]trainMeta
	featBuf                []float64 // monitor-only scoring copy

	// Latency-insensitivity family.
	insChamp, insChall, insFb          predict.Insensitivity
	insChampThr, insChallThr, insFbThr float64
	insLC                              lifecycle
	insX                               fifo.Window[[]float64]
	insY                               fifo.Window[float64]
	insMeta                            map[int]trainMeta

	events []Event
	cell   int
}

// NewManager builds a cell's lifecycle around the serving stack: srv is
// the inference server on the request path (hot-swapped on promotion),
// insens/umChamp are the bootstrap champions already installed in it,
// insensThreshold their serving threshold, and ratio/pdm the QoS
// parameters that label insensitivity outcomes. onThreshold (may be nil)
// is invoked with the new threshold whenever the insensitivity champion
// changes.
func NewManager(cfg Config, cell int, srv *predict.Server, insens predict.Insensitivity,
	insensThreshold float64, umChamp predict.Untouched, ratio, pdm float64,
	onThreshold func(float64)) *Manager {
	return &Manager{
		cfg:         cfg.withDefaults(),
		cell:        cell,
		srv:         srv,
		onThreshold: onThreshold,
		ratio:       ratio,
		pdm:         pdm,
		umChamp:     umChamp,
		umLC:        newLifecycle(FamilyUM),
		umPending:   make(map[cluster.VMID]umPending),
		umMeta:      make(map[int]trainMeta),
		insChamp:    insens,
		insChampThr: insensThreshold,
		insLC:       newLifecycle(FamilyInsens),
		insMeta:     make(map[int]trainMeta),
	}
}

// ObserveDecision shadow-scores one admission with every live contender.
// It satisfies core.ShadowHook, so the fleet loop registers it directly
// on the scheduling pipeline.
func (m *Manager) ObserveDecision(vm cluster.VMRequest, counters *pmu.Vector, umFeatures []float64, _ core.Decision) {
	if umFeatures == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// The models score a copy, never umFeatures itself: handing the
	// parameter to an interface method would make it escape, forcing
	// every caller to heap-allocate the slice it passes.
	p := umPending{champVer: -1, challVer: -1, fbVer: -1}
	var feats []float64
	if m.cfg.MonitorOnly {
		// Nothing keeps the row, so one reused buffer serves every call.
		m.featBuf = append(m.featBuf[:0], umFeatures...)
		feats = m.featBuf
	} else {
		// The row becomes a training row at departure.
		feats = append([]float64(nil), umFeatures...)
		p.feats = feats
	}
	if m.umChamp != nil {
		p.champ = m.umChamp.PredictUntouchedFrac(feats)
		p.champVer = m.umLC.champVer
	}
	if m.umChall != nil {
		p.chall = m.umChall.PredictUntouchedFrac(feats)
		p.challVer = m.umLC.challVer
	}
	if m.umFb != nil {
		p.fb = m.umFb.PredictUntouchedFrac(feats)
		p.fbVer = m.umLC.fbVer
	}
	m.umPending[vm.ID] = p
}

// ObserveOutcome records a departed VM's ground truth: the untouched
// fraction closes the pending untouched-memory shadow scores, and the
// workload's all-pool slowdown labels the insensitivity contenders on
// the VM's mean telemetry counters.
func (m *Manager) ObserveOutcome(vm cluster.VMRequest, counters pmu.Vector, haveCounters bool) {
	m.mu.Lock()
	defer m.mu.Unlock()

	if p, ok := m.umPending[vm.ID]; ok {
		delete(m.umPending, vm.ID)
		label := vm.GroundTruth.UntouchedFrac
		o := obs{champVer: p.champVer, challVer: p.challVer, fbVer: p.fbVer,
			champLoss: UMLoss(p.champ, label, m.cfg.OverPenalty)}
		if p.challVer >= 0 {
			o.challLoss = UMLoss(p.chall, label, m.cfg.OverPenalty)
		}
		if p.fbVer >= 0 {
			o.fbLoss = UMLoss(p.fb, label, m.cfg.OverPenalty)
		}
		m.umLC.observe(o, m.cfg.HoldoutWindow)
		if !m.cfg.MonitorOnly {
			m.umX.Push(p.feats, m.cfg.MaxTrainRows)
			m.umY.Push(label, m.cfg.MaxTrainRows)
		}
	}

	if haveCounters && vm.GroundTruth.Workload.Name != "" {
		label := 0.0
		if vm.GroundTruth.Workload.Slowdown(m.ratio, 1) <= m.pdm {
			label = 1
		}
		// The insensitivity loss reuses the asymmetric shape: scoring a
		// sensitive workload high risks an all-pool QoS violation
		// (weighted OverPenalty), scoring an insensitive one low only
		// forgoes pooling. Unlike the UM family, scoring happens here at
		// departure, so the versions live right now are the ones that
		// predicted.
		o := obs{champVer: m.insLC.champVer, challVer: m.insLC.challVer, fbVer: m.insLC.fbVer}
		if m.insChamp != nil {
			o.champLoss = UMLoss(m.insChamp.Score(counters), label, m.cfg.OverPenalty)
		}
		if m.insChall != nil {
			o.challLoss = UMLoss(m.insChall.Score(counters), label, m.cfg.OverPenalty)
		}
		if m.insFb != nil {
			o.fbLoss = UMLoss(m.insFb.Score(counters), label, m.cfg.OverPenalty)
		}
		m.insLC.observe(o, m.cfg.HoldoutWindow)
		if m.cfg.MonitorOnly {
			return
		}
		// A full buffer is about to evict its oldest row; nothing else
		// holds rows (training and snapshots copy them), so its storage
		// takes the new row.
		var row []float64
		if m.insX.Len() >= m.cfg.MaxTrainRows {
			row = m.insX.Items()[0]
		}
		m.insX.Push(append(row[:0], counters[:]...), m.cfg.MaxTrainRows)
		m.insY.Push(label, m.cfg.MaxTrainRows)
	}
}

// ForgetVM drops a VM's pending shadow scores — rejected admissions and
// VMs lost to failures never produce an outcome.
func (m *Manager) ForgetVM(id cluster.VMID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.umPending, id)
}

// Tick runs one retrain event: demotion check, promotion check, then
// challenger training. It returns the lifecycle events it produced, in
// order, for the caller's event log.
func (m *Manager) Tick(nowSec float64) []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []Event
	out = append(out, m.tickUM(nowSec)...)
	out = append(out, m.tickInsens(nowSec)...)
	m.events = append(m.events, out...)
	return out
}

func (m *Manager) tickUM(now float64) []Event {
	var out []Event

	// Demote a regressed rollout back to its predecessor.
	if m.umFb != nil {
		if champ, fb, n := m.umLC.pairLoss("fb"); n >= m.cfg.MinHoldout && fb < champ*(1-m.cfg.PromoteMargin) {
			m.umChamp, m.umFb = m.umFb, nil
			m.umLC.champVer, m.umLC.fbVer = m.umLC.fbVer, -1
			m.swapLocked()
			out = append(out, m.event(now, FamilyUM, EventDemote, m.umLC.champVer, 0, champ, fb, n))
		}
	}

	// Promote a proven challenger.
	if len(out) == 0 && m.umChall != nil {
		if champ, chall, n := m.umLC.pairLoss("chall"); n >= m.cfg.MinHoldout && chall < champ*(1-m.cfg.PromoteMargin) {
			m.umFb, m.umChamp, m.umChall = m.umChamp, m.umChall, nil
			m.umLC.fbVer, m.umLC.champVer, m.umLC.challVer = m.umLC.champVer, m.umLC.challVer, -1
			m.swapLocked()
			out = append(out, m.event(now, FamilyUM, EventPromote, m.umLC.champVer, 0, champ, chall, n))
		}
	}

	// Train a fresh challenger once the current one has had its shot.
	if m.umX.Len() >= m.cfg.MinTrainRows && (m.umChall == nil || m.umLC.challObs() >= m.cfg.MinHoldout) {
		ver := m.umLC.nextVer
		m.umLC.nextVer++
		quantile := 1 / (1 + m.cfg.OverPenalty)
		seed := m.cfg.Seed + int64(ver)*7919 + 1
		m.umChall = predict.TrainGBMUntouched(m.umX.Items(), m.umY.Items(), quantile, seed)
		m.umLC.challVer = ver
		m.umMeta[ver] = trainMeta{Ver: ver, AtSec: now, Rows: m.umX.Len()}
		out = append(out, m.event(now, FamilyUM, EventRetrain, ver, m.umX.Len(), 0, 0, 0))
	}
	return out
}

func (m *Manager) tickInsens(now float64) []Event {
	var out []Event

	if m.insFb != nil {
		if champ, fb, n := m.insLC.pairLoss("fb"); n >= m.cfg.MinHoldout && fb < champ*(1-m.cfg.PromoteMargin) {
			m.insChamp, m.insFb = m.insFb, nil
			m.insChampThr, m.insFbThr = m.insFbThr, 0
			m.insLC.champVer, m.insLC.fbVer = m.insLC.fbVer, -1
			m.swapLocked()
			m.pushThresholdLocked()
			out = append(out, m.event(now, FamilyInsens, EventDemote, m.insLC.champVer, 0, champ, fb, n))
		}
	}

	if len(out) == 0 && m.insChall != nil {
		if champ, chall, n := m.insLC.pairLoss("chall"); n >= m.cfg.MinHoldout && chall < champ*(1-m.cfg.PromoteMargin) {
			m.insFb, m.insChamp, m.insChall = m.insChamp, m.insChall, nil
			m.insFbThr, m.insChampThr, m.insChallThr = m.insChampThr, m.insChallThr, 0
			m.insLC.fbVer, m.insLC.champVer, m.insLC.challVer = m.insLC.champVer, m.insLC.challVer, -1
			m.swapLocked()
			m.pushThresholdLocked()
			out = append(out, m.event(now, FamilyInsens, EventPromote, m.insLC.champVer, 0, champ, chall, n))
		}
	}

	// The insensitivity label is heavily imbalanced on small windows;
	// require both classes before fitting a classifier.
	insX, insY := m.insX.Items(), m.insY.Items()
	if len(insX) >= m.cfg.MinTrainRows && bothClasses(insY) &&
		(m.insChall == nil || m.insLC.challObs() >= m.cfg.MinHoldout) {
		ver := m.insLC.nextVer
		m.insLC.nextVer++
		seed := m.cfg.Seed + int64(ver)*7919 + 2
		rf := predict.TrainForest(insX, insY, seed)
		scores := make([]float64, len(insX))
		for i, x := range insX {
			var v pmu.Vector
			copy(v[:], x)
			scores[i] = rf.Score(v)
		}
		// Serve at the label-rate operating point, but never below the
		// highest score any known-sensitive training row achieved: an
		// all-pool misplacement costs a QoS violation, so the serving
		// threshold errs conservative.
		thr := predict.ThresholdForLabelRate(scores, m.cfg.LabelRate)
		for i, s := range scores {
			if insY[i] == 0 && s >= thr {
				thr = s + 1e-9
			}
		}
		m.insChall = rf
		m.insChallThr = thr
		m.insLC.challVer = ver
		m.insMeta[ver] = trainMeta{Ver: ver, AtSec: now, Rows: len(insX)}
		out = append(out, m.event(now, FamilyInsens, EventRetrain, ver, len(insX), 0, 0, 0))
	}
	return out
}

func (m *Manager) event(at float64, family, kind string, ver, rows int, champ, chall float64, n int) Event {
	return Event{Cell: m.cell, AtSec: at, Family: family, Kind: kind,
		Ver: ver, Rows: rows, ChampLoss: champ, ChallLoss: chall, N: n}
}

func (m *Manager) swapLocked() {
	if m.srv != nil {
		m.srv.Swap(m.insChamp, m.umChamp)
	}
}

func (m *Manager) pushThresholdLocked() {
	if m.onThreshold != nil {
		m.onThreshold(m.insChampThr)
	}
}

// Quality is the end-of-run model-quality summary of one Manager.
type Quality struct {
	Retrains, Promotions, Demotions int
	// UMChampVer / InsensChampVer are the serving model versions at the
	// end of the run (0 = the bootstrap model was never replaced).
	UMChampVer, InsensChampVer int
	// UMLossMean is the serving untouched-memory model's mean asymmetric
	// loss over every completed VM; UMLossFinal the same over the final
	// rolling window — the end-of-run prediction error.
	UMLossMean, UMLossFinal float64
	// InsensLossMean / InsensLossFinal mirror the above for the
	// insensitivity score against ground-truth labels.
	InsensLossMean, InsensLossFinal float64
	// Outcomes counts completed VMs that closed an untouched-memory
	// shadow score.
	Outcomes int
}

// Quality summarizes the lifecycle so far.
func (m *Manager) Quality() Quality {
	m.mu.Lock()
	defer m.mu.Unlock()
	q := Quality{
		UMChampVer:      m.umLC.champVer,
		InsensChampVer:  m.insLC.champVer,
		UMLossMean:      m.umLC.champMeanLoss(),
		UMLossFinal:     m.umLC.champWindowLoss(),
		InsensLossMean:  m.insLC.champMeanLoss(),
		InsensLossFinal: m.insLC.champWindowLoss(),
		Outcomes:        m.umLC.outcomes,
	}
	for _, e := range m.events {
		switch e.Kind {
		case EventRetrain:
			q.Retrains++
		case EventPromote:
			q.Promotions++
		case EventDemote:
			q.Demotions++
		}
	}
	return q
}

// Events returns the lifecycle history in occurrence order.
func (m *Manager) Events() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Event(nil), m.events...)
}

func bothClasses(y []float64) bool {
	pos, neg := false, false
	for _, v := range y {
		if v > 0.5 {
			pos = true
		} else {
			neg = true
		}
		if pos && neg {
			return true
		}
	}
	return false
}
