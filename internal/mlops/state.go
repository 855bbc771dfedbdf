package mlops

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"pond/internal/cluster"
	"pond/internal/ml"
	"pond/internal/pmu"
	"pond/internal/predict"
)

// Whole-lifecycle state serialization: where Snapshot dumps the live
// models for auditing, State captures everything a Manager holds — both
// families' contender slots, rolling holdout windows, pending shadow
// scores, training buffers, and the event history — so a paused fleet
// run can be restored without replaying the simulated time that
// produced the models.

// ObsState is one completed VM's shadow-scoring result.
type ObsState struct {
	ChampVer  int     `json:"champ_ver"`
	ChallVer  int     `json:"chall_ver"`
	FbVer     int     `json:"fb_ver"`
	ChampLoss float64 `json:"champ_loss"`
	ChallLoss float64 `json:"chall_loss"`
	FbLoss    float64 `json:"fb_loss"`
}

// LifecycleState is one family's version bookkeeping and rolling window.
type LifecycleState struct {
	ChampVer     int        `json:"champ_ver"`
	ChallVer     int        `json:"chall_ver"`
	FbVer        int        `json:"fb_ver"`
	NextVer      int        `json:"next_ver"`
	Window       []ObsState `json:"window,omitempty"`
	SumChampLoss float64    `json:"sum_champ_loss,omitempty"`
	Outcomes     int        `json:"outcomes,omitempty"`
}

// PendingState is one in-flight VM's untouched-memory shadow scores.
type PendingState struct {
	VM       cluster.VMID `json:"vm"`
	Feats    []float64    `json:"feats,omitempty"`
	Champ    float64      `json:"champ"`
	Chall    float64      `json:"chall"`
	Fb       float64      `json:"fb"`
	ChampVer int          `json:"champ_ver"`
	ChallVer int          `json:"chall_ver"`
	FbVer    int          `json:"fb_ver"`
}

// UMModelState is one untouched-memory slot's wire form. Margin is
// carried beside the ensemble because the GBM export does not include
// it.
type UMModelState struct {
	Model  json.RawMessage `json:"model"`
	Margin float64         `json:"margin,omitempty"`
}

// InsModelState is one insensitivity slot's wire form with its serving
// threshold.
type InsModelState struct {
	Model     json.RawMessage `json:"model"`
	Threshold float64         `json:"threshold"`
}

// State is the full serializable state of a Manager.
type State struct {
	UMChamp *UMModelState  `json:"um_champ,omitempty"`
	UMChall *UMModelState  `json:"um_chall,omitempty"`
	UMFb    *UMModelState  `json:"um_fb,omitempty"`
	UMLC    LifecycleState `json:"um_lc"`
	Pending []PendingState `json:"pending,omitempty"`
	UMX     [][]float64    `json:"um_x,omitempty"`
	UMY     []float64      `json:"um_y,omitempty"`
	UMMeta  []trainMeta    `json:"um_meta,omitempty"`

	InsChamp *InsModelState `json:"ins_champ,omitempty"`
	InsChall *InsModelState `json:"ins_chall,omitempty"`
	InsFb    *InsModelState `json:"ins_fb,omitempty"`
	InsLC    LifecycleState `json:"ins_lc"`
	InsX     [][]float64    `json:"ins_x,omitempty"`
	InsY     []float64      `json:"ins_y,omitempty"`
	InsMeta  []trainMeta    `json:"ins_meta,omitempty"`

	Events []Event `json:"events,omitempty"`
}

func lifecycleState(lc lifecycle) LifecycleState {
	s := LifecycleState{
		ChampVer: lc.champVer, ChallVer: lc.challVer, FbVer: lc.fbVer, NextVer: lc.nextVer,
		SumChampLoss: lc.sumChampLoss, Outcomes: lc.outcomes,
	}
	for _, o := range lc.window.Items() {
		s.Window = append(s.Window, ObsState{
			ChampVer: o.champVer, ChallVer: o.challVer, FbVer: o.fbVer,
			ChampLoss: o.champLoss, ChallLoss: o.challLoss, FbLoss: o.fbLoss,
		})
	}
	return s
}

func setLifecycle(lc *lifecycle, s LifecycleState, family string) {
	lc.family = family
	lc.champVer, lc.challVer, lc.fbVer, lc.nextVer = s.ChampVer, s.ChallVer, s.FbVer, s.NextVer
	lc.window.Reset()
	for _, o := range s.Window {
		lc.window.Push(obs{
			champVer: o.ChampVer, challVer: o.ChallVer, fbVer: o.FbVer,
			champLoss: o.ChampLoss, challLoss: o.ChallLoss, fbLoss: o.FbLoss,
		}, len(s.Window))
	}
	lc.sumChampLoss = s.SumChampLoss
	lc.outcomes = s.Outcomes
}

func metaList(m map[int]trainMeta) []trainMeta {
	out := make([]trainMeta, 0, len(m))
	for _, tm := range m {
		out = append(out, tm)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ver < out[j].Ver })
	return out
}

func umModelState(u predict.Untouched) (*UMModelState, error) {
	if u == nil {
		return nil, nil
	}
	if f, ok := u.(predict.FixedUntouched); ok {
		// marshalUM keeps only the heuristic's name; Frac must ride along.
		raw, err := json.Marshal(map[string]any{"kind": "heuristic", "name": f.Name(), "frac": f.Frac})
		if err != nil {
			return nil, err
		}
		return &UMModelState{Model: raw}, nil
	}
	raw, err := marshalUM(u)
	if err != nil {
		return nil, err
	}
	s := &UMModelState{Model: raw}
	if g, ok := u.(*predict.GBMUntouched); ok {
		s.Margin = g.Margin
	}
	return s, nil
}

func insModelState(i predict.Insensitivity, thr float64) (*InsModelState, error) {
	if i == nil {
		return nil, nil
	}
	raw, err := marshalInsens(i)
	if err != nil {
		return nil, err
	}
	return &InsModelState{Model: raw, Threshold: thr}, nil
}

// UMState exports an untouched-memory model slot in the state wire
// form; the fleet pipeline reuses it for its release-train state.
func UMState(u predict.Untouched) (*UMModelState, error) { return umModelState(u) }

// LoadUMState rebuilds an untouched-memory model from its wire form,
// heuristics included (LoadUM only handles trained ensembles).
func LoadUMState(s *UMModelState) (predict.Untouched, error) {
	if s == nil {
		return nil, nil
	}
	var probe struct {
		Kind string  `json:"kind"`
		Name string  `json:"name"`
		Frac float64 `json:"frac"`
	}
	if err := json.Unmarshal(s.Model, &probe); err != nil {
		return nil, fmt.Errorf("mlops: um model state: %w", err)
	}
	switch probe.Kind {
	case "gbm":
		g, err := ml.ImportGBM(bytes.NewReader(s.Model))
		if err != nil {
			return nil, err
		}
		m := predict.WrapGBMUntouched(g)
		m.Margin = s.Margin
		return m, nil
	case "heuristic":
		switch probe.Name {
		case "history-quantile":
			return predict.HistoryQuantileUM{}, nil
		case "Fixed":
			return predict.FixedUntouched{Frac: probe.Frac}, nil
		}
	}
	return nil, fmt.Errorf("mlops: cannot rebuild um model kind %q name %q", probe.Kind, probe.Name)
}

// LoadInsensState rebuilds an insensitivity model from its wire form.
func LoadInsensState(s *InsModelState) (predict.Insensitivity, error) {
	if s == nil {
		return nil, nil
	}
	var probe struct {
		Kind string `json:"kind"`
		Name string `json:"name"`
	}
	if err := json.Unmarshal(s.Model, &probe); err != nil {
		return nil, fmt.Errorf("mlops: insens model state: %w", err)
	}
	switch probe.Kind {
	case "forest":
		f, err := ml.ImportForest(bytes.NewReader(s.Model))
		if err != nil {
			return nil, err
		}
		return predict.WrapForestModel(f), nil
	case "heuristic":
		switch probe.Name {
		case "Memory-Bound":
			return predict.CounterThreshold{Counter: pmu.MemoryBound}, nil
		case "DRAM-Bound":
			return predict.CounterThreshold{Counter: pmu.DRAMBound}, nil
		}
	}
	return nil, fmt.Errorf("mlops: cannot rebuild insens model kind %q name %q", probe.Kind, probe.Name)
}

// State captures the manager's full state for serialization.
func (m *Manager) State() (State, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var s State
	var err error
	if s.UMChamp, err = umModelState(m.umChamp); err != nil {
		return State{}, err
	}
	if s.UMChall, err = umModelState(m.umChall); err != nil {
		return State{}, err
	}
	if s.UMFb, err = umModelState(m.umFb); err != nil {
		return State{}, err
	}
	s.UMLC = lifecycleState(m.umLC)

	ids := make([]cluster.VMID, 0, len(m.umPending))
	for id := range m.umPending {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		p := m.umPending[id]
		s.Pending = append(s.Pending, PendingState{
			VM: id, Feats: append([]float64(nil), p.feats...),
			Champ: p.champ, Chall: p.chall, Fb: p.fb,
			ChampVer: p.champVer, ChallVer: p.challVer, FbVer: p.fbVer,
		})
	}
	for _, x := range m.umX.Items() {
		s.UMX = append(s.UMX, append([]float64(nil), x...))
	}
	s.UMY = append([]float64(nil), m.umY.Items()...)
	s.UMMeta = metaList(m.umMeta)

	if s.InsChamp, err = insModelState(m.insChamp, m.insChampThr); err != nil {
		return State{}, err
	}
	if s.InsChall, err = insModelState(m.insChall, m.insChallThr); err != nil {
		return State{}, err
	}
	if s.InsFb, err = insModelState(m.insFb, m.insFbThr); err != nil {
		return State{}, err
	}
	s.InsLC = lifecycleState(m.insLC)
	for _, x := range m.insX.Items() {
		s.InsX = append(s.InsX, append([]float64(nil), x...))
	}
	s.InsY = append([]float64(nil), m.insY.Items()...)
	s.InsMeta = metaList(m.insMeta)

	s.Events = append([]Event(nil), m.events...)
	return s, nil
}

// SetState restores a state captured by State onto a freshly built
// manager (same config, cell, server wiring). It rebuilds every model
// slot from its wire form and re-installs the serving pair — models and
// insensitivity threshold — without disturbing the serving generation,
// which the caller restores separately on the predict.Server.
func (m *Manager) SetState(s State) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var err error
	if m.umChamp, err = LoadUMState(s.UMChamp); err != nil {
		return err
	}
	if m.umChall, err = LoadUMState(s.UMChall); err != nil {
		return err
	}
	if m.umFb, err = LoadUMState(s.UMFb); err != nil {
		return err
	}
	setLifecycle(&m.umLC, s.UMLC, FamilyUM)

	// A monitor-only manager never trains, so training rows an older
	// build wrote into its snapshot are dead state: they are dropped
	// rather than carried into every later snapshot.
	keepRows := !m.cfg.MonitorOnly
	m.umPending = make(map[cluster.VMID]umPending, len(s.Pending))
	for _, p := range s.Pending {
		up := umPending{
			champ: p.Champ, chall: p.Chall, fb: p.Fb,
			champVer: p.ChampVer, challVer: p.ChallVer, fbVer: p.FbVer,
		}
		if keepRows {
			up.feats = append([]float64(nil), p.Feats...)
		}
		m.umPending[p.VM] = up
	}
	m.umX.Reset()
	m.umY.Reset()
	if keepRows {
		for _, x := range s.UMX {
			m.umX.Push(append([]float64(nil), x...), len(s.UMX))
		}
		for _, y := range s.UMY {
			m.umY.Push(y, len(s.UMY))
		}
	}
	m.umMeta = make(map[int]trainMeta, len(s.UMMeta))
	for _, tm := range s.UMMeta {
		m.umMeta[tm.Ver] = tm
	}

	if m.insChamp, err = LoadInsensState(s.InsChamp); err != nil {
		return err
	}
	if m.insChall, err = LoadInsensState(s.InsChall); err != nil {
		return err
	}
	if m.insFb, err = LoadInsensState(s.InsFb); err != nil {
		return err
	}
	m.insChampThr, m.insChallThr, m.insFbThr = 0, 0, 0
	if s.InsChamp != nil {
		m.insChampThr = s.InsChamp.Threshold
	}
	if s.InsChall != nil {
		m.insChallThr = s.InsChall.Threshold
	}
	if s.InsFb != nil {
		m.insFbThr = s.InsFb.Threshold
	}
	setLifecycle(&m.insLC, s.InsLC, FamilyInsens)
	m.insX.Reset()
	m.insY.Reset()
	if keepRows {
		for _, x := range s.InsX {
			m.insX.Push(append([]float64(nil), x...), len(s.InsX))
		}
		for _, y := range s.InsY {
			m.insY.Push(y, len(s.InsY))
		}
	}
	m.insMeta = make(map[int]trainMeta, len(s.InsMeta))
	for _, tm := range s.InsMeta {
		m.insMeta[tm.Ver] = tm
	}

	m.events = append([]Event(nil), s.Events...)
	m.pushThresholdLocked()
	return nil
}

// ServingModels returns the current champions (and the insensitivity
// serving threshold) so a restoring caller can re-pin the inference
// server.
func (m *Manager) ServingModels() (predict.Insensitivity, float64, predict.Untouched) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.insChamp, m.insChampThr, m.umChamp
}
