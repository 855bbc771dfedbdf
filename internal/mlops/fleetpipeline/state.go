package fleetpipeline

import (
	"fmt"
	"sort"

	"pond/internal/cluster"
	"pond/internal/mlops"
)

// MetaState is one release version's training provenance.
type MetaState struct {
	Ver   int     `json:"ver"`
	AtSec float64 `json:"at_sec"`
	Rows  int     `json:"rows"`
}

// ObsState is one departed VM's shadow-scoring result.
type ObsState struct {
	ChampVer  int     `json:"champ_ver"`
	ChallVer  int     `json:"chall_ver"`
	FbVer     int     `json:"fb_ver"`
	ChampLoss float64 `json:"champ_loss"`
	ChallLoss float64 `json:"chall_loss"`
	FbLoss    float64 `json:"fb_loss"`
}

// RowState is one pooled training example.
type RowState struct {
	Feats []float64 `json:"feats"`
	Label float64   `json:"label"`
}

// ManagerState is the serializable state of the fleet release train:
// the live release slots (wire-form models plus versions), rollout
// stage, pooled corpus, per-cell holdout windows, provenance, and the
// event history. Config is wiring, rebuilt by the restoring caller.
type ManagerState struct {
	Champ *mlops.UMModelState `json:"champ,omitempty"`
	Chall *mlops.UMModelState `json:"chall,omitempty"`
	Fb    *mlops.UMModelState `json:"fb,omitempty"`

	ChampVer int `json:"champ_ver"`
	ChallVer int `json:"chall_ver"`
	FbVer    int `json:"fb_ver"`
	NextVer  int `json:"next_ver"`

	Stage      string  `json:"stage"`
	CanaryLo   int     `json:"canary_lo,omitempty"`
	CanaryHi   int     `json:"canary_hi,omitempty"`
	BakeEndSec float64 `json:"bake_end_sec,omitempty"`

	X       [][]float64 `json:"x,omitempty"`
	Y       []float64   `json:"y,omitempty"`
	NewRows int         `json:"new_rows,omitempty"`

	Win [][]ObsState `json:"win,omitempty"`

	Meta   []MetaState `json:"meta,omitempty"`
	Events []Event     `json:"events,omitempty"`
}

func obsStates(in []Obs) []ObsState {
	var out []ObsState
	for _, o := range in {
		out = append(out, ObsState{
			ChampVer: o.ChampVer, ChallVer: o.ChallVer, FbVer: o.FbVer,
			ChampLoss: o.ChampLoss, ChallLoss: o.ChallLoss, FbLoss: o.FbLoss,
		})
	}
	return out
}

func obsFromStates(in []ObsState) []Obs {
	var out []Obs
	for _, o := range in {
		out = append(out, Obs{
			ChampVer: o.ChampVer, ChallVer: o.ChallVer, FbVer: o.FbVer,
			ChampLoss: o.ChampLoss, ChallLoss: o.ChallLoss, FbLoss: o.FbLoss,
		})
	}
	return out
}

// State captures the release train's full state for serialization.
func (m *Manager) State() (ManagerState, error) {
	var s ManagerState
	var err error
	if s.Champ, err = mlops.UMState(m.champ); err != nil {
		return ManagerState{}, err
	}
	if s.Chall, err = mlops.UMState(m.chall); err != nil {
		return ManagerState{}, err
	}
	if s.Fb, err = mlops.UMState(m.fb); err != nil {
		return ManagerState{}, err
	}
	s.ChampVer, s.ChallVer, s.FbVer, s.NextVer = m.champVer, m.challVer, m.fbVer, m.nextVer
	s.Stage, s.CanaryLo, s.CanaryHi, s.BakeEndSec = m.stage, m.canaryLo, m.canaryHi, m.bakeEndSec
	for _, x := range m.x {
		s.X = append(s.X, append([]float64(nil), x...))
	}
	s.Y = append([]float64(nil), m.y...)
	s.NewRows = m.newRows
	s.Win = make([][]ObsState, len(m.win))
	for c := range m.win {
		s.Win[c] = obsStates(m.win[c].Items())
	}
	vers := make([]int, 0, len(m.meta))
	for v := range m.meta {
		vers = append(vers, v)
	}
	sort.Ints(vers)
	for _, v := range vers {
		tm := m.meta[v]
		s.Meta = append(s.Meta, MetaState{Ver: v, AtSec: tm.AtSec, Rows: tm.Rows})
	}
	s.Events = append([]Event(nil), m.events...)
	return s, nil
}

// SetState restores a state captured by State onto a freshly built
// manager with the same config.
func (m *Manager) SetState(s ManagerState) error {
	if len(s.Win) != 0 && len(s.Win) != len(m.win) {
		return fmt.Errorf("fleetpipeline: state has %d cell windows, manager has %d", len(s.Win), len(m.win))
	}
	var err error
	if m.champ, err = mlops.LoadUMState(s.Champ); err != nil {
		return err
	}
	if m.chall, err = mlops.LoadUMState(s.Chall); err != nil {
		return err
	}
	if m.fb, err = mlops.LoadUMState(s.Fb); err != nil {
		return err
	}
	m.champVer, m.challVer, m.fbVer, m.nextVer = s.ChampVer, s.ChallVer, s.FbVer, s.NextVer
	m.stage, m.canaryLo, m.canaryHi, m.bakeEndSec = s.Stage, s.CanaryLo, s.CanaryHi, s.BakeEndSec
	m.x = nil
	for _, x := range s.X {
		m.x = append(m.x, append([]float64(nil), x...))
	}
	m.y = append([]float64(nil), s.Y...)
	m.newRows = s.NewRows
	for c := range m.win {
		m.win[c].Reset()
	}
	for c, w := range s.Win {
		for _, o := range obsFromStates(w) {
			m.win[c].Push(o, len(w))
		}
	}
	m.meta = make(map[int]trainMeta, len(s.Meta))
	for _, ms := range s.Meta {
		m.meta[ms.Ver] = trainMeta{AtSec: ms.AtSec, Rows: ms.Rows}
	}
	m.events = append([]Event(nil), s.Events...)
	return nil
}

// AssignmentForServeVer rebuilds a cell's barrier assignment from the
// manager's current slots, picking the serving model by version.
// Restores use it to re-pin collectors without replaying the barrier
// that installed them.
func (m *Manager) AssignmentForServeVer(serveVer int) (Assignment, error) {
	a := Assignment{
		Champ: m.champ, Chall: m.chall, Fb: m.fb,
		ChampVer: m.champVer, ChallVer: m.challVer, FbVer: m.fbVer,
		ServeVer: serveVer, Role: "champion",
	}
	switch serveVer {
	case m.champVer:
		a.Serve = m.champ
	case m.challVer:
		a.Serve = m.chall
		a.Role = "canary"
	case m.fbVer:
		a.Serve = m.fb
	default:
		return Assignment{}, fmt.Errorf("fleetpipeline: serving version %d matches no live slot (champ=%d chall=%d fb=%d)",
			serveVer, m.champVer, m.challVer, m.fbVer)
	}
	return a, nil
}

// PendingState is one in-flight VM's shadow scores.
type PendingState struct {
	VM       cluster.VMID `json:"vm"`
	Feats    []float64    `json:"feats"`
	Champ    float64      `json:"champ"`
	Chall    float64      `json:"chall"`
	Fb       float64      `json:"fb"`
	Serve    float64      `json:"serve"`
	ChampVer int          `json:"champ_ver"`
	ChallVer int          `json:"chall_ver"`
	FbVer    int          `json:"fb_ver"`
}

// CollectorState is the serializable state of one cell's collector. The
// model slots themselves are re-pinned by the restoring caller via
// Install (see AssignmentFor); this carries the versions for that
// lookup plus everything the collector accumulated.
type CollectorState struct {
	ChampVer int `json:"champ_ver"`
	ChallVer int `json:"chall_ver"`
	FbVer    int `json:"fb_ver"`
	ServeVer int `json:"serve_ver"`

	Pending []PendingState `json:"pending,omitempty"`
	Rows    []RowState     `json:"rows,omitempty"`
	Obs     []ObsState     `json:"obs,omitempty"`

	SumServeLoss float64   `json:"sum_serve_loss,omitempty"`
	Outcomes     int       `json:"outcomes,omitempty"`
	ServeWindow  []float64 `json:"serve_window,omitempty"`

	SumInsLoss float64 `json:"sum_ins_loss,omitempty"`
	InsN       int     `json:"ins_n,omitempty"`
}

// State captures the collector's accumulated state for serialization.
func (c *Collector) State() CollectorState {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := CollectorState{
		ChampVer: c.champVer, ChallVer: c.challVer, FbVer: c.fbVer, ServeVer: c.serveVer,
		SumServeLoss: c.sumServeLoss, Outcomes: c.outcomes,
		ServeWindow: append([]float64(nil), c.serveWindow.Items()...),
		SumInsLoss:  c.sumInsLoss, InsN: c.insN,
	}
	ids := make([]cluster.VMID, 0, len(c.pending))
	for id := range c.pending {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		p := c.pending[id]
		s.Pending = append(s.Pending, PendingState{
			VM: id, Feats: append([]float64(nil), p.feats...),
			Champ: p.champ, Chall: p.chall, Fb: p.fb, Serve: p.serve,
			ChampVer: p.champVer, ChallVer: p.challVer, FbVer: p.fbVer,
		})
	}
	for _, r := range c.rows {
		s.Rows = append(s.Rows, RowState{Feats: append([]float64(nil), r.Feats...), Label: r.Label})
	}
	s.Obs = obsStates(c.obs)
	return s
}

// SetState restores a state captured by State onto a freshly built
// collector. Call Install first to re-pin the model slots; SetState
// checks the versions line up.
func (c *Collector) SetState(s CollectorState) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.champVer != s.ChampVer || c.challVer != s.ChallVer || c.fbVer != s.FbVer || c.serveVer != s.ServeVer {
		return fmt.Errorf("fleetpipeline: cell %d collector slots (%d,%d,%d serve %d) do not match state (%d,%d,%d serve %d)",
			c.cell, c.champVer, c.challVer, c.fbVer, c.serveVer, s.ChampVer, s.ChallVer, s.FbVer, s.ServeVer)
	}
	c.pending = make(map[cluster.VMID]pendingScore, len(s.Pending))
	for _, p := range s.Pending {
		c.pending[p.VM] = pendingScore{
			feats: append([]float64(nil), p.Feats...),
			champ: p.Champ, chall: p.Chall, fb: p.Fb, serve: p.Serve,
			champVer: p.ChampVer, challVer: p.ChallVer, fbVer: p.FbVer,
		}
	}
	c.rows = nil
	for _, r := range s.Rows {
		c.rows = append(c.rows, Row{Feats: append([]float64(nil), r.Feats...), Label: r.Label})
	}
	c.obs = obsFromStates(s.Obs)
	c.sumServeLoss = s.SumServeLoss
	c.outcomes = s.Outcomes
	c.serveWindow.Reset()
	for _, v := range s.ServeWindow {
		c.serveWindow.Push(v, len(s.ServeWindow))
	}
	c.sumInsLoss = s.SumInsLoss
	c.insN = s.InsN
	return nil
}
