package fleetpipeline

import (
	"sync"

	"pond/internal/cluster"
	"pond/internal/core"
	"pond/internal/fifo"
	"pond/internal/mlops"
	"pond/internal/pmu"
	"pond/internal/predict"
)

// Row is one (admission-features, outcome) training example, the unit
// the fleet corpus pools across cells.
type Row struct {
	Feats []float64
	Label float64
}

// Obs is one departed VM's shadow-scoring result, stamped with the
// release versions that actually predicted at admission — a model must
// be judged by what it said, not by whichever release is live when the
// VM departs.
type Obs struct {
	ChampVer, ChallVer, FbVer    int
	ChampLoss, ChallLoss, FbLoss float64
}

// pendingScore holds a placed VM's admission features and shadow
// predictions until departure.
type pendingScore struct {
	feats                     []float64
	champ, chall, fb          float64
	champVer, challVer, fbVer int
	serve                     float64
}

// Collector is the fleet pipeline's agent inside one cell: it
// shadow-scores every admission with the distributed contenders, turns
// departures into training rows and holdout observations, and hands both
// to the fleet Manager at each retrain barrier via Drain. It also tracks
// the cell's serving-model quality (the model actually on the request
// path — the challenger on canary cells), so canary and control cells
// report comparable prediction-error metrics.
//
// It is safe for concurrent use; the fleet's discrete-event loop drives
// it sequentially for determinism.
type Collector struct {
	mu sync.Mutex

	cell        int
	overPenalty float64
	windowCap   int

	// Distributed slots (installed at barriers via Install).
	champ, chall, fb          predict.Untouched
	champVer, challVer, fbVer int
	serve                     predict.Untouched
	serveVer                  int

	pending map[cluster.VMID]pendingScore

	// Drained at each barrier.
	rows []Row
	obs  []Obs

	// Whole-run serving quality.
	sumServeLoss float64
	outcomes     int
	serveWindow  fifo.Window[float64] // rolling, capped at windowCap

	// Frozen insensitivity monitoring (the fleet pipeline manages the
	// untouched-memory family; the insensitivity bootstrap keeps serving
	// and is scored here so reports stay comparable with cell scope).
	insens     predict.Insensitivity
	ratio, pdm float64
	sumInsLoss float64
	insN       int
}

// NewCollector builds a cell's collector around the bootstrap release
// (version 0) and the cell's frozen insensitivity model. overPenalty and
// windowCap mirror the fleet Manager's Config so losses agree.
func NewCollector(cell int, bootstrap predict.Untouched, insens predict.Insensitivity,
	ratio, pdm, overPenalty float64, windowCap int) *Collector {
	return &Collector{
		cell:        cell,
		overPenalty: overPenalty,
		windowCap:   windowCap,
		champ:       bootstrap,
		champVer:    0,
		challVer:    -1,
		fbVer:       -1,
		serve:       bootstrap,
		serveVer:    0,
		pending:     make(map[cluster.VMID]pendingScore),
		insens:      insens,
		ratio:       ratio,
		pdm:         pdm,
	}
}

// Install pins a barrier assignment: the shadow slots every outcome will
// score and the model serving this cell's request path.
func (c *Collector) Install(a Assignment) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.champ, c.champVer = a.Champ, a.ChampVer
	c.chall, c.challVer = a.Chall, a.ChallVer
	c.fb, c.fbVer = a.Fb, a.FbVer
	c.serve, c.serveVer = a.Serve, a.ServeVer
}

// ServeVer returns the release version on the cell's request path.
func (c *Collector) ServeVer() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.serveVer
}

// ObserveDecision shadow-scores one admission with every live contender.
// It satisfies core.ShadowHook, so the fleet loop registers it directly
// on the scheduling pipeline.
func (c *Collector) ObserveDecision(vm cluster.VMRequest, _ *pmu.Vector, umFeatures []float64, _ core.Decision) {
	if umFeatures == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	p := pendingScore{
		feats:    append([]float64(nil), umFeatures...),
		champVer: -1, challVer: -1, fbVer: -1,
	}
	if c.champ != nil {
		p.champ = c.champ.PredictUntouchedFrac(p.feats)
		p.champVer = c.champVer
	}
	if c.chall != nil {
		p.chall = c.chall.PredictUntouchedFrac(p.feats)
		p.challVer = c.challVer
	}
	if c.fb != nil {
		p.fb = c.fb.PredictUntouchedFrac(p.feats)
		p.fbVer = c.fbVer
	}
	if c.serve != nil {
		p.serve = c.serve.PredictUntouchedFrac(p.feats)
	}
	c.pending[vm.ID] = p
}

// ObserveOutcome records a departed VM's ground truth, closing its
// pending shadow scores into a holdout observation and a labeled
// training row. The counters argument mirrors the per-cell lifecycle's
// signature, so the fleet loop drives either observer identically.
func (c *Collector) ObserveOutcome(vm cluster.VMRequest, counters pmu.Vector, haveCounters bool) {
	c.mu.Lock()
	defer c.mu.Unlock()

	if p, ok := c.pending[vm.ID]; ok {
		delete(c.pending, vm.ID)
		label := vm.GroundTruth.UntouchedFrac
		c.rows = append(c.rows, Row{Feats: p.feats, Label: label})
		o := Obs{ChampVer: p.champVer, ChallVer: p.challVer, FbVer: p.fbVer}
		if p.champVer >= 0 {
			o.ChampLoss = mlops.UMLoss(p.champ, label, c.overPenalty)
		}
		if p.challVer >= 0 {
			o.ChallLoss = mlops.UMLoss(p.chall, label, c.overPenalty)
		}
		if p.fbVer >= 0 {
			o.FbLoss = mlops.UMLoss(p.fb, label, c.overPenalty)
		}
		c.obs = append(c.obs, o)

		serveLoss := mlops.UMLoss(p.serve, label, c.overPenalty)
		c.sumServeLoss += serveLoss
		c.outcomes++
		c.serveWindow.Push(serveLoss, c.windowCap)
	}

	if haveCounters && c.insens != nil && vm.GroundTruth.Workload.Name != "" {
		label := 0.0
		if vm.GroundTruth.Workload.Slowdown(c.ratio, 1) <= c.pdm {
			label = 1
		}
		c.sumInsLoss += mlops.UMLoss(c.insens.Score(counters), label, c.overPenalty)
		c.insN++
	}
}

// ForgetVM drops a VM's pending shadow scores — rejected admissions and
// VMs lost to failures never produce an outcome or a training row.
func (c *Collector) ForgetVM(id cluster.VMID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.pending, id)
}

// Drain returns the training rows and holdout observations recorded
// since the previous barrier, clearing both. VMs still in flight stay
// pending and surface at a later barrier, after they depart.
func (c *Collector) Drain() ([]Row, []Obs) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rows, obs := c.rows, c.obs
	c.rows, c.obs = nil, nil
	return rows, obs
}

// Quality is the cell's end-of-run serving-quality summary.
type Quality struct {
	// ServeVer is the release version on the request path at run end.
	ServeVer int
	// ServeLossMean is the serving model's mean asymmetric loss over
	// every completed VM; ServeLossFinal the same over the final rolling
	// window — the end-of-run prediction error.
	ServeLossMean, ServeLossFinal float64
	// InsensLossMean scores the frozen insensitivity bootstrap.
	InsensLossMean float64
	// Outcomes counts completed VMs that closed a shadow score.
	Outcomes int
}

// Quality summarizes the cell's serving quality so far.
func (c *Collector) Quality() Quality {
	c.mu.Lock()
	defer c.mu.Unlock()
	q := Quality{ServeVer: c.serveVer, Outcomes: c.outcomes}
	if c.outcomes > 0 {
		q.ServeLossMean = c.sumServeLoss / float64(c.outcomes)
	}
	if window := c.serveWindow.Items(); len(window) > 0 {
		var sum float64
		for _, v := range window {
			sum += v
		}
		q.ServeLossFinal = sum / float64(len(window))
	}
	if c.insN > 0 {
		q.InsensLossMean = c.sumInsLoss / float64(c.insN)
	}
	return q
}
