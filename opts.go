package pond

import "pond/internal/fleet"

// ClusterOpts sizes the simulated fleet: the per-cell topology and
// hardware, how many independent cells run, and for how long. The zero
// value of any field falls back to the Defaults value.
type ClusterOpts struct {
	// Topology is the host-to-EMC connectivity of every cell: "flat",
	// "sharded", or "sparse" (Octopus-style overlapping pods).
	Topology string `json:"topology,omitempty"`
	// PodDegree is the per-host EMC count under "sparse".
	PodDegree int `json:"pod_degree,omitempty"`
	// Hosts is the number of hypervisor hosts per cell.
	Hosts int `json:"hosts,omitempty"`
	// EMCs is the number of external memory controllers per cell.
	EMCs int `json:"emcs,omitempty"`
	// PoolGB is each cell's pool capacity in GB, split evenly across its
	// EMCs.
	PoolGB int `json:"pool_gb,omitempty"`
	// Cells is the number of independent pool groups (engine shards).
	Cells int `json:"cells,omitempty"`
	// DurationSec is the simulated horizon.
	DurationSec float64 `json:"duration_sec,omitempty"`
}

// ArrivalOpts describes the VM arrival process — the declarative form
// of the "poisson:rate=0.05:life=600" spec strings the CLI takes.
// Values must be finite, and a rate whose expected stream (rate x
// horizon, surges included) passes a fixed per-cell ceiling of three
// million arrivals is rejected.
type ArrivalOpts struct {
	// Process is "poisson" (memoryless arrivals, exponential lifetimes)
	// or "trace" (interarrivals derived from the cluster generator).
	Process string `json:"process,omitempty"`
	// RatePerSec is the Poisson arrival rate in VMs per second.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// MeanLifetimeSec is the mean exponential VM lifetime under poisson.
	MeanLifetimeSec float64 `json:"mean_lifetime_sec,omitempty"`
}

// ModelOpts configures the prediction pipeline and the online
// model-lifecycle loop (§5 of the paper).
type ModelOpts struct {
	// Disabled turns off the ML scheduling pipeline entirely — the
	// no-pooling baseline. The zero value keeps predictions on.
	Disabled bool `json:"disabled,omitempty"`
	// RetrainEverySec > 0 closes the model-lifecycle loop: models
	// retrain from live telemetry at this cadence, shadow-score against
	// the serving champions, and hot-swap on proven improvement.
	RetrainEverySec float64 `json:"retrain_every_sec,omitempty"`
	// Scope selects where retraining happens: "cell" (the default —
	// every cell runs its own champion/challenger lifecycle) or "fleet"
	// (one central pipeline with staged canary rollout across cells).
	Scope string `json:"scope,omitempty"`
	// CanaryFraction is the fraction of cells a fleet-scoped release
	// reaches first, rounded up to at least one cell (0 = 0.25).
	CanaryFraction float64 `json:"canary_fraction,omitempty"`
	// BakeWindowSec is how long a fleet-scoped canary bakes before its
	// promote-or-rollback verdict (0 = twice the retrain cadence).
	BakeWindowSec float64 `json:"bake_window_sec,omitempty"`
	// PromoteMargin is the fractional rolling-loss improvement a
	// challenger must show to be promoted (0 = the 5% default).
	PromoteMargin float64 `json:"promote_margin,omitempty"`
	// HoldoutWindow is the rolling comparison window in completed VMs
	// (0 = the mlops default).
	HoldoutWindow int `json:"holdout_window,omitempty"`
	// MinTrainRows is the minimum completed VMs before a challenger is
	// trained (0 = the mlops default).
	MinTrainRows int `json:"min_train_rows,omitempty"`
	// Capture includes each cell's versioned model snapshots in the
	// report (see FleetReport.ModelsJSON).
	Capture bool `json:"capture,omitempty"`
}

// CapacityOpts configures the online capacity-planning loop that closes
// the telemetry-to-DRAM-savings cycle.
type CapacityOpts struct {
	// Elastic turns on the controller: at every PlanEverySec barrier
	// each cell re-plans its pool size from observed demand and grows or
	// shrinks the EMCs through the Pool Manager's elastic APIs.
	Elastic bool `json:"elastic,omitempty"`
	// PlanEverySec is the planning-barrier cadence in simulated seconds
	// (0 = an eighth of the horizon). Elastic only.
	PlanEverySec float64 `json:"plan_every_sec,omitempty"`
	// TargetQoS is the tolerated fraction of time pool demand may exceed
	// capacity — the controller's sizing target (0 = 0.01). Elastic
	// only.
	TargetQoS float64 `json:"target_qos,omitempty"`
}

// EngineOpts controls execution, not behaviour: results are
// byte-identical for every Workers value.
type EngineOpts struct {
	// Workers bounds the engine worker pool; <= 0 means GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
	// Seed roots every cell's RNG stream (0 means the default seed).
	Seed int64 `json:"seed,omitempty"`
	// MetricsEverySec > 0 samples each cell's sim-time metrics series
	// (live VMs, pool use, queue depth, prediction error) at this cadence
	// in simulated seconds, drained via FleetRun.DrainMetrics. Sampling
	// only reads simulation state: the event log and report are
	// byte-identical with it on or off. 0 disables sampling.
	MetricsEverySec float64 `json:"metrics_every_sec,omitempty"`
}

// FleetOpts configures RunFleet and StartFleet. Configuration lives in
// the grouped, JSON-tagged sub-configs — the same declarative types
// drive the Go API, the pondfleet flags, and pondserve request bodies,
// with one validation path underneath.
type FleetOpts struct {
	Cluster  ClusterOpts  `json:"cluster"`
	Arrivals ArrivalOpts  `json:"arrival"`
	Model    ModelOpts    `json:"model"`
	Capacity CapacityOpts `json:"capacity"`
	Engine   EngineOpts   `json:"engine"`

	// Injections are the scheduled scenario events. In JSON each is its
	// canonical spec string, e.g. "emc-fail@t=500:emc=1".
	Injections []Injection `json:"injections,omitempty"`
}

// Defaults returns the fully-populated default configuration — four
// flat-topology cells of 8 hosts x 4 EMCs, Poisson arrivals, predictions
// on. It is the single source of truth the pondfleet usage text and
// docs/DEFAULTS.md are generated from; conditional defaults (values
// derived from other fields at run time) are listed in DefaultNotes.
func Defaults() FleetOpts {
	d := fleet.DefaultOptions()
	return FleetOpts{
		Cluster: ClusterOpts{
			Topology:    d.Topology,
			PodDegree:   d.PodDegree,
			Hosts:       d.Hosts,
			EMCs:        d.EMCs,
			PoolGB:      d.PoolGB,
			Cells:       d.Cells,
			DurationSec: d.DurationSec,
		},
		Arrivals: ArrivalOpts{
			Process:         d.Arrival.Kind,
			RatePerSec:      d.Arrival.RatePerSec,
			MeanLifetimeSec: d.Arrival.MeanLifetimeSec,
		},
		Model:  ModelOpts{Scope: d.ModelScope},
		Engine: EngineOpts{Seed: d.Seed},
	}
}

// DefaultNote documents one zero-value default that is derived from
// other fields at run time rather than being a fixed number.
type DefaultNote struct {
	Field string
	Note  string
}

// DefaultNotes lists the conditional defaults, one sentence each — the
// companion to Defaults for doc generation. Keeping the sentences here,
// next to the structs, is what stops the three doc sites (struct
// godoc, pondfleet usage, README) drifting apart again.
func DefaultNotes() []DefaultNote {
	return []DefaultNote{
		{"Model.CanaryFraction", "0 means 0.25 of the cells (rounded up to at least one); fleet scope only."},
		{"Model.BakeWindowSec", "0 means twice Model.RetrainEverySec; fleet scope only."},
		{"Model.PromoteMargin", "0 means the mlops default of 5%."},
		{"Model.HoldoutWindow", "0 means the mlops default window."},
		{"Model.MinTrainRows", "0 means the mlops default row floor."},
		{"Capacity.PlanEverySec", "0 means an eighth of Cluster.DurationSec; elastic pool only."},
		{"Capacity.TargetQoS", "0 means 0.01; elastic pool only."},
		{"Engine.Workers", "0 means GOMAXPROCS; never changes results."},
		{"Engine.MetricsEverySec", "0 disables sim-time metrics sampling; any value never changes results."},
	}
}

// model converts the grouped arrival options to the internal form,
// leaving zero fields zero for the shared normalization to fill.
func (a ArrivalOpts) model() fleet.ArrivalModel {
	return fleet.ArrivalModel{Kind: a.Process, RatePerSec: a.RatePerSec, MeanLifetimeSec: a.MeanLifetimeSec}
}

// Spec renders the canonical arrival spec string the -arrival flag
// takes, e.g. "poisson:rate=0.05:life=600", with zero fields filled
// from the defaults.
func (a ArrivalOpts) Spec() string {
	m, d := a.model(), fleet.DefaultArrival()
	if m.Kind == "" {
		m.Kind = d.Kind
	}
	if m.RatePerSec <= 0 {
		m.RatePerSec = d.RatePerSec
	}
	if m.MeanLifetimeSec <= 0 {
		m.MeanLifetimeSec = d.MeanLifetimeSec
	}
	return m.String()
}

// fleetOptions converts to the internal options. Validation itself
// happens in the internal normalization — the single path shared by
// every entry point.
func (o FleetOpts) fleetOptions() fleet.Options {
	inj := make([]fleet.Injection, len(o.Injections))
	for i := range o.Injections {
		inj[i] = o.Injections[i].in
	}
	return fleet.Options{
		Topology:        o.Cluster.Topology,
		PodDegree:       o.Cluster.PodDegree,
		Hosts:           o.Cluster.Hosts,
		EMCs:            o.Cluster.EMCs,
		PoolGB:          o.Cluster.PoolGB,
		Cells:           o.Cluster.Cells,
		DurationSec:     o.Cluster.DurationSec,
		Arrival:         o.Arrivals.model(),
		Injections:      inj,
		Predictions:     !o.Model.Disabled,
		RetrainEverySec: o.Model.RetrainEverySec,
		ModelScope:      o.Model.Scope,
		CanaryFraction:  o.Model.CanaryFraction,
		BakeWindowSec:   o.Model.BakeWindowSec,
		PromoteMargin:   o.Model.PromoteMargin,
		HoldoutWindow:   o.Model.HoldoutWindow,
		MinTrainRows:    o.Model.MinTrainRows,
		CaptureModels:   o.Model.Capture,
		ElasticPool:     o.Capacity.Elastic,
		PlanEverySec:    o.Capacity.PlanEverySec,
		TargetQoS:       o.Capacity.TargetQoS,
		Workers:         o.Engine.Workers,
		Seed:            o.Engine.Seed,
		MetricsEverySec: o.Engine.MetricsEverySec,
	}
}

// Validate runs the full normalization — the same checks RunFleet and
// StartFleet apply — without running anything. CLI flag parsing and
// pondserve both validate through here, so an error reads identically
// no matter which entry point produced it.
func (o FleetOpts) Validate() error {
	_, err := fleet.NormalizeOptions(o.fleetOptions())
	return err
}
