package pond

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// snapshotTestOpts is a tiny run with predictions and per-cell
// retraining on, so a snapshot carries every stateful layer: telemetry
// histories, model servers with their caches, and the lifecycle's
// training rows and holdout windows.
func snapshotTestOpts() FleetOpts {
	return FleetOpts{
		Cluster:  ClusterOpts{Hosts: 4, EMCs: 4, PoolGB: 64, Cells: 2, DurationSec: 600},
		Arrivals: ArrivalOpts{Process: "poisson", RatePerSec: 0.2, MeanLifetimeSec: 120},
		Model:    ModelOpts{RetrainEverySec: 150},
		Engine:   EngineOpts{Workers: 1},
	}
}

// TestFleetSnapshotRoundTrip pauses a run mid-horizon, sends its
// snapshot through JSON, restores it in-process, and finishes both: the
// restored run must report the uninterrupted run's event log hash, and
// a snapshot of the freshly restored run must encode to the same bytes.
func TestFleetSnapshotRoundTrip(t *testing.T) {
	ctx := context.Background()
	want, err := RunFleet(ctx, snapshotTestOpts())
	if err != nil {
		t.Fatal(err)
	}

	fr, err := StartFleet(ctx, snapshotTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.Advance(ctx, 330); err != nil {
		t.Fatal(err)
	}
	snap, err := fr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}

	var decoded FleetSnapshot
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreFleet(ctx, &decoded)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Now() != fr.Now() || restored.Done() {
		t.Fatalf("restored at t=%g (done=%v), paused at t=%g", restored.Now(), restored.Done(), fr.Now())
	}
	again, err := restored.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	againData, err := json.Marshal(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(againData, data) {
		t.Fatal("snapshot of the restored run differs from the snapshot it was restored from")
	}

	for name, run := range map[string]*FleetRun{"original": fr, "restored": restored} {
		rep, err := run.Finish(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if rep.LogSHA256 != want.LogSHA256 || rep.Placed != want.Placed {
			t.Errorf("%s run: sha256=%s placed=%d, uninterrupted sha256=%s placed=%d",
				name, rep.LogSHA256, rep.Placed, want.LogSHA256, want.Placed)
		}
	}
}

// TestRestoreFleetRejectsMismatchedSnapshots checks that a snapshot
// whose wire version or cell count disagrees with what it claims is
// refused with an error instead of being restored.
func TestRestoreFleetRejectsMismatchedSnapshots(t *testing.T) {
	ctx := context.Background()
	fr, err := StartFleet(ctx, snapshotTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.Advance(ctx, 120); err != nil {
		t.Fatal(err)
	}
	snap, err := fr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	wrongVersion := *snap
	wrongVersion.Version = FleetSnapshotVersion + 1
	if _, err := RestoreFleet(ctx, &wrongVersion); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("wrong outer version: err = %v", err)
	}

	editSim := func(edit func(map[string]any)) *FleetSnapshot {
		t.Helper()
		var sim map[string]any
		if err := json.Unmarshal(snap.Sim, &sim); err != nil {
			t.Fatal(err)
		}
		edit(sim)
		raw, err := json.Marshal(sim)
		if err != nil {
			t.Fatal(err)
		}
		bad := *snap
		bad.Sim = raw
		return &bad
	}
	cases := map[string]*FleetSnapshot{
		"sim-version": editSim(func(sim map[string]any) { sim["version"] = 99 }),
		"cell-count": editSim(func(sim map[string]any) {
			sim["cells"] = sim["cells"].([]any)[:1]
		}),
		"sim-garbage": {Version: FleetSnapshotVersion, Opts: snap.Opts, Sim: json.RawMessage(`"not a snapshot"`)},
	}
	for name, bad := range cases {
		if _, err := RestoreFleet(ctx, bad); err == nil {
			t.Errorf("%s: restore accepted a mismatched snapshot", name)
		}
	}
	if _, err := RestoreFleet(ctx, nil); err == nil {
		t.Error("nil snapshot accepted")
	}
}
