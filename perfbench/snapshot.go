package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"pond"
	"pond/internal/fleet"
	"pond/internal/serve"
)

// stateFile mirrors the parts of the pondserve state file the replay
// reads: each run's replay buffer and simulator snapshot.
type stateFile struct {
	Version int        `json:"version"`
	NextID  int        `json:"next_id"`
	Runs    []stateRun `json:"runs"`
}

type stateRun struct {
	ID       string              `json:"id"`
	Events   []serve.Event       `json:"events,omitempty"`
	Snapshot *pond.FleetSnapshot `json:"snapshot,omitempty"`
}

// snapshotSections are the exported fleet.CellState fields whose JSON
// size the traced run reports, summed over cells.
var snapshotSections = []string{"heap", "running", "log", "store", "server", "mlops", "collector", "hosts", "pool", "emcs"}

// replay is the snapshot layer split of one checkpoint file: the
// harness re-reads the bytes a checkpoint wrote and times each step of
// restoring and re-capturing them through the fleet package itself,
// which the facade's single RestoreFleet/Snapshot calls cannot split.
type replay struct {
	decode, rebuild, capture, encode time.Duration
	sections                         map[string]float64
	eventsBytes                      int
}

// replayCheckpoint decodes file (a pondserve state file when daemon is
// set, else a marshalled pond.FleetSnapshot), rebuilds the runner,
// captures it again and re-encodes it the way the writer did. It also
// checks that the re-captured state encodes to the same bytes as the
// snapshot it was restored from.
func replayCheckpoint(ctx context.Context, file []byte, daemon bool) (replay, error) {
	var rp replay
	t := time.Now()
	var (
		sf   stateFile
		snap *pond.FleetSnapshot
	)
	if daemon {
		if err := json.Unmarshal(file, &sf); err != nil {
			return rp, err
		}
		if len(sf.Runs) != 1 || sf.Runs[0].Snapshot == nil {
			return rp, fmt.Errorf("state file holds %d runs, want one with a snapshot", len(sf.Runs))
		}
		snap = sf.Runs[0].Snapshot
		ev, err := json.Marshal(sf.Runs[0].Events)
		if err != nil {
			return rp, err
		}
		rp.eventsBytes = len(ev)
	} else {
		snap = new(pond.FleetSnapshot)
		if err := json.Unmarshal(file, snap); err != nil {
			return rp, err
		}
	}
	var s fleet.Snapshot
	if err := json.Unmarshal(snap.Sim, &s); err != nil {
		return rp, err
	}
	rp.decode = time.Since(t)

	t = time.Now()
	r, err := fleet.RestoreRunner(ctx, &s)
	if err != nil {
		return rp, err
	}
	rp.rebuild = time.Since(t)

	t = time.Now()
	again, err := r.Snapshot()
	if err != nil {
		return rp, err
	}
	rp.capture = time.Since(t)

	t = time.Now()
	sim, err := json.Marshal(again)
	if err != nil {
		return rp, err
	}
	rewritten := *snap
	rewritten.Sim = sim
	if daemon {
		sf.Runs[0].Snapshot = &rewritten
		_, err = json.MarshalIndent(sf, "", "  ")
	} else {
		_, err = json.Marshal(&rewritten)
	}
	if err != nil {
		return rp, err
	}
	rp.encode = time.Since(t)

	if string(sim) != string(compactJSON(snap.Sim)) {
		return rp, fmt.Errorf("re-captured snapshot differs from the one restored (%d vs %d bytes)", len(sim), len(snap.Sim))
	}
	rp.sections, err = sectionSizes(s.Cells)
	return rp, err
}

// compactJSON strips the indentation a pretty-printed state file adds
// to the embedded snapshot, so it compares with a compact encoding.
func compactJSON(b []byte) []byte {
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		return b
	}
	return buf.Bytes()
}

// sectionSizes is the compact JSON size of each snapshotSections field,
// summed over cells.
func sectionSizes(cells []fleet.CellState) (map[string]float64, error) {
	out := make(map[string]float64, len(snapshotSections))
	for i := range cells {
		c := &cells[i]
		for name, v := range map[string]any{
			"heap": c.Heap, "running": c.Running, "log": c.Log, "store": c.Store,
			"server": c.Server, "mlops": c.Mlops, "collector": c.Collector,
			"hosts": c.Hosts, "pool": c.Pool, "emcs": c.EMCs,
		} {
			b, err := json.Marshal(v)
			if err != nil {
				return nil, fmt.Errorf("section %s: %w", name, err)
			}
			out[name] += float64(len(b))
		}
	}
	return out, nil
}
