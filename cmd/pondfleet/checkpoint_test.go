package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// shaRE pulls the determinism witness out of the printed summary.
var shaRE = regexp.MustCompile(`sha256=([0-9a-f]{64})`)

// checkpointArgs is the shared workload for the kill-resume matrix:
// long enough (in wall time) that a SIGTERM a few hundred milliseconds
// in lands between Advance slices, small enough to keep the matrix
// under test-suite budget.
func checkpointArgs(workers string) []string {
	return []string{
		"-duration", "120000", "-cells", "3", "-hosts", "4", "-pool", "64",
		"-arrival", "poisson:rate=0.2:life=600",
		"-workers", workers,
	}
}

// TestCheckpointKillResumeMatrix is the end-to-end equivalence matrix
// for the snapshot file: a run SIGTERMed at several mid-run points and
// resumed across fresh processes must report the exact event count and
// log hash of the run that was never interrupted, for both serial and
// parallel engines. Each leg execs the real binary, so the chain also
// proves the snapshot survives process death, not just an in-memory
// round trip.
func TestCheckpointKillResumeMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess round-trips are full-tier")
	}
	for _, workers := range []string{"1", "4"} {
		workers := workers
		t.Run("workers="+workers, func(t *testing.T) {
			t.Parallel()
			want := runToCompletion(t, checkpointArgs(workers))

			ckpt := filepath.Join(t.TempDir(), "fleet.ckpt")
			kills := []time.Duration{250 * time.Millisecond, 600 * time.Millisecond}
			interrupted := 0
			resumed := false
			var final string
			for leg := 0; ; leg++ {
				args := append(checkpointArgs(workers), "-checkpoint", ckpt)
				if interrupted > 0 {
					args = append(args, "-resume")
				}
				var kill time.Duration
				if interrupted < len(kills) {
					kill = kills[interrupted]
				}
				out, ok := runLeg(t, args, kill)
				switch {
				case strings.Contains(out, "interrupted at t="):
					interrupted++
				case ok && strings.Contains(out, "event-log:"):
					if strings.Contains(out, "resumed from") {
						resumed = true
					}
					final = out
				case !ok && !strings.Contains(out, "interrupted"):
					// SIGTERM landed before the handler was installed, so
					// the default action killed the process before a
					// snapshot was (re)written. The previous snapshot on
					// disk is untouched; rerunning the same leg is
					// idempotent.
					t.Logf("leg %d killed pre-handler; retrying", leg)
				default:
					t.Fatalf("leg %d: unexpected outcome (ok=%v):\n%s", leg, ok, out)
				}
				if final != "" {
					break
				}
				if leg > 10 {
					t.Fatalf("no completed run after %d legs", leg)
				}
			}

			if interrupted == 0 {
				t.Fatalf("run completed before any SIGTERM landed; matrix exercised nothing")
			}
			if !resumed {
				t.Fatalf("final leg did not resume from a snapshot")
			}
			got := summaryWitness(t, final)
			if got != want {
				t.Errorf("resumed run witness %q != uninterrupted %q (after %d kills)", got, want, interrupted)
			}
			t.Logf("workers=%s: %d mid-run kills, witness %s", workers, interrupted, got)
		})
	}
}

// TestCheckpointRestoreSkipsElapsedTime pins the O(1)-restore claim at
// the CLI layer: resuming a run SIGTERMed deep into a long horizon must
// print a resume time well past zero — the restored process starts at
// the snapshot's clock instead of replaying the elapsed prefix.
func TestCheckpointRestoreSkipsElapsedTime(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess round-trips are full-tier")
	}
	ckpt := filepath.Join(t.TempDir(), "fleet.ckpt")
	args := append(checkpointArgs("4"), "-checkpoint", ckpt)
	// A SIGTERM can land too early on a slow machine (the race detector
	// on two vCPUs, say): before the handler is installed, or before the
	// first Advance slice, so the snapshot is taken at t=0. Either way
	// the attempt says nothing about a mid-run kill; retry it with a
	// doubled delay. Each attempt starts fresh, overwriting a t=0 file.
	delay := 500 * time.Millisecond
	var tAtKill float64
	for attempt := 0; ; attempt++ {
		out, ok := runLeg(t, args, delay)
		if strings.Contains(out, "interrupted at t=") {
			if tAtKill = parseTimeAfter(t, out, "interrupted at t="); tAtKill > 0 {
				break
			}
		} else if ok {
			t.Skip("run completed before SIGTERM; timing-dependent, nothing to assert")
		}
		if attempt > 5 {
			t.Fatalf("no mid-run kill after %d attempts (last landed at t=%g):\n%s", attempt, tAtKill, out)
		}
		delay *= 2
		t.Logf("attempt %d: kill too early (t=%g); retrying with a %v delay", attempt, tAtKill, delay)
	}

	out, ok := runLeg(t, append(args, "-resume"), 0)
	if !ok {
		t.Fatalf("resume failed:\n%s", out)
	}
	tAtResume := parseTimeAfter(t, out, "at t=")
	if tAtResume != tAtKill {
		t.Errorf("resumed at t=%g, snapshot taken at t=%g; restore must not rewind or replay", tAtResume, tAtKill)
	}
}

// runToCompletion execs the binary with args and returns its summary
// witness (event count + log hash).
func runToCompletion(t *testing.T, args []string) string {
	t.Helper()
	out, ok := runLeg(t, args, 0)
	if !ok {
		t.Fatalf("reference run failed:\n%s", out)
	}
	return summaryWitness(t, out)
}

// runLeg execs the test binary as pondfleet. A non-zero kill delay
// sends SIGTERM that long after start. Returns combined output and
// whether the process exited 0.
func runLeg(t *testing.T, args []string, kill time.Duration) (string, bool) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PONDFLEET_RUN_MAIN=1")
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting %v: %v", args, err)
	}
	if kill > 0 {
		timer := time.AfterFunc(kill, func() { cmd.Process.Signal(syscall.SIGTERM) })
		defer timer.Stop()
	}
	err := cmd.Wait()
	return buf.String(), err == nil
}

// summaryWitness extracts "N events, sha256=..." from a completed run's
// output, failing the test when the summary is missing.
func summaryWitness(t *testing.T, out string) string {
	t.Helper()
	i := strings.Index(out, "event-log:")
	if i < 0 {
		t.Fatalf("output has no event-log summary:\n%s", out)
	}
	line := out[i:]
	if j := strings.IndexByte(line, '\n'); j >= 0 {
		line = line[:j]
	}
	if !shaRE.MatchString(line) {
		t.Fatalf("summary line has no sha256: %q", line)
	}
	return strings.TrimSpace(line)
}

// parseTimeAfter finds marker in out and parses the t=<seconds> value
// that follows it.
func parseTimeAfter(t *testing.T, out, marker string) float64 {
	t.Helper()
	i := strings.Index(out, marker)
	if i < 0 {
		t.Fatalf("output missing %q:\n%s", marker, out)
	}
	rest := out[i+len(marker):]
	var v float64
	if _, err := fmt.Sscanf(rest, "%g", &v); err != nil {
		t.Fatalf("parsing time after %q near %q: %v", marker, rest, err)
	}
	return v
}
