package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"

	"pond"
)

// defaults mirrors the flag defaults main registers; each table case
// overrides a handful of fields.
func defaults() flags {
	return flags{
		topologies: "flat",
		arrival:    "poisson:rate=0.05:life=600",
		opts:       pond.Defaults(),
	}
}

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*flags)
		wantErr string // substring; empty = must pass
	}{
		{"defaults", func(f *flags) {}, ""},
		{"topology-list", func(f *flags) { f.topologies = "flat,sharded,sparse" }, ""},
		{"retrain-cell-scope", func(f *flags) { f.opts.Model.RetrainEverySec = 500 }, ""},
		{"fleet-scope", func(f *flags) {
			f.opts.Model.RetrainEverySec = 500
			f.opts.Model.Scope = "fleet"
			f.opts.Model.CanaryFraction = 0.25
			f.opts.Model.BakeWindowSec = 1000
		}, ""},
		{"fleet-scope-default-knobs", func(f *flags) {
			f.opts.Model.RetrainEverySec = 500
			f.opts.Model.Scope = "fleet"
		}, ""},
		{"elastic", func(f *flags) { f.opts.Capacity.Elastic = true }, ""},
		{"elastic-knobs", func(f *flags) {
			f.opts.Capacity.Elastic = true
			f.opts.Capacity.PlanEverySec = 200
			f.opts.Capacity.TargetQoS = 0.02
		}, ""},
		{"elastic-with-fleet-scope", func(f *flags) {
			f.opts.Capacity.Elastic = true
			f.opts.Model.RetrainEverySec = 500
			f.opts.Model.Scope = "fleet"
		}, ""},

		{"negative-workers", func(f *flags) { f.opts.Engine.Workers = -1 }, "-workers"},
		{"zero-seed", func(f *flags) { f.opts.Engine.Seed = 0 }, "-seed"},
		{"negative-duration", func(f *flags) { f.opts.Cluster.DurationSec = -1 }, "-duration"},
		{"nan-duration", func(f *flags) { f.opts.Cluster.DurationSec = nan() }, "-duration"},
		{"zero-cells", func(f *flags) { f.opts.Cluster.Cells = 0 }, "-cells"},
		{"negative-retrain", func(f *flags) { f.opts.Model.RetrainEverySec = -5 }, "-retrain-every"},
		{"retrain-no-predictions", func(f *flags) {
			f.opts.Model.RetrainEverySec = 500
			f.opts.Model.Disabled = true
		}, "-retrain-every requires predictions"},
		{"models-no-predictions", func(f *flags) {
			f.modelsOut = "m.json"
			f.opts.Model.Disabled = true
		}, "-models requires predictions"},
		{"unknown-scope", func(f *flags) {
			f.opts.Model.RetrainEverySec = 500
			f.opts.Model.Scope = "galaxy"
		}, "-model-scope"},
		{"fleet-scope-without-retrain", func(f *flags) { f.opts.Model.Scope = "fleet" }, "-retrain-every > 0"},
		{"canary-under-cell-scope", func(f *flags) { f.opts.Model.CanaryFraction = 0.5 }, "-canary"},
		{"bake-under-cell-scope", func(f *flags) { f.opts.Model.BakeWindowSec = 100 }, "-bake"},
		{"canary-too-big", func(f *flags) {
			f.opts.Model.RetrainEverySec = 500
			f.opts.Model.Scope = "fleet"
			f.opts.Model.CanaryFraction = 1.5
		}, "-canary"},
		{"canary-negative", func(f *flags) {
			f.opts.Model.RetrainEverySec = 500
			f.opts.Model.Scope = "fleet"
			f.opts.Model.CanaryFraction = -0.5
		}, "-canary"},
		{"canary-nan", func(f *flags) {
			f.opts.Model.RetrainEverySec = 500
			f.opts.Model.Scope = "fleet"
			f.opts.Model.CanaryFraction = nan()
		}, "-canary"},
		{"bake-negative", func(f *flags) {
			f.opts.Model.RetrainEverySec = 500
			f.opts.Model.Scope = "fleet"
			f.opts.Model.BakeWindowSec = -1
		}, "-bake"},
		{"plan-every-without-elastic", func(f *flags) { f.opts.Capacity.PlanEverySec = 200 }, "-plan-every"},
		{"target-qos-without-elastic", func(f *flags) { f.opts.Capacity.TargetQoS = 0.02 }, "-target-qos"},
		{"plan-every-negative", func(f *flags) {
			f.opts.Capacity.Elastic = true
			f.opts.Capacity.PlanEverySec = -1
		}, "-plan-every"},
		{"plan-every-nan", func(f *flags) {
			f.opts.Capacity.Elastic = true
			f.opts.Capacity.PlanEverySec = nan()
		}, "-plan-every"},
		{"plan-every-beyond-horizon", func(f *flags) {
			f.opts.Capacity.Elastic = true
			f.opts.Capacity.PlanEverySec = 1000
		}, "-plan-every"},
		{"target-qos-too-big", func(f *flags) {
			f.opts.Capacity.Elastic = true
			f.opts.Capacity.TargetQoS = 1
		}, "-target-qos"},
		{"target-qos-nan", func(f *flags) {
			f.opts.Capacity.Elastic = true
			f.opts.Capacity.TargetQoS = nan()
		}, "-target-qos"},
		{"margin-too-big", func(f *flags) { f.opts.Model.PromoteMargin = 1 }, "-promote-margin"},
		{"margin-nan", func(f *flags) { f.opts.Model.PromoteMargin = nan() }, "-promote-margin"},
		{"negative-holdout", func(f *flags) { f.opts.Model.HoldoutWindow = -1 }, "-holdout"},
		{"negative-min-rows", func(f *flags) { f.opts.Model.MinTrainRows = -1 }, "-min-rows"},
		{"bad-topology", func(f *flags) { f.topologies = "moebius" }, "unknown topology"},
		{"empty-topology-entry", func(f *flags) { f.topologies = "flat," }, "unknown topology"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			f := defaults()
			tc.mutate(&f)
			names, err := validate(f)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if len(names) == 0 {
					t.Fatal("no topologies returned")
				}
				return
			}
			if err == nil {
				t.Fatalf("expected an error mentioning %q, got none", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}

// TestMain lets the test binary stand in for the pondfleet binary, so
// the exit-code tests below run the real main() without a separate
// build step.
func TestMain(m *testing.M) {
	if os.Getenv("PONDFLEET_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestBadFlagsExitCode2 drives the real binary end to end: flag
// validation failures must exit 2 (the conventional flag-error code)
// and point at usage, never start a run or silently coerce.
func TestBadFlagsExitCode2(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess round-trips are full-tier")
	}
	cases := [][]string{
		{"-workers", "-1"},
		{"-seed", "0"},
		{"-duration", "-10"},
		{"-cells", "0"},
		{"-retrain-every", "-1"},
		{"-model-scope", "galaxy", "-retrain-every", "100"},
		{"-model-scope", "fleet"},
		{"-canary", "0.5"},
		{"-model-scope", "fleet", "-retrain-every", "100", "-canary", "2"},
		{"-model-scope", "fleet", "-retrain-every", "100", "-bake", "-5"},
		{"-promote-margin", "1.5"},
		{"-holdout", "-1"},
		{"-min-rows", "-1"},
		{"-topology", "flat,,sparse"},
		{"-inject", "meteor@t=1"},
		{"-inject", "drift@t=1:cells=3-1"},
		{"-arrival", "uniform"},
		{"-not-a-flag"},
	}
	for _, args := range cases {
		args := args
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			cmd := exec.Command(os.Args[0], args...)
			cmd.Env = append(os.Environ(), "PONDFLEET_RUN_MAIN=1")
			out, err := cmd.CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("expected a non-zero exit, got err=%v output:\n%s", err, out)
			}
			if code := ee.ExitCode(); code != 2 {
				t.Fatalf("exit code = %d, want 2; output:\n%s", code, out)
			}
			if !strings.Contains(string(out), "usage") && !strings.Contains(string(out), "Usage") {
				t.Fatalf("output does not point at usage:\n%s", out)
			}
		})
	}
}

// TestGoodFlagsRun exercises one real (tiny) run through main,
// including the fleet-scoped rollout output path.
func TestGoodFlagsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess round-trips are full-tier")
	}
	cmd := exec.Command(os.Args[0],
		"-duration", "300", "-cells", "2", "-hosts", "4", "-pool", "64",
		"-arrival", "poisson:rate=0.1:life=150",
		"-retrain-every", "100", "-model-scope", "fleet", "-min-rows", "8")
	cmd.Env = append(os.Environ(), "PONDFLEET_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("run failed: %v\n%s", err, out)
	}
	for _, want := range []string{"fleet-mlops: scope=fleet", "event-log:"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}
