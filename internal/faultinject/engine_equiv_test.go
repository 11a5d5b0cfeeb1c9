package faultinject

import (
	"bytes"
	"reflect"
	"testing"

	"care/internal/machine"
	"care/internal/safeguard"
)

// TestCampaignEngineEquivalence is the fast tiers' end-to-end contract:
// a campaign run on the superblock or block engine is bit-identical —
// every result field and the exported trace JSONL — to the same
// campaign forced onto the legacy per-instruction Step loop, across
// worker counts and under the multi-fault model.
func TestCampaignEngineEquivalence(t *testing.T) {
	bin := buildWorkload(t, "HPCCG", 0, false)
	for _, tc := range []struct {
		name   string
		faults int
	}{
		{"single-fault", 1},
		{"multi-fault", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(tier machine.InterpTier, workers int) *CampaignResult {
				res, err := (&Campaign{
					App: bin, N: 24, FaultsPerTrial: tc.faults,
					Model: SingleBit, Seed: 7, Workers: workers,
					Trace: true, Tier: tier,
				}).Run()
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			step := run(machine.TierStep, 1)
			var sj bytes.Buffer
			if err := step.Trace.WriteJSONL(&sj); err != nil {
				t.Fatal(err)
			}
			for _, tier := range []machine.InterpTier{machine.TierSuperblock, machine.TierBlock} {
				fast := run(tier, 8)
				if !reflect.DeepEqual(fast, step) {
					t.Fatalf("campaign result differs between %v engine and step loop:\n%+v\nvs\n%+v", tier, fast, step)
				}
				var fj bytes.Buffer
				if err := fast.Trace.WriteJSONL(&fj); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(fj.Bytes(), sj.Bytes()) {
					t.Fatalf("trace JSONL differs between %v engine and step loop", tier)
				}
			}
		})
	}
}

// TestCampaignEngineEquivalenceWarmStart extends the contract to
// warm-started campaigns: snapshot clones (Memory.Restore bumps the
// inline-cache generation) must not perturb results either.
func TestCampaignEngineEquivalenceWarmStart(t *testing.T) {
	bin := buildWorkload(t, "HPCCG", 0, false)
	run := func(tier machine.InterpTier) *CampaignResult {
		res, err := (&Campaign{
			App: bin, N: 16, Model: SingleBit, Seed: 19, Workers: 4,
			Trace: true, WarmStart: true, Tier: tier,
		}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	step := run(machine.TierStep)
	if step.WarmStart.ConvergedTrials == 0 {
		t.Fatalf("step loop stopped no trial at a snapshot: %+v", step.WarmStart)
	}
	for _, tier := range []machine.InterpTier{machine.TierSuperblock, machine.TierBlock} {
		// DeepEqual covers WarmStart, so every tier stops the same trials
		// early at the same snapshots.
		if fast := run(tier); !reflect.DeepEqual(fast, step) {
			t.Fatalf("warm-start campaign differs between %v engine and step loop:\n%+v\nvs\n%+v", tier, fast, step)
		}
	}
}

// TestCoverageEngineEquivalence pins the protected path: Safeguard
// recovery (trap handlers, recovery-kernel sub-CPUs riding the StopPC
// sentinel, checkpoint rollback restores) must classify every trial
// identically on every interpreter tier.
func TestCoverageEngineEquivalence(t *testing.T) {
	bin := buildWorkload(t, "HPCCG", 0, true)
	run := func(tier machine.InterpTier) *CoverageResult {
		res, err := (&CoverageExperiment{
			App: bin, Trials: 8, Model: SingleBit, Seed: 31,
			Safeguard: safeguard.Config{
				InductionRecovery: true,
				Policy:            safeguard.Policy{Rollback: true, MaxTrapsPerPC: 8, StormTraps: 4},
			},
			CheckpointEveryResults: 1,
			Workers:                4,
			Tier:                   tier,
		}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	scrub := func(r *CoverageResult) CoverageResult {
		c := *r
		c.Events = nil
		c.TrialRecoveryTimes = nil
		c.Trace = nil // compared separately, with Wall times scrubbed
		return c
	}
	step := run(machine.TierStep)
	for _, tier := range []machine.InterpTier{machine.TierSuperblock, machine.TierBlock} {
		fast := run(tier)
		if a, b := scrub(fast), scrub(step); !reflect.DeepEqual(a, b) {
			t.Fatalf("coverage logical fields differ between %v engine and step loop:\n%+v\nvs\n%+v", tier, a, b)
		}
		requireTraceSkeletonEqual(t, fast.Trace, step.Trace)
		if len(fast.Events) != len(step.Events) {
			t.Fatalf("event count differs: %d vs %d", len(fast.Events), len(step.Events))
		}
		for i := range fast.Events {
			if fast.Events[i].Outcome != step.Events[i].Outcome {
				t.Errorf("event %d outcome %s vs %s", i, fast.Events[i].Outcome, step.Events[i].Outcome)
			}
		}
	}
}
