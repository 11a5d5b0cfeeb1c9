package faultinject

import (
	"bytes"
	"reflect"
	"testing"

	"care/internal/machine"
	"care/internal/safeguard"
)

// TestCampaignEngineEquivalence is the superblock engine's end-to-end
// contract: a campaign run on it is bit-identical — every result field
// and the exported trace JSONL — to the same campaign forced onto the
// legacy per-instruction Step loop, across worker counts and under the
// multi-fault model.
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
			fast := run(machine.TierSuperblock, 8)
			if !reflect.DeepEqual(fast, step) {
				t.Fatalf("campaign result differs between superblock engine and step loop:\n%+v\nvs\n%+v", fast, step)
			}
			var fj bytes.Buffer
			if err := fast.Trace.WriteJSONL(&fj); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fj.Bytes(), sj.Bytes()) {
				t.Fatal("trace JSONL differs between superblock engine and step loop")
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
	// DeepEqual covers WarmStart, so both tiers stop the same trials
	// early at the same snapshots.
	if fast := run(machine.TierSuperblock); !reflect.DeepEqual(fast, step) {
		t.Fatalf("warm-start campaign differs between superblock engine and step loop:\n%+v\nvs\n%+v", fast, step)
	}
}

// TestCoverageEngineEquivalence pins the protected path: Safeguard
// recovery (trap handlers, recovery-kernel sub-CPUs on the Step loop,
// checkpoint rollback restores) must classify every trial identically
// on every interpreter tier.
func TestCoverageEngineEquivalence(t *testing.T) {
	bin := buildWorkload(t, "HPCCG", 0, true)
	run := func(tier machine.InterpTier) *CoverageResult {
		res, err := (&CoverageExperiment{
			App: bin, Trials: 8, Model: SingleBit, Seed: 31,
			Safeguard: safeguard.Config{
				InductionRecovery: true,
				Policy:            safeguard.Policy{Rollback: true, MaxTrapsPerPC: 8, StormTraps: 4},
			},
			Workers: 4,
			Tier:    tier,
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
	fast := run(machine.TierSuperblock)
	if a, b := scrub(fast), scrub(step); !reflect.DeepEqual(a, b) {
		t.Fatalf("coverage logical fields differ between superblock engine and step loop:\n%+v\nvs\n%+v", a, b)
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
