package faultinject

import (
	"reflect"
	"testing"

	"care/internal/machine"
	"care/internal/safeguard"
)

// TestDomainRewindCoverageTierWorkerDeterminism pins the domain-rewind
// escalation chain's campaign guarantee: the same multi-fault campaign
// is bit-identical (in every logical field, span skeleton and counter)
// across worker counts and across both interpreter tiers — the
// same contract the CI smoke checks end to end on the care-inject
// trace files.
func TestDomainRewindCoverageTierWorkerDeterminism(t *testing.T) {
	bin := buildWorkload(t, "HPCCG", 0, true)
	run := func(workers int, tier machine.InterpTier) *CoverageResult {
		res, err := (&CoverageExperiment{
			App: bin, Trials: 8, FaultsPerTrial: 2, Model: SingleBit, Seed: 31,
			Safeguard: safeguard.Config{
				InductionRecovery: true,
				Policy: safeguard.Policy{
					Rollback: true, DomainRewind: true,
					MaxTrapsPerPC: 8, StormTraps: 4,
				},
			},
			Workers: workers,
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
	base := run(1, machine.TierSuperblock)
	if base.DomainRewinds == 0 {
		t.Fatal("campaign exercised no domain rewinds; the determinism check is vacuous")
	}
	if base.Trace.Counter(safeguard.CounterDomainRewinds) != int64(base.DomainRewinds) {
		t.Fatalf("DomainRewinds %d disagrees with its trace counter %d",
			base.DomainRewinds, base.Trace.Counter(safeguard.CounterDomainRewinds))
	}
	for _, tc := range []struct {
		name    string
		workers int
		tier    machine.InterpTier
	}{
		{"workers-8/superblock", 8, machine.TierSuperblock},
		{"workers-8/step", 8, machine.TierStep},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := run(tc.workers, tc.tier)
			if a, b := scrub(base), scrub(got); !reflect.DeepEqual(a, b) {
				t.Fatalf("logical fields differ from workers=1/superblock:\n%+v\nvs\n%+v", a, b)
			}
			requireTraceSkeletonEqual(t, base.Trace, got.Trace)
			if len(base.Events) != len(got.Events) {
				t.Fatalf("event count differs: %d vs %d", len(base.Events), len(got.Events))
			}
			for i := range base.Events {
				if base.Events[i].Outcome != got.Events[i].Outcome ||
					base.Events[i].Domain != got.Events[i].Domain {
					t.Errorf("event %d: %s/%v vs %s/%v", i,
						base.Events[i].Outcome, base.Events[i].Domain,
						got.Events[i].Outcome, got.Events[i].Domain)
				}
			}
		})
	}
}

// TestCampaignDomainAttribution: with Domains armed, every fired
// memory-symptom soft failure lands in exactly one per-domain counter,
// and ByDomain mirrors the counters.
func TestCampaignDomainAttribution(t *testing.T) {
	bin := buildWorkload(t, "HPCCG", 0, false)
	res, err := (&Campaign{
		App: bin, N: 60, Model: SingleBit, Seed: 17, Domains: true, Trace: true,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	memSymptoms := 0
	for _, inj := range res.Injections {
		if inj.Outcome == SoftFailure && inj.Image != "" &&
			(inj.Signal == machine.SigSEGV || inj.Signal == machine.SigBUS) {
			memSymptoms++
		}
	}
	attributed := 0
	for d, n := range res.ByDomain {
		if n <= 0 {
			t.Errorf("domain %v carries a non-positive count %d", d, n)
		}
		if got := res.Trace.Counter(domainCounter(d)); got != int64(n) {
			t.Errorf("ByDomain[%v] = %d but counter %s = %d", d, n, domainCounter(d), got)
		}
		attributed += n
	}
	if attributed != memSymptoms {
		t.Errorf("%d faults attributed to domains, want every one of the %d memory-symptom soft failures",
			attributed, memSymptoms)
	}
	if memSymptoms == 0 {
		t.Fatal("campaign produced no memory-symptom faults; attribution check is vacuous")
	}
}
