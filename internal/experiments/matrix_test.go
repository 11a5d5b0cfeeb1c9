package experiments

import (
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"care/internal/faultinject"
	"care/internal/machine"
	"care/internal/store"
	"care/internal/workloads"
)

// matrixRow is one row of the composition matrix: a level of each of
// its eight factors.
type matrixRow struct {
	defense string // a DefenseArms name
	policy  string // a DefaultPolicySpecs name
	target  string
	warm    bool
	tier    machine.InterpTier
	shards  int    // 1, or 3 in-process workers
	store   string // "off", "miss" (a fresh store) or "hit" (the second run on one)
	faults  int
}

func (r matrixRow) factors() []string {
	return []string{r.defense, r.policy, r.target, strconv.FormatBool(r.warm), r.tier.String(),
		strconv.Itoa(r.shards), r.store, strconv.Itoa(r.faults)}
}

// matrixRows is a pairwise table over the matrix's factors: every pair
// of levels of any two factors appears in at least one row
// (requirePairwise checks it).
var matrixRows = []matrixRow{
	{"none", "kill-on-failure", "HPCCG", false, machine.TierSuperblock, 1, "off", 1},
	{"none", "heuristic", "BLAS", true, machine.TierStep, 3, "hit", 2},
	{"none", "rollback-chain", "HPCCG", true, machine.TierStep, 1, "miss", 2},
	{"none", "domain-rewind-chain", "BLAS", false, machine.TierSuperblock, 3, "miss", 1},
	{"care", "kill-on-failure", "BLAS", true, machine.TierStep, 3, "off", 2},
	{"care", "heuristic", "HPCCG", false, machine.TierSuperblock, 1, "hit", 1},
	{"care", "rollback-chain", "BLAS", false, machine.TierSuperblock, 3, "miss", 2},
	{"care", "domain-rewind-chain", "HPCCG", true, machine.TierStep, 1, "off", 1},
	{"presage", "kill-on-failure", "HPCCG", false, machine.TierStep, 3, "hit", 1},
	{"presage", "heuristic", "BLAS", true, machine.TierSuperblock, 1, "miss", 2},
	{"presage", "rollback-chain", "BLAS", true, machine.TierSuperblock, 3, "off", 1},
	{"presage", "domain-rewind-chain", "HPCCG", false, machine.TierStep, 3, "hit", 2},
	{"sfi", "kill-on-failure", "HPCCG", false, machine.TierSuperblock, 3, "miss", 1},
	{"sfi", "heuristic", "BLAS", true, machine.TierStep, 1, "off", 2},
	{"sfi", "rollback-chain", "HPCCG", true, machine.TierSuperblock, 3, "hit", 2},
	{"sfi", "domain-rewind-chain", "HPCCG", false, machine.TierStep, 3, "hit", 2},
	{"care+presage", "kill-on-failure", "BLAS", true, machine.TierSuperblock, 3, "off", 2},
	{"care+presage", "heuristic", "HPCCG", false, machine.TierStep, 1, "miss", 1},
	{"care+presage", "rollback-chain", "BLAS", false, machine.TierSuperblock, 1, "hit", 1},
	{"care+presage", "domain-rewind-chain", "HPCCG", true, machine.TierStep, 1, "miss", 1},
}

// requirePairwise fails unless rows hold every pair of levels of any
// two factors.
func requirePairwise(t *testing.T, rows []matrixRow) {
	t.Helper()
	var defenses, policies []string
	for _, a := range DefenseArms() {
		defenses = append(defenses, a.Name)
	}
	for _, p := range DefaultPolicySpecs() {
		policies = append(policies, p.Name)
	}
	levels := [][]string{defenses, policies, {"HPCCG", "BLAS"}, {"false", "true"},
		{machine.TierSuperblock.String(), machine.TierStep.String()}, {"1", "3"}, {"off", "miss", "hit"}, {"1", "2"}}
	seen := map[[4]string]bool{}
	for _, r := range rows {
		f := r.factors()
		for i := range f {
			for j := i + 1; j < len(f); j++ {
				seen[[4]string{strconv.Itoa(i), f[i], strconv.Itoa(j), f[j]}] = true
			}
		}
	}
	for i := range levels {
		for j := i + 1; j < len(levels); j++ {
			for _, a := range levels[i] {
				for _, b := range levels[j] {
					if !seen[[4]string{strconv.Itoa(i), a, strconv.Itoa(j), b}] {
						t.Errorf("no row pairs factor %d = %s with factor %d = %s", i, a, j, b)
					}
				}
			}
		}
	}
}

// TestCompositionMatrix is the feature-composition contract of the
// defense bake-off. Each row of matrixRows runs one arm of DefenseStudy
// (12 trials, seed 11, two workers, traced with domain attribution),
// and its campaign result and scrubbed trace JSONL must equal the
// reference run with the same defense, target, policy and faults: one
// worker, Step tier, cold, one shard, no store. The comparison drops
// only the trace (compared as scrubbed JSONL) and the warm-start
// accounting, which records the shortcuts a warm run took. Because the
// table is pairwise, a seam between any two features shows up as a
// differing row.
func TestCompositionMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs about 50 short campaigns")
	}
	requirePairwise(t, matrixRows)
	arms := map[string]DefenseArm{}
	for _, a := range DefenseArms() {
		arms[a.Name] = a
	}
	policies := map[string]PolicySpec{}
	for _, p := range DefaultPolicySpecs() {
		policies[p.Name] = p
	}
	run := func(t *testing.T, r matrixRow, c faultinject.Campaign) *faultinject.CampaignResult {
		t.Helper()
		cells, err := DefenseStudy([]string{r.target}, []DefenseArm{arms[r.defense]}, 0, workloads.Params{}, c, false)
		if err != nil {
			t.Fatal(err)
		}
		return cells[0].Res
	}
	scrub := func(r *faultinject.CampaignResult) faultinject.CampaignResult {
		c := *r
		c.Trace, c.WarmStart = nil, nil
		return c
	}
	for _, r := range matrixRows {
		name := fmt.Sprintf("%s/%s/%s/warm=%t/%s/shards=%d/store=%s/faults=%d",
			r.defense, r.policy, r.target, r.warm, r.tier, r.shards, r.store, r.faults)
		t.Run(name, func(t *testing.T) {
			ref := faultinject.Campaign{
				N: 12, Seed: 11, FaultsPerTrial: r.faults, Workers: 1, Trace: true, Domains: true,
				Tier: machine.TierStep, Safeguard: policies[r.policy].Safeguard,
			}
			want := run(t, r, ref)
			c := ref
			c.Workers, c.WarmStart, c.Tier, c.Shards = 2, r.warm, r.tier, r.shards
			if r.store != "off" {
				st, err := store.Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				c.Store = st
			}
			got := run(t, r, c)
			if r.store == "hit" {
				got = run(t, r, c)
				if c.Store.Counter(store.CounterGoldenHits) == 0 {
					t.Fatalf("the second run on one store missed it: %s", c.Store.StatsLine())
				}
			}
			if a, b := scrub(want), scrub(got); !reflect.DeepEqual(a, b) {
				t.Errorf("result differs from the reference run:\n%+v\nwant\n%+v", b, a)
			}
			if a, b := scrubTrace(t, want.Trace), scrubTrace(t, got.Trace); a != b {
				t.Errorf("scrubbed trace JSONL differs from the reference run (%d vs %d bytes)", len(b), len(a))
			}
		})
	}
}
