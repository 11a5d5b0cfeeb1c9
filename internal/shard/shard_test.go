package shard

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"care/internal/core"
	"care/internal/faultinject"
	"care/internal/store"
	"care/internal/trace"
	"care/internal/workloads"
)

// TestShardServeHelper is not a test: it is the worker subprocess the
// subprocess-mode tests spawn by re-executing this test binary with
// -test.run pinned here and CARE_SHARD_SERVE=1 in the environment —
// the same self-exec trick the standard library uses for exec tests.
func TestShardServeHelper(t *testing.T) {
	if os.Getenv("CARE_SHARD_SERVE") != "1" {
		t.Skip("worker-mode helper; spawned by subprocess tests")
	}
	if err := Serve(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "shard worker:", err)
		os.Exit(1)
	}
	os.Exit(0) // keep test-framework chatter off the protocol stream
}

// selfExec is the worker argv for subprocess tests.
func selfExec() []string {
	return []string{os.Args[0], "-test.run=^TestShardServeHelper$"}
}

func buildSpecOrDie(t testing.TB, b BuildSpec) *core.Binary {
	t.Helper()
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// scrubJSONL zeroes the wall-clock fields of an exported trace — the
// same scrub the CI determinism job applies before byte-diffing.
var wallRe = regexp.MustCompile(`"wall_ns":-?[0-9]+`)
var nsCounterRe = regexp.MustCompile(`("name":"[a-z.-]+-ns","value":)-?[0-9]+`)

func scrubJSONL(t testing.TB, rec *trace.Recorder) string {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	s := wallRe.ReplaceAllString(buf.String(), `"wall_ns":0`)
	return nsCounterRe.ReplaceAllString(s, "${1}0")
}

// scrubCampaign drops the trace (compared separately via scrubbed
// JSONL) so the remaining fields DeepEqual-compare.
func scrubCampaign(r *faultinject.CampaignResult) faultinject.CampaignResult {
	c := *r
	c.Trace = nil
	return c
}

// TestRanges pins the contiguous balanced partition.
func TestRanges(t *testing.T) {
	for _, tc := range []struct {
		n, shards int
	}{{10, 1}, {10, 3}, {7, 7}, {23, 5}, {4, 8}} {
		rs := Ranges(tc.n, tc.shards)
		if rs[0].Lo != 0 || rs[len(rs)-1].Hi != tc.n {
			t.Fatalf("Ranges(%d,%d) does not cover: %v", tc.n, tc.shards, rs)
		}
		for i := 1; i < len(rs); i++ {
			if rs[i].Lo != rs[i-1].Hi {
				t.Fatalf("Ranges(%d,%d) not contiguous: %v", tc.n, tc.shards, rs)
			}
		}
		for _, r := range rs {
			if sz := r.Hi - r.Lo; sz < tc.n/tc.shards || sz > tc.n/tc.shards+1 {
				t.Fatalf("Ranges(%d,%d) unbalanced: %v", tc.n, tc.shards, rs)
			}
		}
	}
}

// TestCampaignShardEquivalenceInProcess is the core contract: a
// campaign run through the shard coordinator — any shard × worker
// combination, results round-tripping the wire encoding — produces a
// CampaignResult DeepEqual to the single-process run and byte-identical
// scrubbed trace JSONL.
func TestCampaignShardEquivalenceInProcess(t *testing.T) {
	build := BuildSpec{Workload: "HPCCG"}
	bin := buildSpecOrDie(t, build)
	base := func() *faultinject.Campaign {
		return &faultinject.Campaign{
			App: bin, N: 24, Model: faultinject.SingleBit, Seed: 7,
			Workers: 2, Trace: true, Domains: true,
		}
	}
	single, err := base().Run()
	if err != nil {
		t.Fatal(err)
	}
	wantJSONL := scrubJSONL(t, single.Trace)
	for _, tc := range []struct{ shards, workers int }{
		{1, 1}, {2, 1}, {3, 2}, {8, 1}, {24, 1}, {64, 2},
	} {
		t.Run(fmt.Sprintf("shards=%d,workers=%d", tc.shards, tc.workers), func(t *testing.T) {
			c := base()
			c.Shards = tc.shards
			c.Workers = tc.workers
			res, err := RunCampaign(c, build)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := scrubCampaign(single), scrubCampaign(res); !reflect.DeepEqual(a, b) {
				t.Fatalf("sharded result differs from single-process:\n%+v\nvs\n%+v", b, a)
			}
			if got := scrubJSONL(t, res.Trace); got != wantJSONL {
				t.Fatalf("sharded trace JSONL differs (%d vs %d bytes)", len(got), len(wantJSONL))
			}
		})
	}
}

// TestCampaignShardSubprocess runs the same contract through real
// worker subprocesses speaking the stdin/stdout frame protocol, with
// warm-start on, so every worker captures its own golden snapshots and
// its trials clone them.
func TestCampaignShardSubprocess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	t.Setenv("CARE_SHARD_SERVE", "1")
	build := BuildSpec{Workload: "HPCCG"}
	bin := buildSpecOrDie(t, build)
	base := func() *faultinject.Campaign {
		return &faultinject.Campaign{
			App: bin, N: 18, Model: faultinject.SingleBit, Seed: 11,
			Workers: 1, Trace: true, WarmStart: true,
		}
	}
	single, err := base().Run()
	if err != nil {
		t.Fatal(err)
	}
	c := base()
	c.Shards = 3
	c.ShardExec = selfExec()
	res, err := RunCampaign(c, build)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := scrubCampaign(single), scrubCampaign(res); !reflect.DeepEqual(a, b) {
		t.Fatalf("subprocess-sharded result differs from single-process:\n%+v\nvs\n%+v", b, a)
	}
	if want, got := scrubJSONL(t, single.Trace), scrubJSONL(t, res.Trace); got != want {
		t.Fatalf("subprocess-sharded trace JSONL differs (%d vs %d bytes)", len(got), len(want))
	}
	if res.WarmStart == nil || res.WarmStart.WarmTrials == 0 {
		t.Fatalf("warm-start stats lost in sharded run: %+v", res.WarmStart)
	}
}

// scrubCoverage drops the wall-clock-bearing fields (compared
// structurally instead) so the rest DeepEqual-compares.
func scrubCoverage(r *faultinject.CoverageResult) faultinject.CoverageResult {
	c := *r
	c.Events = nil
	c.TrialRecoveryTimes = nil
	c.Trace = nil
	return c
}

func requireCoverageEqual(t *testing.T, single, res *faultinject.CoverageResult) {
	t.Helper()
	if a, b := scrubCoverage(single), scrubCoverage(res); !reflect.DeepEqual(a, b) {
		t.Fatalf("sharded coverage differs from single-process:\n%+v\nvs\n%+v", b, a)
	}
	if len(single.Events) != len(res.Events) {
		t.Fatalf("event count differs: %d vs %d", len(res.Events), len(single.Events))
	}
	for i := range single.Events {
		if single.Events[i].Outcome != res.Events[i].Outcome {
			t.Fatalf("event %d outcome %s vs %s", i, res.Events[i].Outcome, single.Events[i].Outcome)
		}
	}
	if want, got := scrubJSONL(t, single.Trace), scrubJSONL(t, res.Trace); got != want {
		t.Fatalf("sharded coverage trace differs (%d vs %d bytes)", len(got), len(want))
	}
}

// TestCoverageShardEquivalence: the early-stopping coverage experiment
// is invariant to how the attempt waves are cut across shards, both
// in-process and through worker subprocesses.
func TestCoverageShardEquivalence(t *testing.T) {
	build := BuildSpec{Workload: "HPCCG", Defenses: []string{"care"}}
	bin := buildSpecOrDie(t, build)
	base := func() *faultinject.CoverageExperiment {
		return &faultinject.CoverageExperiment{
			App: bin, Trials: 6, Model: faultinject.SingleBit, Seed: 5,
			Workers: 2, RecordInjections: true,
		}
	}
	single, err := base().Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("inproc-shards=%d", shards), func(t *testing.T) {
			e := base()
			e.Shards = shards
			res, err := RunCoverage(e, build)
			if err != nil {
				t.Fatal(err)
			}
			requireCoverageEqual(t, single, res)
		})
	}
	if testing.Short() {
		return
	}
	t.Setenv("CARE_SHARD_SERVE", "1")
	t.Run("subprocess-shards=2", func(t *testing.T) {
		e := base()
		e.Shards = 2
		e.ShardExec = selfExec()
		res, err := RunCoverage(e, build)
		if err != nil {
			t.Fatal(err)
		}
		requireCoverageEqual(t, single, res)
	})
}

// TestWorkerErrorPropagates: a worker whose set-up fails reports its
// error frame at the ready handshake instead of wedging the coordinator
// or dying under a broken pipe: an unknown workload, and a store
// directory the worker cannot open.
func TestWorkerErrorPropagates(t *testing.T) {
	t.Setenv("CARE_SHARD_SERVE", "1")
	bin := buildSpecOrDie(t, BuildSpec{Workload: "HPCCG"})
	t.Run("unknown-workload", func(t *testing.T) {
		c := &faultinject.Campaign{
			App: bin, N: 4, Model: faultinject.SingleBit, Seed: 1,
			Shards: 2, ShardExec: selfExec(),
		}
		_, err := RunCampaign(c, BuildSpec{Workload: "no-such-workload"})
		if err == nil || !strings.Contains(err.Error(), "no-such-workload") {
			t.Fatalf("want workload build error from worker, got %v", err)
		}
	})
	t.Run("unreadable-store", func(t *testing.T) {
		dir := t.TempDir()
		st := openStoreAt(t, dir)
		// A file where the blob directory belongs: the coordinator's
		// Prepare misses and degrades (its repopulate fails silently),
		// but a worker cannot even open the store.
		if err := os.RemoveAll(filepath.Join(dir, "blobs")); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "blobs"), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		c := &faultinject.Campaign{
			App: bin, N: 4, Model: faultinject.SingleBit, Seed: 1,
			Shards: 2, ShardExec: selfExec(),
			Store: st, StoreKey: store.Key{Kind: "campaign", Workload: "HPCCG", Seed: 1},
		}
		_, err := RunCampaign(c, BuildSpec{Workload: "HPCCG"})
		if err == nil || !strings.Contains(err.Error(), "shard: worker: store: open") {
			t.Fatalf("want store open error from worker, got %v", err)
		}
	})
}

// TestWorkerDigestMismatch: a worker that prepares a different golden
// profile than the coordinator's (here: built with different workload
// parameters) must end the campaign with an error naming both digests,
// never with a merged result.
func TestWorkerDigestMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	t.Setenv("CARE_SHARD_SERVE", "1")
	bin := buildSpecOrDie(t, BuildSpec{Workload: "HPCCG"})
	other := BuildSpec{Workload: "HPCCG", Params: workloads.Params{Steps: 7}}
	c := &faultinject.Campaign{App: bin, N: 4, Seed: 1, Shards: 2, ShardExec: selfExec()}
	res, err := RunCampaign(c, other)
	if err == nil || res != nil {
		t.Fatalf("mismatched worker profile merged: res=%v err=%v", res != nil, err)
	}
	mine, err2 := (&faultinject.Campaign{App: bin, N: 4}).Prepare()
	if err2 != nil {
		t.Fatal(err2)
	}
	theirs, err2 := (&faultinject.Campaign{App: buildSpecOrDie(t, other), N: 4}).Prepare()
	if err2 != nil {
		t.Fatal(err2)
	}
	for _, d := range []string{profileDigest(mine), profileDigest(theirs)} {
		if !strings.Contains(err.Error(), d) {
			t.Fatalf("error %q does not name digest %s", err, d)
		}
	}
}

// TestCampaignShardPullDispatch: trials dealt one at a time to
// whichever of 3 worker subprocesses is idle — an index space that does
// not divide evenly, and a campaign whose Hang trial runs to the hang
// limit (4x the golden run) while the other workers keep pulling —
// still DeepEqual the single-process result.
func TestCampaignShardPullDispatch(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	t.Setenv("CARE_SHARD_SERVE", "1")
	build := BuildSpec{Workload: "HPCCG"}
	bin := buildSpecOrDie(t, build)
	for _, tc := range []struct {
		name    string
		n       int
		seed    int64
		hanging bool
	}{{"n=7", 7, 7, false}, {"hang", 12, 3, true}} {
		t.Run(tc.name, func(t *testing.T) {
			base := func() *faultinject.Campaign {
				return &faultinject.Campaign{
					App: bin, N: tc.n, Model: faultinject.SingleBit, Seed: tc.seed,
					Workers: 1, Trace: true,
				}
			}
			single, err := base().Run()
			if err != nil {
				t.Fatal(err)
			}
			if got := single.Outcomes[faultinject.Hang] > 0; got != tc.hanging {
				t.Fatalf("campaign has %d hang trials; the case needs hanging=%v", single.Outcomes[faultinject.Hang], tc.hanging)
			}
			c := base()
			c.Shards = 3
			c.ShardExec = selfExec()
			res, err := RunCampaign(c, build)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := scrubCampaign(single), scrubCampaign(res); !reflect.DeepEqual(a, b) {
				t.Fatalf("pull-dispatched result differs from single-process:\n%+v\nvs\n%+v", b, a)
			}
			if want, got := scrubJSONL(t, single.Trace), scrubJSONL(t, res.Trace); got != want {
				t.Fatalf("pull-dispatched trace JSONL differs (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}

// TestFrameRoundTrip pins the transport encoding.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &frame{Type: frameRun, Lo: 3, Hi: 9}
	if err := writeFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("frame round trip: %+v vs %+v", out, in)
	}
	if _, err := readFrame(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff})); err == nil {
		t.Fatal("oversized length prefix must error")
	}
}
