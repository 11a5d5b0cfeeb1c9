package shard

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"care/internal/faultinject"
	"care/internal/store"
	"care/internal/trace"
	"care/internal/workloads"
)

// coordinatorOnly are the Campaign and CoverageExperiment fields that
// never cross the wire: the binaries are rebuilt from the BuildSpec,
// the store is reopened from WorkerSpec.StoreDir, and the shard knobs
// and the heartbeat belong to the coordinator.
var coordinatorOnly = []string{"App", "Progress", "ShardExec", "Shards", "Store"}

// crossing returns the exported fields of cfg's type that the spec
// frame carries.
func crossing(cfg reflect.Type) []reflect.StructField {
	var fs []reflect.StructField
	for _, f := range reflect.VisibleFields(cfg) {
		if f.IsExported() && !slices.Contains(coordinatorOnly, f.Name) {
			fs = append(fs, f)
		}
	}
	return fs
}

// TestSpecMirrorsConfig guards the worker spec, which is the campaign
// itself, against drift: exactly the coordinator-only fields of
// faultinject.Campaign and CoverageExperiment are tagged json:"-". A
// new field therefore reaches every shard worker unless it is
// deliberately kept back, and a coordinator-only field never leaks
// onto the wire.
func TestSpecMirrorsConfig(t *testing.T) {
	for _, cfg := range []any{faultinject.Campaign{}, faultinject.CoverageExperiment{}} {
		typ := reflect.TypeOf(cfg)
		var dropped []string
		for _, f := range reflect.VisibleFields(typ) {
			if f.Tag.Get("json") == "-" {
				dropped = append(dropped, f.Name)
			}
		}
		slices.Sort(dropped)
		if !slices.Equal(dropped, coordinatorOnly) {
			t.Errorf("%s fields tagged json:\"-\" = %v, want the coordinator-only %v", typ, dropped, coordinatorOnly)
		}
	}
}

// TestSpecRoundTrip: every crossing field of a Campaign and a
// CoverageExperiment, whatever its value, survives a spec frame through
// writeFrame and readFrame.
func TestSpecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		spec := &WorkerSpec{Campaign: &faultinject.Campaign{}, Coverage: &faultinject.CoverageExperiment{}}
		randomize(t, spec.Campaign, rng)
		randomize(t, spec.Coverage, rng)
		var buf bytes.Buffer
		if err := writeFrame(&buf, &frame{Type: frameSpec, Spec: spec}); err != nil {
			t.Fatal(err)
		}
		f, err := readFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		requireCrossed(t, spec.Campaign, f.Spec.Campaign)
		requireCrossed(t, spec.Coverage, f.Spec.Coverage)
	}
}

// TestResultRoundTrip is TestSpecRoundTrip for the done frame: every
// exported field of a TrialResult and an AttemptResult, whatever its
// value, survives writeFrame and readFrame. A recorder (random spans
// and counters in a ring that has dropped spans) must arrive with the
// same JSONL export and merge exactly like the original.
func TestResultRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20; i++ {
		done := &frame{
			Type: frameDone, Lo: i, Hi: i + 1,
			Trials:   make([]faultinject.TrialResult, 1),
			Attempts: make([]faultinject.AttemptResult, 1),
		}
		randomize(t, &done.Trials[0], rng)
		randomize(t, &done.Attempts[0], rng)
		var buf bytes.Buffer
		if err := writeFrame(&buf, done); err != nil {
			t.Fatal(err)
		}
		f, err := readFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		requireCrossed(t, &done.Trials[0], &f.Trials[0])
		requireCrossed(t, &done.Attempts[0], &f.Attempts[0])
	}
}

var recorderType = reflect.TypeOf((*trace.Recorder)(nil))

// randomize fills every crossing field of the struct cfg points at with
// an arbitrary value; a recorder gets random spans and counters in a
// ring too small to keep them all.
func randomize(t *testing.T, cfg any, rng *rand.Rand) {
	t.Helper()
	v := reflect.ValueOf(cfg).Elem()
	for _, f := range crossing(v.Type()) {
		if f.Type == recorderType {
			v.FieldByIndex(f.Index).Set(reflect.ValueOf(randomRecorder(rng)))
			continue
		}
		x, ok := quick.Value(f.Type, rng)
		if !ok {
			t.Fatalf("cannot generate a %s for %s", f.Type, f.Name)
		}
		v.FieldByIndex(f.Index).Set(x)
	}
}

// randomRecorder emits more spans than its ring holds, with random
// kinds, parents and attributes, plus random counters and high-water
// marks.
func randomRecorder(rng *rand.Rand) *trace.Recorder {
	size := 1 + rng.Intn(4)
	rec := trace.New(size)
	for i := 0; i < size+1+rng.Intn(6); i++ {
		parent := trace.NoParent
		if i > 0 && rng.Intn(2) == 0 {
			parent = int32(rng.Intn(i))
		}
		rec.Emit(trace.Span{
			Kind: trace.Kind(1 + rng.Intn(int(trace.KindDomainRewind))), Parent: parent,
			StartDyn: rng.Uint64(), EndDyn: rng.Uint64(), Wall: time.Duration(rng.Int63()),
			PC: rng.Uint64(), Addr: rng.Uint64(), Outcome: fmt.Sprint("outcome-", rng.Intn(9)),
			Rank: rng.Int31(), Val: rng.Int63(),
		})
	}
	for i := 0; i < 1+rng.Intn(4); i++ {
		rec.Add(fmt.Sprint("counter.", rng.Intn(9)), 1+rng.Int63n(1<<40))
		rec.Max(fmt.Sprint("max.", rng.Intn(9)), rng.Int63())
	}
	return rec
}

// recorderPrint renders a recorder for comparison: its JSONL export,
// then the export of a recorder it was merged into between two spans
// of its own, which shows the emission totals the merge rebased by.
func recorderPrint(t *testing.T, rec *trace.Recorder) string {
	t.Helper()
	merged := trace.New(64)
	merged.Emit(trace.Span{Kind: trace.KindJob, Parent: trace.NoParent})
	merged.MergeAs(rec, 3)
	merged.Emit(trace.Span{Kind: trace.KindJob, Parent: trace.NoParent})
	var buf bytes.Buffer
	for _, r := range []*trace.Recorder{rec, merged} {
		if err := r.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

// requireCrossed checks that every crossing field arrived from want in
// got. Store keys compare by ID, the identity the store uses: an empty
// Defenses list is omitted on the wire and arrives as nil. Recorders
// compare by recorderPrint.
func requireCrossed(t *testing.T, want, got any) {
	t.Helper()
	w, g := reflect.ValueOf(want).Elem(), reflect.ValueOf(got).Elem()
	for _, f := range crossing(w.Type()) {
		a, b := w.FieldByIndex(f.Index).Interface(), g.FieldByIndex(f.Index).Interface()
		if ka, ok := a.(store.Key); ok {
			a, b = ka.ID(), b.(store.Key).ID()
		}
		if ra, ok := a.(*trace.Recorder); ok {
			a, b = recorderPrint(t, ra), recorderPrint(t, b.(*trace.Recorder))
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s.%s lost on the wire: %#v became %#v", w.Type(), f.Name, a, b)
		}
	}
}

// TestBuildSpecKeyIDs pins the store key IDs BuildSpec.Key derives. The
// ID addresses a cached golden profile and a sealed trace, so a key
// that moves turns every existing store entry into a miss. The values
// are the IDs the store already holds for these campaigns.
func TestBuildSpecKeyIDs(t *testing.T) {
	hpccg := BuildSpec{Workload: "HPCCG"}
	for _, tc := range []struct {
		name string
		key  store.Key
		id   string
	}{
		{"campaign-cold", hpccg.Key("campaign", 9, false),
			"ab9465a55583de47834d28369ef6285665d2802f9f964d7ce7a82b8627cd8316"},
		// The CI store smoke's campaign (care-inject -workload HPCCG
		// -seed 9 -warmstart -store DIR).
		{"campaign-warm", hpccg.Key("campaign", 9, true),
			"dc79fb357027b20ec6d51f5dae8aded3b35071aaf9fc7c1ca0560163d98c5200"},
		{"coverage-care", BuildSpec{
			Workload: "HPCCG", Params: workloads.Params{NX: 5, NY: 5, NZ: 4, Steps: 12},
			OptLevel: 1, Defenses: []string{"care"},
		}.Key("coverage", 3, true),
			"c4714fd5c7d5b6558ee13ea8abfd2ea186fc4fe87dce0032457978564eb9ae43"},
		{"defense-BLAS", BuildSpec{Workload: "BLAS", Defenses: []string{"care"}}.Key("campaign", 11, true),
			"3fc7e1f5e40d6e2d6a9f0de2ed618e74e5bfbb29ca134546c733971ab7a7d3ac"},
		// experiments.BLASStudy's key in care-report's Table 9 section.
		{"coverage-BLAS", BuildSpec{Workload: "BLAS", Defenses: []string{"care"}}.Key("coverage", 6, false),
			"f933019b3d3545644de4db8f36aa15fb4b0830ad6f7ab355448975db28bf761e"},
	} {
		if got := tc.key.ID(); got != tc.id {
			t.Errorf("%s: key %+v has ID %s, want %s", tc.name, tc.key, got, tc.id)
		}
	}
}
