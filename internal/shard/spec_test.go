package shard

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"care/internal/faultinject"
	"care/internal/store"
	"care/internal/workloads"
)

// coordinatorOnly are the Campaign and CoverageExperiment fields that
// never cross the wire: the binaries are rebuilt from the BuildSpec,
// the store is reopened from WorkerSpec.StoreDir, and the shard knobs
// and the heartbeat belong to the coordinator.
var coordinatorOnly = []string{"App", "Libs", "Progress", "ShardExec", "Shards", "Store"}

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

// randomize fills every crossing field of the struct cfg points at with
// an arbitrary value.
func randomize(t *testing.T, cfg any, rng *rand.Rand) {
	t.Helper()
	v := reflect.ValueOf(cfg).Elem()
	for _, f := range crossing(v.Type()) {
		x, ok := quick.Value(f.Type, rng)
		if !ok {
			t.Fatalf("cannot generate a %s for %s", f.Type, f.Name)
		}
		v.FieldByIndex(f.Index).Set(x)
	}
}

// requireCrossed checks that every crossing field arrived from want in
// got. Store keys compare by ID, the identity the store uses: an empty
// Defenses list is omitted on the wire and arrives as nil.
func requireCrossed(t *testing.T, want, got any) {
	t.Helper()
	w, g := reflect.ValueOf(want).Elem(), reflect.ValueOf(got).Elem()
	for _, f := range crossing(w.Type()) {
		a, b := w.FieldByIndex(f.Index).Interface(), g.FieldByIndex(f.Index).Interface()
		if ka, ok := a.(store.Key); ok {
			a, b = ka.ID(), b.(store.Key).ID()
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s.%s lost in the spec frame: %#v became %#v", w.Type(), f.Name, a, b)
		}
	}
}

// TestBuildSpecKeyIDs pins the store key IDs BuildSpec.Key derives. The
// ID addresses a cached golden profile and a sealed trace, so a key
// that moves turns every existing store entry into a miss. The values
// are the IDs the store already holds for these campaigns; a cold key
// drops its cadence.
func TestBuildSpecKeyIDs(t *testing.T) {
	hpccg := BuildSpec{Workload: "HPCCG"}
	for _, tc := range []struct {
		name string
		key  store.Key
		id   string
	}{
		{"campaign-cold", hpccg.Key("campaign", 9, false, 0),
			"ab9465a55583de47834d28369ef6285665d2802f9f964d7ce7a82b8627cd8316"},
		{"campaign-cold-cadence", hpccg.Key("campaign", 9, false, 50000),
			"ab9465a55583de47834d28369ef6285665d2802f9f964d7ce7a82b8627cd8316"},
		{"campaign-warm-cadence", hpccg.Key("campaign", 9, true, 50000),
			"fdcb4a8c7ee17cfddff4897a9597f6264537956cc739239b77db2887fe6398ed"},
		{"coverage-care", BuildSpec{
			Workload: "HPCCG", Params: workloads.Params{NX: 5, NY: 5, NZ: 4, Steps: 12},
			OptLevel: 1, Defenses: []string{"care"},
		}.Key("coverage", 3, true, 0),
			"c4714fd5c7d5b6558ee13ea8abfd2ea186fc4fe87dce0032457978564eb9ae43"},
		{"defense-BLAS", BuildSpec{Workload: "BLAS", Defenses: []string{"care"}}.Key("campaign", 11, true, 0),
			"3fc7e1f5e40d6e2d6a9f0de2ed618e74e5bfbb29ca134546c733971ab7a7d3ac"},
	} {
		if got := tc.key.ID(); got != tc.id {
			t.Errorf("%s: key %+v has ID %s, want %s", tc.name, tc.key, got, tc.id)
		}
	}
}
