package shard

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"care/internal/faultinject"
)

// coordinatorOnly are the Campaign and CoverageExperiment fields that
// never cross the wire: the binaries are rebuilt from the BuildSpec,
// the store is reopened from WorkerSpec.StoreDir, and the shard knobs
// and the heartbeat belong to the coordinator.
var coordinatorOnly = map[string]bool{
	"App": true, "Libs": true, "Shards": true, "ShardExec": true, "Progress": true, "Store": true,
}

// TestSpecMirrorsConfig guards the hand-mirrored specs against drift:
// every exported field of faultinject.Campaign and CoverageExperiment
// must either appear in CampaignSpec / CoverageSpec with the same name
// and type, or be on the coordinator-only list. A field added to the
// campaign without a mirror would silently keep its zero value in
// every shard worker.
func TestSpecMirrorsConfig(t *testing.T) {
	for _, tc := range []struct{ cfg, spec reflect.Type }{
		{reflect.TypeOf(faultinject.Campaign{}), reflect.TypeOf(CampaignSpec{})},
		{reflect.TypeOf(faultinject.CoverageExperiment{}), reflect.TypeOf(CoverageSpec{})},
	} {
		for _, f := range reflect.VisibleFields(tc.cfg) {
			if !f.IsExported() || coordinatorOnly[f.Name] {
				continue
			}
			sf, ok := tc.spec.FieldByName(f.Name)
			if !ok {
				t.Errorf("%s.%s is neither mirrored in %s nor coordinator-only", tc.cfg, f.Name, tc.spec)
			} else if sf.Type != f.Type {
				t.Errorf("%s.%s mirrors %s.%s with type %s, want %s", tc.spec, f.Name, tc.cfg, f.Name, sf.Type, f.Type)
			}
		}
	}
}

// mirrored returns the fields of cfg's type that the spec mirrors.
func mirrored(cfg reflect.Type) []reflect.StructField {
	var fs []reflect.StructField
	for _, f := range reflect.VisibleFields(cfg) {
		if f.IsExported() && !coordinatorOnly[f.Name] {
			fs = append(fs, f)
		}
	}
	return fs
}

// randomize fills every mirrored field of the struct cfg points at with
// an arbitrary value.
func randomize(t *testing.T, cfg any, rng *rand.Rand) {
	t.Helper()
	v := reflect.ValueOf(cfg).Elem()
	for _, f := range mirrored(v.Type()) {
		x, ok := quick.Value(f.Type, rng)
		if !ok {
			t.Fatalf("cannot generate a %s for %s", f.Type, f.Name)
		}
		v.FieldByIndex(f.Index).Set(x)
	}
}

// requireMirrored checks that every mirrored field survived the round
// trip from want to got.
func requireMirrored(t *testing.T, want, got any) {
	t.Helper()
	w, g := reflect.ValueOf(want).Elem(), reflect.ValueOf(got).Elem()
	for _, f := range mirrored(w.Type()) {
		if a, b := w.FieldByIndex(f.Index).Interface(), g.FieldByIndex(f.Index).Interface(); !reflect.DeepEqual(a, b) {
			t.Errorf("%s.%s lost in the spec round trip: %#v became %#v", w.Type(), f.Name, a, b)
		}
	}
}

// TestSpecRoundTrip: campaignSpecOf → campaign and coverageSpecOf →
// experiment carry every mirrored field through, whatever its value.
func TestSpecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		var c faultinject.Campaign
		randomize(t, &c, rng)
		requireMirrored(t, &c, campaignSpecOf(&c).campaign(nil, nil))

		var e faultinject.CoverageExperiment
		randomize(t, &e, rng)
		requireMirrored(t, &e, coverageSpecOf(&e).experiment(nil, nil))
	}
}
