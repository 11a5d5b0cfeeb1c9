package profiler

import (
	"reflect"
	"testing"

	"care/internal/blas"
	"care/internal/core"
	"care/internal/workloads"
)

// TestDefaultSnapshotsProfile pins the one-pass warm profile against
// Run for every workload at O0 and O1 (default sizes): the same
// TotalDyn, execution counts, golden results and exit code, so taking
// the snapshots in the profiling run itself changes nothing a campaign
// reads from the profile. It also pins the default cadence: with E =
// TotalDyn/64+1, every snapshot lies on the final grid step and is the
// latest grid point at or before its multiple k·E < TotalDyn, and a run
// spanning 64 initial grid steps keeps (TotalDyn-1)/E of them, one per
// multiple.
func TestDefaultSnapshotsProfile(t *testing.T) {
	for _, w := range workloads.All() {
		for _, opt := range []int{0, 1} {
			bin, err := core.Build(w.Module(workloads.Params{}), core.BuildOptions{OptLevel: opt})
			if err != nil {
				t.Fatal(err)
			}
			name := w.Name + map[int]string{0: "/O0", 1: "/O1"}[opt]
			gold, err := Run(bin, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			prof, err := RunWithDefaultSnapshots(bin)
			if err != nil {
				t.Fatal(err)
			}
			if prof.TotalDyn != gold.TotalDyn || prof.ExitCode != gold.ExitCode ||
				!reflect.DeepEqual(prof.Counts, gold.Counts) || !reflect.DeepEqual(prof.Golden, gold.Golden) {
				t.Fatalf("%s: the default-snapshot profile differs from Run's (TotalDyn %d vs %d, exit %d vs %d)",
					name, prof.TotalDyn, gold.TotalDyn, prof.ExitCode, gold.ExitCode)
			}
			requireDefaultCadence(t, name, prof)
			t.Logf("%s: TotalDyn %d, %d snapshots", name, prof.TotalDyn, len(prof.Snaps))
		}
	}
}

// requireDefaultCadence checks a default-snapshot profile's positions:
// each snapshot is a multiple of the grid step the pass ended on and the
// latest such multiple at or before its k·E (E = TotalDyn/64+1,
// k·E < TotalDyn), one snapshot per k, and (TotalDyn-1)/E of them once
// the run spans 64 initial grid steps.
func requireDefaultCadence(t *testing.T, name string, prof *Profile) {
	t.Helper()
	total := prof.TotalDyn
	every := total/cadenceSnaps + 1
	// The pass ends on the first step whose grid holds fewer than
	// gridHeld points up to TotalDyn.
	step := uint64(gridStep)
	for gridHeld*step <= total {
		step *= 2
	}
	var lastK uint64
	for j, sp := range prof.Snaps {
		k := (sp.Dyn + every - 1) / every // the first multiple at or after it
		switch {
		case sp.Dyn == 0 || sp.Dyn%step != 0:
			t.Fatalf("%s: snapshot %d at dyn %d is off the grid step %d", name, j, sp.Dyn, step)
		case k*every >= total || k*every >= sp.Dyn+step:
			t.Fatalf("%s: snapshot %d at dyn %d is not the latest grid point at or before a multiple of %d below %d",
				name, j, sp.Dyn, every, total)
		case k <= lastK:
			t.Fatalf("%s: snapshot %d at dyn %d serves multiple %d again", name, j, sp.Dyn, k)
		case sp.State == nil || sp.State.CPU.Dyn != sp.Dyn:
			t.Fatalf("%s: snapshot %d at dyn %d holds no state of that dyn", name, j, sp.Dyn)
		}
		lastK = k
	}
	if want := int((total - 1) / every); total >= cadenceSnaps*gridStep && len(prof.Snaps) != want {
		t.Fatalf("%s: %d snapshots over %d dyn, want %d", name, len(prof.Snaps), total, want)
	}
}

// TestDefaultCadenceShortRuns drives the thinning and the selection on
// runs too short for one snapshot per multiple: the selection keeps
// only grid points, never the same one twice.
func TestDefaultCadenceShortRuns(t *testing.T) {
	grid := func(step, n uint64) []SnapPoint {
		var s []SnapPoint
		for i := uint64(1); i <= n; i++ {
			s = append(s, SnapPoint{Dyn: i * step})
		}
		return s
	}
	dyns := func(s []SnapPoint) []uint64 {
		var d []uint64
		for _, sp := range s {
			d = append(d, sp.Dyn)
		}
		return d
	}
	if got := dyns(evenMultiples(grid(4, 8))); !reflect.DeepEqual(got, []uint64{8, 16, 24, 32}) {
		t.Fatalf("thinned grid %v", got)
	}
	for _, tc := range []struct {
		snaps        []SnapPoint
		every, total uint64
		want         []uint64
	}{
		// Every multiple finds its own grid point.
		{grid(2, 10), 3, 20, []uint64{2, 6, 8, 12, 14, 18}},
		// A step coarser than the cadence: multiples 1 and 2 find no
		// grid point, 4 repeats 3's and 6 and 7 repeat 5's, and 15 lies
		// past the last multiple below TotalDyn.
		{grid(5, 3), 2, 16, []uint64{5, 10}},
		// No grid point at or before the first multiple.
		{grid(8, 1), 3, 10, []uint64{8}},
		// Nothing on the grid.
		{nil, 3, 10, nil},
	} {
		if got := dyns(onCadence(tc.snaps, tc.every, tc.total)); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("onCadence(%v, every %d, total %d) = %v, want %v", dyns(tc.snaps), tc.every, tc.total, got, tc.want)
		}
	}
}

// TestLibsComeFromDeps: a driver built against a library profiles with
// that library loaded from its Deps (the library's instructions are
// counted), and Run and RunWithSnapshots refuse a library list passed
// beside the app.
func TestLibsComeFromDeps(t *testing.T) {
	lib, err := core.BuildLib(blas.Library(), 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	drv, err := core.Build(blas.Sblat1(4), core.BuildOptions{}, lib)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Run(drv, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var libDyn uint64
	for _, n := range prof.Counts[lib.Prog.Name] {
		libDyn += n
	}
	if libDyn == 0 {
		t.Fatalf("no %s instruction counted; images profiled: %d", lib.Prog.Name, len(prof.Counts))
	}
	libs := []*core.Binary{lib}
	if _, err := Run(drv, libs, 0); err == nil {
		t.Error("Run accepted a library list beside the app")
	}
	if _, err := RunWithSnapshots(drv, libs, 0, 1000); err == nil {
		t.Error("RunWithSnapshots accepted a library list beside the app")
	}
}
