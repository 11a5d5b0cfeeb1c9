// Package profiler is the reproduction's stand-in for Intel Pin in the
// paper's §5.1 methodology: it runs a binary once while counting how
// often every static instruction executes, so that the fault injector
// can pick a static instruction weighted by its dynamic frequency and a
// uniform occurrence index — approximating a uniformly random dynamic
// instruction without tracing.
package profiler

import (
	"errors"
	"fmt"
	"sort"

	"care/internal/checkpoint"
	"care/internal/core"
	"care/internal/machine"
)

// SnapPoint is one golden-run machine snapshot, taken at one of the
// profile's capture points (Profile.Snaps holds them in ascending Dyn
// order), so that fault-injection trials can warm-start from the latest
// snapshot before their injection point instead of re-executing the
// shared prefix. The snapshot's memory image is frozen copy-on-write,
// so one SnapPoint is safely shared by every concurrent trial that
// clones it.
type SnapPoint struct {
	// Dyn is the retired-instruction count at capture time (equal to
	// State.CPU.Dyn; duplicated for cheap eligibility scans).
	Dyn uint64
	// State is the full machine snapshot (memory, registers, host
	// environment output streams).
	State *checkpoint.Snapshot
	// Counts is the per-static-instruction execution count at capture
	// time, per image name — the occurrence-trigger position a trial
	// resuming here must pre-seed its arming hook with.
	Counts map[string][]uint64
}

// Profile is the result of a profiling (golden) run.
type Profile struct {
	// TotalDyn is the retired dynamic instruction count.
	TotalDyn uint64
	// Counts holds per-static-instruction execution counts, per image,
	// keyed by the image's program name.
	Counts map[string][]uint64
	// Golden is the fault-free result stream.
	Golden []float64
	// ExitCode of the golden run.
	ExitCode uint64
	// Snaps are the golden-run snapshots in ascending Dyn order (empty
	// unless the profile was taken with RunWithSnapshots or
	// RunWithDefaultSnapshots).
	Snaps []SnapPoint
}

// NextSnap returns the earliest snapshot strictly after dyn, or nil.
func (p *Profile) NextSnap(dyn uint64) *SnapPoint {
	i := sort.Search(len(p.Snaps), func(i int) bool { return p.Snaps[i].Dyn > dyn })
	if i == len(p.Snaps) {
		return nil
	}
	return &p.Snaps[i]
}

// Run executes the binary, with the libraries it was built against
// (core.Binary.Deps), to completion with profiling enabled. A cold
// campaign profiles with it. libs must be nil and limit 0: the
// parameters stay only because the benchmark harness
// (perfbench/probe.go) passes those values.
func Run(app *core.Binary, libs []*core.Binary, limit uint64) (*Profile, error) {
	if libs != nil || limit != 0 {
		return nil, errHarnessArgs
	}
	return run(app, 0, false)
}

// errHarnessArgs refuses the values Run and RunWithSnapshots keep only
// for the benchmark harness: a process loads exactly the libraries the
// app was linked against, its Deps, and a profile needs a run that
// exits, so it takes no budget.
var errHarnessArgs = errors.New("profiler: libs must be nil and limit 0 (a process loads the app's Deps; a profile runs to its exit)")

// RunWithSnapshots is Run plus a machine snapshot whenever the retired
// count reaches a positive multiple of every (frozen copy-on-write, so
// each capture costs O(pages), with the byte copying deferred to the
// pages the run actually dirties before the next capture). every == 0
// disables capture; the profile is then identical to Run's. Campaigns
// take their snapshots with RunWithDefaultSnapshots; this explicit
// cadence serves the benchmark harness and tests that sweep cadences.
// libs and limit are refused as for Run.
func RunWithSnapshots(app *core.Binary, libs []*core.Binary, limit, every uint64) (*Profile, error) {
	if libs != nil || limit != 0 {
		return nil, errHarnessArgs
	}
	return run(app, every, false)
}

// The default snapshot cadence. A warm campaign wants a snapshot every
// E = TotalDyn/cadenceSnaps+1 retirements (at most cadenceSnaps-1 of
// them, bounding the frozen-image memory while capping the re-executed
// prefix at ~1/64 of the run per trial), but TotalDyn is only known once
// the run has exited. So the default pass captures on a power-of-two
// grid of gridStep retirements, and whenever it holds gridHeld
// snapshots it drops the odd multiples and doubles the step; the run
// thus never holds more than gridHeld snapshots, and once it has
// thinned at least once it holds at least gridHeld/2, so the final step
// is at most TotalDyn/cadenceSnaps < E.
const (
	cadenceSnaps = 64
	gridStep     = 2048
	gridHeld     = 128
)

// RunWithDefaultSnapshots is Run plus snapshots on the default cadence,
// from the same single run; a warm campaign profiles with it. It
// captures on the doubling grid (see gridStep), then keeps, for each
// k >= 1 with k·E < TotalDyn (E = TotalDyn/cadenceSnaps+1), the latest
// grid snapshot at or before k·E. Since the final grid step is at most
// E, every k finds its own snapshot whenever the run spans cadenceSnaps
// grid steps, so the profile keeps (TotalDyn-1)/E snapshots, as a pass
// on the cadence E itself would; a shorter run keeps fewer.
func RunWithDefaultSnapshots(app *core.Binary) (*Profile, error) {
	prof, err := run(app, gridStep, true)
	if err != nil {
		return nil, err
	}
	prof.Snaps = onCadence(prof.Snaps, prof.TotalDyn/cadenceSnaps+1, prof.TotalDyn)
	return prof, nil
}

// run is the profiling run behind Run, RunWithSnapshots and
// RunWithDefaultSnapshots: it captures a snapshot at every positive
// multiple of step (0 = none) and, when thin is set, keeps the grid
// bounded as RunWithDefaultSnapshots describes.
//
// Capture installs no step hook, so the run stays on the fast
// interpreter tiers: it is cut into budget slices that end on the
// grid, and a snapshot is taken whenever a slice stops at a positive
// multiple of the step. A slice charges exactly the attempts it was
// given; one that retired fewer (a trapped and resumed attempt) ends
// short of its boundary, and the next slice runs toward the same
// boundary. Without a step the run is one unbudgeted slice.
func run(app *core.Binary, step uint64, thin bool) (*Profile, error) {
	p, err := core.NewProcess(core.ProcessConfig{App: app})
	if err != nil {
		return nil, err
	}
	c := p.CPU
	c.Profile = true
	prof := &Profile{Counts: map[string][]uint64{}}
	var st machine.RunStatus
	for {
		var n uint64 // 0 runs to the end
		if step > 0 {
			n = step - c.Dyn%step
		}
		if st = p.Run(n); st != machine.StatusLimit {
			break
		}
		if c.Dyn > 0 && c.Dyn%step == 0 {
			prof.Snaps = append(prof.Snaps, SnapPoint{
				Dyn:    c.Dyn,
				State:  checkpoint.Capture(c, 0),
				Counts: countsByName(c),
			})
			if thin && len(prof.Snaps) == gridHeld {
				prof.Snaps = evenMultiples(prof.Snaps)
				step *= 2
			}
		}
	}
	if st != machine.StatusExited {
		return nil, fmt.Errorf("profiler: golden run did not exit: %v (trap %v)", st, c.PendingTrap)
	}
	prof.TotalDyn = c.Dyn
	prof.Golden = append([]float64(nil), p.Results()...)
	prof.ExitCode = c.ExitCode
	for img, cnts := range c.Counts {
		prof.Counts[img.Prog.Name] = cnts
	}
	return prof, nil
}

// evenMultiples thins a full grid, the snapshots at step·1 … step·n, to
// those at the even multiples, in place.
func evenMultiples(snaps []SnapPoint) []SnapPoint {
	n := len(snaps) / 2
	for i := range n {
		snaps[i] = snaps[2*i+1]
	}
	clear(snaps[n:])
	return snaps[:n]
}

// onCadence keeps, for each k >= 1 with k·every < total, the latest of
// snaps (ascending Dyn) at or before k·every, once however many k pick
// it, in place.
func onCadence(snaps []SnapPoint, every, total uint64) []SnapPoint {
	kept, i := 0, 0
	for b := every; b < total; b += every {
		for i < len(snaps) && snaps[i].Dyn <= b {
			i++
		}
		if i > 0 && (kept == 0 || snaps[kept-1].Dyn != snaps[i-1].Dyn) {
			snaps[kept] = snaps[i-1]
			kept++
		}
	}
	clear(snaps[kept:])
	return snaps[:kept]
}

// countsByName copies the CPU's per-image execution counts, keyed by
// program name.
func countsByName(c *machine.CPU) map[string][]uint64 {
	m := make(map[string][]uint64, len(c.Counts))
	for img, cnts := range c.Counts {
		m[img.Prog.Name] = append([]uint64(nil), cnts...)
	}
	return m
}
