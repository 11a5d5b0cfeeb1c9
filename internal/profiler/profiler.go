// Package profiler is the reproduction's stand-in for Intel Pin in the
// paper's §5.1 methodology: it runs a binary once while counting how
// often every static instruction executes, so that the fault injector
// can pick a static instruction weighted by its dynamic frequency and a
// uniform occurrence index — approximating a uniformly random dynamic
// instruction without tracing.
package profiler

import (
	"fmt"
	"sort"

	"care/internal/checkpoint"
	"care/internal/core"
	"care/internal/machine"
)

// SnapPoint is one golden-run machine snapshot, captured at a periodic
// dyn cadence so that fault-injection trials can warm-start from the
// latest snapshot before their injection point instead of re-executing
// the shared prefix. The snapshot's memory image is frozen
// copy-on-write, so one SnapPoint is safely shared by every concurrent
// trial that clones it.
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
	// Snaps are the periodic golden-run snapshots in ascending Dyn
	// order (empty unless the profile was taken with RunWithSnapshots).
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

// Run executes the binary (with optional extra library binaries) to
// completion with profiling enabled. limit bounds the run (0 = none).
func Run(app *core.Binary, libs []*core.Binary, limit uint64) (*Profile, error) {
	return RunWithSnapshots(app, libs, limit, 0)
}

// RunWithSnapshots is Run plus periodic machine snapshots: every
// snapEvery retired instructions the golden process is checkpointed
// (frozen copy-on-write, so each capture costs O(pages), with the byte
// copying deferred to the pages the run actually dirties before the
// next capture). snapEvery == 0 disables capture; the profile is
// then identical to Run's.
//
// Capture installs no step hook, so the run stays on the fast
// interpreter tiers: it is cut into budget slices that end on the
// cadence, and a snapshot is taken whenever a slice stops at a positive
// multiple of it. A slice charges exactly the attempts it was given; one
// that retired fewer (a trapped and resumed attempt) ends short of its
// boundary, and the next slice runs toward the same boundary.
func RunWithSnapshots(app *core.Binary, libs []*core.Binary, limit, snapEvery uint64) (*Profile, error) {
	p, err := core.NewProcess(core.ProcessConfig{App: app, Libs: libs})
	if err != nil {
		return nil, err
	}
	c := p.CPU
	c.Profile = true
	prof := &Profile{Counts: map[string][]uint64{}}
	left := limit // unspent budget; 0 means unlimited, as for Run
	var st machine.RunStatus
	for {
		n := left
		if snapEvery > 0 {
			if k := snapEvery - c.Dyn%snapEvery; n == 0 || k < n {
				n = k
			}
		}
		if st = p.Run(n); st != machine.StatusLimit {
			break
		}
		if snapEvery > 0 && c.Dyn > 0 && c.Dyn%snapEvery == 0 {
			prof.Snaps = append(prof.Snaps, SnapPoint{
				Dyn:    c.Dyn,
				State:  checkpoint.Capture(c, 0),
				Counts: countsByName(c),
			})
		}
		if limit > 0 {
			if left -= n; left == 0 {
				break
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

// countsByName copies the CPU's per-image execution counts, keyed by
// program name.
func countsByName(c *machine.CPU) map[string][]uint64 {
	m := make(map[string][]uint64, len(c.Counts))
	for img, cnts := range c.Counts {
		m[img.Prog.Name] = append([]uint64(nil), cnts...)
	}
	return m
}
