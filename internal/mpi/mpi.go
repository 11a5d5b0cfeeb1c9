// Package mpi provides the message-passing substrate for multi-rank
// runs: blocking collectives (allreduce, barrier) with deterministic
// rank-ordered reduction, and a round-robin scheduler that interleaves
// the rank CPUs, parking them while a collective is incomplete — the
// OpenMPI stand-in for the paper's 3072-core experiments.
package mpi

import (
	"fmt"
	"sort"

	"care/internal/hostenv"
	"care/internal/machine"
)

// World owns the collective state of an N-rank job. Collectives are
// pipelined: a fast rank that consumed instance k may arrive at instance
// k+1 while slower ranks are still parked on k, so instances are keyed
// by a per-rank sequence number (an MPI implementation's per-
// communicator operation count).
type World struct {
	N int

	rankSeq   []uint64
	instances map[uint64]*collInstance
	// Seq is the lowest completed-and-garbage-collected sequence number
	// (diagnostics).
	Seq uint64
}

type collInstance struct {
	kind     string
	arrived  map[int]float64
	ready    bool
	result   float64
	consumed int
}

// NewWorld creates the collective state for n ranks.
func NewWorld(n int) *World {
	return &World{N: n, rankSeq: make([]uint64, n), instances: map[uint64]*collInstance{}}
}

// Env returns rank r's host environment wired to this world.
func (w *World) Env(r int) *hostenv.Env {
	return &hostenv.Env{Rank: r, Size: w.N, Coll: (*coll)(w)}
}

// coll adapts World to hostenv.Collectives.
type coll World

func (c *coll) op(kind string, rank int, v float64) (float64, bool) {
	w := (*World)(c)
	seq := w.rankSeq[rank]
	inst := w.instances[seq]
	if inst == nil {
		inst = &collInstance{kind: kind, arrived: map[int]float64{}}
		w.instances[seq] = inst
	}
	if inst.kind != kind {
		panic(fmt.Sprintf("mpi: mismatched collectives at seq %d: %s vs %s", seq, inst.kind, kind))
	}
	if _, dup := inst.arrived[rank]; !dup {
		inst.arrived[rank] = v
	}
	if !inst.ready && len(inst.arrived) == w.N {
		// Deterministic rank-ordered reduction.
		ranks := make([]int, 0, w.N)
		for r := range inst.arrived {
			ranks = append(ranks, r)
		}
		sort.Ints(ranks)
		s := 0.0
		for _, r := range ranks {
			s += inst.arrived[r]
		}
		inst.result = s
		inst.ready = true
	}
	if !inst.ready {
		return 0, false
	}
	w.rankSeq[rank] = seq + 1
	inst.consumed++
	if inst.consumed == w.N {
		delete(w.instances, seq)
		w.Seq = seq + 1
	}
	return inst.result, true
}

// AllreduceSum implements hostenv.Collectives.
func (c *coll) AllreduceSum(rank int, v float64) (float64, bool) {
	return c.op("allreduce", rank, v)
}

// Barrier implements hostenv.Collectives.
func (c *coll) Barrier(rank int) bool {
	_, ok := c.op("barrier", rank, 0)
	return ok
}

// RankState is the scheduler's view of one rank.
type RankState struct {
	CPU *machine.CPU
	// Done marks normal exit; Dead marks an unhandled trap.
	Done bool
	Dead bool
}

// RunResult summarises a world execution.
type RunResult struct {
	// Completed is true when every rank exited normally.
	Completed bool
	// DeadRank is the first rank that died (-1 if none).
	DeadRank int
	// DeadTrap is its fatal trap.
	DeadTrap *machine.Trap
	// MaxDyn is the maximum retired-instruction count across ranks —
	// the job's virtual completion time in instruction units.
	MaxDyn uint64
	// TotalDyn sums instructions across ranks.
	TotalDyn uint64
}

// defaultQuantum is the scheduler slice in instructions: RunSharded's,
// and Run's when given 0.
const defaultQuantum = 50_000

// Run interleaves the rank CPUs round-robin with the given quantum (0
// means defaultQuantum) until all ranks exit, one dies, or no rank can
// make progress. A dead rank makes the collectives unsatisfiable, so the
// run stops as soon as every surviving rank is parked (the MPI job-kill
// behaviour the paper's C/R baseline suffers).
func Run(w *World, cpus []*machine.CPU, quantum uint64) (*RunResult, error) {
	if len(cpus) != w.N {
		return nil, fmt.Errorf("mpi: %d cpus for %d ranks", len(cpus), w.N)
	}
	if quantum == 0 {
		quantum = defaultQuantum
	}
	res := &RunResult{DeadRank: -1}
	for {
		running := 0
		blocked := 0
		exited := 0
		progressed := false
		for r, c := range cpus {
			switch c.Status {
			case machine.StatusExited:
				exited++
				continue
			case machine.StatusTrapped:
				if res.DeadRank == -1 {
					res.DeadRank = r
					res.DeadTrap = c.PendingTrap
				}
				continue
			case machine.StatusBlocked:
				c.Unblock()
			}
			before := c.Dyn
			c.Run(quantum)
			if c.Dyn != before || c.Status == machine.StatusExited {
				progressed = true
			}
			switch c.Status {
			case machine.StatusBlocked:
				blocked++
			case machine.StatusExited:
				exited++
			case machine.StatusTrapped:
				if res.DeadRank == -1 {
					res.DeadRank = r
					res.DeadTrap = c.PendingTrap
				}
			default:
				running++
			}
		}
		if exited == w.N {
			res.Completed = true
			break
		}
		if res.DeadRank >= 0 && running == 0 {
			break // surviving ranks are parked on a dead collective
		}
		if !progressed && running == 0 && blocked > 0 && res.DeadRank == -1 {
			return nil, fmt.Errorf("mpi: deadlock with %d ranks blocked, %d exited", blocked, exited)
		}
	}
	for _, c := range cpus {
		if c.Dyn > res.MaxDyn {
			res.MaxDyn = c.Dyn
		}
		res.TotalDyn += c.Dyn
	}
	return res, nil
}
