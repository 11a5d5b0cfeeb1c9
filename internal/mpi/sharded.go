package mpi

import (
	"fmt"

	"care/internal/hostenv"
	"care/internal/machine"
	"care/internal/parallel"
)

// Sharded execution: RunSharded drives the same World as Run, but runs
// every live rank's quantum concurrently on a bounded worker pool and
// batches collective traffic into a serial exchange phase between
// supersteps — one reduction pass per superstep instead of per-rank
// wakeups, which is what lets a 512-rank job use the whole machine.
//
// The result is identical to Run's, not merely equivalent: a blocked
// host call parks the CPU *before* the instruction retires (the call
// re-issues after unblocking), so a rank's retirement sequence depends
// only on its own program and the collective results it consumes — and
// those are rank-ordered sums, independent of arrival order. Deferring
// arrivals to the exchange phase therefore shifts only scheduling, not
// one architectural bit. TestRunShardedMatchesRun pins this.

// rankColl is one rank's lock-free proxy onto the shared World. The
// rank goroutine touches it alone during a superstep; the exchange
// phase (single-threaded, after the pool joins) is the only other
// toucher. The superstep barrier orders the two.
type rankColl struct {
	// pending is an arrival the exchange has not yet forwarded.
	pendingKind string
	pendingVal  float64
	hasPending  bool
	// sent marks an arrival forwarded and awaiting its result.
	sent bool
	// ready/result is the published collective result, not yet consumed.
	ready  bool
	result float64
	// consumed tells the exchange to apply this rank's consumption
	// bookkeeping (sequence advance, instance retirement).
	consumed bool
}

// op is the rank-side half of the collective: consume a published
// result if one is waiting, otherwise record the arrival for the next
// exchange and park.
func (p *rankColl) op(kind string, v float64) (float64, bool) {
	if p.ready {
		p.ready = false
		p.consumed = true
		return p.result, true
	}
	if !p.hasPending && !p.sent {
		p.pendingKind, p.pendingVal, p.hasPending = kind, v, true
	}
	return 0, false
}

func (p *rankColl) AllreduceSum(_ int, v float64) (float64, bool) { return p.op("allreduce", v) }
func (p *rankColl) Barrier(_ int) bool                            { _, ok := p.op("barrier", 0); return ok }

// arrive records rank's value at its current collective instance
// without consuming — the exchange-phase half of coll.op.
func (w *World) arrive(kind string, rank int, v float64) {
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
		// Deterministic rank-ordered reduction, as in coll.op.
		s := 0.0
		for r := 0; r < w.N; r++ {
			s += inst.arrived[r]
		}
		inst.result = s
		inst.ready = true
	}
}

// resultFor reports rank's current instance result, if complete.
func (w *World) resultFor(rank int) (float64, bool) {
	inst := w.instances[w.rankSeq[rank]]
	if inst == nil || !inst.ready {
		return 0, false
	}
	return inst.result, true
}

// consume advances rank past its current instance and retires the
// instance once every rank has consumed it.
func (w *World) consume(rank int) {
	seq := w.rankSeq[rank]
	inst := w.instances[seq]
	w.rankSeq[rank] = seq + 1
	inst.consumed++
	if inst.consumed == w.N {
		delete(w.instances, seq)
		w.Seq = seq + 1
	}
}

// RunSharded executes the world with superstep parallelism: each
// superstep gives every live rank one quantum (defaultQuantum
// instructions) on a pool of up to workers goroutines (<=0 = one per
// CPU), then a serial exchange phase batches the superstep's collective
// arrivals, completes instances, and publishes results. The RunResult
// is identical to Run's on the same world; only wall-clock differs.
// Each rank's hostenv Coll is pointed at its proxy for the duration and
// restored on return. progress, when non-nil, is called after every
// superstep with (ranksExited, ranks) — heartbeat reporting only.
func RunSharded(w *World, cpus []*machine.CPU, workers int, progress func(done, total int)) (*RunResult, error) {
	if len(cpus) != w.N {
		return nil, fmt.Errorf("mpi: %d cpus for %d ranks", len(cpus), w.N)
	}
	proxies := make([]*rankColl, w.N)
	restore := make([]hostenv.Collectives, w.N)
	for r, c := range cpus {
		proxies[r] = &rankColl{}
		restore[r] = c.Env.Coll
		c.Env.Coll = proxies[r]
	}
	defer func() {
		for r, c := range cpus {
			c.Env.Coll = restore[r]
		}
	}()

	res := &RunResult{DeadRank: -1}
	for {
		progressed := false
		// Superstep: one quantum per live rank, in parallel. Dyn deltas
		// are read after the pool joins.
		before := make([]uint64, w.N)
		_ = parallel.ForEach(w.N, workers, func(r int) error {
			c := cpus[r]
			before[r] = c.Dyn
			switch c.Status {
			case machine.StatusExited, machine.StatusTrapped:
				return nil
			case machine.StatusBlocked:
				c.Unblock()
			}
			c.Run(defaultQuantum)
			return nil
		})
		running, blocked, exited := 0, 0, 0
		for r, c := range cpus {
			switch c.Status {
			case machine.StatusExited:
				exited++
				if c.Dyn != before[r] {
					progressed = true
				}
			case machine.StatusTrapped:
				if res.DeadRank == -1 {
					res.DeadRank = r
					res.DeadTrap = c.PendingTrap
				}
			case machine.StatusBlocked:
				blocked++
				if c.Dyn != before[r] {
					progressed = true
				}
			default:
				running++
				progressed = true
			}
		}
		// Exchange: apply consumptions, then forward arrivals, then
		// publish completed results — a batched reduction per superstep
		// instead of per-rank collective wakeups.
		published := false
		for r := range proxies {
			if proxies[r].consumed {
				proxies[r].consumed = false
				proxies[r].sent = false
				w.consume(r)
				progressed = true
			}
		}
		for r, p := range proxies {
			if p.hasPending {
				w.arrive(p.pendingKind, r, p.pendingVal)
				p.hasPending = false
				p.sent = true
				progressed = true
			}
		}
		for r, p := range proxies {
			if p.sent && !p.ready {
				if v, ok := w.resultFor(r); ok {
					p.ready, p.result = true, v
					published = true
				}
			}
		}
		awaiting := false
		for _, p := range proxies {
			awaiting = awaiting || p.ready
		}
		if progress != nil {
			progress(exited, w.N)
		}
		if exited == w.N {
			res.Completed = true
			break
		}
		if res.DeadRank >= 0 && running == 0 && !awaiting {
			break // survivors are parked on collectives the dead rank starves
		}
		if !progressed && !published && !awaiting && running == 0 && blocked > 0 && res.DeadRank == -1 {
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
