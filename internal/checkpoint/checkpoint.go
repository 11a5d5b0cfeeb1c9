// Package checkpoint implements the Checkpoint/Restart substrate that
// CARE is compared against (§5.4): full-process snapshots (memory,
// registers, program counter), restart from the latest snapshot, and an
// I/O cost model that converts snapshot sizes into the write/read times
// a parallel filesystem would charge.
package checkpoint

import (
	"fmt"
	"math"
	"slices"
	"time"

	"care/internal/machine"
	"care/internal/trace"
)

// Snapshot is a full process checkpoint.
type Snapshot struct {
	Mem *machine.Snapshot
	// CPU is the architectural part of the snapshot.
	CPU machine.Context
	// Step is the application step at which the snapshot was taken.
	Step int
	// EnvResults preserves the result stream position.
	EnvResults []float64
	// EnvPrinted preserves the diagnostic print stream (not priced by
	// Bytes; it never influences execution, but restoring it keeps a
	// resumed process's observable output identical to a cold run's).
	EnvPrinted []string
}

// Capture snapshots a CPU: its memory (frozen copy-on-write, so the
// capture itself copies nothing), architectural context, and host-
// environment output streams. It is the accounting-free core of
// Store.Save, shared with the campaign warm-start path.
func Capture(c *machine.CPU, step int) *Snapshot {
	s := &Snapshot{
		Mem:  c.Mem.Snapshot(),
		CPU:  c.Context(),
		Step: step,
	}
	if c.Env != nil {
		s.EnvResults = append([]float64(nil), c.Env.Results...)
		s.EnvPrinted = append([]string(nil), c.Env.Printed...)
	}
	return s
}

// Apply restores the snapshot into a CPU: memory pages come back as
// copy-on-write aliases of the frozen image (so applying one snapshot
// to many processes shares each page until a process stores to it),
// and the architectural state and output streams are rewound. It is the
// accounting-free core of Store.Restore. The CPU must have the same
// images attached (code is immutable and not part of the snapshot, as
// with ordinary C/R).
func (s *Snapshot) Apply(c *machine.CPU) {
	c.Mem.Restore(s.Mem)
	c.SetContext(s.CPU)
	if c.Env != nil {
		c.Env.Results = append(c.Env.Results[:0], s.EnvResults...)
		c.Env.Printed = append(c.Env.Printed[:0], s.EnvPrinted...)
	}
}

// Matches reports whether the CPU holds exactly the snapshot's state:
// integer registers, PC and Dyn, the floating-point registers and the
// result stream compared by bit pattern (so +0/-0 and NaN payloads
// differ), the print stream, and the writable memory
// (machine.Memory.Matches, which leaves out a scratch stack the
// snapshot lacks). Code is immutable and not compared. With no
// step hook or trap, that state alone determines the rest of a run, so
// a match means the CPU will retrace the snapshotted run from here on.
func (s *Snapshot) Matches(c *machine.CPU) bool {
	if c.R != s.CPU.R || c.PC != s.CPU.PC || c.Dyn != s.CPU.Dyn {
		return false
	}
	for i := range c.F {
		if math.Float64bits(c.F[i]) != math.Float64bits(s.CPU.F[i]) {
			return false
		}
	}
	var results []float64
	var printed []string
	if c.Env != nil {
		results, printed = c.Env.Results, c.Env.Printed
	}
	if len(results) != len(s.EnvResults) || !slices.Equal(printed, s.EnvPrinted) {
		return false
	}
	for i, v := range results {
		if math.Float64bits(v) != math.Float64bits(s.EnvResults[i]) {
			return false
		}
	}
	return c.Mem.Matches(s.Mem)
}

// Bytes is the serialised checkpoint size: memory, register file,
// PC/Dyn/Step header, and the preserved result stream (8 bytes per
// element — omitting it undercounts snapshot I/O for result-heavy
// workloads).
func (s *Snapshot) Bytes() int {
	return s.Mem.Bytes() + (machine.NumReg+machine.NumFReg)*8 + 16 + 8*len(s.EnvResults)
}

// The modelled I/O of a modest parallel-filesystem share: snapshot
// write and read bandwidth in bytes/second, and a fixed cost per
// operation. A domain rewind is an in-process memory swap, with no
// filesystem read and no requeue, so it is priced as a plain copy of
// the domain image at ~DDR-class bandwidth: a rewound domain costs
// microseconds where a full rollback pays filesystem latency plus
// requeue.
const (
	writeBandwidth        = 200e6
	readBandwidth         = 400e6
	ioLatency             = 5 * time.Millisecond
	domainRewindBandwidth = 10e9
)

// RequeueDelay models the batch-queue wait before a restarted job runs
// again (the paper's "wait in the job queue").
const RequeueDelay = 2 * time.Second

// WriteCost models writing a snapshot.
func WriteCost(s *Snapshot) time.Duration {
	return ioLatency + time.Duration(float64(s.Bytes())/writeBandwidth*1e9)
}

// ReadCost models reading a snapshot back.
func ReadCost(s *Snapshot) time.Duration {
	return ioLatency + time.Duration(float64(s.Bytes())/readBandwidth*1e9)
}

// Trace counter names charged by the store. Durations are charged in
// nanoseconds so I/O totals stay exact even when the span ring drops
// old spans.
const (
	CounterSaves    = "checkpoint.saves"
	CounterWriteNs  = "checkpoint.write-ns"
	CounterRestores = "checkpoint.restores"
	CounterReadNs   = "checkpoint.read-ns"
	// CounterDomainRestores/CounterDomainReadNs account for domain
	// rewinds.
	CounterDomainRestores = "checkpoint.domain-restores"
	CounterDomainReadNs   = "checkpoint.domain-read-ns"
	// CounterLostDyn accumulates the virtual-clock work discarded by full
	// restores (pre-restore Dyn minus restored Dyn) — the deterministic
	// "lost work" metric the policy study compares. Domain rewinds charge
	// nothing here: they discard no retired instructions.
	CounterLostDyn = "checkpoint.lost-work-dyn"
)

// Store keeps a process's checkpoints (latest-wins, as with rotating
// checkpoint files). All I/O accounting — save/restore counts and
// modelled write/read time — lives on the store's trace recorder; the
// Saves/ModeledWriteTime/... accessors are views over it.
type Store struct {
	rec    *trace.Recorder
	latest *Snapshot
	// domains holds each domain's latest generation: its view of the
	// newest full save that held any of its segments, aliasing that
	// save's frozen pages.
	domains [machine.NumDomains]*machine.DomainSnapshot
}

// NewStore builds an empty store.
func NewStore() *Store {
	return &Store{rec: trace.New(trace.DefaultSpanCap)}
}

// Trace exposes the store's recorder (one span per save/restore plus
// the I/O counters). Callers merge it into campaign or job traces.
func (st *Store) Trace() *trace.Recorder { return st.rec }

// Save checkpoints the CPU (and its memory) at the given step, charging
// the modelled write cost to the trace.
func (st *Store) Save(c *machine.CPU, step int) *Snapshot {
	s := Capture(c, step)
	st.latest = s
	cost := WriteCost(s)
	st.rec.Emit(trace.Span{
		Kind: trace.KindCheckpointSave, Parent: trace.NoParent,
		StartDyn: c.Dyn, EndDyn: c.Dyn,
		Wall: cost, Val: int64(s.Bytes()),
	})
	st.rec.Add(CounterSaves, 1)
	st.rec.Add(CounterWriteNs, cost.Nanoseconds())
	for d := machine.DomainID(0); d < machine.NumDomains; d++ {
		if v := s.Mem.DomainView(d); v != nil {
			st.domains[d] = v
		}
	}
	return s
}

// LatestDomain returns the domain's latest generation, or nil.
func (st *Store) LatestDomain(d machine.DomainID) *machine.DomainSnapshot { return st.domains[d] }

// RestoreDomain rewinds one domain to its latest generation, leaving
// every other domain and all architectural state in place, and returns
// the modelled swap cost. The rewind's consistency proofs are
// machine.Memory.RestoreDomain's; a machine.ErrDomainInconsistent error
// means the caller must escalate. The span's Dyn stamps do not move:
// a domain rewind discards no retired instructions.
func (st *Store) RestoreDomain(c *machine.CPU, d machine.DomainID) (time.Duration, error) {
	ds := st.domains[d]
	if ds == nil {
		return 0, fmt.Errorf("checkpoint: no %v-domain snapshot to rewind to", d)
	}
	if err := c.Mem.RestoreDomain(ds); err != nil {
		return 0, err
	}
	bytes := ds.Bytes()
	cost := time.Duration(float64(bytes) / domainRewindBandwidth * 1e9)
	st.rec.Emit(trace.Span{
		Kind: trace.KindDomainRewind, Parent: trace.NoParent,
		StartDyn: c.Dyn, EndDyn: c.Dyn,
		Wall: cost, Val: int64(bytes), Outcome: d.String(),
	})
	st.rec.Add(CounterDomainRestores, 1)
	st.rec.Add(CounterDomainReadNs, cost.Nanoseconds())
	return cost, nil
}

// Saves reports how many checkpoints were written.
func (st *Store) Saves() int { return int(st.rec.Counter(CounterSaves)) }

// ModeledWriteTime is the accumulated modelled cost of every Save.
func (st *Store) ModeledWriteTime() time.Duration {
	return time.Duration(st.rec.Counter(CounterWriteNs))
}

// Latest returns the most recent snapshot, or nil.
func (st *Store) Latest() *Snapshot { return st.latest }

// Restore rolls the CPU back to the snapshot and returns the modelled
// read cost. The CPU must have the same images attached (code is
// immutable and not part of the snapshot, as with ordinary C/R). The
// restore span's Dyn stamps run from the pre-restore clock to the
// (earlier) restored clock, making the virtual-time rewind visible.
func (st *Store) Restore(c *machine.CPU, s *Snapshot) (time.Duration, error) {
	if s == nil {
		return 0, fmt.Errorf("checkpoint: no snapshot to restore")
	}
	preDyn := c.Dyn
	s.Apply(c)
	cost := ReadCost(s)
	st.rec.Emit(trace.Span{
		Kind: trace.KindCheckpointRestore, Parent: trace.NoParent,
		StartDyn: preDyn, EndDyn: s.CPU.Dyn,
		Wall: cost, Val: int64(s.Bytes()),
	})
	st.rec.Add(CounterRestores, 1)
	st.rec.Add(CounterReadNs, cost.Nanoseconds())
	if preDyn > s.CPU.Dyn {
		st.rec.Add(CounterLostDyn, int64(preDyn-s.CPU.Dyn))
	}
	return cost, nil
}

// AutoSave installs a retire hook that checkpoints the CPU each time
// its result stream grows (the simulation's observable notion of an
// application step). The high-water mark is monotonic, so re-execution
// after a rollback does not re-write checkpoints it already paid for.
func AutoSave(st *Store, c *machine.CPU) {
	saved := 0 // highest result count already checkpointed
	c.AddAfterStep(func(cc *machine.CPU, _ *machine.Image, _ int, _ *machine.MInstr) {
		if cc.Env != nil && len(cc.Env.Results) > saved {
			saved = len(cc.Env.Results)
			st.Save(cc, saved)
		}
	})
}
