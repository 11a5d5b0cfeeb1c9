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

// CPUState is the architectural part of a snapshot.
type CPUState struct {
	R   [machine.NumReg]machine.Word
	F   [machine.NumFReg]float64
	PC  machine.Word
	Dyn uint64
}

// Snapshot is a full process checkpoint.
type Snapshot struct {
	Mem *machine.Snapshot
	CPU CPUState
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
		CPU:  CPUState{R: c.R, F: c.F, PC: c.PC, Dyn: c.Dyn},
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
	c.SetContext(machine.Context{R: s.CPU.R, F: s.CPU.F, PC: s.CPU.PC, Dyn: s.CPU.Dyn})
	if c.Env != nil {
		c.Env.Results = append(c.Env.Results[:0], s.EnvResults...)
		c.Env.Printed = append(c.Env.Printed[:0], s.EnvPrinted...)
	}
}

// Matches reports whether the CPU holds exactly the snapshot's state:
// integer registers, PC and Dyn, the floating-point registers and the
// result stream compared by bit pattern (so +0/-0 and NaN payloads
// differ), the print stream, and the writable memory
// (machine.Memory.Matches). Code is immutable and not compared. With no
// step hook, StopPC sentinel or trap, that state alone determines the
// rest of a run, so a match means the CPU will retrace the snapshotted
// run from here on.
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

// CostModel converts checkpoint sizes into modelled I/O time.
type CostModel struct {
	// WriteBandwidth and ReadBandwidth in bytes/second.
	WriteBandwidth float64
	ReadBandwidth  float64
	// WriteLatency/ReadLatency are fixed per-operation costs.
	WriteLatency time.Duration
	ReadLatency  time.Duration
	// RequeueDelay models the batch-queue wait before a restarted job
	// runs again (the paper's "wait in the job queue").
	RequeueDelay time.Duration
	// DomainRewindBandwidth prices a domain-scoped partial rollback, in
	// bytes/second. A domain rewind is an in-process memory swap — no
	// parallel-filesystem read and no requeue — so it is charged as a
	// plain memory copy of the domain image. 0 means free.
	DomainRewindBandwidth float64
}

// DefaultCostModel approximates a modest parallel filesystem share.
func DefaultCostModel() CostModel {
	return CostModel{
		WriteBandwidth: 200e6,
		ReadBandwidth:  400e6,
		WriteLatency:   5 * time.Millisecond,
		ReadLatency:    5 * time.Millisecond,
		RequeueDelay:   2 * time.Second,
		// ~DDR-class copy bandwidth; a rewound domain costs microseconds
		// where a full rollback pays filesystem latency plus requeue.
		DomainRewindBandwidth: 10e9,
	}
}

// WriteCost models writing a snapshot.
func (m CostModel) WriteCost(s *Snapshot) time.Duration {
	return m.WriteLatency + time.Duration(float64(s.Bytes())/m.WriteBandwidth*1e9)
}

// ReadCost models reading a snapshot back.
func (m CostModel) ReadCost(s *Snapshot) time.Duration {
	return m.ReadLatency + time.Duration(float64(s.Bytes())/m.ReadBandwidth*1e9)
}

// DomainRewindCost models swapping one domain's image back in place.
func (m CostModel) DomainRewindCost(bytes int) time.Duration {
	if m.DomainRewindBandwidth <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / m.DomainRewindBandwidth * 1e9)
}

// Trace counter names charged by the store. Durations are charged in
// nanoseconds so I/O totals stay exact even when the span ring drops
// old spans.
const (
	CounterSaves    = "checkpoint.saves"
	CounterWriteNs  = "checkpoint.write-ns"
	CounterRestores = "checkpoint.restores"
	CounterReadNs   = "checkpoint.read-ns"
	// CounterDomainSaves/CounterDomainRestores/CounterDomainReadNs account
	// for domain-scoped captures and rewinds.
	CounterDomainSaves    = "checkpoint.domain-saves"
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
	Model  CostModel
	rec    *trace.Recorder
	latest *Snapshot
	// domains holds the latest consistent per-domain generation. Full
	// saves refresh every populated domain (as zero-copy views over the
	// frozen snapshot); SaveDomain refreshes one.
	domains [machine.NumDomains]*DomainSnap
	gen     int
}

// DomainSnap is one domain's snapshot generation in a store.
type DomainSnap struct {
	Mem *machine.DomainSnapshot
	// Gen orders generations across domains; Step/Dyn locate the capture.
	Gen  int
	Step int
	Dyn  uint64
}

// NewStore builds a store with the given cost model.
func NewStore(m CostModel) *Store {
	return &Store{Model: m, rec: trace.New(trace.DefaultSpanCap)}
}

// Trace exposes the store's recorder (one span per save/restore plus
// the I/O counters). Callers merge it into campaign or job traces.
func (st *Store) Trace() *trace.Recorder { return st.rec }

// Save checkpoints the CPU (and its memory) at the given step, charging
// the modelled write cost to the trace.
func (st *Store) Save(c *machine.CPU, step int) *Snapshot {
	s := Capture(c, step)
	st.latest = s
	cost := st.Model.WriteCost(s)
	st.rec.Emit(trace.Span{
		Kind: trace.KindCheckpointSave, Parent: trace.NoParent,
		StartDyn: c.Dyn, EndDyn: c.Dyn,
		Wall: cost, Val: int64(s.Bytes()),
	})
	st.rec.Add(CounterSaves, 1)
	st.rec.Add(CounterWriteNs, cost.Nanoseconds())
	st.noteDomains(s, step)
	return s
}

// noteDomains refreshes every domain generation from a just-taken full
// snapshot. The views alias the snapshot's frozen segments, so this
// copies nothing.
func (st *Store) noteDomains(s *Snapshot, step int) {
	st.gen++
	for d := machine.DomainID(0); d < machine.NumDomains; d++ {
		if v := s.Mem.DomainView(d); v != nil {
			st.domains[d] = &DomainSnap{Mem: v, Gen: st.gen, Step: step, Dyn: s.CPU.Dyn}
		}
	}
}

// SaveDomain captures one domain's current state (freezing only that
// domain's segments) as its newest generation. Returns nil when the
// domain has no writable segments.
func (st *Store) SaveDomain(c *machine.CPU, d machine.DomainID, step int) *DomainSnap {
	v := c.Mem.SnapshotDomain(d)
	if v == nil {
		return nil
	}
	st.gen++
	ds := &DomainSnap{Mem: v, Gen: st.gen, Step: step, Dyn: c.Dyn}
	st.domains[d] = ds
	st.rec.Add(CounterDomainSaves, 1)
	return ds
}

// LatestDomain returns the domain's latest generation, or nil.
func (st *Store) LatestDomain(d machine.DomainID) *DomainSnap { return st.domains[d] }

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
	if err := c.Mem.RestoreDomain(ds.Mem); err != nil {
		return 0, err
	}
	bytes := ds.Mem.Bytes()
	cost := st.Model.DomainRewindCost(bytes)
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
	cost := st.Model.ReadCost(s)
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
// its result stream grows past another `every` result values (the
// simulation's observable notion of an application step). The
// high-water mark is monotonic, so re-execution after a rollback does
// not re-write checkpoints it already paid for. The returned function
// removes the hook.
func AutoSave(st *Store, c *machine.CPU, every int) (remove func()) {
	if every <= 0 {
		return func() {}
	}
	saved := 0 // highest result count already checkpointed
	return c.AddAfterStep(func(cc *machine.CPU, _ *machine.Image, _ int, _ *machine.MInstr) {
		if cc.Env == nil {
			return
		}
		if n := len(cc.Env.Results); n >= saved+every {
			saved = n - n%every
			st.Save(cc, saved)
		}
	})
}
