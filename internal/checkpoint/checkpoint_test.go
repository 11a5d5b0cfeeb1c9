package checkpoint_test

import (
	"errors"
	"math"
	"testing"
	"time"

	"care/internal/checkpoint"
	"care/internal/core"
	"care/internal/machine"
	"care/internal/trace"
	"care/internal/workloads"
)

func buildProc(t *testing.T) (*core.Binary, *core.Process) {
	t.Helper()
	w, err := workloads.Get("HPCCG")
	if err != nil {
		t.Fatal(err)
	}
	bin, err := core.Build(w.Module(workloads.Params{}), core.BuildOptions{OptLevel: 0})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewProcess(core.ProcessConfig{App: bin})
	if err != nil {
		t.Fatal(err)
	}
	return bin, p
}

// TestMidRunRestoreReproducesGolden: snapshot the process mid-flight,
// let it diverge (run to completion), restore, and verify the restored
// continuation reproduces the golden results exactly.
func TestMidRunRestoreReproducesGolden(t *testing.T) {
	_, golden := buildProc(t)
	if st := golden.Run(0); st != machine.StatusExited {
		t.Fatal(st)
	}
	want := append([]float64(nil), golden.Results()...)

	for _, cut := range []uint64{1_000, 25_000, 120_000} {
		_, p := buildProc(t)
		p.CPU.Run(cut)
		store := checkpoint.NewStore()
		snap := store.Save(p.CPU, 1)
		// Diverge: run to completion once.
		if st := p.CPU.Run(0); st != machine.StatusExited {
			t.Fatalf("cut %d: first completion %v", cut, st)
		}
		// Restore and re-run the tail.
		if _, err := store.Restore(p.CPU, snap); err != nil {
			t.Fatal(err)
		}
		if p.CPU.Dyn != snap.CPU.Dyn {
			t.Fatalf("dyn not restored: %d vs %d", p.CPU.Dyn, snap.CPU.Dyn)
		}
		if st := p.CPU.Run(0); st != machine.StatusExited {
			t.Fatalf("cut %d: restored completion %v (%v)", cut, st, p.CPU.PendingTrap)
		}
		got := p.Results()
		if len(got) != len(want) {
			t.Fatalf("cut %d: %d results, want %d", cut, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("cut %d: result[%d] = %v, want %v", cut, i, got[i], want[i])
			}
		}
	}
}

func TestRestoreRejectsNil(t *testing.T) {
	_, p := buildProc(t)
	store := checkpoint.NewStore()
	if _, err := store.Restore(p.CPU, nil); err == nil {
		t.Fatal("nil snapshot restored")
	}
	if store.Latest() != nil {
		t.Fatal("empty store has a latest snapshot")
	}
}

func TestCostModelScalesWithSize(t *testing.T) {
	_, p := buildProc(t)
	p.CPU.Run(10_000)
	store := checkpoint.NewStore()
	s := store.Save(p.CPU, 1)
	if s.Bytes() <= 0 {
		t.Fatal("empty snapshot")
	}
	const latency = 5 * time.Millisecond
	w1 := checkpoint.WriteCost(s)
	if w1 <= latency {
		t.Fatal("write cost ignores size")
	}
	if checkpoint.ReadCost(s) <= latency {
		t.Fatal("read cost ignores size")
	}
	if store.Saves() != 1 || store.ModeledWriteTime() != w1 {
		t.Fatalf("store accounting: %d saves, %v modeled", store.Saves(), store.ModeledWriteTime())
	}
}

func TestLatestWins(t *testing.T) {
	_, p := buildProc(t)
	store := checkpoint.NewStore()
	p.CPU.Run(1000)
	store.Save(p.CPU, 1)
	p.CPU.Run(1000)
	s2 := store.Save(p.CPU, 2)
	if store.Latest() != s2 {
		t.Fatal("latest snapshot is not the newest")
	}
	if store.Latest().Step != 2 {
		t.Fatal("step not recorded")
	}
}

// TestEnvResultsRestored: the result stream is part of the checkpoint —
// a restored run must not duplicate the results emitted before the
// snapshot.
func TestEnvResultsRestored(t *testing.T) {
	_, golden := buildProc(t)
	golden.Run(0)
	want := len(golden.Results())

	_, p := buildProc(t)
	// Run until at least one result is out.
	for len(p.Results()) == 0 && p.CPU.Status == machine.StatusRunning {
		p.CPU.Run(50_000)
	}
	store := checkpoint.NewStore()
	snap := store.Save(p.CPU, 1)
	if st := p.CPU.Run(0); st != machine.StatusExited {
		t.Fatal(st)
	}
	if _, err := store.Restore(p.CPU, snap); err != nil {
		t.Fatal(err)
	}
	if st := p.CPU.Run(0); st != machine.StatusExited {
		t.Fatal(st)
	}
	if len(p.Results()) != want {
		t.Fatalf("restored run emitted %d results, want %d", len(p.Results()), want)
	}
}

// domainAddr finds the base of the first writable segment of a domain
// (the HPCCG address space has writable heap and stack segments only —
// its globals are folded into the heap arrays).
func domainAddr(t *testing.T, p *core.Process, d machine.DomainID) machine.Word {
	t.Helper()
	for _, s := range p.CPU.Mem.Segments() {
		if !s.ReadOnly() && s.Domain == d {
			return s.Base
		}
	}
	t.Fatalf("no writable %v segment", d)
	return 0
}

// TestDomainRewindRestoresOnlyThatDomain: a full save refreshes every
// domain generation; rewinding one domain brings back exactly its bytes
// while the CPU state and the other domains stay live. The rewind
// charges the domain counters and a domain-rewind span.
func TestDomainRewindRestoresOnlyThatDomain(t *testing.T) {
	_, p := buildProc(t)
	p.CPU.Run(50_000)
	store := checkpoint.NewStore()
	store.Save(p.CPU, 1)
	if store.LatestDomain(machine.DomainHeap) == nil || store.LatestDomain(machine.DomainStack) == nil {
		t.Fatal("full save did not populate the heap/stack domain generations")
	}
	if store.LatestDomain(machine.DomainScratch) != nil {
		t.Fatal("unprotected process grew a scratch-domain generation")
	}

	ha, sa := domainAddr(t, p, machine.DomainHeap), domainAddr(t, p, machine.DomainStack)
	hWant, f := p.CPU.Mem.Read(ha)
	if f != nil {
		t.Fatal(f)
	}
	// Diverge heap and stack after the save.
	if f := p.CPU.Mem.Write(ha, hWant+99); f != nil {
		t.Fatal(f)
	}
	if f := p.CPU.Mem.Write(sa, 123); f != nil {
		t.Fatal(f)
	}
	regs, pc, dyn := p.CPU.R, p.CPU.PC, p.CPU.Dyn

	cost, err := store.RestoreDomain(p.CPU, machine.DomainHeap)
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Error("domain rewind cost not modelled")
	}
	if v, _ := p.CPU.Mem.Read(ha); v != hWant {
		t.Errorf("heap reads %d after rewind, want the saved %d", v, hWant)
	}
	if v, _ := p.CPU.Mem.Read(sa); v != 123 {
		t.Errorf("stack reads %d after a heap rewind, want the live 123", v)
	}
	if p.CPU.R != regs || p.CPU.PC != pc || p.CPU.Dyn != dyn {
		t.Error("domain rewind touched architectural state")
	}
	if got := store.Trace().Counter(checkpoint.CounterDomainRestores); got != 1 {
		t.Errorf("%s = %d, want 1", checkpoint.CounterDomainRestores, got)
	}
	if store.Trace().Counter(checkpoint.CounterDomainReadNs) <= 0 {
		t.Errorf("%s not charged", checkpoint.CounterDomainReadNs)
	}
	// A domain rewind discards no retired work.
	if got := store.Trace().Counter(checkpoint.CounterLostDyn); got != 0 {
		t.Errorf("%s = %d after a domain rewind, want 0", checkpoint.CounterLostDyn, got)
	}
	found := false
	for _, sp := range store.Trace().Spans() {
		if sp.Kind == trace.KindDomainRewind {
			found = true
			if sp.Outcome != machine.DomainHeap.String() {
				t.Errorf("rewind span names domain %q, want %q", sp.Outcome, machine.DomainHeap)
			}
			if sp.StartDyn != dyn || sp.EndDyn != dyn {
				t.Errorf("rewind span moves the virtual clock: %+v", sp)
			}
		}
	}
	if !found {
		t.Error("no domain-rewind span emitted")
	}

	// A newer full save supersedes every domain's generation.
	if f := p.CPU.Mem.Write(ha, 77); f != nil {
		t.Fatal(f)
	}
	store.Save(p.CPU, 2)
	if f := p.CPU.Mem.Write(ha, 88); f != nil {
		t.Fatal(f)
	}
	if _, err := store.RestoreDomain(p.CPU, machine.DomainHeap); err != nil {
		t.Fatal(err)
	}
	if v, _ := p.CPU.Mem.Read(ha); v != 77 {
		t.Errorf("heap rewind after a second save reads %d, want that save's 77", v)
	}
}

// TestRestoreDomainEscalations: rewinding a domain with no snapshot
// errors descriptively, and a stale allocation epoch surfaces
// machine.ErrDomainInconsistent so the safeguard chain escalates to a
// whole-process rollback instead of silently proceeding.
func TestRestoreDomainEscalations(t *testing.T) {
	_, p := buildProc(t)
	p.CPU.Run(50_000)
	store := checkpoint.NewStore()
	if _, err := store.RestoreDomain(p.CPU, machine.DomainHeap); err == nil {
		t.Fatal("rewind without any snapshot succeeded")
	}
	store.Save(p.CPU, 1)
	if _, err := p.CPU.Mem.Alloc(64); err != nil {
		t.Fatal(err)
	}
	_, err := store.RestoreDomain(p.CPU, machine.DomainHeap)
	if !errors.Is(err, machine.ErrDomainInconsistent) {
		t.Fatalf("heap rewind across an allocation epoch: %v, want ErrDomainInconsistent", err)
	}
	// The stack generation is unaffected by the heap's stale epoch (the
	// post-save allocation is not in the capture census, so proof 1
	// holds; proof 2 only scans the rewound domain).
	if _, err := store.RestoreDomain(p.CPU, machine.DomainStack); err != nil {
		t.Fatalf("stack rewind refused by an unrelated heap epoch: %v", err)
	}
}

// TestFullRestoreChargesLostWork: the policy study's lost-work metric —
// a whole-process restore books the discarded virtual-clock work, which
// domain rewinds (tested above) never do.
func TestFullRestoreChargesLostWork(t *testing.T) {
	_, p := buildProc(t)
	p.CPU.Run(10_000)
	store := checkpoint.NewStore()
	snap := store.Save(p.CPU, 1)
	p.CPU.Run(5_000)
	pre := p.CPU.Dyn
	if _, err := store.Restore(p.CPU, snap); err != nil {
		t.Fatal(err)
	}
	want := int64(pre - snap.CPU.Dyn)
	if want <= 0 {
		t.Fatal("test degenerate: no work to lose")
	}
	if got := store.Trace().Counter(checkpoint.CounterLostDyn); got != want {
		t.Errorf("%s = %d, want %d", checkpoint.CounterLostDyn, got, want)
	}
}

// TestSnapshotBytesCountWholeSegments pins the §5.4 cost model's input:
// Snapshot.Bytes, DomainSnapshot.Bytes and MappedBytes count every
// segment's full extent, not the pages that were ever written, so the
// modelled checkpoint sizes do not depend on how the machine stores
// memory. The values were recorded when copy-on-write still copied
// whole segments.
func TestSnapshotBytesCountWholeSegments(t *testing.T) {
	_, p := buildProc(t)
	p.CPU.Run(50_000)
	s := checkpoint.Capture(p.CPU, 1)
	if got, want := s.Mem.Bytes(), 1071933; got != want {
		t.Errorf("memory snapshot Bytes = %d, want %d", got, want)
	}
	if got, want := s.Bytes(), 1072205; got != want {
		t.Errorf("checkpoint Bytes = %d, want %d", got, want)
	}
	if got, want := p.CPU.Mem.MappedBytes(), 1076800; got != want {
		t.Errorf("MappedBytes = %d, want %d", got, want)
	}
	for d, want := range map[machine.DomainID]int{machine.DomainHeap: 23040, machine.DomainStack: 1 << 20} {
		if got := s.Mem.DomainView(d).Bytes(); got != want {
			t.Errorf("%v domain view Bytes = %d, want %d", d, got, want)
		}
	}
}

// TestSnapshotMatchesEveryField pins Snapshot.Matches: a CPU matches the
// snapshot it was captured into, and a difference in any single field
// fails the match. Floats compare by bit pattern, so +0 and -0, and two
// NaNs with different payloads, differ.
func TestSnapshotMatchesEveryField(t *testing.T) {
	_, p := buildProc(t)
	for len(p.Results()) == 0 {
		if st := p.CPU.Run(5_000); st != machine.StatusLimit {
			t.Fatalf("run ended (%v) before its first result", st)
		}
	}
	p.CPU.F[2] = 0
	p.CPU.F[3] = math.Float64frombits(0x7ff8_0000_0000_0001)
	p.Env.Printed = append(p.Env.Printed, "line")
	snap := checkpoint.Capture(p.CPU, 1)
	if !snap.Matches(p.CPU) {
		t.Fatal("a CPU does not match its own capture")
	}
	for _, tc := range []struct {
		name   string
		mutate func(c *machine.CPU)
	}{
		{"R", func(c *machine.CPU) { c.R[machine.R1] ^= 1 }},
		{"F/+0-vs--0", func(c *machine.CPU) { c.F[2] = math.Copysign(0, -1) }},
		{"F/nan-payload", func(c *machine.CPU) { c.F[3] = math.Float64frombits(0x7ff8_0000_0000_0002) }},
		{"PC", func(c *machine.CPU) { c.PC += 8 }},
		{"Dyn", func(c *machine.CPU) { c.Dyn++ }},
		{"EnvResults/value", func(c *machine.CPU) { c.Env.Results[0] = math.Nextafter(c.Env.Results[0], math.Inf(1)) }},
		{"EnvResults/length", func(c *machine.CPU) { c.Env.Results = append(c.Env.Results, 0) }},
		{"EnvPrinted", func(c *machine.CPU) { c.Env.Printed[len(c.Env.Printed)-1] = "other" }},
		{"memory", func(c *machine.CPU) {
			addr := c.R[machine.SP]
			v, _ := c.Mem.Read(addr)
			if f := c.Mem.Write(addr, v+1); f != nil {
				t.Fatal(f)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, q := buildProc(t)
			snap.Apply(q.CPU)
			if !snap.Matches(q.CPU) {
				t.Fatal("a CPU does not match the snapshot applied to it")
			}
			tc.mutate(q.CPU)
			if snap.Matches(q.CPU) {
				t.Fatalf("a CPU with a different %s matches", tc.name)
			}
		})
	}
}
