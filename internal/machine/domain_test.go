package machine

import (
	"errors"
	"testing"
)

// TestClassifyDomain pins the address-to-domain map over the fixed
// prelinked layout, including the boundary addresses (every region's
// base belongs to that region).
func TestClassifyDomain(t *testing.T) {
	cases := []struct {
		addr Word
		want DomainID
	}{
		{0, DomainCode},
		{AppCodeBase, DomainCode},
		{AppGlobalBase - 1, DomainCode},
		{AppGlobalBase, DomainGlobals},
		{HeapBase - 1, DomainGlobals},
		{HeapBase, DomainHeap},
		{HeapBase + (1 << 40), DomainHeap},
		{LibCodeBase - 1, DomainHeap},
		{LibCodeBase, DomainLib},
		{ScratchStackTop - ScratchStackSize - 1, DomainLib},
		{ScratchStackTop - ScratchStackSize, DomainScratch},
		{ScratchStackTop - 1, DomainScratch},
		{ScratchStackTop, DomainStack},
		{StackTop, DomainStack},
	}
	for _, tc := range cases {
		if got := ClassifyDomain(tc.addr); got != tc.want {
			t.Errorf("ClassifyDomain(0x%x) = %v, want %v", tc.addr, got, tc.want)
		}
	}
}

// TestSegmentDomainTags: Map tags every segment with its base's domain,
// and FaultDomain resolves through the segment tag for mapped addresses
// but falls back to the fixed-layout classification for wild ones.
func TestSegmentDomainTags(t *testing.T) {
	m := NewMemory()
	g, err := m.Map(AppGlobalBase, 0x100, "globals")
	if err != nil {
		t.Fatal(err)
	}
	hb, err := m.Alloc(0x100)
	if err != nil {
		t.Fatal(err)
	}
	if g.Domain != DomainGlobals {
		t.Errorf("globals segment tagged %v", g.Domain)
	}
	if s := m.Find(hb); s == nil || s.Domain != DomainHeap {
		t.Errorf("heap segment tagged %v", m.Find(hb).Domain)
	}
	if d := m.FaultDomain(hb + 8); d != DomainHeap {
		t.Errorf("FaultDomain(mapped heap) = %v", d)
	}
	if d := m.FaultDomain(HeapBase + (1 << 40)); d != DomainHeap {
		t.Errorf("FaultDomain(wild heap) = %v", d)
	}
	if d := m.FaultDomain(StackTop + 8); d != DomainStack {
		t.Errorf("FaultDomain(wild stack) = %v", d)
	}
}

// TestSnapshotDomainIsolation is the domain rewind's core contract: a
// domain's image copies no bytes (the view aliases the snapshot's
// frozen pages), and rewinding it restores exactly that domain's
// contents while every other domain keeps its post-capture progress.
func TestSnapshotDomainIsolation(t *testing.T) {
	m := NewMemory()
	if _, err := m.Map(AppGlobalBase, 0x100, "globals"); err != nil {
		t.Fatal(err)
	}
	hb, err := m.Alloc(0x100)
	if err != nil {
		t.Fatal(err)
	}
	if f := m.Write(AppGlobalBase, 1); f != nil {
		t.Fatal(f)
	}
	if f := m.Write(hb, 10); f != nil {
		t.Fatal(f)
	}

	gen0 := m.gen
	sn := m.Snapshot().DomainView(DomainGlobals)
	if sn == nil || sn.Domain != DomainGlobals || len(sn.Segs) != 1 {
		t.Fatalf("globals capture: %+v", sn)
	}
	if m.gen == gen0 {
		t.Error("Snapshot did not invalidate inline caches (gen unchanged)")
	}
	if live := &m.Find(AppGlobalBase).pages[0]; !live.frozen || !sameBacking(sn.Segs[0].Pages[0], live.data) {
		t.Error("capture copied the globals page instead of freezing and aliasing it")
	}
	// The census must cover every writable segment, heap included.
	heapCensused := false
	for _, l := range sn.Layout {
		if l.Domain == DomainHeap && l.Base == hb {
			heapCensused = true
		}
	}
	if !heapCensused {
		t.Errorf("capture layout misses the heap segment: %+v", sn.Layout)
	}

	// Both domains diverge after the capture.
	if f := m.Write(AppGlobalBase, 2); f != nil {
		t.Fatal(f)
	}
	if f := m.Write(hb, 20); f != nil {
		t.Fatal(f)
	}
	gen1 := m.gen
	if err := m.RestoreDomain(sn); err != nil {
		t.Fatal(err)
	}
	if m.gen == gen1 {
		t.Error("RestoreDomain did not invalidate inline caches (gen unchanged)")
	}
	if v, _ := m.Read(AppGlobalBase); v != 1 {
		t.Errorf("rewound globals read %d, want the captured 1", v)
	}
	if v, _ := m.Read(hb); v != 20 {
		t.Errorf("heap value after a globals rewind = %d, want the live 20 (other domains must keep their progress)", v)
	}

	// Segment identity survives the rewind (image handles stay valid)
	// and the restored bytes are copy-on-write: a post-rewind store must
	// not corrupt the snapshot for a second rewind.
	if f := m.Write(AppGlobalBase, 3); f != nil {
		t.Fatal(f)
	}
	if err := m.RestoreDomain(sn); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Read(AppGlobalBase); v != 1 {
		t.Errorf("second rewind reads %d, want 1 (restore did not re-freeze)", v)
	}

	// A domain with no writable segments has nothing to capture.
	if sn := m.Snapshot().DomainView(DomainStack); sn != nil {
		t.Errorf("empty-domain capture returned %+v, want nil", sn)
	}
	if err := m.RestoreDomain(nil); err == nil {
		t.Error("nil rewind succeeded")
	}
}

// TestRestoreDomainConsistencyGuards covers the two proofs that make a
// partial rewind safe: a post-capture allocation in the rewound domain
// (a stale allocation epoch) and a remapped segment anywhere in the
// writable census both refuse with ErrDomainInconsistent — except the
// scratch stack, which is transient recovery-runtime state and exempt.
func TestRestoreDomainConsistencyGuards(t *testing.T) {
	t.Run("stale-allocation-epoch", func(t *testing.T) {
		m := NewMemory()
		a, err := m.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		if f := m.Write(a, 5); f != nil {
			t.Fatal(f)
		}
		sn := m.Snapshot().DomainView(DomainHeap)
		if _, err := m.Alloc(64); err != nil {
			t.Fatal(err)
		}
		err = m.RestoreDomain(sn)
		if !errors.Is(err, ErrDomainInconsistent) {
			t.Fatalf("rewind across an allocation epoch: %v, want ErrDomainInconsistent", err)
		}
		// A refused rewind must change nothing.
		if f := m.Write(a, 6); f != nil {
			t.Fatal(f)
		}
		if v, _ := m.Read(a); v != 6 {
			t.Errorf("refused rewind mutated memory: %d", v)
		}
	})

	t.Run("censused-segment-remapped", func(t *testing.T) {
		m := NewMemory()
		if _, err := m.Map(AppGlobalBase, 0x100, "globals"); err != nil {
			t.Fatal(err)
		}
		hb, err := m.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		sn := m.Snapshot().DomainView(DomainGlobals)
		m.Unmap(m.Find(hb))
		if err := m.RestoreDomain(sn); !errors.Is(err, ErrDomainInconsistent) {
			t.Fatalf("rewind with a censused segment unmapped: %v, want ErrDomainInconsistent", err)
		}
	})

	t.Run("scratch-exempt", func(t *testing.T) {
		m := NewMemory()
		if _, err := m.Map(AppGlobalBase, 0x100, "globals"); err != nil {
			t.Fatal(err)
		}
		scratch, err := m.Map(ScratchStackTop-ScratchStackSize, int(ScratchStackSize), "sigaltstack")
		if err != nil {
			t.Fatal(err)
		}
		if scratch.Domain != DomainScratch {
			t.Fatalf("scratch segment tagged %v", scratch.Domain)
		}
		sn := m.Snapshot().DomainView(DomainGlobals)
		m.Unmap(scratch)
		if err := m.RestoreDomain(sn); err != nil {
			t.Fatalf("scratch-stack churn blocked an unrelated rewind: %v", err)
		}
	})
}

// TestRestoreDomainHeapNext: a heap rewind also rewinds the bump
// pointer, so address space discarded with the stale epoch is reused
// instead of leaking.
func TestRestoreDomainHeapNext(t *testing.T) {
	m := NewMemory()
	a, err := m.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if f := m.Write(a, 5); f != nil {
		t.Fatal(f)
	}
	sn := m.Snapshot().DomainView(DomainHeap)
	b, err := m.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the post-capture allocation so the epoch guard passes; the
	// bump pointer still points past it.
	m.Unmap(m.Find(b))
	if f := m.Write(a, 6); f != nil {
		t.Fatal(f)
	}
	if err := m.RestoreDomain(sn); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Read(a); v != 5 {
		t.Errorf("rewound heap reads %d, want 5", v)
	}
	b2, err := m.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if b2 != b {
		t.Errorf("post-rewind allocation at 0x%x, want the rewound bump pointer 0x%x", b2, b)
	}
}

// TestDomainView: a full snapshot decomposes into per-domain views that
// alias the frozen segments (the checkpoint store builds its domain
// generations this way, so a full save must cost no extra copies).
func TestDomainView(t *testing.T) {
	m := NewMemory()
	if _, err := m.Map(AppGlobalBase, 0x100, "globals"); err != nil {
		t.Fatal(err)
	}
	hb, err := m.Alloc(0x100)
	if err != nil {
		t.Fatal(err)
	}
	if f := m.Write(hb, 7); f != nil {
		t.Fatal(f)
	}
	sn := m.Snapshot()
	v := sn.DomainView(DomainHeap)
	if v == nil || len(v.Segs) != 1 || v.Segs[0].Base != hb {
		t.Fatalf("heap view: %+v", v)
	}
	if v.HeapNext != sn.HeapNext {
		t.Errorf("heap view bump pointer 0x%x, want 0x%x", v.HeapNext, sn.HeapNext)
	}
	if len(v.Layout) != len(sn.Segs) {
		t.Errorf("view census covers %d segments, want all %d writable ones", len(v.Layout), len(sn.Segs))
	}
	if sn.DomainView(DomainStack) != nil {
		t.Error("view of an absent domain is non-nil")
	}
	// The view is a valid rewind source.
	if f := m.Write(hb, 8); f != nil {
		t.Fatal(f)
	}
	if err := m.RestoreDomain(v); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.Read(hb); got != 7 {
		t.Errorf("view rewind reads %d, want 7", got)
	}
}
