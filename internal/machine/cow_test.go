package machine

import (
	"runtime"
	"testing"

	"care/internal/debuginfo"
)

// smallProg assembles a two-instruction program with an initialised
// global, the minimal image exercising both the shared .text and the
// copy-on-write .data mappings.
func smallProg(name string) *Program {
	return &Program{
		Name:     name,
		CodeBase: AppCodeBase,
		Code: []MInstr{
			{Op: MMovImm, Rd: R1, Imm: 7},
			{Op: MHalt, Ra: R1},
		},
		Funcs:      []FuncSym{{Name: "_start", Entry: 0}},
		GlobalBase: AppGlobalBase,
		GlobalInit: []byte{1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0},
		Debug:      debuginfo.New(),
	}
}

// TestStoreToCodeFaults is the guard on the shared .text mapping: code
// is readable (a data load straying into .text sees the packed
// encoding, as on a real machine) but a store to it must fault with
// SIGSEGV rather than corrupt the image every process shares.
func TestStoreToCodeFaults(t *testing.T) {
	p := smallProg("app")
	p.SealCode()
	mem := NewMemory()
	img, err := Load(mem, p)
	if err != nil {
		t.Fatal(err)
	}
	if img.CodeSeg == nil || !img.CodeSeg.ReadOnly() {
		t.Fatal("code segment is not mapped read-only")
	}
	want, f := mem.Read(p.CodeBase)
	if f != nil {
		t.Fatalf("read from code faulted: %v", f)
	}
	if want == 0 {
		t.Fatal("code read back as zero; packing is empty")
	}
	if f := mem.Write(p.CodeBase, 0xdead); f == nil || f.Sig != SigSEGV {
		t.Fatalf("store to code fault = %v, want SIGSEGV", f)
	}
	if got, _ := mem.Read(p.CodeBase); got != want {
		t.Fatalf("faulting store mutated code: 0x%x -> 0x%x", want, got)
	}
}

// TestSharedCodeBacking asserts the zero-copy Load: every process of a
// sealed program maps pages of the same .text backing array, while
// unsealed (hand-assembled) programs get private packings.
func TestSharedCodeBacking(t *testing.T) {
	p := smallProg("app")
	p.SealCode()
	m1, m2 := NewMemory(), NewMemory()
	i1, err := Load(m1, p)
	if err != nil {
		t.Fatal(err)
	}
	i2, err := Load(m2, p)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBacking(i1.CodeSeg.pages[0].data, i2.CodeSeg.pages[0].data) {
		t.Error("two loads of a sealed program do not share the code page")
	}
	if !sameBacking(i1.CodeSeg.pages[0].data, p.CodeImage()) {
		t.Error("the code page does not alias the program's sealed image")
	}
	u := smallProg("unsealed")
	j1, err := Load(NewMemory(), u)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := Load(NewMemory(), u)
	if err != nil {
		t.Fatal(err)
	}
	if sameBacking(j1.CodeSeg.pages[0].data, j2.CodeSeg.pages[0].data) {
		t.Error("loads of an unsealed program share a packing that was never published")
	}
}

// sameBacking reports whether two non-empty byte slices start at the
// same address (alias one backing array).
func sameBacking(a, b []byte) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// TestGlobalsCopyOnWrite asserts the .data mapping: loads alias the
// program's initial image page until the first store, which
// materialises a private copy of that page without touching the shared
// bytes other processes read.
func TestGlobalsCopyOnWrite(t *testing.T) {
	p := smallProg("app")
	p.SealCode()
	m1, m2 := NewMemory(), NewMemory()
	i1, err := Load(m1, p)
	if err != nil {
		t.Fatal(err)
	}
	i2, err := Load(m2, p)
	if err != nil {
		t.Fatal(err)
	}
	g1, g2 := &i1.GlobalSeg.pages[0], &i2.GlobalSeg.pages[0]
	if !g1.frozen || !sameBacking(g1.data, g2.data) || !sameBacking(g1.data, p.GlobalInit) {
		t.Fatal("fresh loads do not share the initial globals page")
	}
	if f := m1.Write(p.GlobalBase, 99); f != nil {
		t.Fatal(f)
	}
	if g1.frozen || sameBacking(g1.data, p.GlobalInit) {
		t.Error("stored-to page still aliases the initial image")
	}
	if !g2.frozen {
		t.Error("sibling process's page thawed by the other's store")
	}
	if v, _ := m1.Read(p.GlobalBase); v != 99 {
		t.Errorf("writer reads %d, want 99", v)
	}
	if v, _ := m2.Read(p.GlobalBase); v != 1 {
		t.Errorf("sibling process reads %d after the other's store, want 1", v)
	}
	if p.GlobalInit[0] != 1 {
		t.Errorf("store leaked into Program.GlobalInit: %d", p.GlobalInit[0])
	}
}

// TestSnapshotRestoreCOW pins the freeze-alias-materialise cycle behind
// warm starts: a snapshot charges no copy, post-snapshot stores
// materialise privately, and any number of restores share the frozen
// pages until each diverges.
func TestSnapshotRestoreCOW(t *testing.T) {
	m := NewMemory()
	if _, err := m.Map(0x10000, 0x1000, "seg"); err != nil {
		t.Fatal(err)
	}
	if f := m.Write(0x10000, 1); f != nil {
		t.Fatal(f)
	}
	sn := m.Snapshot()
	live := &m.Find(0x10000).pages[0]
	if !live.frozen || !sameBacking(live.data, sn.Segs[0].Pages[0]) {
		t.Fatal("snapshot did not freeze and alias the live page")
	}
	// Post-snapshot store: the live memory diverges, the snapshot holds.
	if f := m.Write(0x10000, 2); f != nil {
		t.Fatal(f)
	}
	r1, r2 := NewMemory(), NewMemory()
	r1.Restore(sn)
	r2.Restore(sn)
	if !sameBacking(r1.Find(0x10000).pages[0].data, r2.Find(0x10000).pages[0].data) {
		t.Error("two restores do not share the frozen page")
	}
	if v, _ := r1.Read(0x10000); v != 1 {
		t.Errorf("restored memory reads %d, want the snapshotted 1", v)
	}
	if f := r1.Write(0x10000, 3); f != nil {
		t.Fatal(f)
	}
	if v, _ := r2.Read(0x10000); v != 1 {
		t.Errorf("sibling restore reads %d after the other's store, want 1", v)
	}
	if v, _ := m.Read(0x10000); v != 2 {
		t.Errorf("live memory reads %d, want its diverged 2", v)
	}
	// Restoring a read-only-code memory keeps .text in place.
	p := smallProg("app")
	p.SealCode()
	mc := NewMemory()
	if _, err := Load(mc, p); err != nil {
		t.Fatal(err)
	}
	mc.Restore(sn)
	if mc.Find(p.CodeBase) == nil {
		t.Error("restore dropped the read-only code segment")
	}
	if v, _ := mc.Read(0x10000); v != 1 {
		t.Errorf("restore into a loaded memory reads %d, want 1", v)
	}
}

// TestPageGranularCOW: a store to one page of a frozen multi-page
// segment copies that page only. The segment's other pages keep
// aliasing the snapshot's images, and a sibling restore still reads the
// old value.
func TestPageGranularCOW(t *testing.T) {
	const base, size = 0x40000, 4*PageSize + 256
	m := NewMemory()
	if _, err := m.Map(base, size, "seg"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if f := m.Write(base+Word(i*PageSize), Word(10+i)); f != nil {
			t.Fatal(f)
		}
	}
	sn := m.Snapshot()
	r1, r2 := NewMemory(), NewMemory()
	r1.Restore(sn)
	r2.Restore(sn)
	if f := r1.Write(base+2*PageSize+8, 99); f != nil {
		t.Fatal(f)
	}
	s1 := r1.Find(base)
	for i := range s1.pages {
		p := &s1.pages[i]
		if i == 2 {
			if p.frozen || sameBacking(p.data, sn.Segs[0].Pages[i]) {
				t.Errorf("stored-to page %d still aliases the snapshot", i)
			}
			continue
		}
		if !p.frozen || !sameBacking(p.data, sn.Segs[0].Pages[i]) {
			t.Errorf("page %d was copied by a store to page 2", i)
		}
	}
	if got := len(s1.pages[4].data); got != 256 {
		t.Errorf("last page holds %d bytes, want the segment's 256-byte tail", got)
	}
	if v, _ := r1.Read(base + 2*PageSize); v != 12 {
		t.Errorf("materialised page lost its other words: %d, want 12", v)
	}
	if v, _ := r2.Read(base + 2*PageSize + 8); v != 0 {
		t.Errorf("sibling restore reads %d, want the snapshotted 0", v)
	}
	if v, _ := r2.Read(base + 2*PageSize); v != 12 {
		t.Errorf("sibling restore reads %d, want 12", v)
	}
}

// TestMapAllocatesNoPageData: mapping a 1 MiB stack aliases the zero
// page everywhere, unwritten memory reads 0, and the first store
// allocates exactly one page.
func TestMapAllocatesNoPageData(t *testing.T) {
	m := NewMemory()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := m.Map(StackTop-DefaultStackSize, DefaultStackSize, "stack")
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("mapping the stack allocated %d bytes, want the page table only (< 64 KiB)", got)
	}
	for i := range s.pages {
		if !s.pages[i].zero() || !s.pages[i].frozen {
			t.Fatalf("fresh page %d does not alias the frozen zero page", i)
		}
	}
	if v, f := m.Read(StackTop - 8); f != nil || v != 0 {
		t.Fatalf("unwritten stack reads %d, %v; want 0", v, f)
	}
	if f := m.Write(StackTop-8, 7); f != nil {
		t.Fatal(f)
	}
	private := 0
	for i := range s.pages {
		if !s.pages[i].zero() {
			private++
		}
	}
	if private != 1 {
		t.Errorf("first store materialised %d pages, want 1", private)
	}
	if zeroPage != [PageSize]byte{} {
		t.Fatal("a store reached the shared zero page")
	}
	if v, _ := m.Read(StackTop - 16); v != 0 {
		t.Errorf("neighbour of the first store reads %d, want 0", v)
	}
}

// TestStepAllocFree is the steady-state interpreter guard: stepping the
// bench loop must not allocate (the src2 closure this replaced cost one
// closure per ALU instruction).
func TestStepAllocFree(t *testing.T) {
	cpu := benchLoop(t, 1<<62)
	allocs := testing.AllocsPerRun(50, func() {
		if st := cpu.Run(1024); st != StatusLimit {
			t.Fatalf("status %v", st)
		}
	})
	if allocs != 0 {
		t.Errorf("step path allocates %.1f times per 1024-step run, want 0", allocs)
	}
}

// TestMemoryMatchesSnapshot pins Memory.Matches: equal contents match
// whether a page aliases the snapshot's image or holds a private copy,
// and any byte, segment or heap-pointer difference does not.
func TestMemoryMatchesSnapshot(t *testing.T) {
	const base, size = 0x40000, 3*PageSize + 256
	m := NewMemory()
	if _, err := m.Map(base, size, "seg"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Alloc(64); err != nil {
		t.Fatal(err)
	}
	if f := m.Write(base+PageSize, 0x1122334455667788); f != nil {
		t.Fatal(f)
	}
	sn := m.Snapshot()
	restored := func() *Memory {
		r := NewMemory()
		r.Restore(sn)
		return r
	}

	// A restore aliases every snapshot page: the identity path.
	r := restored()
	seg := r.Find(base)
	for i := range seg.pages {
		img := sn.Segs[0].Pages[i]
		if img != nil && !sameBacking(seg.pages[i].data, img) || img == nil && !seg.pages[i].zero() {
			t.Fatalf("restored page %d does not alias the snapshot", i)
		}
	}
	if !r.Matches(sn) {
		t.Fatal("restored memory does not match its snapshot")
	}

	// Storing the old value back materialises a private copy with equal
	// bytes: compared, and still a match.
	if f := r.Write(base+PageSize, 9); f != nil {
		t.Fatal(f)
	}
	if r.Matches(sn) {
		t.Fatal("a changed word matches")
	}
	if f := r.Write(base+PageSize, 0x1122334455667788); f != nil {
		t.Fatal(f)
	}
	if sameBacking(seg.pages[1].data, sn.Segs[0].Pages[1]) {
		t.Fatal("the store did not materialise the page")
	}
	if !r.Matches(sn) {
		t.Fatal("a materialised page with the snapshot's bytes does not match")
	}

	// One byte of difference in the last (short) page.
	r = restored()
	if f := r.Write(base+3*PageSize+248, 1<<56); f != nil {
		t.Fatal(f)
	}
	if r.Matches(sn) {
		t.Fatal("a one-byte difference matches")
	}

	// A materialised all-zero page equals a never-written (nil) snapshot
	// page, and a zero page equals a materialised all-zero image.
	r = restored()
	if sn.Segs[0].Pages[2] != nil {
		t.Fatal("page 2 was never written but the snapshot holds an image")
	}
	if f := r.Write(base+2*PageSize, 0); f != nil {
		t.Fatal(f)
	}
	if r.Find(base).pages[2].zero() || !r.Matches(sn) {
		t.Fatal("a materialised zero page does not match the nil snapshot page")
	}
	zsn := r.Snapshot()
	if zsn.Segs[0].Pages[2] == nil || !restored().Matches(zsn) {
		t.Fatal("a zero page does not match a materialised all-zero image")
	}

	// An extra allocation adds a segment and moves the heap pointer.
	r = restored()
	if _, err := r.Alloc(8); err != nil {
		t.Fatal(err)
	}
	if r.Matches(sn) {
		t.Fatal("memory with an extra allocation matches")
	}
	// The heap pointer alone differs.
	r = restored()
	r.heapNext += PageSize
	if r.Matches(sn) {
		t.Fatal("memory with another heap pointer matches")
	}

	// A recovery kernel maps and writes the scratch stack, as
	// safeguard.runKernel does. The snapshot has nothing mapped there,
	// so the extra segment is no part of the comparison.
	scratchBase := ScratchStackTop - ScratchStackSize
	withScratch := func() *Memory {
		r := restored()
		if _, err := r.Map(scratchBase, ScratchStackSize, "sigaltstack"); err != nil {
			t.Fatal(err)
		}
		if f := r.Write(ScratchStackTop-8, 0xdead); f != nil {
			t.Fatal(f)
		}
		return r
	}
	if !withScratch().Matches(sn) {
		t.Fatal("memory with a scratch stack the snapshot lacks does not match")
	}
	// It still refuses a difference anywhere else.
	r = withScratch()
	if f := r.Write(base+PageSize, 9); f != nil {
		t.Fatal(f)
	}
	if r.Matches(sn) {
		t.Fatal("a changed word matches beside a scratch stack")
	}
	// An extra writable segment outside the scratch domain, just below
	// it, is compared as ever.
	r = restored()
	if _, err := r.Map(scratchBase-PageSize, PageSize, "lib.data"); err != nil {
		t.Fatal(err)
	}
	if ClassifyDomain(scratchBase-PageSize) == DomainScratch || r.Matches(sn) {
		t.Fatal("memory with an extra segment outside the scratch domain matches")
	}
	// A scratch segment the snapshot holds too is compared byte for byte.
	ssn := withScratch().Snapshot()
	r = NewMemory()
	r.Restore(ssn)
	if !r.Matches(ssn) {
		t.Fatal("restored memory with a scratch stack does not match its snapshot")
	}
	if f := r.Write(ScratchStackTop-16, 1); f != nil {
		t.Fatal(f)
	}
	if r.Matches(ssn) {
		t.Fatal("scratch stacks with different bytes match")
	}
}
