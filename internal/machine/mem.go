// Package machine implements the simulated execution substrate that
// stands in for x86_64/Linux in this reproduction: a 64-bit register
// machine with CISC-style base+index*scale+disp memory operands, a
// sparse segmented address space that raises SIGSEGV/SIGBUS faults, a
// resumable trap mechanism (the analogue of POSIX signal handlers that
// may patch the interrupted context), and a disassembler used by the
// Safeguard runtime to identify the faulting operand.
package machine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"care/internal/hostenv"
)

// Word is a 64-bit machine word.
type Word = uint64

// Default address-space layout. All images are linked at fixed bases
// (prelinked, in effect), so no load-time relocation is needed and every
// process of the same binary sees identical addresses — which keeps
// fault-injection campaigns deterministic.
const (
	// AppCodeBase is where the main executable's code is mapped.
	AppCodeBase Word = 0x0000_0000_0040_0000
	// AppGlobalBase is where the main executable's globals live.
	AppGlobalBase Word = 0x0000_0000_1000_0000
	// LibCodeBase is the base for the first shared library; subsequent
	// libraries are spaced LibStride apart.
	LibCodeBase Word = 0x0000_4000_0000_0000
	// LibStride separates consecutive library images.
	LibStride Word = 0x0000_0000_1000_0000
	// HeapBase is the bottom of the simulated heap.
	HeapBase Word = 0x0000_2000_0000_0000
	// StackTop is the top of the main stack (stack grows down).
	StackTop Word = 0x0000_7fff_fff0_0000
	// DefaultStackSize is the main stack size in bytes.
	DefaultStackSize = 1 << 20
	// ScratchStackTop is the top of the signal-handler scratch stack
	// used when Safeguard executes a recovery kernel.
	ScratchStackTop Word = 0x0000_7fff_0000_0000
	// ScratchStackSize is the scratch stack size in bytes.
	ScratchStackSize = 64 << 10
	// HeapGuard is the unmapped gap left between heap allocations so
	// that modest address corruptions fall off the mapped space, as
	// they do between real mmap'd regions.
	HeapGuard Word = 4096
	// AddrMask is the canonical-address mask: addresses with any bit
	// above bit 47 set are never mappable (as on x86_64).
	AddrMask Word = (1 << 48) - 1
)

// Signal identifies a hardware-trap class, mirroring the POSIX signals
// the paper's fault study classifies crashes by.
type Signal uint8

const (
	// SigNone means no signal.
	SigNone Signal = iota
	// SigSEGV is an access to an unmapped address.
	SigSEGV
	// SigBUS is a misaligned access to a mapped address.
	SigBUS
	// SigFPE is an integer divide error.
	SigFPE
	// SigABRT is an abort (assertion failure or abort() host call).
	SigABRT
	// SigILL is an attempt to execute a non-code address.
	SigILL
	// SigTRAP is a deterministic detection trap raised by a
	// detection-only defense pass (PRESAGE chain check, SFI bounds
	// check) via the care_detect host call.
	SigTRAP
)

// String returns the conventional signal name.
func (s Signal) String() string {
	switch s {
	case SigNone:
		return "NONE"
	case SigSEGV:
		return "SIGSEGV"
	case SigBUS:
		return "SIGBUS"
	case SigFPE:
		return "SIGFPE"
	case SigABRT:
		return "SIGABRT"
	case SigILL:
		return "SIGILL"
	case SigTRAP:
		return "SIGTRAP"
	}
	return fmt.Sprintf("SIG(%d)", uint8(s))
}

// Fault describes a failed memory access.
type Fault struct {
	Sig  Signal
	Addr Word
}

// Error implements error.
func (f *Fault) Error() string { return fmt.Sprintf("%s at 0x%x", f.Sig, f.Addr) }

// PageSize is the copy-on-write granularity. A segment is a table of
// PageSize-byte pages (the last one may be shorter), and every page is
// either private to its memory or frozen: shared with a snapshot,
// another process, a program image, or the zero page. The first store
// to a frozen page copies that page only.
const PageSize = 4096

// zeroPage backs every page that was never written. It is an array
// variable rather than a make'd slice, so it lives outside the Go heap.
// Pages aliasing it are frozen, so nothing ever stores to it.
var zeroPage [PageSize]byte

// page is one slot of a segment's page table. data's length is fixed
// for the life of the slot; materialisation swaps data in place, which
// is what keeps the engine's inline caches (which hold *page) coherent.
type page struct {
	data   []byte
	frozen bool
}

// zero reports whether the page still aliases the zero page.
func (p *page) zero() bool { return &p.data[0] == &zeroPage[0] }

// holds reports whether the page's bytes equal img, a snapshot page
// image (nil = the zero page). A page still aliasing img, or the zero
// page against a nil image, is equal without being read.
func (p *page) holds(img []byte) bool {
	if img == nil {
		if p.zero() {
			return true
		}
		img = zeroPage[:len(p.data)]
	} else if len(img) == len(p.data) && &img[0] == &p.data[0] {
		return true
	}
	return bytes.Equal(p.data, img)
}

// materialize replaces a frozen page's aliased bytes with a private
// copy; the copy-on-write fault path of a store.
func (p *page) materialize() {
	d := make([]byte, len(p.data))
	if !p.zero() {
		copy(d, p.data)
	}
	p.data, p.frozen = d, false
}

// Segment is a contiguous mapped region.
type Segment struct {
	Base Word
	Name string
	// Domain is the isolation domain the segment belongs to, assigned
	// from the fixed address-space layout when the segment is mapped
	// (Map/MapShared/MapCOW all tag through insert).
	Domain DomainID
	// ro marks an immutable mapping (code/rodata): stores fault with
	// SIGSEGV, and snapshots neither freeze nor restore the segment. The
	// backing pages may be shared by every process of the same binary.
	ro    bool
	size  int
	pages []page
}

// End returns one past the last mapped byte.
func (s *Segment) End() Word { return s.Base + Word(s.size) }

// Size returns the segment's length in bytes.
func (s *Segment) Size() int { return s.size }

// ReadOnly reports whether stores to the segment fault.
func (s *Segment) ReadOnly() bool { return s.ro }

// Bytes returns a contiguous copy of the segment's contents (for tests
// and diagnostics; execution reads the pages in place).
func (s *Segment) Bytes() []byte {
	b := make([]byte, 0, s.size)
	for i := range s.pages {
		b = append(b, s.pages[i].data...)
	}
	return b
}

// pageLen is the length of page i of a size-byte segment.
func pageLen(size, i int) int { return min(PageSize, size-i*PageSize) }

// pageCount is the number of pages of a size-byte segment.
func pageCount(size int) int { return (size + PageSize - 1) / PageSize }

// slot returns the page holding segment offset off.
func (s *Segment) slot(off Word) *page { return &s.pages[off/PageSize] }

// setFrozen points the segment's page slots at frozen images, one per
// page; a nil image is the zero page.
func (s *Segment) setFrozen(images [][]byte) {
	for i, d := range images {
		if d == nil {
			d = zeroPage[:pageLen(s.size, i)]
		}
		s.pages[i] = page{data: d, frozen: true}
	}
}

// freeze marks every page frozen and returns the segment's image, which
// aliases the pages instead of copying them. pages must hold one entry
// per page; it becomes SegSnapshot.Pages.
func (s *Segment) freeze(pages [][]byte) SegSnapshot {
	for i := range s.pages {
		p := &s.pages[i]
		p.frozen = true
		if !p.zero() {
			pages[i] = p.data
		}
	}
	return SegSnapshot{Base: s.Base, Name: s.Name, Size: s.size, Pages: pages, Domain: s.Domain}
}

// Memory is a sparse, segmented 48-bit address space.
type Memory struct {
	segs []*Segment
	// heapNext is the bump pointer for Alloc.
	heapNext Word
	// cache holds the most recently hit segment (cheap 1-entry TLB).
	cache *Segment
	// gen is the mapping generation, bumped whenever a segment is
	// removed or replaced (Unmap, Restore) or pages are frozen
	// (Snapshot, RestoreDomain). The execution engine's
	// per-instruction memory inline caches hold *page references
	// stamped with the generation they were filled at; a bump
	// invalidates every cache at once. Map never bumps: adding a
	// segment cannot make a cached (page, generation) pair stale, and
	// COW materialisation keeps page-slot identity (only the slot's
	// data is swapped), which the cache hit path reads per access.
	gen uint64
}

// NewMemory returns an empty address space with the heap initialised.
func NewMemory() *Memory {
	return &Memory{heapNext: HeapBase, gen: 1}
}

// insert places a segment into the sorted list after range checks.
func (m *Memory) insert(s *Segment) error {
	base, size := s.Base, s.size
	if size <= 0 {
		return fmt.Errorf("machine: map %s: empty segment", s.Name)
	}
	// An 8-aligned base puts every page boundary on a word boundary, so
	// an aligned access never straddles two pages.
	if base&7 != 0 {
		return fmt.Errorf("machine: map %s: base 0x%x is not 8-byte aligned", s.Name, base)
	}
	if base&^AddrMask != 0 || (base+Word(size))&^AddrMask != 0 || base+Word(size) < base {
		return fmt.Errorf("machine: map %s: non-canonical range [0x%x,0x%x)", s.Name, base, base+Word(size))
	}
	i := sort.Search(len(m.segs), func(i int) bool { return m.segs[i].Base >= base })
	if i > 0 && m.segs[i-1].End() > base {
		return fmt.Errorf("machine: map %s at 0x%x overlaps %s", s.Name, base, m.segs[i-1].Name)
	}
	if i < len(m.segs) && m.segs[i].Base < base+Word(size) {
		return fmt.Errorf("machine: map %s at 0x%x overlaps %s", s.Name, base, m.segs[i].Name)
	}
	s.Domain = ClassifyDomain(base)
	m.segs = append(m.segs, nil)
	copy(m.segs[i+1:], m.segs[i:])
	m.segs[i] = s
	return nil
}

// Map adds a zeroed segment of size bytes at base. Its pages alias the
// zero page until first stored to, so mapping allocates no page data.
// It returns an error if the range is non-canonical, empty, misaligned,
// or overlaps an existing segment.
func (m *Memory) Map(base Word, size int, name string) (*Segment, error) {
	return m.mapFrozen(&Segment{Base: base, Name: name, size: size}, nil)
}

// MapShared maps immutable bytes at base without copying them: the
// segment is read-only (stores fault with SIGSEGV) and its pages alias
// the caller's slice, so every process of the same binary shares one
// backing array. The caller must never mutate data afterwards.
func (m *Memory) MapShared(base Word, data []byte, name string) (*Segment, error) {
	return m.mapFrozen(&Segment{Base: base, Name: name, size: len(data), ro: true}, data)
}

// MapCOW maps frozen bytes at base copy-on-write: reads see the shared
// data, and the first store to a page materialises a private copy of
// that page. The caller must never mutate data afterwards.
func (m *Memory) MapCOW(base Word, data []byte, name string) (*Segment, error) {
	return m.mapFrozen(&Segment{Base: base, Name: name, size: len(data)}, data)
}

// mapFrozen inserts s with every page frozen: slices of image, or the
// zero page when image is nil.
func (m *Memory) mapFrozen(s *Segment, image []byte) (*Segment, error) {
	if err := m.insert(s); err != nil {
		return nil, err
	}
	s.pages = make([]page, pageCount(s.size))
	for i := range s.pages {
		lo, n := i*PageSize, pageLen(s.size, i)
		d := zeroPage[:n]
		if image != nil {
			d = image[lo : lo+n : lo+n]
		}
		s.pages[i] = page{data: d, frozen: true}
	}
	return s, nil
}

// Unmap removes a segment previously returned by Map.
func (m *Memory) Unmap(s *Segment) {
	for i, x := range m.segs {
		if x == s {
			m.segs = append(m.segs[:i], m.segs[i+1:]...)
			if m.cache == s {
				m.cache = nil
			}
			m.gen++
			return
		}
	}
}

// Find returns the segment containing addr, or nil.
func (m *Memory) Find(addr Word) *Segment {
	if c := m.cache; c != nil && addr >= c.Base && addr < c.End() {
		return c
	}
	i := sort.Search(len(m.segs), func(i int) bool { return m.segs[i].End() > addr })
	if i < len(m.segs) && m.segs[i].Base <= addr {
		m.cache = m.segs[i]
		return m.segs[i]
	}
	return nil
}

// Segments returns the mapped segments in address order (shared slice;
// callers must not mutate).
func (m *Memory) Segments() []*Segment { return m.segs }

// MappedBytes returns the total mapped size.
func (m *Memory) MappedBytes() int {
	n := 0
	for _, s := range m.segs {
		n += s.size
	}
	return n
}

// Read reads an 8-byte word; the access must be aligned and mapped.
func (m *Memory) Read(addr Word) (Word, *Fault) {
	s := m.Find(addr)
	if s == nil || addr+8 > s.End() {
		return 0, &Fault{Sig: SigSEGV, Addr: addr}
	}
	if addr&7 != 0 {
		return 0, &Fault{Sig: SigBUS, Addr: addr}
	}
	off := addr - s.Base
	return binary.LittleEndian.Uint64(s.slot(off).data[off%PageSize:]), nil
}

// Write writes an 8-byte word; the access must be aligned, mapped and
// writable (stores to read-only code segments fault like stores to
// unmapped memory — SIGSEGV, as a store through a corrupted pointer
// into .text would on a real machine).
func (m *Memory) Write(addr Word, v Word) *Fault {
	s := m.Find(addr)
	if s == nil || addr+8 > s.End() || s.ro {
		return &Fault{Sig: SigSEGV, Addr: addr}
	}
	if addr&7 != 0 {
		return &Fault{Sig: SigBUS, Addr: addr}
	}
	off := addr - s.Base
	p := s.slot(off)
	if p.frozen {
		p.materialize()
	}
	binary.LittleEndian.PutUint64(p.data[off%PageSize:], v)
	return nil
}

// ReadFloat reads a word and reinterprets it as a float64.
func (m *Memory) ReadFloat(addr Word) (float64, *Fault) {
	w, f := m.Read(addr)
	return math.Float64frombits(w), f
}

// WriteFloat writes a float64's bit pattern.
func (m *Memory) WriteFloat(addr Word, v float64) *Fault {
	return m.Write(addr, math.Float64bits(v))
}

// Alloc implements the heap: a bump allocator leaving HeapGuard-byte
// unmapped gaps between allocations.
func (m *Memory) Alloc(n Word) (Word, error) {
	if n == 0 {
		n = 8
	}
	n = (n + 7) &^ 7
	base := m.heapNext
	if _, err := m.Map(base, int(n), fmt.Sprintf("heap@0x%x", base)); err != nil {
		return 0, err
	}
	m.heapNext = base + n + HeapGuard
	// Keep allocations 4 KiB aligned for a page-like layout.
	m.heapNext = (m.heapNext + 4095) &^ 4095
	return base, nil
}

// memContext adapts Memory to hostenv.Context.
type memContext struct{ m *Memory }

func (c memContext) ReadWord(addr Word) (Word, error) {
	w, f := c.m.Read(addr)
	if f != nil {
		return 0, f
	}
	return w, nil
}

func (c memContext) WriteWord(addr Word, v Word) error {
	if f := c.m.Write(addr, v); f != nil {
		return f
	}
	return nil
}

func (c memContext) Alloc(n Word) (Word, error) { return c.m.Alloc(n) }

// HostContext returns the hostenv.Context view of this memory.
func (m *Memory) HostContext() hostenv.Context { return memContext{m} }

// Snapshot serialises all segments and the heap pointer; Restore brings
// the memory back to that state. This is the substrate used by the
// checkpoint/restart baseline.
type Snapshot struct {
	Segs     []SegSnapshot
	HeapNext Word
}

// SegSnapshot is one segment's saved image: its frozen pages, in
// order. Pages holds one entry per PageSize bytes of Size (the last may
// be shorter); a nil entry is a page that was never written and reads
// as zeros. The pages are shared, never mutated.
type SegSnapshot struct {
	Base  Word
	Name  string
	Size  int
	Pages [][]byte
	// Domain carries the segment's isolation domain, so the checkpoint
	// layer can build per-domain views of a full snapshot without
	// re-deriving the classification.
	Domain DomainID
}

// Validate reports whether Restore can map the image: an 8-aligned
// base, a positive size, one page per PageSize bytes of it, and every
// non-nil page exactly as long as its slot. Snapshot only produces valid
// images; decoders of stored ones must check theirs.
func (s *SegSnapshot) Validate() error {
	if s.Base&7 != 0 {
		return fmt.Errorf("machine: segment %s at misaligned base 0x%x", s.Name, s.Base)
	}
	if s.Size <= 0 || len(s.Pages) != pageCount(s.Size) {
		return fmt.Errorf("machine: segment %s has %d pages for %d bytes", s.Name, len(s.Pages), s.Size)
	}
	for i, p := range s.Pages {
		if p != nil && len(p) != pageLen(s.Size, i) {
			return fmt.Errorf("machine: segment %s page %d is %d bytes, want %d", s.Name, i, len(p), pageLen(s.Size, i))
		}
	}
	return nil
}

// Snapshot captures the writable memory image by freezing it instead of
// copying it: every page of every writable segment is frozen and the
// snapshot aliases the page images, so the capture is O(pages) and a
// page is copied only when (and if) the live memory stores to it again.
// Read-only code segments are excluded — they are immutable and shared
// by construction, exactly as ordinary checkpointing skips .text.
// Snapshots are therefore safe to Restore into many concurrent
// processes: all of them share the frozen pages until they diverge.
func (m *Memory) Snapshot() *Snapshot {
	sn := &Snapshot{HeapNext: m.heapNext}
	// Freezing pages invalidates any inline-cache slot that proved
	// in-place writability at fill time (icEntry.wlen), so it bumps the
	// generation exactly like Unmap and Restore. Snapshots are only
	// ever taken between engine invocations, so the engines' hoisted
	// generation stays sound.
	m.gen++
	n := 0
	for _, s := range m.segs {
		if !s.ro {
			n += len(s.pages)
		}
	}
	pages := make([][]byte, n)
	for _, s := range m.segs {
		if s.ro {
			continue
		}
		k := len(s.pages)
		sn.Segs = append(sn.Segs, s.freeze(pages[:k:k]))
		pages = pages[k:]
	}
	return sn
}

// Restore replaces the writable memory contents with the snapshot's.
// Read-only code segments are kept in place (code is immutable and not
// part of a snapshot); every restored page aliases the snapshot's
// frozen image copy-on-write, so restoring into N processes shares one
// copy of each page until each process stores to it. A restore is a
// page-table copy: the segments and all their page slots come from two
// allocations.
func (m *Memory) Restore(sn *Snapshot) {
	kept := m.segs[:0]
	for _, s := range m.segs {
		if s.ro {
			kept = append(kept, s)
		}
	}
	m.segs = kept
	m.cache = nil
	m.gen++
	m.heapNext = sn.HeapNext
	n := 0
	for i := range sn.Segs {
		n += len(sn.Segs[i].Pages)
	}
	slots := make([]page, n)
	segs := make([]Segment, len(sn.Segs))
	for i := range sn.Segs {
		ss := &sn.Segs[i]
		k := len(ss.Pages)
		// Re-derive the tag rather than trusting the snapshot: domains
		// are a pure function of the fixed layout, and hand-built
		// snapshots (tests, decoders) may not have filled the field.
		s := &segs[i]
		*s = Segment{Base: ss.Base, Name: ss.Name, Domain: ClassifyDomain(ss.Base), size: ss.Size, pages: slots[:k:k]}
		slots = slots[k:]
		s.setFrozen(ss.Pages)
		m.segs = append(m.segs, s)
	}
	sort.Slice(m.segs, func(i, j int) bool { return m.segs[i].Base < m.segs[j].Base })
}

// Matches reports whether the writable memory holds exactly the
// snapshot's image: the same writable segments (base, name and size, in
// address order), the same heap pointer, and equal bytes in every page.
// Pages that still alias the snapshot's frozen images (every page a
// clone of it never stored to, and every page the two runs share) are
// equal without being read, so the comparison costs only the pages the
// memory materialised since it last shared them. It only reads, so
// concurrent comparisons against one shared snapshot are safe.
//
// A writable scratch-domain segment the snapshot lacks (the
// sigaltstack a recovery kernel maps) is skipped: the snapshot has
// nothing mapped there, so a run from its state that raises no trap
// never touches that range, and a memory holding the segment besides
// goes on alike.
func (m *Memory) Matches(sn *Snapshot) bool {
	if m.heapNext != sn.HeapNext {
		return false
	}
	i := 0
	for _, s := range m.segs {
		if s.ro {
			continue
		}
		if s.Domain == DomainScratch && (i == len(sn.Segs) || sn.Segs[i].Base != s.Base) {
			continue
		}
		if i == len(sn.Segs) {
			return false
		}
		ss := &sn.Segs[i]
		i++
		if s.Base != ss.Base || s.size != ss.Size || s.Name != ss.Name || len(ss.Pages) != len(s.pages) {
			return false
		}
		for j := range s.pages {
			if !s.pages[j].holds(ss.Pages[j]) {
				return false
			}
		}
	}
	return i == len(sn.Segs)
}

// Bytes returns the serialised size of a snapshot (for the C/R cost
// model). It counts whole segments, not resident pages: a checkpoint
// writes the segment's full extent.
func (sn *Snapshot) Bytes() int {
	n := 16
	for _, s := range sn.Segs {
		n += 16 + len(s.Name) + s.Size
	}
	return n
}
