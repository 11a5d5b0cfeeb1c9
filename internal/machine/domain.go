package machine

import (
	"errors"
	"fmt"
)

// DomainID partitions the address space into isolation domains — the
// granularity at which the checkpoint layer captures and the safeguard
// escalation chain rewinds memory. Because every image is prelinked at
// a fixed base, a domain is a pure function of the address: the main
// executable's code and globals, the bump-allocated heap, the shared
// libraries (the BLAS "shared object" split), the signal-handler
// scratch stack, and the main stack each occupy a disjoint slice of the
// 48-bit space.
type DomainID uint8

// Memory domains, in address order.
const (
	// DomainCode is the main executable's code/rodata (read-only; never
	// part of a snapshot and never a rewind target).
	DomainCode DomainID = iota
	// DomainGlobals is the main executable's writable globals.
	DomainGlobals
	// DomainHeap is the bump-allocated heap.
	DomainHeap
	// DomainLib covers every shared-library image — code and globals of
	// linked libraries and the lazily-loaded recovery libraries alike.
	DomainLib
	// DomainScratch is the signal-handler scratch stack (sigaltstack):
	// transient recovery-runtime state that no checkpoint governs, so it
	// is excluded from consistency checks and never rewound.
	DomainScratch
	// DomainStack is the main stack.
	DomainStack

	// NumDomains is the domain count (array sizing).
	NumDomains
)

var domainNames = [...]string{
	DomainCode:    "code",
	DomainGlobals: "globals",
	DomainHeap:    "heap",
	DomainLib:     "lib",
	DomainScratch: "scratch",
	DomainStack:   "stack",
}

// String names the domain; out-of-range values render as "domain(N)".
func (d DomainID) String() string {
	if int(d) < len(domainNames) {
		return domainNames[d]
	}
	return fmt.Sprintf("domain(%d)", uint8(d))
}

// ClassifyDomain maps an address to the domain whose fixed layout range
// contains it. Unmapped (wild) addresses classify too: the prelinked
// bases and the HeapGuard gaps mean a modestly corrupted pointer stays
// inside the region it escaped from, which is what lets a trap's
// faulting address attribute the fault to a domain.
func ClassifyDomain(addr Word) DomainID {
	switch {
	case addr >= ScratchStackTop:
		return DomainStack
	case addr >= ScratchStackTop-ScratchStackSize:
		return DomainScratch
	case addr >= LibCodeBase:
		return DomainLib
	case addr >= HeapBase:
		return DomainHeap
	case addr >= AppGlobalBase:
		return DomainGlobals
	default:
		return DomainCode
	}
}

// FaultDomain attributes a faulting access to a domain: the resolved
// segment's tag when the address is mapped (SIGBUS misalignments,
// stores into read-only segments), else the fixed-layout classification
// of the wild address.
func (m *Memory) FaultDomain(addr Word) DomainID {
	if s := m.Find(addr); s != nil {
		return s.Domain
	}
	return ClassifyDomain(addr)
}

// SegLayout records one writable segment's identity at capture time.
// The census of every writable segment — not just the captured
// domain's — rides along with a domain snapshot so RestoreDomain can
// prove the rewind is still consistent with the rest of the address
// space.
type SegLayout struct {
	Base   Word
	Size   int
	Domain DomainID
}

// DomainSnapshot is one domain's frozen image: the domain's pages
// aliased copy-on-write (no bytes copied) plus the whole-space layout
// census taken at the same instant.
type DomainSnapshot struct {
	Domain DomainID
	Segs   []SegSnapshot
	// HeapNext is the bump pointer at capture (restored for DomainHeap
	// rewinds only, so discarded allocation epochs do not leak address
	// space).
	HeapNext Word
	Layout   []SegLayout
}

// Bytes returns the domain image size (for rewind cost models): whole
// segments, not resident pages, like Snapshot.Bytes.
func (sn *DomainSnapshot) Bytes() int {
	n := 0
	for _, s := range sn.Segs {
		n += s.Size
	}
	return n
}

// DomainView extracts one domain's slice of a full snapshot, sharing
// the already-frozen segment aliases (no copying). Returns nil when the
// snapshot holds no segments of that domain.
func (sn *Snapshot) DomainView(d DomainID) *DomainSnapshot {
	v := &DomainSnapshot{Domain: d, HeapNext: sn.HeapNext}
	for _, s := range sn.Segs {
		v.Layout = append(v.Layout, SegLayout{Base: s.Base, Size: s.Size, Domain: s.Domain})
		if s.Domain == d {
			v.Segs = append(v.Segs, s)
		}
	}
	if len(v.Segs) == 0 {
		return nil
	}
	return v
}

// ErrDomainInconsistent reports a domain rewind that would desynchronise
// the address space — the caller must escalate (typically to a
// whole-process rollback) instead of proceeding.
var ErrDomainInconsistent = errors.New("machine: domain rewind inconsistent with current layout")

// RestoreDomain rewinds one domain's memory contents to the snapshot,
// leaving every other domain — and all architectural state — untouched.
// Two consistency proofs guard the swap:
//
//  1. every writable segment censused at capture (scratch excepted —
//     the signal-handler stack is transient runtime state) must still
//     be mapped with the same extent, so no pointer saved in the
//     rewound domain can dangle into a remapped region;
//  2. the rewound domain must contain no segment the capture did not
//     see, so pointers held by *other* domains into post-capture
//     allocations cannot silently survive into a stale epoch.
//
// Either violation returns ErrDomainInconsistent and changes nothing.
// Restored pages alias the frozen images copy-on-write; segment and
// page-slot identity is preserved (only the slots' data is swapped), so
// image handles into the segments stay valid.
func (m *Memory) RestoreDomain(sn *DomainSnapshot) error {
	if sn == nil || len(sn.Segs) == 0 {
		return fmt.Errorf("machine: no segments captured for domain rewind")
	}
	for _, l := range sn.Layout {
		if l.Domain == DomainScratch {
			continue
		}
		s := m.Find(l.Base)
		if s == nil || s.Base != l.Base || s.size != l.Size {
			return fmt.Errorf("%w: segment [0x%x,+%d) in %v domain was remapped since capture",
				ErrDomainInconsistent, l.Base, l.Size, l.Domain)
		}
	}
	captured := make(map[Word]int, len(sn.Segs))
	for _, l := range sn.Layout {
		if l.Domain == sn.Domain {
			captured[l.Base] = l.Size
		}
	}
	for _, s := range m.segs {
		if s.ro || s.Domain != sn.Domain {
			continue
		}
		if sz, ok := captured[s.Base]; !ok || sz != s.size {
			return fmt.Errorf("%w: %s at 0x%x postdates the %v-domain capture (stale allocation epoch)",
				ErrDomainInconsistent, s.Name, s.Base, sn.Domain)
		}
	}
	for i := range sn.Segs {
		ss := &sn.Segs[i]
		m.Find(ss.Base).setFrozen(ss.Pages)
	}
	if sn.Domain == DomainHeap {
		m.heapNext = sn.HeapNext
	}
	// The refrozen pages invalidate write-proving inline caches, exactly
	// as Snapshot's freeze does.
	m.gen++
	return nil
}
