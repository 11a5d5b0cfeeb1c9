package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"care/internal/checkpoint"
	"care/internal/fbits"
	"care/internal/machine"
	"care/internal/profiler"
	"care/internal/trace"
)

// manifestFormat versions the manifest encoding. A manifest of another
// format (one written before the store used machine pages as its blob
// unit, say) is a miss, not corruption: the run goes cold and rewrites
// the entry.
const manifestFormat = 2

// errOtherFormat marks a manifest written in another format.
var errOtherFormat = errors.New("store: manifest has another format")

// segRef is a content-addressed pointer to one memory segment, one
// entry per machine page: an index into the manifest's blob table, or
// -1 for a page that was never written (the machine's zero page).
// Identical pages — the untouched majority of a segment across
// consecutive snapshots, or the same .text across campaigns — collapse
// to one blob each.
type segRef struct {
	Base   uint64 `json:"base"`
	Name   string `json:"name"`
	Size   int    `json:"size"`
	Pages  []int  `json:"pages"`
	Domain uint8  `json:"domain,omitempty"`
}

// snapManifest is one golden-run snapshot with its memory image
// replaced by segment references.
type snapManifest struct {
	Dyn        uint64              `json:"dyn"`
	R          []uint64            `json:"r"`
	FBits      []uint64            `json:"f_bits"`
	PC         uint64              `json:"pc"`
	CPUDyn     uint64              `json:"cpu_dyn"`
	Step       int                 `json:"step"`
	HeapNext   uint64              `json:"heap_next"`
	Segs       []segRef            `json:"segs"`
	ResultBits []uint64            `json:"result_bits,omitempty"`
	Printed    []string            `json:"printed,omitempty"`
	Counts     map[string][]uint64 `json:"counts,omitempty"`
}

// profileManifest is a golden-run profile with every byte image
// hoisted into the blob store. The key is echoed so a loader can
// detect an index entry that was moved or overwritten with the wrong
// campaign's profile.
type profileManifest struct {
	Format int `json:"format"`
	Key    Key `json:"key"`
	// Blobs holds the hash of every distinct non-zero page the
	// manifest references, in first-use order.
	Blobs      []string            `json:"blobs"`
	TotalDyn   uint64              `json:"total_dyn"`
	Counts     map[string][]uint64 `json:"counts"`
	GoldenBits []uint64            `json:"golden_bits,omitempty"`
	ExitCode   uint64              `json:"exit_code"`
	Text       []segRef            `json:"text,omitempty"`
	Snaps      []snapManifest      `json:"snaps,omitempty"`
}

// TextImage is a sealed .text byte image offered for dedup alongside a
// profile (see machine.Program.CodeImage). The store records it in the
// manifest so an identical binary in a later campaign is a pure blob
// dedup hit; the loader does not need it to reconstruct the profile
// (code is re-derived from the build, exactly as memory.Restore keeps
// read-only segments in place).
type TextImage struct {
	Name string
	Data []byte
}

func (s *Store) manifestPath(id string) string {
	return filepath.Join(s.dir, "manifests", id+".json")
}

// PutProfile stores a golden-run profile under key: every distinct
// machine page of the snapshots and the .text images becomes a blob, the
// rest becomes a manifest. Frozen pages shared by consecutive snapshots
// are recognised by backing-array identity before hashing, so a page
// nobody wrote between two snapshots is hashed once per profile, not
// once per snapshot.
func (s *Store) PutProfile(key Key, prof *profiler.Profile, text []TextImage) error {
	man := profileManifest{
		Format:     manifestFormat,
		Key:        key,
		TotalDyn:   prof.TotalDyn,
		Counts:     prof.Counts,
		GoldenBits: fbits.Of(prof.Golden),
		ExitCode:   prof.ExitCode,
	}
	// ids maps a page backing array to its blob index, byHash a page
	// content to it, so each array is offered to the blob store once and
	// equal contents share one entry.
	type pageKey struct {
		p *byte
		n int
	}
	ids := map[pageKey]int{}
	byHash := map[Hash]int{}
	pageID := func(d []byte) (int, error) {
		if d == nil {
			return -1, nil
		}
		pk := pageKey{&d[0], len(d)}
		if id, ok := ids[pk]; ok {
			return id, nil
		}
		h := HashBytes(d)
		id, ok := byHash[h]
		if ok {
			s.dedup(len(d))
		} else {
			if err := s.putBlob(h, d); err != nil {
				return 0, err
			}
			id = len(man.Blobs)
			man.Blobs = append(man.Blobs, h.String())
			byHash[h] = id
		}
		ids[pk] = id
		return id, nil
	}
	putSeg := func(base machine.Word, name string, size int, pages [][]byte, dom machine.DomainID) (segRef, error) {
		r := segRef{Base: uint64(base), Name: name, Size: size, Pages: make([]int, len(pages)), Domain: uint8(dom)}
		for i, d := range pages {
			id, err := pageID(d)
			if err != nil {
				return segRef{}, err
			}
			r.Pages[i] = id
		}
		return r, nil
	}
	for _, t := range text {
		var pages [][]byte
		for off := 0; off < len(t.Data); off += machine.PageSize {
			pages = append(pages, t.Data[off:min(off+machine.PageSize, len(t.Data))])
		}
		tr, err := putSeg(0, t.Name, len(t.Data), pages, 0)
		if err != nil {
			return err
		}
		man.Text = append(man.Text, tr)
	}
	for i := range prof.Snaps {
		sp := &prof.Snaps[i]
		st := sp.State
		if st == nil || st.Mem == nil {
			return fmt.Errorf("store: snapshot %d has no memory image", i)
		}
		sm := snapManifest{
			Dyn:        sp.Dyn,
			R:          make([]uint64, machine.NumReg),
			FBits:      fbits.Of(st.CPU.F[:]),
			PC:         uint64(st.CPU.PC),
			CPUDyn:     st.CPU.Dyn,
			Step:       st.Step,
			HeapNext:   uint64(st.Mem.HeapNext),
			ResultBits: fbits.Of(st.EnvResults),
			Printed:    st.EnvPrinted,
			Counts:     sp.Counts,
		}
		for j, w := range st.CPU.R {
			sm.R[j] = uint64(w)
		}
		for _, seg := range st.Mem.Segs {
			sr, err := putSeg(seg.Base, seg.Name, seg.Size, seg.Pages, seg.Domain)
			if err != nil {
				return err
			}
			sm.Segs = append(sm.Segs, sr)
		}
		man.Snaps = append(man.Snaps, sm)
	}
	b, err := json.Marshal(&man)
	if err != nil {
		return fmt.Errorf("store: marshal manifest: %w", err)
	}
	if err := atomicWrite(s.manifestPath(key.ID()), b); err != nil {
		return fmt.Errorf("store: write manifest: %w", err)
	}
	return nil
}

// GetProfile loads and verifies the profile cached under key. A clean
// miss (no manifest, or a manifest of another format) returns (nil,
// nil) and counts a golden miss; any corruption — unreadable manifest,
// key mismatch, malformed page table, missing or tamper-failing blob —
// counts store.fallback and returns the error, and the caller runs
// cold. On a hit every snapshot page aliases its verified blob, one
// byte slice per distinct page, restoring the cross-snapshot sharing
// the original capture had (Restore maps pages copy-on-write, so the
// aliasing is safe to hand to concurrent trials).
func (s *Store) GetProfile(key Key) (*profiler.Profile, error) {
	b, err := os.ReadFile(s.manifestPath(key.ID()))
	if os.IsNotExist(err) {
		s.add(CounterGoldenMisses, 1)
		return nil, nil
	}
	if err != nil {
		s.add(CounterFallback, 1)
		return nil, fmt.Errorf("store: read manifest: %w", err)
	}
	prof, err := s.decodeManifest(key, b)
	if errors.Is(err, errOtherFormat) {
		s.add(CounterGoldenMisses, 1)
		return nil, nil
	}
	if err != nil {
		s.add(CounterFallback, 1)
		return nil, err
	}
	s.add(CounterGoldenHits, 1)
	return prof, nil
}

// unmarshalManifest decodes a manifest, telling a manifest of another
// format (errOtherFormat) apart from bytes that are not JSON at all. A
// well-formed JSON document that lacks the current format number is
// taken to be another format even when its fields do not fit this one's
// types, as an older manifest's would not.
func unmarshalManifest(b []byte, man *profileManifest) error {
	err := json.Unmarshal(b, man)
	var syntax *json.SyntaxError
	if man.Format != manifestFormat && !errors.As(err, &syntax) {
		return errOtherFormat
	}
	return err
}

func (s *Store) decodeManifest(key Key, b []byte) (*profiler.Profile, error) {
	var man profileManifest
	if err := unmarshalManifest(b, &man); err != nil {
		if errors.Is(err, errOtherFormat) {
			return nil, err
		}
		return nil, fmt.Errorf("store: manifest for %s is not valid JSON: %w", key.ID(), err)
	}
	if man.Key.ID() != key.ID() {
		return nil, fmt.Errorf("store: manifest key mismatch (index entry for %q holds %q)", key.Workload, man.Key.Workload)
	}
	prof := &profiler.Profile{
		TotalDyn: man.TotalDyn,
		Counts:   man.Counts,
		Golden:   fbits.Floats(man.GoldenBits),
		ExitCode: man.ExitCode,
	}
	// blobs holds each verified page, fetched on first use by a
	// snapshot (the .text pages are recorded for dedup only and never
	// read back).
	blobs := make([][]byte, len(man.Blobs))
	page := func(r segRef, i int) ([]byte, error) {
		id := r.Pages[i]
		if id == -1 {
			return nil, nil
		}
		if id < 0 || id >= len(blobs) {
			return nil, fmt.Errorf("store: segment %s page %d references blob %d of %d", r.Name, i, id, len(blobs))
		}
		if blobs[id] == nil {
			h, err := ParseHash(man.Blobs[id])
			if err != nil {
				return nil, err
			}
			if blobs[id], err = s.GetBlob(h); err != nil {
				return nil, err
			}
		}
		return blobs[id], nil
	}
	for i, sm := range man.Snaps {
		if len(sm.R) != machine.NumReg || len(sm.FBits) != machine.NumFReg {
			return nil, fmt.Errorf("store: snapshot %d has malformed register file", i)
		}
		st := &checkpoint.Snapshot{
			Mem:        &machine.Snapshot{HeapNext: machine.Word(sm.HeapNext)},
			Step:       sm.Step,
			EnvResults: fbits.Floats(sm.ResultBits),
			EnvPrinted: sm.Printed,
		}
		for j, w := range sm.R {
			st.CPU.R[j] = machine.Word(w)
		}
		copy(st.CPU.F[:], fbits.Floats(sm.FBits))
		st.CPU.PC = machine.Word(sm.PC)
		st.CPU.Dyn = sm.CPUDyn
		n := 0
		for _, r := range sm.Segs {
			n += len(r.Pages)
		}
		pages := make([][]byte, n)
		for _, r := range sm.Segs {
			k := len(r.Pages)
			seg := machine.SegSnapshot{
				Base:   machine.Word(r.Base),
				Name:   r.Name,
				Size:   r.Size,
				Pages:  pages[:k:k],
				Domain: machine.DomainID(r.Domain),
			}
			pages = pages[k:]
			for j := range seg.Pages {
				d, err := page(r, j)
				if err != nil {
					return nil, err
				}
				seg.Pages[j] = d
			}
			if err := seg.Validate(); err != nil {
				return nil, fmt.Errorf("store: snapshot %d: %w", i, err)
			}
			st.Mem.Segs = append(st.Mem.Segs, seg)
		}
		prof.Snaps = append(prof.Snaps, profiler.SnapPoint{Dyn: sm.Dyn, State: st, Counts: sm.Counts})
	}
	return prof, nil
}

func (s *Store) tracePath(id string) string { return filepath.Join(s.dir, "traces", id+".jsonl") }
func (s *Store) sealPath(id string) string  { return filepath.Join(s.dir, "seals", id+".json") }

// PutTrace exports a campaign trace into the store and seals it: the
// JSONL goes under traces/, the Merkle seal (root plus per-trial
// leaves) under seals/. The export is exactly what WriteJSONL renders,
// so a stored trace diffs byte-for-byte against a `-trace-out` file.
func (s *Store) PutTrace(key Key, rec *trace.Recorder) (TraceSeal, error) {
	seal := Seal(rec)
	id := key.ID()
	var jb bytes.Buffer
	if err := rec.WriteJSONL(&jb); err != nil {
		return seal, fmt.Errorf("store: render trace: %w", err)
	}
	if err := atomicWrite(s.tracePath(id), jb.Bytes()); err != nil {
		return seal, fmt.Errorf("store: write trace: %w", err)
	}
	sb, err := json.MarshalIndent(&seal, "", "  ")
	if err != nil {
		return seal, fmt.Errorf("store: marshal seal: %w", err)
	}
	if err := atomicWrite(s.sealPath(id), sb); err != nil {
		return seal, fmt.Errorf("store: write seal: %w", err)
	}
	s.add(CounterTraceSeals, 1)
	return seal, nil
}

// GetSeal loads a stored trace seal, or (zero, false) if absent or
// unreadable.
func (s *Store) GetSeal(key Key) (TraceSeal, bool) {
	b, err := os.ReadFile(s.sealPath(key.ID()))
	if err != nil {
		return TraceSeal{}, false
	}
	var seal TraceSeal
	if err := json.Unmarshal(b, &seal); err != nil {
		s.add(CounterFallback, 1)
		return TraceSeal{}, false
	}
	return seal, true
}

// Entry is one row of the store inventory (care-report -store).
type Entry struct {
	Key   Key
	Snaps int
	Seal  *TraceSeal
}

// List enumerates the store's manifests (sorted by index id) for the
// inventory listing. Unreadable entries are skipped — the inventory is
// advisory, the per-entry verification happens on load.
func (s *Store) List() ([]Entry, error) {
	names, err := filepath.Glob(filepath.Join(s.dir, "manifests", "*.json"))
	if err != nil {
		return nil, err
	}
	var out []Entry
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			continue
		}
		var man profileManifest
		if err := unmarshalManifest(b, &man); err != nil {
			continue
		}
		e := Entry{Key: man.Key, Snaps: len(man.Snaps)}
		if seal, ok := s.GetSeal(man.Key); ok {
			e.Seal = &seal
		}
		out = append(out, e)
	}
	return out, nil
}
