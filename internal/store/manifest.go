package store

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"care/internal/checkpoint"
	"care/internal/machine"
	"care/internal/profiler"
	"care/internal/trace"
)

// A manifest file holds the SHA-256 of its payload in its first 32
// bytes, then the payload: a profileManifest encoded with encoding/gob.
// The checksum is verified before a byte of the payload is decoded,
// since gob's decoder is not hardened against adversarial input. The
// format is part of the file name, so an entry written in any other
// format (the per-page blob tables of .v3 manifests, the JSON manifests
// before them) is simply absent: a clean golden miss that the run
// rewrites as one pack.
const manifestExt = ".v4"

// segRef points one memory segment into the profile's pack, one entry
// per machine page: the index of a page of the pack (see
// profileManifest.Bounds), or -1 for a page that was never written
// (the machine's zero page). Identical pages — the untouched majority
// of a segment across consecutive snapshots — collapse to one page of
// the pack.
type segRef struct {
	Base   machine.Word
	Name   string
	Size   int
	Pages  []int
	Domain machine.DomainID
}

// snapManifest is one golden-run snapshot with its memory image
// replaced by segment references. Dyn is both the snapshot's position
// in the golden run and its CPU's retired count, stored once. The
// register files are arrays, so gob itself rejects one of another
// length.
type snapManifest struct {
	Dyn        uint64
	R          [machine.NumReg]machine.Word
	F          [machine.NumFReg]float64
	PC         machine.Word
	Step       int
	HeapNext   machine.Word
	Segs       []segRef
	EnvResults []float64
	EnvPrinted []string
	// Counts holds the execution counts at capture time in the order of
	// profileManifest.Images, empty for an image that had not run yet.
	Counts [][]uint64
}

// profileManifest is a golden-run profile with every byte image
// hoisted into one blob, the pack. The key is echoed so a loader can
// detect an index entry that was moved or overwritten with the wrong
// campaign's profile. Execution counts are lists aligned with Images
// rather than maps, so no length in the payload sizes a map.
type profileManifest struct {
	Key Key
	// Pack addresses the blob that holds every distinct non-zero page
	// the manifest references, concatenated in first-use order. Page i
	// is pack[Bounds[i]:Bounds[i+1]], so Bounds starts at 0, ascends
	// strictly and ends at the pack's length.
	Pack     Hash
	Bounds   []int
	TotalDyn uint64
	// Images names the profiled images in ascending order, and Counts
	// holds their execution counts in the same order.
	Images   []string
	Counts   [][]uint64
	Golden   []float64
	ExitCode uint64
	Text     []segRef
	Snaps    []snapManifest
}

// encodeManifest renders a manifest file: checksum, then payload.
func encodeManifest(man *profileManifest) ([]byte, error) {
	var buf bytes.Buffer
	buf.Write(make([]byte, len(Hash{})))
	if err := gob.NewEncoder(&buf).Encode(man); err != nil {
		return nil, err
	}
	b := buf.Bytes()
	sum := HashBytes(b[len(Hash{}):])
	copy(b, sum[:])
	return b, nil
}

// decodeManifest inverts encodeManifest, rejecting a file whose payload
// does not match its checksum before decoding any of it.
func decodeManifest(b []byte) (*profileManifest, error) {
	n := len(Hash{})
	if len(b) < n {
		return nil, fmt.Errorf("store: manifest truncated to %d bytes", len(b))
	}
	if HashBytes(b[n:]) != Hash(b[:n]) {
		return nil, errors.New("store: manifest fails its checksum")
	}
	man := new(profileManifest)
	if err := gob.NewDecoder(bytes.NewReader(b[n:])).Decode(man); err != nil {
		return nil, fmt.Errorf("store: decode manifest: %w", err)
	}
	return man, nil
}

// countsIn lays counts out in the order of images, nil for an image
// absent from counts.
func countsIn(images []string, counts map[string][]uint64) [][]uint64 {
	out := make([][]uint64, len(images))
	for i, name := range images {
		out[i] = counts[name]
	}
	return out
}

// countsMap inverts countsIn.
func countsMap(images []string, counts [][]uint64) map[string][]uint64 {
	m := make(map[string][]uint64, len(counts))
	for i, c := range counts {
		if len(c) > 0 {
			m[images[i]] = c
		}
	}
	return m
}

// sum totals a count table.
func sum(counts [][]uint64) uint64 {
	var n uint64
	for _, c := range counts {
		for _, v := range c {
			n += v
		}
	}
	return n
}

// check enforces what trials rely on in a decoded manifest's snapshot
// list and counts. Every retirement of the golden run is counted once,
// so a count list sums to the Dyn it was taken at. Snapshot Dyns ascend
// strictly (NextSnap binary-searches them) and never pass TotalDyn (a
// cadence that divides TotalDyn captures the last retirement, since
// exit retires nothing). A snapshot's count vector for an image is
// empty, if the image had not run yet, or exactly as long as the
// profile's, because warm starts read a missing count as 0 occurrences.
func (m *profileManifest) check() error {
	if len(m.Counts) != len(m.Images) {
		return fmt.Errorf("store: manifest has counts for %d of %d images", len(m.Counts), len(m.Images))
	}
	for i := 1; i < len(m.Images); i++ {
		if m.Images[i-1] >= m.Images[i] {
			return fmt.Errorf("store: manifest image names %q, %q out of order", m.Images[i-1], m.Images[i])
		}
	}
	if n := sum(m.Counts); n != m.TotalDyn {
		return fmt.Errorf("store: manifest counts sum to %d, not its %d dyn", n, m.TotalDyn)
	}
	var prev uint64
	for i, sm := range m.Snaps {
		if i > 0 && sm.Dyn <= prev || sm.Dyn > m.TotalDyn {
			return fmt.Errorf("store: snapshot %d at dyn %d is not after the previous one (%d) and within the golden run (%d)", i, sm.Dyn, prev, m.TotalDyn)
		}
		prev = sm.Dyn
		if len(sm.Counts) != len(m.Images) {
			return fmt.Errorf("store: snapshot %d has counts for %d of %d images", i, len(sm.Counts), len(m.Images))
		}
		for j, c := range sm.Counts {
			if len(c) != 0 && len(c) != len(m.Counts[j]) {
				return fmt.Errorf("store: snapshot %d counts %d of %s's %d instructions", i, len(c), m.Images[j], len(m.Counts[j]))
			}
		}
		if n := sum(sm.Counts); n != sm.Dyn {
			return fmt.Errorf("store: snapshot %d counts sum to %d, not its %d dyn", i, n, sm.Dyn)
		}
	}
	return nil
}

// TextImage is a sealed .text byte image offered alongside a profile
// (see machine.Program.CodeImage). The store packs its pages with the
// snapshot pages, so the pack records the code the profile ran; the
// loader does not need it to reconstruct the profile (code is
// re-derived from the build, exactly as memory.Restore keeps read-only
// segments in place).
type TextImage struct {
	Name string
	Data []byte
}

func (s *Store) manifestPath(id string) string {
	return filepath.Join(s.dir, "manifests", id+manifestExt)
}

// PutProfile stores a golden-run profile under key: every distinct
// non-zero machine page of the .text images and the snapshots goes into
// one pack, stored as a blob under its own hash, and the rest becomes a
// manifest. Frozen pages shared by consecutive snapshots are recognised
// by backing-array identity before their contents are compared, so a
// page nobody wrote between two snapshots is looked up once per
// profile, not once per snapshot. Profiles with the same pages (the
// campaigns of one build and cadence that differ only in Key.Seed)
// share one pack file.
func (s *Store) PutProfile(key Key, prof *profiler.Profile, text []TextImage) error {
	images := make([]string, 0, len(prof.Counts))
	for name := range prof.Counts {
		images = append(images, name)
	}
	slices.Sort(images)
	man := profileManifest{
		Key:      key,
		Bounds:   []int{0},
		TotalDyn: prof.TotalDyn,
		Images:   images,
		Counts:   countsIn(images, prof.Counts),
		Golden:   prof.Golden,
		ExitCode: prof.ExitCode,
	}
	// ids maps a page backing array to its page index, byContent a page
	// content to it, so each array is packed once and equal contents
	// share one page.
	type pageKey struct {
		p *byte
		n int
	}
	ids := map[pageKey]int{}
	byContent := map[string]int{}
	var pack []byte
	pageID := func(d []byte) int {
		if d == nil {
			return -1
		}
		pk := pageKey{&d[0], len(d)}
		if id, ok := ids[pk]; ok {
			return id
		}
		id, ok := byContent[string(d)]
		if ok {
			s.dedup(len(d))
		} else {
			id = len(man.Bounds) - 1
			byContent[string(d)] = id
			pack = append(pack, d...)
			man.Bounds = append(man.Bounds, len(pack))
		}
		ids[pk] = id
		return id
	}
	putSeg := func(base machine.Word, name string, size int, pages [][]byte, dom machine.DomainID) segRef {
		r := segRef{Base: base, Name: name, Size: size, Pages: make([]int, len(pages)), Domain: dom}
		for i, d := range pages {
			r.Pages[i] = pageID(d)
		}
		return r
	}
	for _, t := range text {
		var pages [][]byte
		for off := 0; off < len(t.Data); off += machine.PageSize {
			pages = append(pages, t.Data[off:min(off+machine.PageSize, len(t.Data))])
		}
		man.Text = append(man.Text, putSeg(0, t.Name, len(t.Data), pages, 0))
	}
	for i := range prof.Snaps {
		sp := &prof.Snaps[i]
		st := sp.State
		if st == nil || st.Mem == nil {
			return fmt.Errorf("store: snapshot %d has no memory image", i)
		}
		sm := snapManifest{
			Dyn:        sp.Dyn,
			R:          st.CPU.R,
			F:          st.CPU.F,
			PC:         st.CPU.PC,
			Step:       st.Step,
			HeapNext:   st.Mem.HeapNext,
			EnvResults: st.EnvResults,
			EnvPrinted: st.EnvPrinted,
			Counts:     countsIn(images, sp.Counts),
		}
		for _, seg := range st.Mem.Segs {
			sm.Segs = append(sm.Segs, putSeg(seg.Base, seg.Name, seg.Size, seg.Pages, seg.Domain))
		}
		man.Snaps = append(man.Snaps, sm)
	}
	man.Pack = HashBytes(pack)
	if err := s.putBlob(man.Pack, pack); err != nil {
		return err
	}
	b, err := encodeManifest(&man)
	if err != nil {
		return fmt.Errorf("store: encode manifest: %w", err)
	}
	if err := atomicWrite(s.manifestPath(key.ID()), b); err != nil {
		return fmt.Errorf("store: write manifest: %w", err)
	}
	return nil
}

// GetProfile loads and verifies the profile cached under key. A clean
// miss (no manifest in this format) returns (nil, nil) and counts a
// golden miss; any corruption — unreadable or checksum-failing
// manifest, key mismatch, a snapshot list or count table trials cannot
// rely on, missing or tamper-failing pack, page bounds that do not
// span it, malformed page table — counts store.fallback and returns
// the error, and the caller runs cold. On a hit every snapshot page is
// a slice of the one verified pack, capped at the page's end, one slice
// per distinct page, restoring the cross-snapshot sharing the original
// capture had (Restore maps pages copy-on-write, so the aliasing is
// safe to hand to concurrent trials).
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
	prof, err := s.loadProfile(key, b)
	if err != nil {
		s.add(CounterFallback, 1)
		return nil, err
	}
	s.add(CounterGoldenHits, 1)
	return prof, nil
}

// loadProfile decodes and checks the manifest file b stored under key
// and slices its snapshot pages out of the verified pack.
func (s *Store) loadProfile(key Key, b []byte) (*profiler.Profile, error) {
	man, err := decodeManifest(b)
	if err != nil {
		return nil, err
	}
	if man.Key.ID() != key.ID() {
		return nil, fmt.Errorf("store: manifest key mismatch (index entry for %q holds %q)", key.Workload, man.Key.Workload)
	}
	if err := man.check(); err != nil {
		return nil, err
	}
	pack, err := s.GetBlob(man.Pack)
	if err != nil {
		return nil, err
	}
	bounds := man.Bounds
	if len(bounds) == 0 || bounds[0] != 0 || bounds[len(bounds)-1] != len(pack) {
		return nil, fmt.Errorf("store: page bounds do not span the %d-byte pack", len(pack))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("store: page bound %d (%d) does not ascend past %d", i, bounds[i], bounds[i-1])
		}
	}
	prof := &profiler.Profile{
		TotalDyn: man.TotalDyn,
		Counts:   countsMap(man.Images, man.Counts),
		Golden:   man.Golden,
		ExitCode: man.ExitCode,
	}
	// The .text pages are packed for the record only and never
	// referenced here.
	page := func(r segRef, i int) ([]byte, error) {
		id := r.Pages[i]
		if id == -1 {
			return nil, nil
		}
		if id < 0 || id >= len(bounds)-1 {
			return nil, fmt.Errorf("store: segment %s page %d references page %d of %d", r.Name, i, id, len(bounds)-1)
		}
		hi := bounds[id+1]
		return pack[bounds[id]:hi:hi], nil
	}
	for i, sm := range man.Snaps {
		st := &checkpoint.Snapshot{
			Mem:        &machine.Snapshot{HeapNext: sm.HeapNext},
			CPU:        machine.Context{R: sm.R, F: sm.F, PC: sm.PC, Dyn: sm.Dyn},
			Step:       sm.Step,
			EnvResults: sm.EnvResults,
			EnvPrinted: sm.EnvPrinted,
		}
		n := 0
		for _, r := range sm.Segs {
			n += len(r.Pages)
		}
		pages := make([][]byte, n)
		for _, r := range sm.Segs {
			k := len(r.Pages)
			seg := machine.SegSnapshot{
				Base:   r.Base,
				Name:   r.Name,
				Size:   r.Size,
				Pages:  pages[:k:k],
				Domain: r.Domain,
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
		prof.Snaps = append(prof.Snaps, profiler.SnapPoint{Dyn: sm.Dyn, State: st, Counts: countsMap(man.Images, sm.Counts)})
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
	names, err := filepath.Glob(filepath.Join(s.dir, "manifests", "*"+manifestExt))
	if err != nil {
		return nil, err
	}
	var out []Entry
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			continue
		}
		man, err := decodeManifest(b)
		if err != nil {
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
