package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"

	"care/internal/checkpoint"
	"care/internal/machine"
	"care/internal/profiler"
	"care/internal/trace"
)

// A manifest file holds the SHA-256 of its payload in its first 32
// bytes, then the payload: a profileManifest in the flat binary layout
// of appendManifest. The checksum is verified before a byte of the
// payload is decoded, and the decoder is hardened besides: every length
// is checked against the bytes left before anything is allocated. The
// format is part of the file name, so an entry written in any other
// format (the .v5 layout, which also echoed a snapshot cadence, the gob
// manifests of .v4, the per-page blob tables of .v3, the JSON manifests
// before them) is simply absent: a clean golden miss that the run
// rewrites.
const manifestExt = ".v6"

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
// in the golden run and its CPU's retired count, stored once.
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
func encodeManifest(man *profileManifest) []byte {
	b := appendManifest(make([]byte, len(Hash{})), man)
	sum := HashBytes(b[len(Hash{}):])
	copy(b, sum[:])
	return b
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
	return decodePayload(b[n:])
}

// appendManifest appends the payload layout: the echoed key, the pack
// and its page bounds (each bound as its signed step from the previous
// one), the golden run's totals, image names and counts, its result
// stream, the .text segments, then the snapshots. Every list is
// preceded by its length, integers are varints (signed ones zigzag),
// floats their 8 IEEE-754 bytes, and strings a length and their bytes.
// A snapshot's page references are coded as steps from the same page of
// the previous snapshot, so a page nobody wrote in between costs one
// byte, and its count vectors against the previous snapshot's (see
// appendCounts).
func appendManifest(b []byte, m *profileManifest) []byte {
	k := &m.Key
	b = appendStrs(b, []string{k.Kind, k.Workload, k.Params})
	b = binary.AppendVarint(b, int64(k.OptLevel))
	b = appendStrs(b, k.Defenses)
	b = binary.AppendVarint(b, k.Seed)
	b = appendBool(b, k.WarmStart)
	b = append(b, m.Pack[:]...)
	b = binary.AppendUvarint(b, uint64(len(m.Bounds)))
	prev := 0
	for _, v := range m.Bounds {
		b = binary.AppendVarint(b, int64(v-prev))
		prev = v
	}
	b = binary.AppendUvarint(b, m.TotalDyn)
	b = binary.AppendUvarint(b, m.ExitCode)
	b = appendStrs(b, m.Images)
	b = appendCounts(b, m.Counts, nil)
	b = appendFloats(b, m.Golden)
	b = binary.AppendUvarint(b, uint64(len(m.Text)))
	for i := range m.Text {
		b = appendSeg(b, &m.Text[i], nil)
	}
	b = binary.AppendUvarint(b, uint64(len(m.Snaps)))
	var last *snapManifest
	for i := range m.Snaps {
		sm := &m.Snaps[i]
		b = binary.AppendUvarint(b, sm.Dyn)
		for _, r := range sm.R {
			b = binary.AppendUvarint(b, uint64(r))
		}
		for _, f := range sm.F {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
		b = binary.AppendUvarint(b, uint64(sm.PC))
		b = binary.AppendVarint(b, int64(sm.Step))
		b = binary.AppendUvarint(b, uint64(sm.HeapNext))
		b = binary.AppendUvarint(b, uint64(len(sm.Segs)))
		for j := range sm.Segs {
			b = appendSeg(b, &sm.Segs[j], last.seg(j))
		}
		b = appendFloats(b, sm.EnvResults)
		b = appendStrs(b, sm.EnvPrinted)
		b = appendCounts(b, sm.Counts, last.counts())
		last = sm
	}
	return b
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendStrs(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	return b
}

func appendFloats(b []byte, fs []float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(fs)))
	for _, f := range fs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

// appendCounts codes each count vector against the same vector of prev
// (zeros where prev has none): each count's step from prev, as its
// difference from the previous count's step. The instructions of one
// basic block run equally often, so most entries are 0.
func appendCounts(b []byte, counts, prev [][]uint64) []byte {
	b = binary.AppendUvarint(b, uint64(len(counts)))
	for j, c := range counts {
		b = binary.AppendUvarint(b, uint64(len(c)))
		var pv []uint64
		if j < len(prev) {
			pv = prev[j]
		}
		var last uint64
		for i, v := range c {
			if i < len(pv) {
				v -= pv[i]
			}
			b = binary.AppendVarint(b, int64(v-last))
			last = v
		}
	}
	return b
}

// appendSeg codes each page reference as its step from the same page of
// prev (-1, the zero page, where prev has none).
func appendSeg(b []byte, r, prev *segRef) []byte {
	b = binary.AppendUvarint(b, uint64(r.Base))
	b = binary.AppendUvarint(b, uint64(len(r.Name)))
	b = append(b, r.Name...)
	b = binary.AppendVarint(b, int64(r.Size))
	b = append(b, byte(r.Domain))
	b = binary.AppendUvarint(b, uint64(len(r.Pages)))
	for i, id := range r.Pages {
		b = binary.AppendVarint(b, int64(id-prev.page(i)))
	}
	return b
}

// seg returns segment j of the snapshot, nil for a nil snapshot or one
// with fewer segments.
func (sm *snapManifest) seg(j int) *segRef {
	if sm == nil || j >= len(sm.Segs) {
		return nil
	}
	return &sm.Segs[j]
}

// counts returns the snapshot's count vectors, nil for a nil snapshot.
func (sm *snapManifest) counts() [][]uint64 {
	if sm == nil {
		return nil
	}
	return sm.Counts
}

// page returns page reference i of the segment, -1 (the zero page) for
// a nil segment or one with fewer pages.
func (r *segRef) page(i int) int {
	if r == nil || i >= len(r.Pages) {
		return -1
	}
	return r.Pages[i]
}

// Minimum encoded sizes, which bound every list length before the list
// is allocated: a count or page reference is at least one varint byte,
// a float eight bytes, a string or list its length byte, a segment five
// bytes and a snapshot its register files (the integer ones a varint
// each, the float ones eight bytes each) plus eight bytes.
const (
	minSegBytes  = 5
	minSnapBytes = machine.NumReg + 8*machine.NumFReg + 8
)

// payloadReader decodes a manifest payload. The first error sticks and
// empties the reader: later reads return zero values and lengths of 0,
// so the decode loops wind down without touching the rest of the
// payload. It copies what it keeps, so the decoded manifest holds no
// reference into the payload.
type payloadReader struct {
	b       []byte
	err     error
	scratch []int64
}

func (r *payloadReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

func (r *payloadReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	switch {
	case n == 0:
		r.fail(errors.New("store: manifest varint runs past the payload"))
	case n < 0:
		r.fail(errors.New("store: manifest varint overflows 64 bits"))
	default:
		r.b = r.b[n:]
	}
	return v
}

// varint reads a zigzag-coded signed varint (binary.AppendVarint).
func (r *payloadReader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// steps reads n signed varints into the reader's scratch buffer, valid
// until the next call. Count and page steps are one byte almost
// everywhere, and those are decoded in line.
func (r *payloadReader) steps(n int) []int64 {
	if cap(r.scratch) < n {
		r.scratch = make([]int64, n)
	}
	d := r.scratch[:n]
	b := r.b
	for i := range d {
		if len(b) > 0 && b[0] < 0x80 {
			d[i] = int64(b[0]>>1) ^ -int64(b[0]&1)
			b = b[1:]
			continue
		}
		r.b = b
		d[i] = r.varint()
		b = r.b
	}
	r.b = b
	return d
}

// take consumes the next n bytes, nil once the payload is short.
func (r *payloadReader) take(n int) []byte {
	if n > len(r.b) {
		r.fail(fmt.Errorf("store: manifest field of %d bytes runs past the %d payload bytes left", n, len(r.b)))
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

// length reads a list length and checks that the bytes left can hold
// that many elements of at least min bytes each.
func (r *payloadReader) length(min int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/min) {
		r.fail(fmt.Errorf("store: manifest list of %d runs past the %d payload bytes left", n, len(r.b)))
		return 0
	}
	return int(n)
}

// str reads a string, returning prev itself when the bytes equal it, so
// a name repeated from the previous snapshot allocates nothing.
func (r *payloadReader) str(prev string) string {
	b := r.take(r.length(1))
	if string(b) == prev {
		return prev
	}
	return string(b)
}

func (r *payloadReader) strs() []string {
	n := r.length(1)
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = r.str("")
	}
	return ss
}

func (r *payloadReader) float() float64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func (r *payloadReader) floats() []float64 {
	n := r.length(8)
	if n == 0 {
		return nil
	}
	fs := make([]float64, n)
	for i := range fs {
		fs[i] = r.float()
	}
	return fs
}

func (r *payloadReader) counts(prev [][]uint64) [][]uint64 {
	n := r.length(1)
	if n == 0 {
		return nil
	}
	counts := make([][]uint64, n)
	for j := range counts {
		k := r.length(1)
		if k == 0 {
			continue
		}
		var pv []uint64
		if j < len(prev) {
			pv = prev[j]
		}
		c := make([]uint64, k)
		var step uint64
		for i, d := range r.steps(k) {
			step += uint64(d)
			c[i] = step
			if i < len(pv) {
				c[i] += pv[i]
			}
		}
		counts[j] = c
	}
	return counts
}

// segs reads a segment list, coded against prev's (nil for the .text
// list and the first snapshot).
func (r *payloadReader) segs(prev *snapManifest) []segRef {
	n := r.length(minSegBytes)
	if n == 0 {
		return nil
	}
	segs := make([]segRef, n)
	for j := range segs {
		p, s := prev.seg(j), &segs[j]
		s.Base = machine.Word(r.uvarint())
		if p != nil {
			s.Name = r.str(p.Name)
		} else {
			s.Name = r.str("")
		}
		s.Size = int(r.varint())
		if d := r.take(1); d != nil {
			s.Domain = machine.DomainID(d[0])
		}
		s.Pages = make([]int, r.length(1))
		for i, d := range r.steps(len(s.Pages)) {
			s.Pages[i] = p.page(i) + int(d)
		}
	}
	return segs
}

// decodePayload inverts appendManifest. A payload that ends early, has
// a list longer than its remaining bytes could hold, or has bytes left
// over is refused.
func decodePayload(b []byte) (*profileManifest, error) {
	r := &payloadReader{b: b}
	m := new(profileManifest)
	k := &m.Key
	if key := r.strs(); len(key) == 3 {
		k.Kind, k.Workload, k.Params = key[0], key[1], key[2]
	} else {
		r.fail(fmt.Errorf("store: manifest key has %d of 3 names", len(key)))
	}
	k.OptLevel = int(r.varint())
	k.Defenses = r.strs()
	k.Seed = r.varint()
	if w := r.take(1); w != nil {
		k.WarmStart = w[0] != 0
	}
	copy(m.Pack[:], r.take(len(Hash{})))
	if n := r.length(1); n > 0 {
		m.Bounds = make([]int, n)
		prev := 0
		for i := range m.Bounds {
			prev += int(r.varint())
			m.Bounds[i] = prev
		}
	}
	m.TotalDyn = r.uvarint()
	m.ExitCode = r.uvarint()
	m.Images = r.strs()
	m.Counts = r.counts(nil)
	m.Golden = r.floats()
	m.Text = r.segs(nil)
	if n := r.length(minSnapBytes); n > 0 {
		m.Snaps = make([]snapManifest, n)
		var last *snapManifest
		for i := range m.Snaps {
			sm := &m.Snaps[i]
			sm.Dyn = r.uvarint()
			for j := range sm.R {
				sm.R[j] = machine.Word(r.uvarint())
			}
			for j := range sm.F {
				sm.F[j] = r.float()
			}
			sm.PC = machine.Word(r.uvarint())
			sm.Step = int(r.varint())
			sm.HeapNext = machine.Word(r.uvarint())
			sm.Segs = r.segs(last)
			sm.EnvResults = r.floats()
			sm.EnvPrinted = r.strs()
			sm.Counts = r.counts(last.counts())
			last = sm
		}
	}
	if len(r.b) > 0 {
		r.fail(fmt.Errorf("store: manifest payload has %d bytes past its end", len(r.b)))
	}
	if r.err != nil {
		return nil, r.err
	}
	return m, nil
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
// campaigns of one build that differ only in Key.Seed) share one pack
// file.
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
	if err := atomicWrite(s.manifestPath(key.ID()), encodeManifest(&man)); err != nil {
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
	return man.profile(pack)
}

// profile slices the manifest's snapshot pages out of its verified pack.
// The manifest must have passed check.
func (man *profileManifest) profile(pack []byte) (*profiler.Profile, error) {
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
	// Every snapshot page is one of these slices (the .text pages are
	// packed for the record only and never referenced here), and every
	// snapshot's page slots come from one allocation.
	packed := make([][]byte, len(bounds)-1)
	for id := range packed {
		hi := bounds[id+1]
		packed[id] = pack[bounds[id]:hi:hi]
	}
	n := 0
	for i := range man.Snaps {
		for _, r := range man.Snaps[i].Segs {
			n += len(r.Pages)
		}
	}
	slots := make([][]byte, n)
	prof.Snaps = make([]profiler.SnapPoint, len(man.Snaps))
	for i := range man.Snaps {
		sm := &man.Snaps[i]
		st := &checkpoint.Snapshot{
			Mem:        &machine.Snapshot{HeapNext: sm.HeapNext, Segs: make([]machine.SegSnapshot, len(sm.Segs))},
			CPU:        machine.Context{R: sm.R, F: sm.F, PC: sm.PC, Dyn: sm.Dyn},
			Step:       sm.Step,
			EnvResults: sm.EnvResults,
			EnvPrinted: sm.EnvPrinted,
		}
		for j, r := range sm.Segs {
			k := len(r.Pages)
			seg := &st.Mem.Segs[j]
			*seg = machine.SegSnapshot{Base: r.Base, Name: r.Name, Size: r.Size, Pages: slots[:k:k], Domain: r.Domain}
			slots = slots[k:]
			for p, id := range r.Pages {
				switch {
				case id == -1:
				case id < 0 || id >= len(packed):
					return nil, fmt.Errorf("store: segment %s page %d references page %d of %d", r.Name, p, id, len(packed))
				default:
					seg.Pages[p] = packed[id]
				}
			}
			if err := seg.Validate(); err != nil {
				return nil, fmt.Errorf("store: snapshot %d: %w", i, err)
			}
		}
		prof.Snaps[i] = profiler.SnapPoint{Dyn: sm.Dyn, State: st, Counts: countsMap(man.Images, sm.Counts)}
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
