package store

import (
	"bytes"
	"os"
	"runtime"
	"testing"

	"care/internal/core"
	"care/internal/profiler"
	"care/internal/workloads"
)

// hpccgPayload returns the manifest payload of a real warm profile: the
// HPCCG 8x8x8 O0 binary with the campaign path's default snapshots (63
// of them, profiler.RunWithDefaultSnapshots), its .text packed
// alongside.
func hpccgPayload(tb testing.TB) []byte {
	tb.Helper()
	w, err := workloads.Get("HPCCG")
	if err != nil {
		tb.Fatal(err)
	}
	bin, err := core.Build(w.Module(workloads.Params{NX: 8, NY: 8, NZ: 8}), core.BuildOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	prof, err := profiler.RunWithDefaultSnapshots(bin)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := Open(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	key := Key{Kind: "campaign", Workload: "HPCCG", Params: `{"NX":8,"NY":8,"NZ":8}`, Seed: 9, WarmStart: true}
	if err := s.PutProfile(key, prof, []TextImage{{Name: bin.Prog.Name, Data: bin.Prog.CodeImage()}}); err != nil {
		tb.Fatal(err)
	}
	b, err := os.ReadFile(s.manifestPath(key.ID()))
	if err != nil {
		tb.Fatal(err)
	}
	return b[len(Hash{}):]
}

// FuzzDecodeManifest feeds arbitrary payloads to the manifest decoder
// behind the checksum, as if a store were written by an adversary who
// recomputes it. The decoder must never panic and never allocate more
// than the payload's bytes can describe (each list element costs at
// least one byte, and no decoded element is more than 32 times its
// smallest encoding). A manifest it returns re-encodes to a payload
// that decodes to the same encoding, and one that also passes check
// slices a pack spanning its bounds without panicking: whatever is
// wrong with it is refused there, before a trial could use it.
func FuzzDecodeManifest(f *testing.F) {
	hpccg := hpccgPayload(f)
	if man, err := decodePayload(hpccg); err != nil || man.check() != nil {
		f.Fatalf("HPCCG manifest does not decode and check: %v", err)
	}
	s, key := storedProfile(f)
	f.Add(hpccg)
	f.Add(appendManifest(nil, readManifest(f, s, key)))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		man, err := decodePayload(payload)
		runtime.ReadMemStats(&after)
		if n, limit := after.TotalAlloc-before.TotalAlloc, 32*uint64(len(payload))+64<<10; n > limit {
			t.Fatalf("decoding %d payload bytes allocated %d bytes (limit %d)", len(payload), n, limit)
		}
		if err != nil {
			return
		}
		enc := appendManifest(nil, man)
		again, err := decodePayload(enc)
		if err != nil {
			t.Fatalf("re-encoded manifest does not decode: %v", err)
		}
		if !bytes.Equal(appendManifest(nil, again), enc) {
			t.Fatal("re-encoded manifest decodes to a different manifest")
		}
		if man.check() != nil || len(man.Bounds) == 0 {
			return
		}
		if end := man.Bounds[len(man.Bounds)-1]; end >= 0 && end <= 1<<22 {
			man.profile(make([]byte, end))
		}
	})
}
