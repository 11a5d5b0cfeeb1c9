package shard

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"care/internal/blas"
	"care/internal/core"
	"care/internal/faultinject"
	"care/internal/profiler"
	"care/internal/store"
	"care/internal/workloads"
)

// The wire layer round-trips every value a worker needs through JSON
// without losing a bit. Only configuration and results cross it, each
// as itself: the campaign or experiment is the spec, and its
// TrialResults or AttemptResults are the done frames. The worker
// rebuilds the binary from a BuildSpec and prepares the golden profile
// itself, so no float stream or memory image is ever encoded here (the
// store manifest is the only encoding of a profile). Trace recorders
// ship as their JSONL export, whose decoder restores the ID allocator
// and drop counts, so a shipped recorder merges exactly like the
// original (the byte-identity contract).

// BuildSpec tells a worker how to rebuild the campaign binary. The
// compiler pipeline is deterministic, so a worker's build is identical
// to the coordinator's — only the spec crosses the process boundary,
// never the binary itself.
type BuildSpec struct {
	// Workload names the registered workload (workloads.Get), or "BLAS":
	// the §5.5 shared-library target, the libblas library plus the
	// sblat1 driver linked against it.
	Workload string
	// Params are the workload's build parameters (unused by "BLAS").
	Params workloads.Params
	// OptLevel is the compiler optimisation level (0 or 1).
	OptLevel int
	// Defenses names the defense passes, in list order (nil =
	// undefended).
	Defenses []string
}

// Build compiles the spec's binary. Exposed so CLIs can share the
// exact build path the workers use. For "BLAS" both images are built
// with the spec's options, and the driver comes back with the library
// as its Deps.
func (b BuildSpec) Build() (*core.Binary, error) {
	opts := core.BuildOptions{OptLevel: b.OptLevel, Defenses: b.Defenses}
	if b.Workload == "BLAS" {
		lib, err := core.BuildLib(blas.Library(), b.OptLevel, 0, b.Defenses)
		if err != nil {
			return nil, fmt.Errorf("BLAS lib: %w", err)
		}
		return core.Build(blas.Sblat1(5), opts, lib)
	}
	w, err := workloads.Get(b.Workload)
	if err != nil {
		return nil, err
	}
	return core.Build(w.Module(b.Params), opts)
}

// Key is the store key of a campaign or coverage search (kind
// "campaign" or "coverage") over this build: the workload, its
// parameters as canonical JSON, the build options, the campaign seed
// and whether the profile carries warm-start snapshots (always on the
// fixed cadence, so nothing else about them needs keying). It is the
// key Prepare caches the golden profile under, and so the one a caller
// seals the campaign's trace under.
func (b BuildSpec) Key(kind string, seed int64, warm bool) store.Key {
	pj, err := json.Marshal(b.Params)
	if err != nil {
		// workloads.Params is a plain value type; Marshal cannot fail.
		panic(fmt.Sprintf("shard: marshal params: %v", err))
	}
	return store.Key{
		Kind: kind, Workload: b.Workload, Params: string(pj),
		OptLevel: b.OptLevel, Defenses: b.Defenses,
		Seed: seed, WarmStart: warm,
	}
}

// WorkerSpec is the one-time configuration frame a worker receives
// before any run frames. Exactly one of Campaign/Coverage is set, and it
// is the coordinator's own campaign or experiment: the JSON encoding
// drops the coordinator-only fields (tagged json:"-"), and the worker
// fills in App from Build and Store from StoreDir. The golden profile
// never crosses the wire: the worker derives it with the same Prepare
// call the coordinator makes, from the shared store at StoreDir when
// one is set (a verified hit, or the same cold fallback the coordinator
// takes on a corrupt entry), otherwise from its own golden and snapshot
// passes.
type WorkerSpec struct {
	Build    BuildSpec                       `json:"build"`
	Campaign *faultinject.Campaign           `json:"campaign,omitempty"`
	Coverage *faultinject.CoverageExperiment `json:"coverage,omitempty"`
	StoreDir string                          `json:"store_dir,omitempty"`
}

// storeDir is the spec's StoreDir for a coordinator-side store.
func storeDir(st *store.Store) string {
	if st == nil {
		return ""
	}
	return st.Dir()
}

// profileDigest fingerprints what every trial reads from a profile:
// the golden run's length, exit code and result bits, and the snapshot
// points. Workers answer their spec with it, and the coordinator
// refuses to merge results from a worker whose profile differs from its
// own (a different binary, configuration, or a nondeterministic
// workload).
func profileDigest(p *profiler.Profile) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(p.TotalDyn)
	put(p.ExitCode)
	put(uint64(len(p.Golden)))
	for _, f := range p.Golden {
		put(math.Float64bits(f))
	}
	put(uint64(len(p.Snaps)))
	for i := range p.Snaps {
		put(p.Snaps[i].Dyn)
	}
	return hex.EncodeToString(h.Sum(nil))
}
