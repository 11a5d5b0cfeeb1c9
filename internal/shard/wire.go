package shard

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"care/internal/checkpoint"
	"care/internal/core"
	"care/internal/faultinject"
	"care/internal/machine"
	"care/internal/profiler"
	"care/internal/safeguard"
	"care/internal/store"
	"care/internal/trace"
	"care/internal/workloads"
)

// The wire layer round-trips every value a worker needs through JSON
// without losing a bit. Only configuration and results cross it: the
// worker rebuilds the binary from a BuildSpec and prepares the golden
// profile itself, so no float stream or memory image is ever encoded
// here (the store manifest is the only encoding of a profile). Trace
// recorders ship as their JSONL export, whose decoder restores the ID
// allocator and drop counts, so a shipped recorder merges exactly like
// the original (the byte-identity contract).

// BuildSpec tells a worker how to rebuild the campaign binary. The
// compiler pipeline is deterministic, so a worker's build is identical
// to the coordinator's — only the spec crosses the process boundary,
// never the binary itself.
type BuildSpec struct {
	// Workload names the registered workload (workloads.Get).
	Workload string
	// Params are the workload's build parameters.
	Params workloads.Params
	// OptLevel is the compiler optimisation level (0 or 1).
	OptLevel int
	// Defenses names the defense passes, in list order (nil =
	// undefended).
	Defenses []string
}

// Build compiles the spec's binary. Exposed so CLIs can share the
// exact build path the workers use.
func (b BuildSpec) Build() (*core.Binary, error) {
	w, err := workloads.Get(b.Workload)
	if err != nil {
		return nil, err
	}
	return core.Build(w.Module(b.Params), core.BuildOptions{OptLevel: b.OptLevel, Defenses: b.Defenses})
}

// CampaignSpec is the process-portable subset of faultinject.Campaign:
// everything except the binaries (rebuilt from BuildSpec), the store
// (reopened from WorkerSpec.StoreDir) and the coordinator-only knobs
// (Shards, ShardExec, Progress). TestSpecMirrorsConfig fails when a new
// Campaign field is neither mirrored here nor coordinator-only.
type CampaignSpec struct {
	N                int
	FaultsPerTrial   int
	Model            faultinject.Model
	Seed             int64
	HangFactor       uint64
	TrackPropagation bool
	Workers          int
	Trace            bool
	WarmStart        bool
	SnapEvery        uint64
	Tier             machine.InterpTier
	Domains          bool
	Protected        bool
	Safeguard        safeguard.Config
	StoreKey         store.Key
}

// campaignSpecOf extracts the portable subset of c.
func campaignSpecOf(c *faultinject.Campaign) *CampaignSpec {
	return &CampaignSpec{
		N: c.N, FaultsPerTrial: c.FaultsPerTrial, Model: c.Model,
		Seed: c.Seed, HangFactor: c.HangFactor,
		TrackPropagation: c.TrackPropagation, Workers: c.Workers,
		Trace: c.Trace, WarmStart: c.WarmStart, SnapEvery: c.SnapEvery,
		Tier: c.Tier, Domains: c.Domains,
		Protected: c.Protected, Safeguard: c.Safeguard, StoreKey: c.StoreKey,
	}
}

// campaign rebuilds a runnable Campaign around a worker-built binary.
func (s *CampaignSpec) campaign(app *core.Binary, libs []*core.Binary) *faultinject.Campaign {
	return &faultinject.Campaign{
		App: app, Libs: libs,
		N: s.N, FaultsPerTrial: s.FaultsPerTrial, Model: s.Model,
		Seed: s.Seed, HangFactor: s.HangFactor,
		TrackPropagation: s.TrackPropagation, Workers: s.Workers,
		Trace: s.Trace, WarmStart: s.WarmStart, SnapEvery: s.SnapEvery,
		Tier: s.Tier, Domains: s.Domains,
		Protected: s.Protected, Safeguard: s.Safeguard, StoreKey: s.StoreKey,
	}
}

// CoverageSpec is the process-portable subset of
// faultinject.CoverageExperiment, mirroring CampaignSpec.
type CoverageSpec struct {
	TargetImages           []string
	Trials                 int
	MaxAttempts            int
	FaultsPerTrial         int
	Model                  faultinject.Model
	Seed                   int64
	Safeguard              safeguard.Config
	CheckpointEveryResults int
	CheckpointModel        checkpoint.CostModel
	HangFactor             uint64
	RecordInjections       bool
	Workers                int
	Trace                  bool
	WarmStart              bool
	SnapEvery              uint64
	Tier                   machine.InterpTier
	StoreKey               store.Key
}

func coverageSpecOf(e *faultinject.CoverageExperiment) *CoverageSpec {
	return &CoverageSpec{
		TargetImages: e.TargetImages, Trials: e.Trials,
		MaxAttempts: e.MaxAttempts, FaultsPerTrial: e.FaultsPerTrial,
		Model: e.Model, Seed: e.Seed, Safeguard: e.Safeguard,
		CheckpointEveryResults: e.CheckpointEveryResults,
		CheckpointModel:        e.CheckpointModel,
		HangFactor:             e.HangFactor,
		RecordInjections:       e.RecordInjections,
		Workers:                e.Workers, Trace: e.Trace,
		WarmStart: e.WarmStart, SnapEvery: e.SnapEvery,
		Tier: e.Tier, StoreKey: e.StoreKey,
	}
}

func (s *CoverageSpec) experiment(app *core.Binary, libs []*core.Binary) *faultinject.CoverageExperiment {
	return &faultinject.CoverageExperiment{
		App: app, Libs: libs,
		TargetImages: s.TargetImages, Trials: s.Trials,
		MaxAttempts: s.MaxAttempts, FaultsPerTrial: s.FaultsPerTrial,
		Model: s.Model, Seed: s.Seed, Safeguard: s.Safeguard,
		CheckpointEveryResults: s.CheckpointEveryResults,
		CheckpointModel:        s.CheckpointModel,
		HangFactor:             s.HangFactor,
		RecordInjections:       s.RecordInjections,
		Workers:                s.Workers, Trace: s.Trace,
		WarmStart: s.WarmStart, SnapEvery: s.SnapEvery,
		Tier: s.Tier, StoreKey: s.StoreKey,
	}
}

// WorkerSpec is the one-time configuration frame a worker receives
// before any run frames. Exactly one of Campaign/Coverage is set. The
// golden profile never crosses the wire: the worker derives it with the
// same Prepare call the coordinator makes, from the shared store at
// StoreDir when one is set (a verified hit, or the same cold fallback
// the coordinator takes on a corrupt entry), otherwise from its own
// golden and snapshot passes.
type WorkerSpec struct {
	Build    BuildSpec     `json:"build"`
	Campaign *CampaignSpec `json:"campaign,omitempty"`
	Coverage *CoverageSpec `json:"coverage,omitempty"`
	StoreDir string        `json:"store_dir,omitempty"`
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

// wireTrial ships one faultinject.TrialResult; the recorder goes as
// its JSONL export (base64 inside the JSON frame).
type wireTrial struct {
	Index        int                   `json:"index"`
	Inj          faultinject.Injection `json:"inj"`
	Fired        bool                  `json:"fired,omitempty"`
	SkippedDyn   uint64                `json:"skipped_dyn,omitempty"`
	ConvergedDyn uint64                `json:"converged_dyn,omitempty"`
	TraceJSONL   []byte                `json:"trace_jsonl"`
}

func encodeTrial(t *faultinject.TrialResult) (wireTrial, error) {
	var buf bytes.Buffer
	if err := t.Rec.WriteJSONL(&buf); err != nil {
		return wireTrial{}, err
	}
	return wireTrial{
		Index: t.Index, Inj: t.Inj, Fired: t.Fired,
		SkippedDyn: t.SkippedDyn, ConvergedDyn: t.ConvergedDyn,
		TraceJSONL: buf.Bytes(),
	}, nil
}

func decodeTrial(w *wireTrial) (faultinject.TrialResult, error) {
	rec, err := trace.ReadJSONL(bytes.NewReader(w.TraceJSONL))
	if err != nil {
		return faultinject.TrialResult{}, fmt.Errorf("shard: trial %d trace: %w", w.Index, err)
	}
	return faultinject.TrialResult{
		Index: w.Index, Inj: w.Inj, Fired: w.Fired,
		SkippedDyn: w.SkippedDyn, ConvergedDyn: w.ConvergedDyn, Rec: rec,
	}, nil
}

// wireAttempt ships one faultinject.AttemptResult. Uncounted attempts
// carry no trace (nil recorder on both ends).
type wireAttempt struct {
	Index       int                           `json:"index"`
	Counted     bool                          `json:"counted,omitempty"`
	Events      []safeguard.Event             `json:"events,omitempty"`
	TraceJSONL  []byte                        `json:"trace_jsonl,omitempty"`
	Recovered   bool                          `json:"recovered,omitempty"`
	Clean       bool                          `json:"clean,omitempty"`
	RecTimeNs   int64                         `json:"rec_time_ns,omitempty"`
	Activations int                           `json:"activations,omitempty"`
	Failure     safeguard.Outcome             `json:"failure,omitempty"`
	Rec         faultinject.RecordedInjection `json:"rec,omitempty"`
}

func encodeAttempt(a *faultinject.AttemptResult) (wireAttempt, error) {
	w := wireAttempt{
		Index: a.Index, Counted: a.Counted, Events: a.Events,
		Recovered: a.Recovered, Clean: a.Clean,
		RecTimeNs: a.RecTime.Nanoseconds(), Activations: a.Activations,
		Failure: a.Failure, Rec: a.Rec,
	}
	if a.Trace != nil {
		var buf bytes.Buffer
		if err := a.Trace.WriteJSONL(&buf); err != nil {
			return wireAttempt{}, err
		}
		w.TraceJSONL = buf.Bytes()
	}
	return w, nil
}

func decodeAttempt(w *wireAttempt) (faultinject.AttemptResult, error) {
	a := faultinject.AttemptResult{
		Index: w.Index, Counted: w.Counted, Events: w.Events,
		Recovered: w.Recovered, Clean: w.Clean,
		RecTime: time.Duration(w.RecTimeNs), Activations: w.Activations,
		Failure: w.Failure, Rec: w.Rec,
	}
	if len(w.TraceJSONL) > 0 {
		rec, err := trace.ReadJSONL(bytes.NewReader(w.TraceJSONL))
		if err != nil {
			return faultinject.AttemptResult{}, fmt.Errorf("shard: attempt %d trace: %w", w.Index, err)
		}
		a.Trace = rec
	}
	return a, nil
}
