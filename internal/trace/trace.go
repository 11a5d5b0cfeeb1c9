// Package trace is the structured accounting spine of the CARE
// reproduction. Every subsystem that used to keep a private ledger —
// Safeguard's per-activation phase timings (Figure 9), the checkpoint
// store's modelled I/O charges, the fault-injection campaign's outcome
// and latency counters (Tables 2-4), the cluster scheduler's per-rank
// stall attribution (Figure 10) — emits typed spans and counters into a
// Recorder instead, and the report layers derive their tables from one
// aggregation API.
//
// Spans are stamped on two clocks at once: the machine's virtual clock
// (retired dynamic instructions, exactly reproducible for any worker
// count) and wall time (the measured or modelled duration of the work
// inside the span). A nil *Recorder is the disabled recorder: every
// method is a nil-safe no-op that performs no allocation, so hot paths
// (the CPU step loop, the campaign trial loop) can call it
// unconditionally.
package trace

import (
	"fmt"
	"time"
)

// Kind identifies what a span measures.
type Kind uint8

// Span kinds. The Diagnose..Rollback block mirrors the phases of one
// Safeguard activation (paper Algorithm 1 / Figure 9); an Activation
// span is their parent.
const (
	// KindUnknown is the zero Kind; no subsystem emits it.
	KindUnknown Kind = iota
	// KindActivation is one Safeguard activation; its Outcome attribute
	// is the safeguard outcome, PC/Addr locate the fault, and Wall is
	// the end-to-end recovery time.
	KindActivation
	// KindDiagnose: PC -> source key -> recovery-table entry.
	KindDiagnose
	// KindLoad: decode the table + dlopen the recovery library.
	KindLoad
	// KindFetch: kernel-argument retrieval via debug info.
	KindFetch
	// KindKernel: recovery-kernel execution.
	KindKernel
	// KindPatch: operand update (plus the scope check).
	KindPatch
	// KindRollback: checkpoint restore performed by the escalation
	// chain; Wall includes the modelled snapshot read and requeue.
	KindRollback
	// KindCheckpointSave is one snapshot write; Wall is the modelled
	// write cost and Val the snapshot size in bytes.
	KindCheckpointSave
	// KindCheckpointRestore is one snapshot read-back; StartDyn is the
	// pre-restore clock and EndDyn the (earlier) restored clock, making
	// the virtual-time rewind visible in the trace.
	KindCheckpointRestore
	// KindTrap is a machine-level trap delivery stamp (emitted by the
	// CPU when tracing is enabled on it).
	KindTrap
	// KindTrial is one fault-injection trial (or coverage attempt); for
	// fired soft failures StartDyn..EndDyn is the manifestation window,
	// so EndDyn-StartDyn is the crash latency in dynamic instructions.
	// Val counts the trial's fired faults.
	KindTrial
	// KindRankStall is one rank's recovery stall in a parallel job;
	// Wall is the summed Safeguard time attributed to that rank.
	KindRankStall
	// KindJob is one parallel-job execution; Wall is the job's virtual
	// time and EndDyn the slowest rank's instruction count.
	KindJob
	// KindDomainRewind is one domain-scoped partial rollback: as a
	// checkpoint-store span it records the memory swap (Val = domain
	// bytes, Outcome = domain name); as a Safeguard phase span (child of
	// an activation) it carries the stage's wall cost with Val holding
	// the machine.DomainID.
	KindDomainRewind
)

var kindNames = [...]string{
	KindUnknown:           "unknown",
	KindActivation:        "activation",
	KindDiagnose:          "diagnose",
	KindLoad:              "load",
	KindFetch:             "fetch",
	KindKernel:            "kernel",
	KindPatch:             "patch",
	KindRollback:          "rollback",
	KindCheckpointSave:    "checkpoint-save",
	KindCheckpointRestore: "checkpoint-restore",
	KindTrap:              "trap",
	KindTrial:             "trial",
	KindRankStall:         "rank-stall",
	KindJob:               "job",
	KindDomainRewind:      "domain-rewind",
}

// String names the kind; out-of-range values render as "unknown(N)"
// instead of panicking.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("unknown(%d)", uint8(k))
}

// KindFromString inverts String for the named kinds (JSONL decoding).
func KindFromString(s string) (Kind, bool) {
	for k, n := range kindNames {
		if n == s {
			return Kind(k), true
		}
	}
	return KindUnknown, false
}

// NoParent marks a root span.
const NoParent int32 = -1

// Span is one traced interval (or instantaneous stamp, when
// StartDyn == EndDyn and Wall == 0).
//
// Dyn stamps are on the owning machine's virtual clock and are exactly
// reproducible; Wall durations are measured (Safeguard phases) or
// modelled (checkpoint I/O, requeue) and are the only nondeterministic
// field — determinism tests scrub them.
type Span struct {
	Kind Kind
	// ID is assigned by the Recorder in emission order; Parent links a
	// phase span to its activation (NoParent for roots). Merging
	// recorders rebases both consistently.
	ID     int32
	Parent int32
	// StartDyn/EndDyn stamp the span on the virtual clock (retired
	// dynamic instructions of the CPU the work belongs to).
	StartDyn uint64
	EndDyn   uint64
	// Wall is the measured or modelled duration of the span.
	Wall time.Duration
	// PC and Addr locate a fault (activation and trap spans).
	PC   uint64
	Addr uint64
	// Outcome is a small free-form attribute: the safeguard outcome of
	// an activation, the injection outcome of a trial, the signal of a
	// trap stamp.
	Outcome string
	// Rank attributes the span to a cluster rank or trial index
	// (assigned by Recorder.MergeAs for merged sub-traces).
	Rank int32
	// Val is a kind-specific magnitude: snapshot bytes for checkpoint
	// spans, fired-fault count for trial spans.
	Val int64
}

// DynSpan returns the span's extent on the virtual clock. For
// checkpoint-restore spans (a rewind) it returns 0.
func (s Span) DynSpan() uint64 {
	if s.EndDyn < s.StartDyn {
		return 0
	}
	return s.EndDyn - s.StartDyn
}
