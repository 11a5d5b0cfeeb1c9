package trace

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

func TestEmitAndSpansOrder(t *testing.T) {
	r := New(8)
	for i := 0; i < 5; i++ {
		id := r.Emit(Span{Kind: KindTrial, StartDyn: uint64(i), EndDyn: uint64(i + 1), Parent: NoParent})
		if id != int32(i) {
			t.Fatalf("span %d got ID %d", i, id)
		}
	}
	spans := r.Spans()
	if len(spans) != 5 || r.Emitted() != 5 || r.Dropped() != 0 {
		t.Fatalf("len=%d emitted=%d dropped=%d", len(spans), r.Emitted(), r.Dropped())
	}
	for i, s := range spans {
		if s.ID != int32(i) || s.StartDyn != uint64(i) {
			t.Fatalf("span %d out of order: %+v", i, s)
		}
	}
}

func TestRingDropsOldestKeepsCounters(t *testing.T) {
	r := New(4)
	for i := 0; i < 10; i++ {
		r.Emit(Span{Kind: KindTrap, StartDyn: uint64(i), Parent: NoParent})
		r.Add("traps", 1)
	}
	spans := r.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(spans))
	}
	// Oldest-first: the survivors are emissions 6..9.
	for i, s := range spans {
		if want := uint64(6 + i); s.StartDyn != want {
			t.Fatalf("span %d has StartDyn %d, want %d", i, s.StartDyn, want)
		}
	}
	if r.Dropped() != 6 || r.Emitted() != 10 {
		t.Fatalf("dropped=%d emitted=%d, want 6/10", r.Dropped(), r.Emitted())
	}
	if r.Counter("traps") != 10 {
		t.Fatalf("counter degraded with ring drops: %d", r.Counter("traps"))
	}
}

func TestMergeRebasesIDsAndParents(t *testing.T) {
	a := New(16)
	actA := a.Emit(Span{Kind: KindActivation, Parent: NoParent})
	a.Emit(Span{Kind: KindKernel, Parent: actA})
	a.Add("n", 1)
	a.Max("peak", 5)

	b := New(16)
	actB := b.Emit(Span{Kind: KindActivation, Parent: NoParent})
	b.Emit(Span{Kind: KindDiagnose, Parent: actB})
	b.Add("n", 2)
	b.Max("peak", 3)

	a.MergeAs(b, 7)
	spans := a.Spans()
	if len(spans) != 4 {
		t.Fatalf("merged span count %d, want 4", len(spans))
	}
	// b's activation was rebased past a's IDs and its child follows it.
	if spans[2].ID != 2 || spans[2].Kind != KindActivation || spans[2].Rank != 7 {
		t.Fatalf("rebased activation: %+v", spans[2])
	}
	if spans[3].Parent != spans[2].ID || spans[3].Rank != 7 {
		t.Fatalf("child lost its parent link: %+v", spans[3])
	}
	// a's own spans keep Rank untouched by MergeAs.
	if spans[0].Rank != 0 {
		t.Fatalf("pre-merge span rank mutated: %+v", spans[0])
	}
	if a.Counter("n") != 3 {
		t.Fatalf("additive counter merge: %d", a.Counter("n"))
	}
	if a.MaxCounter("peak") != 5 {
		t.Fatalf("max counter merge: %d", a.MaxCounter("peak"))
	}
}

func TestMergeDeterministicAcrossGrouping(t *testing.T) {
	// Merging [t0, t1, t2] one by one equals merging [t0] then [t1+t2]
	// pre-merged — the property the campaign's trial-ordered merge
	// relies on.
	mk := func(i int) *Recorder {
		r := New(8)
		id := r.Emit(Span{Kind: KindTrial, StartDyn: uint64(i), Parent: NoParent})
		r.Emit(Span{Kind: KindTrap, Parent: id})
		r.Add("outcome.Benign", 1)
		return r
	}
	flat := New(64)
	for i := 0; i < 3; i++ {
		flat.MergeAs(mk(i), int32(i))
	}
	grouped := New(64)
	grouped.MergeAs(mk(0), 0)
	sub := New(64)
	sub.MergeAs(mk(1), 1)
	sub.MergeAs(mk(2), 2)
	grouped.Merge(sub)
	if !reflect.DeepEqual(flat.Spans(), grouped.Spans()) {
		t.Fatalf("span streams differ:\n%+v\nvs\n%+v", flat.Spans(), grouped.Spans())
	}
	if flat.Counter("outcome.Benign") != grouped.Counter("outcome.Benign") {
		t.Fatal("counters differ across merge grouping")
	}
}

func TestNilRecorderIsNoOpWithoutAllocations(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		r.Emit(Span{Kind: KindTrap})
		r.Add("x", 1)
		r.Max("y", 2)
		_ = r.Counter("x")
		_ = r.Enabled()
		_ = r.Len()
	})
	if allocs != 0 {
		t.Fatalf("nil recorder allocates %.1f times per op set", allocs)
	}
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	if got := r.Emit(Span{}); got != NoParent {
		t.Fatalf("nil Emit returned %d", got)
	}
	if r.Spans() != nil || r.CounterNames() != nil {
		t.Fatal("nil recorder returned non-nil views")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	r := New(16)
	act := r.Emit(Span{
		Kind: KindActivation, Parent: NoParent, StartDyn: 42, EndDyn: 42,
		Wall: 1500 * time.Nanosecond, PC: 0x1000, Addr: 0x7eee0000,
		Outcome: "recovered", Rank: 3, Val: 0,
	})
	r.Emit(Span{Kind: KindKernel, Parent: act, Wall: 25, StartDyn: 42, EndDyn: 42, Rank: 3})
	r.Emit(Span{Kind: KindCheckpointSave, Parent: NoParent, Wall: 99, Val: 4096})
	r.Add("safeguard.recovered", 1)
	r.Add("campaign.outcome.Benign", 7)
	r.Max("safeguard.peak-recovery-bytes", 9184)

	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Spans(), back.Spans()) {
		t.Fatalf("spans did not round-trip:\n%+v\nvs\n%+v", r.Spans(), back.Spans())
	}
	if back.Counter("campaign.outcome.Benign") != 7 || back.MaxCounter("safeguard.peak-recovery-bytes") != 9184 {
		t.Fatal("counters did not round-trip")
	}
}

func TestJSONLNilAndErrors(t *testing.T) {
	var r *Recorder
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("nil recorder stream did not parse: %v", err)
	}
	if back.Len() != 0 {
		t.Fatalf("nil stream produced %d spans", back.Len())
	}
	if _, err := ReadJSONL(bytes.NewBufferString("{\"type\":\"span\"}\n")); err == nil {
		t.Fatal("truncated stream (no meta) parsed without error")
	}
	if _, err := ReadJSONL(bytes.NewBufferString("not json\n")); err == nil {
		t.Fatal("garbage stream parsed without error")
	}
}

func TestKindStringHardened(t *testing.T) {
	if KindKernel.String() != "kernel" {
		t.Fatalf("kernel kind renders as %q", KindKernel.String())
	}
	if got := Kind(200).String(); got != "unknown(200)" {
		t.Fatalf("out-of-range kind renders as %q", got)
	}
	if k, ok := KindFromString("rank-stall"); !ok || k != KindRankStall {
		t.Fatalf("KindFromString(rank-stall) = %v, %v", k, ok)
	}
	if _, ok := KindFromString("bogus"); ok {
		t.Fatal("KindFromString accepted a bogus name")
	}
}

func TestReset(t *testing.T) {
	r := New(4)
	r.Emit(Span{Kind: KindTrap})
	r.Add("a", 1)
	r.Reset()
	if r.Len() != 0 || r.Emitted() != 0 || r.Counter("a") != 0 {
		t.Fatalf("reset left state behind: %+v", r)
	}
}
