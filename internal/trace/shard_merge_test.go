package trace

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// shardTrialRec builds the i'th synthetic per-trial recorder: a small
// ring (so some trials overflow and exercise the dropped/emitted meta
// fidelity), a parent-linked span tree, wall times, and per-trial
// counters.
func shardTrialRec(i int) *Recorder {
	r := New(4)
	act := r.Emit(Span{Kind: KindActivation, Parent: NoParent, StartDyn: uint64(i), Wall: time.Duration(i) * time.Microsecond})
	for j := 0; j < i%6; j++ {
		r.Emit(Span{Kind: KindTrap, Parent: act, StartDyn: uint64(10*i + j), PC: uint64(100 + j), Outcome: "sigsegv"})
	}
	r.Emit(Span{Kind: KindTrial, Parent: NoParent, StartDyn: uint64(i), EndDyn: uint64(i + 1), Outcome: "SoftFailure", Val: int64(i % 3)})
	r.Add("campaign.outcome.SoftFailure", 1)
	r.Add("campaign.latency-sum", int64(i))
	r.Max("campaign.peak", int64(i%7))
	return r
}

// shardRangeFor is a contiguous trial partition, like the chunks the
// campaign coordinator deals: shard s of S owns [s*n/S, (s+1)*n/S).
func shardRangeFor(n, shards, s int) (int, int) {
	return s * n / shards, (s + 1) * n / shards
}

// TestShardJSONLMergeByteIdentical is the shard-boundary property: N
// per-trial recorders split into disjoint contiguous shards, each shard
// merged in trial-index order and exported as JSONL, then decoded and
// merged shard-by-shard, must reproduce the single-recorder JSONL
// byte-for-byte — spans, counter totals, high-water marks, and the meta
// emission totals alike — for any shard count.
func TestShardJSONLMergeByteIdentical(t *testing.T) {
	const nTrials = 23
	single := New(1024)
	for i := 0; i < nTrials; i++ {
		single.MergeAs(shardTrialRec(i), int32(i))
	}
	var want bytes.Buffer
	if err := single.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 2, 3, 5, 8, nTrials} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			merged := New(1024)
			for s := 0; s < shards; s++ {
				lo, hi := shardRangeFor(nTrials, shards, s)
				rec := New(1024)
				for i := lo; i < hi; i++ {
					rec.MergeAs(shardTrialRec(i), int32(i))
				}
				var stream bytes.Buffer
				if err := rec.WriteJSONL(&stream); err != nil {
					t.Fatal(err)
				}
				back, err := ReadJSONL(&stream)
				if err != nil {
					t.Fatal(err)
				}
				// Rank attribution already happened per trial, so the
				// shard stream merges rank-preserving.
				merged.Merge(back)
			}
			var got bytes.Buffer
			if err := merged.WriteJSONL(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want.Bytes(), got.Bytes()) {
				t.Fatalf("sharded JSONL differs from single-recorder JSONL\nwant %d bytes, got %d", want.Len(), got.Len())
			}
			if merged.Emitted() != single.Emitted() || merged.Dropped() != single.Dropped() {
				t.Fatalf("emission totals differ: emitted %d/%d dropped %d/%d",
					merged.Emitted(), single.Emitted(), merged.Dropped(), single.Dropped())
			}
		})
	}
}

// TestReadJSONLRestoresEmissionTotals pins the fidelity contract the
// property above depends on: a recorder whose ring dropped spans keeps
// its ID allocator and drop count across a JSONL round trip, so merging
// the decoded recorder rebases exactly like merging the original.
func TestReadJSONLRestoresEmissionTotals(t *testing.T) {
	r := New(2)
	for i := 0; i < 5; i++ {
		r.Emit(Span{Kind: KindTrap, StartDyn: uint64(i), Parent: NoParent})
	}
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Emitted() != 5 || back.Dropped() != 3 || back.Len() != 2 {
		t.Fatalf("round trip lost totals: emitted=%d dropped=%d len=%d", back.Emitted(), back.Dropped(), back.Len())
	}
	a, b := New(64), New(64)
	a.Merge(r)
	b.Merge(back)
	if a.Emitted() != b.Emitted() || a.Dropped() != b.Dropped() {
		t.Fatalf("post-merge totals diverge: emitted %d/%d dropped %d/%d", a.Emitted(), b.Emitted(), a.Dropped(), b.Dropped())
	}
	if next := a.Emit(Span{Kind: KindTrial, Parent: NoParent}); next != b.Emit(Span{Kind: KindTrial, Parent: NoParent}) {
		t.Fatalf("next assigned ID diverges after merge")
	}
}
