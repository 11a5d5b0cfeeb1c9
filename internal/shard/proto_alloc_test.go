package shard

import (
	"bytes"
	"io"
	"runtime"
	"testing"
)

// bigBatchFrame builds a result frame carrying ~1 MiB of trial trace
// payload, the shape that dominates the wire in a real campaign.
func bigBatchFrame() (*frame, int) {
	payload := bytes.Repeat([]byte(`{"type":"span","kind":"trial","id":0}`+"\n"), 1<<15)
	f := &frame{Type: frameDone, Hi: 2}
	for i := 0; i < 2; i++ {
		f.Trials = append(f.Trials, wireTrial{Index: i, TraceJSONL: payload})
	}
	return f, 2 * len(payload)
}

// allocBytesPerOp measures heap bytes allocated per call of fn.
func allocBytesPerOp(t *testing.T, runs int, fn func()) uint64 {
	t.Helper()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestWriteFramePooledAllocation pins the sync.Pool reuse in
// writeFrame: encoding a ~1 MiB frame must not allocate a fresh
// payload-sized buffer per call once the pool is warm.
func TestWriteFramePooledAllocation(t *testing.T) {
	f, payload := bigBatchFrame()
	// Warm the pool.
	for i := 0; i < 4; i++ {
		if err := writeFrame(io.Discard, f); err != nil {
			t.Fatal(err)
		}
	}
	got := allocBytesPerOp(t, 50, func() {
		if err := writeFrame(io.Discard, f); err != nil {
			t.Fatal(err)
		}
	})
	// The encoder's base64 output (~4/3 x payload) lands in the pooled
	// buffer; per-op garbage must stay well under one payload. Without
	// the pool this measures >1.3x payload.
	if limit := uint64(payload) / 2; got > limit {
		t.Fatalf("writeFrame allocates %d B/op, want <= %d (pool not reused?)", got, limit)
	}
}

// TestReadFramePooledAllocation pins the pooled decode body: per-op
// allocation must cover only the decoded fields handed to the caller
// (~1x payload), not also a fresh frame-sized read buffer (~2.3x).
func TestReadFramePooledAllocation(t *testing.T) {
	f, payload := bigBatchFrame()
	var buf bytes.Buffer
	if err := writeFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	read := func() {
		g, err := readFrame(bytes.NewReader(wire))
		if err != nil {
			t.Fatal(err)
		}
		if len(g.Trials) != len(f.Trials) {
			t.Fatalf("round trip lost trials")
		}
	}
	for i := 0; i < 4; i++ {
		read() // warm the pool
	}
	got := allocBytesPerOp(t, 50, read)
	if limit := uint64(payload) * 2; got > limit {
		t.Fatalf("readFrame allocates %d B/op, want <= %d (body pool not reused?)", got, limit)
	}
}

// TestSmallFrameSteadyStateAllocs pins the control-plane frames (run /
// done / exit) to a near-zero allocation budget per round trip.
func TestSmallFrameSteadyStateAllocs(t *testing.T) {
	f := &frame{Type: frameRun, Lo: 10, Hi: 20}
	var buf bytes.Buffer
	for i := 0; i < 4; i++ {
		buf.Reset()
		if err := writeFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
		if _, err := readFrame(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf.Reset()
		if err := writeFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
		g, err := readFrame(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if g.Lo != 10 || g.Hi != 20 {
			t.Fatal("round trip corrupted range")
		}
	})
	// Encoder + decoder scratch and the returned frame; anything above
	// this means a per-frame buffer crept back in.
	if allocs > 16 {
		t.Fatalf("small frame round trip allocates %.0f objects/op, want <= 16", allocs)
	}
}

// TestFrameRoundTripAfterPooling guards the correctness edge of reuse:
// interleaved frames of different sizes must never leak bytes from a
// previous (larger) frame into a later one.
func TestFrameRoundTripAfterPooling(t *testing.T) {
	big, _ := bigBatchFrame()
	small := &frame{Type: frameDone, Lo: 1, Hi: 2}
	for i := 0; i < 8; i++ {
		var buf bytes.Buffer
		if err := writeFrame(&buf, big); err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(&buf, small); err != nil {
			t.Fatal(err)
		}
		r := bytes.NewReader(buf.Bytes())
		g1, err := readFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		g2, err := readFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		if g1.Type != frameDone || len(g1.Trials) != 2 {
			t.Fatalf("big frame corrupted: %+v", g1.Type)
		}
		if g2.Type != frameDone || g2.Lo != 1 || g2.Hi != 2 || len(g2.Trials) != 0 {
			t.Fatalf("small frame corrupted after pooled reuse: %+v", g2)
		}
	}
}
