// Package shard is the campaign coordinator: it deals a fault-injection
// index space (campaign trials or coverage attempts) in small chunks to
// whichever shard is idle — a spawned worker subprocess, or an
// in-process runner for tests — and merges the shipped results in index
// order, so a sharded run is byte-identical to a single-process run at
// any shard × worker combination.
//
// The determinism argument is the same one Campaign.Workers already
// makes, lifted across process boundaries: every trial seeds its RNG
// from (Seed, index) alone; every worker prepares the golden profile
// with the coordinator's own Prepare call and proves it with a digest
// before it runs anything; and trace recorders survive the JSONL wire
// format with full merge fidelity (trace.ReadJSONL restores the ID
// allocator and drop counts). Merging shipped results in index order
// therefore reproduces the single-process merge bit for bit, whichever
// worker ran which chunk.
package shard

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Frame types. A worker conversation is:
//
//	coordinator → worker: spec, then any number of run frames, then exit
//	worker → coordinator: ready once its profile is prepared, then one
//	                      done frame per run frame; error aborts
const (
	frameSpec  = "spec"
	frameReady = "ready"
	frameRun   = "run"
	frameDone  = "done"
	frameError = "error"
	frameExit  = "exit"
)

// frame is the single message shape of the worker protocol,
// discriminated by Type. Length-prefixed JSON keeps the transport
// trivially debuggable (pipe through jq) while framing cleanly over
// stdin/stdout.
type frame struct {
	Type string `json:"type"`
	// Spec configures the worker (frameSpec).
	Spec *WorkerSpec `json:"spec,omitempty"`
	// Digest is the worker's profileDigest (frameReady).
	Digest string `json:"digest,omitempty"`
	// Lo/Hi bound an index range (frameRun, frameDone).
	Lo int `json:"lo,omitempty"`
	Hi int `json:"hi,omitempty"`
	// Trials/Attempts carry the range's results in index order
	// (frameDone; mode-dependent).
	Trials   []wireTrial   `json:"trials,omitempty"`
	Attempts []wireAttempt `json:"attempts,omitempty"`
	// Err describes a worker failure (frameError).
	Err string `json:"err,omitempty"`
}

// maxFrame bounds a single frame (at most one range's trial traces);
// 1 GiB is far above anything legitimate and far below the point where
// a corrupt length prefix could wedge the host.
const maxFrame = 1 << 30

// maxPooled caps the capacity a buffer may keep when returned to its
// pool: steady-state result frames reuse their buffer, while the rare
// giant frame (a range of long traces) is released to the GC rather
// than pinned for the life of the process.
const maxPooled = 4 << 20

// frameBufPool recycles encode buffers across writeFrame calls, and
// frameBodyPool recycles decode bodies across readFrame calls. Safe
// because writeFrame flushes the buffer before putting it back and
// json.Unmarshal copies every field (including base64 []byte fields)
// out of the input, so nothing aliases a pooled body after return.
var frameBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

var frameBodyPool = sync.Pool{New: func() any { return new([]byte) }}

// writeFrame emits one length-prefixed JSON frame. The body is encoded
// into a pooled buffer behind a reserved 4-byte header, the header is
// patched once the length is known, and the whole frame goes out in a
// single Write — zero per-frame allocation in steady state.
func writeFrame(w io.Writer, f *frame) error {
	buf := frameBufPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooled {
			buf.Reset()
			frameBufPool.Put(buf)
		}
	}()
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 0})
	// Encoder appends a trailing newline after the JSON value; it is
	// counted in the length prefix and ignored by the decoder.
	if err := json.NewEncoder(buf).Encode(f); err != nil {
		return fmt.Errorf("shard: encode %s frame: %w", f.Type, err)
	}
	body := buf.Bytes()[4:]
	if len(body) > maxFrame {
		return fmt.Errorf("shard: %s frame of %d bytes exceeds limit", f.Type, len(body))
	}
	binary.BigEndian.PutUint32(buf.Bytes()[:4], uint32(len(body)))
	_, err := w.Write(buf.Bytes())
	return err
}

// readFrame reads one length-prefixed JSON frame into a pooled body.
func readFrame(r io.Reader) (*frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("shard: frame length %d exceeds limit (corrupt stream?)", n)
	}
	bp := frameBodyPool.Get().(*[]byte)
	if uint32(cap(*bp)) < n {
		*bp = make([]byte, n)
	}
	body := (*bp)[:n]
	defer func() {
		if cap(*bp) <= maxPooled {
			frameBodyPool.Put(bp)
		}
	}()
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	var f frame
	if err := json.Unmarshal(body, &f); err != nil {
		return nil, fmt.Errorf("shard: decode frame: %w", err)
	}
	return &f, nil
}
