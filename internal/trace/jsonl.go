package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// JSONL export: one JSON object per line, so campaign traces can be
// post-processed offline with standard tooling (jq, pandas). The
// stream is: every retained span oldest-first, then every counter in
// sorted name order, then a trailing meta line with emission totals.
//
//	{"type":"span","kind":"activation","id":0,"parent":-1,...}
//	{"type":"counter","name":"safeguard.recovered","value":3}
//	{"type":"max","name":"safeguard.peak-recovery-bytes","value":9184}
//	{"type":"meta","spans":12,"emitted":12,"dropped":0}

type jsonlSpan struct {
	Type     string `json:"type"`
	Kind     string `json:"kind"`
	ID       int32  `json:"id"`
	Parent   int32  `json:"parent"`
	StartDyn uint64 `json:"start_dyn"`
	EndDyn   uint64 `json:"end_dyn"`
	WallNs   int64  `json:"wall_ns"`
	PC       uint64 `json:"pc,omitempty"`
	Addr     uint64 `json:"addr,omitempty"`
	Outcome  string `json:"outcome,omitempty"`
	Rank     int32  `json:"rank"`
	Val      int64  `json:"val,omitempty"`
}

type jsonlCounter struct {
	Type  string `json:"type"`
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

type jsonlMeta struct {
	Type    string `json:"type"`
	Spans   int    `json:"spans"`
	Emitted int    `json:"emitted"`
	Dropped int    `json:"dropped"`
}

// WriteJSONL streams the recorder to w in the JSONL schema above. A
// nil recorder writes only the meta line, so piping a disabled trace
// still yields a parseable file.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range r.Spans() {
		if err := enc.Encode(jsonlSpan{
			Type: "span", Kind: s.Kind.String(), ID: s.ID, Parent: s.Parent,
			StartDyn: s.StartDyn, EndDyn: s.EndDyn, WallNs: int64(s.Wall),
			PC: s.PC, Addr: s.Addr, Outcome: s.Outcome, Rank: s.Rank, Val: s.Val,
		}); err != nil {
			return err
		}
	}
	for _, n := range r.CounterNames() {
		if err := enc.Encode(jsonlCounter{Type: "counter", Name: n, Value: r.Counter(n)}); err != nil {
			return err
		}
	}
	for _, n := range r.MaxNames() {
		if err := enc.Encode(jsonlCounter{Type: "max", Name: n, Value: r.MaxCounter(n)}); err != nil {
			return err
		}
	}
	if err := enc.Encode(jsonlMeta{Type: "meta", Spans: r.Len(), Emitted: r.Emitted(), Dropped: r.Dropped()}); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadJSONL parses a stream written by WriteJSONL back into a
// Recorder (ring capacity = number of spans read, minimum 1). Span IDs
// are taken from the stream, preserving parent links, and the meta
// line's emission totals restore the ID allocator and drop count — so a
// recorder that round-trips through JSONL merges exactly like the
// original (Merge rebases later IDs by the emitted total, not just by
// the retained spans). The shard coordinator's byte-identity contract
// depends on this fidelity.
func ReadJSONL(rd io.Reader) (*Recorder, error) {
	var spans []Span
	adds := map[string]int64{}
	maxes := map[string]int64{}
	var meta jsonlMeta
	sawMeta := false
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var head struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(raw, &head); err != nil {
			return nil, fmt.Errorf("trace: jsonl line %d: %w", line, err)
		}
		switch head.Type {
		case "span":
			var js jsonlSpan
			if err := json.Unmarshal(raw, &js); err != nil {
				return nil, fmt.Errorf("trace: jsonl line %d: %w", line, err)
			}
			k, ok := KindFromString(js.Kind)
			if !ok {
				k = KindUnknown
			}
			spans = append(spans, Span{
				Kind: k, ID: js.ID, Parent: js.Parent,
				StartDyn: js.StartDyn, EndDyn: js.EndDyn, Wall: time.Duration(js.WallNs),
				PC: js.PC, Addr: js.Addr, Outcome: js.Outcome, Rank: js.Rank, Val: js.Val,
			})
		case "counter", "max":
			var jc jsonlCounter
			if err := json.Unmarshal(raw, &jc); err != nil {
				return nil, fmt.Errorf("trace: jsonl line %d: %w", line, err)
			}
			if head.Type == "counter" {
				adds[jc.Name] = jc.Value
			} else {
				maxes[jc.Name] = jc.Value
			}
		case "meta":
			if err := json.Unmarshal(raw, &meta); err != nil {
				return nil, fmt.Errorf("trace: jsonl line %d: %w", line, err)
			}
			sawMeta = true
		default:
			return nil, fmt.Errorf("trace: jsonl line %d: unknown record type %q", line, head.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawMeta {
		return nil, fmt.Errorf("trace: jsonl stream has no meta line (truncated?)")
	}
	cap := len(spans)
	if cap < 1 {
		cap = 1
	}
	r := New(cap)
	var maxID int32 = -1
	for _, s := range spans {
		r.spans = append(r.spans, s)
		if s.ID > maxID {
			maxID = s.ID
		}
	}
	r.nextID = maxID + 1
	// Emission totals from the meta line trump the retained-span count:
	// IDs dropped by the writer's ring still consume ID space, and the
	// drop tally must survive the round trip for Merge to keep both
	// consistent downstream.
	if int32(meta.Emitted) > r.nextID {
		r.nextID = int32(meta.Emitted)
	}
	r.dropped = meta.Dropped
	for n, v := range adds {
		r.Add(n, v)
	}
	for n, v := range maxes {
		r.Max(n, v)
	}
	return r, nil
}

// MarshalJSON encodes the recorder as its JSONL export, carried as a
// JSON string like any []byte, so a recorder inside a JSON message
// (a shard worker's trial results) crosses with the same fidelity as a
// JSONL file. encoding/json writes a nil *Recorder as null.
func (r *Recorder) MarshalJSON() ([]byte, error) {
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		return nil, err
	}
	return json.Marshal(buf.Bytes())
}

// UnmarshalJSON is the inverse of MarshalJSON: it decodes the JSONL
// export with ReadJSONL, restoring the emission totals.
func (r *Recorder) UnmarshalJSON(data []byte) error {
	var jsonl []byte
	if err := json.Unmarshal(data, &jsonl); err != nil {
		return err
	}
	rec, err := ReadJSONL(bytes.NewReader(jsonl))
	if err != nil {
		return err
	}
	*r = *rec
	return nil
}
