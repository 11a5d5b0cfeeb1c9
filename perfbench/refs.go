package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sort"
	"strconv"
	"strings"
)

// refsFile holds the committed reference fingerprints, keyed by
// section (one per workload family) and then by campaign seed.
const refsFile = "perfbench/refs.json"

type refSet map[string]map[string]json.RawMessage

// refSection maps a workload to its reference section: both inject
// workloads run the same campaign definition, so they share one.
func refSection(workload string) string {
	if strings.HasPrefix(workload, "inject-") {
		return "inject"
	}
	return workload
}

func loadRefs() (refSet, error) {
	b, err := os.ReadFile(refsFile)
	if err != nil {
		return nil, fmt.Errorf("load references: %w", err)
	}
	var r refSet
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("parse %s: %w", refsFile, err)
	}
	return r, nil
}

// lookup returns the compact JSON of the reference for seed.
func (r refSet) lookup(section string, seed int64) ([]byte, bool) {
	raw, ok := r[section][strconv.FormatInt(seed, 10)]
	if !ok {
		return nil, false
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return nil, false
	}
	return buf.Bytes(), true
}

// updateRefs recomputes the references of one workload for the seeds
// in spec ("LO-HI") on the workload's independent path and rewrites
// refs.json with them.
func updateRefs(name, spec, dir string) error {
	lo, hi, ok := strings.Cut(spec, "-")
	from, err1 := strconv.ParseInt(lo, 10, 64)
	to, err2 := strconv.ParseInt(hi, 10, 64)
	if !ok || err1 != nil || err2 != nil || to < from {
		return fmt.Errorf("-write-refs wants LO-HI, got %q", spec)
	}
	r, err := loadRefs()
	if errors.Is(err, fs.ErrNotExist) {
		r, err = refSet{}, nil
	}
	if err != nil {
		return err
	}
	section := refSection(name)
	if r[section] == nil {
		r[section] = map[string]json.RawMessage{}
	}
	for seed := from; seed <= to; seed++ {
		fp, err := seedReference(name, seed, dir)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		b, err := json.Marshal(fp)
		if err != nil {
			return err
		}
		r[section][strconv.FormatInt(seed, 10)] = b
		fmt.Fprintf(os.Stderr, "%s seed %d: %s\n", section, seed, b)
	}
	return os.WriteFile(refsFile, r.encode(), 0o644)
}

// encode renders the references one seed per line, sections and seeds
// in ascending order.
func (r refSet) encode() []byte {
	var b bytes.Buffer
	b.WriteString("{")
	for i, section := range sortedKeys(r) {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "\n %q: {", section)
		seeds := make([]int64, 0, len(r[section]))
		for s := range r[section] {
			n, _ := strconv.ParseInt(s, 10, 64)
			seeds = append(seeds, n)
		}
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		for j, s := range seeds {
			if j > 0 {
				b.WriteString(",")
			}
			var fp bytes.Buffer
			_ = json.Compact(&fp, r[section][strconv.FormatInt(s, 10)])
			fmt.Fprintf(&b, "\n  \"%d\": %s", s, fp.Bytes())
		}
		b.WriteString("\n }")
	}
	b.WriteString("\n}\n")
	return b.Bytes()
}

// seedReference computes the reference fingerprint of a job with the
// given input seed.
func seedReference(name string, seed int64, dir string) (any, error) {
	w, err := newWorkload(name, seed, dir)
	if err != nil {
		return nil, err
	}
	defer w.cleanup()
	if err := w.setup(newTracer(false, "")); err != nil {
		return nil, err
	}
	return w.reference(seed, true)
}
