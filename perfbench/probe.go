package main

import (
	"fmt"
	"os"

	"care/internal/core"
	"care/internal/faultinject"
	"care/internal/machine"
	"care/internal/profiler"
	"care/internal/store"
	"care/internal/trace"
)

// probeReps is how many times each machine-layer probe run repeats.
const probeReps = 5

// probeLayers measures the layer costs every workload reports, on the
// workload's own binary, each around a public call: the golden and
// snapshot passes, process creation and snapshot cloning, a hook-free
// and an armed run of the golden process, a store round trip of the
// snapshot profile, and the sealing and JSONL export of the workload's
// result trace rec. Medians cover every span of the same name in the
// run, so a workload whose jobs already make a call adds its samples.
func probeLayers(t *tracer, bin *core.Binary, rec *trace.Recorder, dir string, m metrics) error {
	var gold, snaps *profiler.Profile
	err := t.do("profiler.Run", func() (err error) {
		gold, err = profiler.Run(bin, nil, 0)
		return err
	})
	if err != nil {
		return err
	}
	err = t.do("profiler.RunWithSnapshots", func() (err error) {
		snaps, err = profiler.RunWithSnapshots(bin, nil, 0, gold.TotalDyn/64+1)
		return err
	})
	if err != nil {
		return err
	}
	m.set("profiler.golden_ms", median(t.durations("profiler.Run"))*1e3, "ms")
	m.set("profiler.snap_pass_ms", median(t.durations("profiler.RunWithSnapshots"))*1e3, "ms")
	m.set("profiler.snapshots", float64(len(snaps.Snaps)), "count")

	cfg := core.ProcessConfig{App: bin}
	newProcess := func() (p *core.Process, err error) {
		err = t.do("core.NewProcess", func() error {
			p, err = core.NewProcess(cfg)
			return err
		})
		return p, err
	}
	for i := range snaps.Snaps {
		err := t.do("core.NewProcessFromSnapshot", func() error {
			_, err := core.NewProcessFromSnapshot(cfg, snaps.Snaps[i].State)
			return err
		})
		if err != nil {
			return err
		}
	}
	// The hook-free run is the tier the golden process runs on; the
	// armed run carries a fault-arming retire hook whose trigger lies
	// past the end of the run, so it never fires and never detaches.
	never := []faultinject.ArmSpec{{Trigger: faultinject.Trigger{AtDyn: gold.TotalDyn + 1}, Bits: []int{0}}}
	for i := 0; i < probeReps; i++ {
		for _, armed := range []bool{false, true} {
			p, err := newProcess()
			if err != nil {
				return err
			}
			name := "machine.Run.free"
			if armed {
				name = "machine.Run.armed"
				faultinject.ArmAll(p.CPU, never)
			}
			err = t.do(name, func() error {
				if st := p.Run(0); st != machine.StatusExited || p.CPU.Dyn != gold.TotalDyn {
					return fmt.Errorf("%s: status %v after %d of %d instructions", name, st, p.CPU.Dyn, gold.TotalDyn)
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
	}
	m.set("core.build_ms", median(t.durations("core.Build"))*1e3, "ms")
	m.set("core.new_process_us", median(t.durations("core.NewProcess"))*1e6, "us")
	m.set("core.clone_us", median(t.durations("core.NewProcessFromSnapshot"))*1e6, "us")
	minstr := float64(gold.TotalDyn) / 1e6
	m.set("machine.free_minstr_s", minstr/median(t.durations("machine.Run.free")), "Minstr/s")
	m.set("machine.armed_minstr_s", minstr/median(t.durations("machine.Run.armed")), "Minstr/s")

	// Store round trip in a fresh store: the cost of caching this
	// workload's golden run and of the verified hit that replaces it.
	sdir, err := os.MkdirTemp(dir, "probe-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(sdir)
	st, err := store.Open(sdir)
	if err != nil {
		return err
	}
	key := store.Key{Kind: "probe", Workload: bin.Name, WarmStart: true}
	text := []store.TextImage{{Name: bin.Prog.Name, Data: bin.Prog.CodeImage()}}
	if err := t.do("store.Store.PutProfile", func() error { return st.PutProfile(key, snaps, text) }); err != nil {
		return err
	}
	err = t.do("store.Store.GetProfile", func() error {
		got, err := st.GetProfile(key)
		if err == nil && (got == nil || len(got.Snaps) != len(snaps.Snaps)) {
			err = fmt.Errorf("store probe: profile did not round-trip")
		}
		return err
	})
	if err != nil {
		return err
	}
	m.set("store.put_profile_ms", median(t.durations("store.Store.PutProfile"))*1e3, "ms")
	m.set("store.get_profile_ms", median(t.durations("store.Store.GetProfile"))*1e3, "ms")
	m.set("store.bytes_written", float64(st.Counter(store.CounterBytesWritten)), "bytes")
	m.set("store.bytes_deduped", float64(st.Counter(store.CounterBytesDeduped)), "bytes")

	err = t.do("store.Store.PutTrace", func() error {
		_, err := st.PutTrace(key, rec)
		return err
	})
	if err != nil {
		return err
	}
	var out countingWriter
	if err := t.do("trace.Recorder.WriteJSONL", func() error { return rec.WriteJSONL(&out) }); err != nil {
		return err
	}
	m.set("store.put_trace_ms", median(t.durations("store.Store.PutTrace"))*1e3, "ms")
	m.set("trace.export_ms", median(t.durations("trace.Recorder.WriteJSONL"))*1e3, "ms")
	m.set("trace.bytes", float64(out.n), "bytes")
	return nil
}

// countingWriter discards what it is given and counts the bytes.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}
