// Command perfbench is the repository benchmark: four CARE workloads
// driven through the public API, each timed end to end, checked against
// committed reference outputs, and (with --trace 1) broken down per
// layer from spans recorded around the public calls. See README.md for
// the workloads, the metrics and how to run it.
//
// Usage (from the repository root, through the launcher that builds it):
//
//	python3 perfbench/run.py --workload inject-cold --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is the result object; the line
// before it is the full record (provenance, every metric under its
// ledger name, the checks). A mismatch against the references or any
// error makes the run exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"care/internal/shard"
)

// A run repeats its set-up (build plus golden run, store hit or
// injection search) setupReps times, or minSetupReps times once the
// set-ups have used a quarter of the measuring budget (some seeds make
// the injection search a hundred times slower).
const (
	setupReps    = 25
	minSetupReps = 3
)

// maxFallbackChecks bounds how many jobs of one run without a committed
// reference are recomputed on the independent path; further such jobs
// are reported unchecked.
const maxFallbackChecks = 4

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// pick returns the named metrics of m, and an error naming any that
// are missing.
func (m metrics) pick(names []string) (metrics, error) {
	out := metrics{}
	var missing []string
	for _, n := range names {
		v, ok := m[n]
		if !ok {
			missing = append(missing, n)
			continue
		}
		out[n] = v
	}
	if len(missing) > 0 {
		return out, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	return out, nil
}

// endToEnd and perLayer are the metrics of the result line, as
// BENCHMARK.json lists them. Every workload reports all of them; the
// workload-specific ledger figures travel in the record line.
var (
	endToEnd = []string{"setup_s", "job_s", "throughput_per_s", "total_s", "peak_heap_mb"}
	perLayer = []string{
		"core.build_ms", "core.new_process_us", "core.clone_us",
		"profiler.golden_ms", "profiler.snap_pass_ms", "profiler.snapshots",
		"machine.free_minstr_s", "machine.armed_minstr_s",
		"store.put_profile_ms", "store.get_profile_ms", "store.put_trace_ms",
		"store.bytes_written", "store.bytes_deduped", "store.job_bytes_deduped",
		"trace.export_ms", "trace.bytes",
		"faultinject.executed_dyn", "faultinject.skipped_dyn", "faultinject.hang_trials",
		"faultinject.useful_ratio", "safeguard.activations", "safeguard.prep_fraction",
		"bench.unattributed_ms", "bench.traced_wall_s",
	}
)

// workload is one benchmark workload. A run calls job for rep = 0, 1,
// ... until the measuring time is spent, with set-ups spread between
// the jobs (each job uses the latest set-up), then, when traced,
// layers.
type workload interface {
	// setup builds the binary and prepares the first job.
	setup(t *tracer) error
	// job runs one timed unit of work.
	job(t *tracer, rep int) (jobOut, error)
	// reference recomputes the fingerprint of a job with the given
	// seed on an independent path, for seeds refs.json does not cover;
	// first marks the run's first job.
	reference(seed int64, first bool) (any, error)
	// ledger adds the workload's own end-to-end figures, under their
	// performance-ledger names, given the run's end-to-end metrics.
	ledger(jobs []jobOut, e2e, m metrics)
	// layers measures the per-layer metrics (traced runs only).
	layers(t *tracer, jobs []jobOut, m metrics) error
	// params describes the workload's inputs for the record.
	params() any
	// cleanup removes the workload's temporary files.
	cleanup()
}

// primer is a workload with untimed preparation before its set-ups.
type primer interface {
	prime(t *tracer) error
}

// jobOut is one finished job.
type jobOut struct {
	// span is the job's bench.job span id (traced runs only).
	span int
	dur  time.Duration
	// work counts the job's units of work: campaign trials, examined
	// SIGSEGV trials, or 64-rank jobs.
	work float64
	// excluded keeps the job out of job_s and throughput_per_s (a
	// coverage-o1 recovery storm); it is still run and checked.
	excluded bool
	// refSeed is the job's input seed: it selects the reference the
	// fingerprint must match, and jobs with the same refSeed repeat the
	// same work.
	refSeed int64
	fp      any
}

func durations(jobs []jobOut) []float64 {
	out := make([]float64, len(jobs))
	for i, j := range jobs {
		out[i] = j.dur.Seconds()
	}
	return out
}

var workloadNames = []string{"inject-cold", "inject-warm-shard", "coverage-o1", "cluster-64"}

func newWorkload(name string, seed int64, dir string) (workload, error) {
	switch name {
	case "inject-cold":
		return newInject(seed, dir, false), nil
	case "inject-warm-shard":
		return newInject(seed, dir, true), nil
	case "coverage-o1":
		return newCoverage(seed, dir), nil
	case "cluster-64":
		return newCluster(seed, dir), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "input seed (campaign seeds are seed, seed+1, ... for successive jobs)")
	seconds := fs.Float64("seconds", 10, "measuring time: a job starts only while the previous job's duration still fits")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
	shardServe := fs.Bool("shard-serve", false, "run as a shard worker on stdin/stdout (spawned by inject-warm-shard)")
	writeRefs := fs.String("write-refs", "", "recompute the workload's references for seeds LO-HI into refs.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *shardServe {
		if err := shard.Serve(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: shard worker:", err)
			return 1
		}
		return 0
	}
	dir := os.Getenv("PERFBENCH_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *writeRefs != "" {
		if err := updateRefs(*name, *writeRefs, dir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	refs, err := loadRefs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	w, err := newWorkload(*name, *seed, dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	r := measure(*name, w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, refs, dir)
	w.cleanup()
	r.rec["params"] = w.params()
	printResult(r)
	appendRecord(filepath.Join(dir, "records.jsonl"), r.rec)
	if !r.res.Correct {
		return 1
	}
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// runOut is a finished run: the record line and the result line.
type runOut struct {
	rec map[string]any
	res result
}

// measure performs one run: untimed priming, set-ups, timed jobs, the
// correctness checks, and (traced) the per-layer breakdown.
func measure(name string, w workload, seed int64, budget time.Duration, traced bool, refs refSet, dir string) runOut {
	runID := fmt.Sprintf("%s-seed%d-%d", name, seed, time.Now().UnixNano())
	t := newTracer(traced, runID)
	var (
		tm      timings
		checks  []string
		failed  int
		errs    []string
		layered = metrics{}
	)
	fail := func(what string, err error) {
		failed++
		errs = append(errs, what+": "+err.Error())
	}
	_ = t.do("bench.run", func() error {
		var err error
		if tm, err = runJobs(t, w, budget); err != nil {
			fail("run", err)
		}
		_ = t.do("bench.check", func() error {
			computed := map[int64][]byte{}
			for i, j := range tm.jobs {
				msg, ok := checkJob(name, w, refs, computed, i, j)
				checks = append(checks, msg)
				if !ok {
					failed++
				}
			}
			return nil
		})
		if traced && len(tm.jobs) > 0 {
			if err := t.do("bench.layers", func() error { return w.layers(t, tm.jobs, layered) }); err != nil {
				fail("layers", err)
			}
		}
		return nil
	})

	jobs := tm.jobs
	attempted := len(jobs) + len(errs)
	rec := map[string]any{
		"workload":   name,
		"seed":       seed,
		"traced":     traced,
		"provenance": provenance(),
		"checks":     append(checks, errs...),
	}
	out := runOut{rec: rec, res: result{Attempted: max(attempted, 1), Failed: failed, Metrics: metrics{}}}
	if len(jobs) == 0 {
		return out
	}
	// A run's jobs cycle through a few input seeds, so each seed's work
	// is repeated over the whole run. The host slows the simulator down
	// by up to 2x for stretches of seconds to minutes (see README.md);
	// slowdowns only add time, so a seed's fastest repeat is the
	// estimate of what its work costs, and job figures combine the
	// seeds' fastest repeats. Set-up is the median of the run's set-ups.
	best := fastestPerSeed(jobs, false)
	if len(best) == 0 { // every job excluded: a very short run
		best = fastestPerSeed(jobs, true)
	}
	var work, secs float64
	for _, j := range best {
		work, secs = work+j.work, secs+j.dur.Seconds()
	}
	e2e := metrics{}
	setup, job := median(tm.setups), secs/float64(len(best))
	e2e.set("setup_s", setup, "s")
	e2e.set("job_s", job, "s")
	e2e.set("throughput_per_s", work/secs, "1/s")
	e2e.set("total_s", setup+job, "s")
	e2e.set("peak_heap_mb", tm.heapMB, "MB")
	ledger := metrics{}
	ledger.set("failed_ratio", float64(failed)/float64(max(attempted, 1)), "ratio")
	work, secs = 0, 0
	for _, j := range jobs {
		if !j.excluded {
			work, secs = work+j.work, secs+j.dur.Seconds()
		}
	}
	if secs > 0 {
		ledger.set("throughput_per_s_mean", work/secs, "1/s")
	}
	ledger.set("job_seeds", float64(len(best)), "count")
	w.ledger(jobs, e2e, ledger)
	rec["end_to_end"], rec["ledger"] = e2e, ledger
	rec["setup_s"], rec["job_s"] = tm.setups, durations(jobs)
	rec["fingerprint"] = jobs[0].fp

	final, err := e2e.pick(endToEnd)
	if err != nil {
		out.res.Failed++
		rec["checks"] = append(rec["checks"].([]string), err.Error())
	}
	if traced {
		self, unattributed, wall := t.selfTimes()
		layered.set("bench.unattributed_ms", unattributed*1e3, "ms")
		layered.set("bench.traced_wall_s", wall, "s")
		selfMs := map[string]float64{"unattributed": unattributed * 1e3}
		covered := unattributed
		for l, s := range self {
			selfMs[l] = s * 1e3
			covered += s
		}
		rec["self_ms"] = selfMs
		rec["self_sum_s"] = map[string]float64{"layers_plus_unattributed": covered, "traced_wall": wall}
		if over, ok := tracingOverhead(filepath.Join(dir, "records.jsonl"), name, seed, job); ok {
			rec["tracing_overhead"] = over
		}
		rec["per_layer"] = layered
		spanFile := filepath.Join(dir, "spans", runID+".jsonl")
		if err := writeSpans(t, spanFile); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		} else {
			rec["spans_file"] = spanFile
		}
		if final, err = layered.pick(perLayer); err != nil {
			out.res.Failed++
			rec["checks"] = append(rec["checks"].([]string), err.Error())
		}
	}
	out.res.Metrics = final
	out.res.Correct = out.res.Failed == 0
	return out
}

// timings are a run's measurements: set-up durations (s), the timed
// jobs, and the peak live heap (MiB).
type timings struct {
	setups []float64
	jobs   []jobOut
	heapMB float64
}

// fastestPerSeed returns the fastest job of each input seed, leaving
// out excluded jobs unless all is set.
func fastestPerSeed(jobs []jobOut, all bool) map[int64]jobOut {
	best := map[int64]jobOut{}
	for _, j := range jobs {
		if j.excluded && !all {
			continue
		}
		if b, ok := best[j.refSeed]; !ok || j.dur < b.dur {
			best[j.refSeed] = j
		}
	}
	return best
}

// runJobs primes the workload, then runs jobs for the measuring budget
// (at least one; the next job starts while half the last job's duration
// still fits). The setupReps set-ups are spread evenly over the budget,
// each before a job, and any left over run at the end, so that set-up
// and job times sample the same stretch of machine time. After each
// set-up a forced collection measures the live heap: what the run
// retains (binary, profile and snapshots, job results), independent of
// when the collector happens to run.
func runJobs(t *tracer, w workload, budget time.Duration) (timings, error) {
	var tm timings
	if p, ok := w.(primer); ok {
		if err := t.do("bench.prime", func() error { return p.prime(t) }); err != nil {
			return tm, fmt.Errorf("prime: %w", err)
		}
	}
	setup := func() error {
		start := time.Now()
		if err := t.do("bench.setup", func() error { return w.setup(t) }); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		tm.setups = append(tm.setups, time.Since(start).Seconds())
		_ = t.do("bench.heap", func() error {
			tm.heapMB = max(tm.heapMB, liveHeapMB())
			return nil
		})
		return nil
	}
	var spent time.Duration
	due := func() bool {
		n := len(tm.setups)
		return n < minSetupReps || n < setupReps && sum(tm.setups) < budget.Seconds()/4
	}
	for rep := 0; ; rep++ {
		for due() && spent >= budget*time.Duration(len(tm.setups))/setupReps {
			if err := setup(); err != nil {
				return tm, err
			}
		}
		var j jobOut
		id := len(t.spans)
		err := t.do("bench.job", func() (err error) {
			j, err = w.job(t, rep)
			return err
		})
		if err != nil {
			return tm, fmt.Errorf("job %d: %w", rep, err)
		}
		j.span = id
		tm.jobs = append(tm.jobs, j)
		if spent += j.dur; spent+j.dur/2 > budget {
			break
		}
	}
	for due() {
		if err := setup(); err != nil {
			return tm, err
		}
	}
	return tm, nil
}

// checkJob compares a job's fingerprint with the committed reference
// for its seed or, when refs.json has none, with the workload's
// independent recomputation (computed once per seed, for at most
// maxFallbackChecks seeds per run).
func checkJob(name string, w workload, refs refSet, computed map[int64][]byte, rep int, j jobOut) (string, bool) {
	got, err := json.Marshal(j.fp)
	if err != nil {
		return fmt.Sprintf("job %d: %v", rep, err), false
	}
	want, ok := refs.lookup(refSection(name), j.refSeed)
	source := "refs.json"
	if !ok {
		source = "independent path"
		if want, ok = computed[j.refSeed]; !ok {
			if len(computed) >= maxFallbackChecks {
				return fmt.Sprintf("job %d seed %d: unchecked (no reference)", rep, j.refSeed), true
			}
			fp, err := w.reference(j.refSeed, rep == 0)
			if err != nil {
				return fmt.Sprintf("job %d seed %d: reference: %v", rep, j.refSeed, err), false
			}
			if want, err = json.Marshal(fp); err != nil {
				return fmt.Sprintf("job %d: %v", rep, err), false
			}
			computed[j.refSeed] = want
		}
	}
	if string(got) != string(want) {
		return fmt.Sprintf("job %d seed %d: MISMATCH against %s: got %s want %s", rep, j.refSeed, source, got, want), false
	}
	return fmt.Sprintf("job %d seed %d: ok (%s)", rep, j.refSeed, source), true
}

func writeSpans(t *tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.writeJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printResult prints a table on stderr, then the record line and the
// result line on stdout.
func printResult(r runOut) {
	for _, section := range []string{"end_to_end", "ledger", "per_layer"} {
		m, ok := r.rec[section].(metrics)
		if !ok {
			continue
		}
		fmt.Fprintf(os.Stderr, "%s %s:\n", r.rec["workload"], section)
		for _, k := range sortedKeys(m) {
			fmt.Fprintf(os.Stderr, "  %-32s %14.6g %s\n", k, m[k].Value, m[k].Unit)
		}
	}
	for _, c := range r.rec["checks"].([]string) {
		fmt.Fprintln(os.Stderr, "  check", c)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"record": r.rec}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: record:", err)
	}
	if err := enc.Encode(r.res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: result:", err)
	}
}

// appendRecord appends the record to the run ledger; a failure to
// write it is reported but does not fail the run.
func appendRecord(path string, rec map[string]any) {
	b, err := json.Marshal(rec)
	if err == nil {
		var f *os.File
		if f, err = os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644); err == nil {
			_, err = f.Write(append(b, '\n'))
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: record:", err)
	}
}

// tracingOverhead compares a traced run's median job time with the
// latest untraced record of the same workload, seed and sources.
func tracingOverhead(path, name string, seed int64, tracedJob float64) (map[string]float64, bool) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	src := provenance()["source_sha256"]
	var base float64
	for _, line := range strings.Split(string(b), "\n") {
		var r struct {
			Workload   string            `json:"workload"`
			Seed       int64             `json:"seed"`
			Traced     bool              `json:"traced"`
			Provenance map[string]any    `json:"provenance"`
			EndToEnd   map[string]metric `json:"end_to_end"`
		}
		if json.Unmarshal([]byte(line), &r) != nil || r.Traced || r.Workload != name || r.Seed != seed ||
			r.Provenance["source_sha256"] != src {
			continue
		}
		base = r.EndToEnd["job_s"].Value
	}
	if base == 0 {
		return nil, false
	}
	return map[string]float64{"untraced_job_s": base, "traced_job_s": tracedJob, "ratio": tracedJob/base - 1}, true
}
