package shard

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"

	"care/internal/faultinject"
	"care/internal/parallel"
	"care/internal/profiler"
)

// Range is one shard's contiguous slice of an index space.
type Range struct{ Lo, Hi int }

// Ranges partitions [0, n) into count contiguous shards with the
// balanced s*n/count boundaries (shard sizes differ by at most one).
func Ranges(n, count int) []Range {
	rs := make([]Range, count)
	for s := 0; s < count; s++ {
		rs[s] = Range{Lo: s * n / count, Hi: (s + 1) * n / count}
	}
	return rs
}

// shardCount clamps a Shards knob to [1, n].
func shardCount(shards, n int) int {
	if shards < 1 {
		shards = 1
	}
	if shards > n {
		shards = n
	}
	return shards
}

// deal cuts [lo, hi) into balanced chunks of at most chunk indices and
// hands them out in index order, each to whichever of the shards is
// idle: run(s, a, b) executes [a, b) on shard s, and no shard ever
// runs two chunks at once. A slow shard (a hang trial, a busy host)
// therefore delays only its own chunk, where a fixed split would make
// every other shard wait for its whole range. Which shard runs a chunk
// never changes a result, because every trial depends only on (Seed,
// index) and callers slot results by index.
func deal(lo, hi, chunk, shards int, run func(s, a, b int) error) error {
	rs := Ranges(hi-lo, (hi-lo+chunk-1)/chunk)
	idle := make(chan int, shards)
	for s := 0; s < shards; s++ {
		idle <- s
	}
	return parallel.ForEach(len(rs), shards, func(k int) error {
		s := <-idle
		defer func() { idle <- s }()
		return run(s, lo+rs[k].Lo, lo+rs[k].Hi)
	})
}

// goPrepare starts prepare on its own goroutine and returns a function
// that waits for its result, so the coordinator's golden pass overlaps
// the workers' own preparation and their first trials.
func goPrepare(prepare func() (*profiler.Profile, error)) func() (*profiler.Profile, error) {
	var prof *profiler.Profile
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		prof, err = prepare()
	}()
	return func() (*profiler.Profile, error) {
		<-done
		return prof, err
	}
}

// RunCampaign executes a campaign under the shard coordinator; with
// Shards <= 1 it is c.Run(). The workers start first — subprocesses in
// ShardExec mode, otherwise Serve goroutines on in-process pipes — and
// each runs the same Campaign.Prepare as the coordinator, which
// prepares its own profile meanwhile. Trials go out in chunks of the
// per-shard worker count to whichever shard is idle, a worker's first
// chunk as soon as its ready frame arrives, and every result crosses
// the frame protocol. Before anything merges, every worker's profile
// digest must match the coordinator's; the results, slotted by their
// chunk, then go to Campaign.MergeResults, which rejects any trial out
// of index order — so the CampaignResult, trace included, is
// byte-identical to c.Run()'s for every shard × worker combination.
func RunCampaign(c *faultinject.Campaign, build BuildSpec) (*faultinject.CampaignResult, error) {
	if c.Shards <= 1 {
		return c.Run()
	}
	chunk := parallel.Workers(c.Workers, c.N)
	shards := shardCount(c.Shards, (c.N+chunk-1)/chunk)
	pool, err := startPool(c.ShardExec, shards, &WorkerSpec{
		Build: build, Campaign: c, StoreDir: storeDir(c.Store),
	})
	if err != nil {
		return nil, err
	}
	defer pool.kill()
	prep := goPrepare(c.Prepare)
	defer prep() // never leave a golden pass running past the return
	trials := make([]faultinject.TrialResult, c.N)
	var done atomic.Int64
	err = deal(0, c.N, chunk, shards, func(s, lo, hi int) error {
		f, err := pool[s].run(lo, hi)
		if err != nil {
			return err
		}
		if len(f.Trials) != hi-lo {
			return fmt.Errorf("shard: %d results for trials [%d,%d)", len(f.Trials), lo, hi)
		}
		copy(trials[lo:hi], f.Trials)
		if c.Progress != nil {
			c.Progress(int(done.Add(int64(hi-lo))), c.N)
		}
		return nil
	})
	prof, perr := prep()
	if perr != nil {
		return nil, perr
	}
	if err != nil {
		return nil, err
	}
	if err := pool.verify(prof); err != nil {
		return nil, err
	}
	if err := pool.close(); err != nil {
		return nil, err
	}
	return c.MergeResults(prof, trials)
}

// RunCoverage executes a coverage experiment under the shard
// coordinator; with Shards <= 1 it is e.Run(). Workers prepare their
// own profiles as in RunCampaign, and every worker's digest is checked
// before the first merge. The attempt index space runs through
// CoverageExperiment.RunWaves in waves the size of the single-process
// speculation chunk (4 attempts per worker slot) times the shard count,
// each wave dealt to idle shards in chunks of the per-shard worker
// count, and RunWaves rejects any attempt out of index order, so the
// result is identical to e.Run() for any shard layout.
func RunCoverage(e *faultinject.CoverageExperiment, build BuildSpec) (*faultinject.CoverageResult, error) {
	if e.Shards <= 1 {
		return e.Run()
	}
	budget := e.AttemptBudget()
	shards := shardCount(e.Shards, budget)
	pool, err := startPool(e.ShardExec, shards, &WorkerSpec{
		Build: build, Coverage: e, StoreDir: storeDir(e.Store),
	})
	if err != nil {
		return nil, err
	}
	defer pool.kill()
	prep := goPrepare(e.Prepare)
	defer prep()
	chunk := parallel.Workers(e.Workers, budget)
	res, err := e.RunWaves(shards*4*chunk, func(base, end int) ([]faultinject.AttemptResult, error) {
		atts := make([]faultinject.AttemptResult, end-base)
		err := deal(base, end, chunk, shards, func(s, lo, hi int) error {
			f, err := pool[s].run(lo, hi)
			if err != nil {
				return err
			}
			if len(f.Attempts) != hi-lo {
				return fmt.Errorf("shard: %d results for attempts [%d,%d)", len(f.Attempts), lo, hi)
			}
			copy(atts[lo-base:hi-base], f.Attempts)
			return nil
		})
		prof, perr := prep()
		if perr != nil {
			return nil, perr
		}
		if err != nil {
			return nil, err
		}
		return atts, pool.verify(prof)
	})
	if res == nil {
		return nil, err
	}
	if _, perr := prep(); perr != nil {
		// Trials <= 0 runs no wave, so no worker was checked either.
		return nil, perr
	}
	if cerr := pool.close(); cerr != nil {
		return nil, cerr
	}
	return res, err
}

// pool is the workers of one sharded run, one per shard.
type pool []*worker

// startPool starts one worker per shard and sends each the spec, so
// every worker starts preparing its profile before the coordinator
// prepares its own. Empty argv means in-process workers.
func startPool(argv []string, shards int, spec *WorkerSpec) (pool, error) {
	start := startProc
	if len(argv) == 0 {
		start = startLocal
	}
	p := make(pool, 0, shards)
	for s := 0; s < shards; s++ {
		w, err := start(argv)
		if err == nil {
			err = w.send(spec)
		}
		if err != nil {
			p.kill()
			return nil, err
		}
		p = append(p, w)
	}
	return p, nil
}

// verify checks every worker's profile digest against the digest of
// the coordinator's own profile. A mismatch means the worker ran its
// trials against a different golden run, so nothing it computed may be
// merged.
func (p pool) verify(prof *profiler.Profile) error {
	want := profileDigest(prof)
	for s, w := range p {
		if err := w.ready(); err != nil {
			return err
		}
		if w.digest != want {
			return fmt.Errorf("shard: worker %d prepared a profile with digest %s, coordinator has %s", s, w.digest, want)
		}
	}
	return nil
}

// close shuts every worker down gracefully, each on its own goroutine,
// so the workers exit and are reaped side by side rather than one after
// another. It returns once every worker is reaped, with the failure of
// the lowest-numbered shard that failed.
func (p pool) close() error {
	errs := make([]error, len(p))
	var wg sync.WaitGroup
	for s, w := range p {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[s] = w.close()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// kill tears every worker down (a no-op for workers already closed).
func (p pool) kill() {
	for _, w := range p {
		w.kill()
	}
}

// worker is one live shard worker speaking the frame protocol: in
// carries coordinator frames to it and out carries its frames back.
// Both transports — a subprocess's stdin/stdout, or a Serve goroutine's
// pipes — run the same conversation.
type worker struct {
	in  io.WriteCloser
	out *bufio.Reader
	// wait reaps the worker after a graceful exit; stop tears it down
	// at once. Each runs at most once, behind once.
	wait, stop func() error
	once       sync.Once
	// digest is the worker's profile digest, set once its ready frame
	// has been read.
	digest string
}

// startProc spawns argv as a worker subprocess; its stderr passes
// through to ours.
func startProc(argv []string) (*worker, error) {
	cmd := exec.Command(argv[0], argv[1:]...)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("shard: start worker %v: %w", argv, err)
	}
	return &worker{
		in: stdin, out: bufio.NewReaderSize(stdout, 1<<16),
		wait: cmd.Wait,
		stop: func() error {
			_ = cmd.Process.Kill()
			return cmd.Wait()
		},
	}, nil
}

// startLocal runs Serve on a goroutine over two in-process pipes. When
// Serve returns it closes its own pipe ends, as an exiting subprocess
// would. A kill closes both of the coordinator's ends, in and (in stop)
// out: io.Pipe is unbuffered, so a Serve blocked writing a frame nobody
// will read returns only then. wait and stop both wait for Serve.
func startLocal([]string) (*worker, error) {
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	served := make(chan error, 1)
	go func() {
		err := Serve(inR, outW)
		inR.Close()
		outW.Close()
		served <- err
	}()
	wait := func() error { return <-served }
	return &worker{
		in: inW, out: bufio.NewReaderSize(outR, 1<<16),
		wait: wait,
		stop: func() error {
			outR.Close()
			return wait()
		},
	}, nil
}

// send writes the spec frame.
func (w *worker) send(spec *WorkerSpec) error {
	if err := writeFrame(w.in, &frame{Type: frameSpec, Spec: spec}); err != nil {
		w.kill()
		return fmt.Errorf("shard: send spec: %w", err)
	}
	return nil
}

// expect reads the worker's next frame, which must be of type want; an
// error frame becomes the worker's error.
func (w *worker) expect(want string) (*frame, error) {
	f, err := readFrame(w.out)
	if err != nil {
		return nil, fmt.Errorf("shard: worker stream: %w", err)
	}
	switch f.Type {
	case want:
		return f, nil
	case frameError:
		return nil, fmt.Errorf("shard: worker: %s", f.Err)
	}
	return nil, fmt.Errorf("shard: unexpected %q frame from worker (want %q)", f.Type, want)
}

// ready reads the worker's ready frame, once. A worker whose set-up
// failed (unknown workload, unreadable store, failing Prepare) answers
// with its error frame instead, which surfaces here — before the
// coordinator writes any run frame to a dead worker.
func (w *worker) ready() error {
	if w.digest != "" {
		return nil
	}
	f, err := w.expect(frameReady)
	if err != nil {
		return err
	}
	if f.Digest == "" {
		return fmt.Errorf("shard: worker ready frame carries no profile digest")
	}
	w.digest = f.Digest
	return nil
}

// run has the worker execute [lo, hi) and returns its done frame, which
// carries the results.
func (w *worker) run(lo, hi int) (*frame, error) {
	if err := w.ready(); err != nil {
		return nil, err
	}
	if err := writeFrame(w.in, &frame{Type: frameRun, Lo: lo, Hi: hi}); err != nil {
		return nil, fmt.Errorf("shard: send run [%d,%d): %w", lo, hi, err)
	}
	f, err := w.expect(frameDone)
	if err != nil {
		return nil, err
	}
	if f.Lo != lo || f.Hi != hi {
		return nil, fmt.Errorf("shard: worker finished [%d,%d), expected [%d,%d)", f.Lo, f.Hi, lo, hi)
	}
	return f, nil
}

// close asks the worker to exit and reaps it.
func (w *worker) close() error {
	var err error
	w.once.Do(func() {
		err = writeFrame(w.in, &frame{Type: frameExit})
		w.in.Close()
		if werr := w.wait(); werr != nil && err == nil {
			err = fmt.Errorf("shard: worker exit: %w", werr)
		}
	})
	return err
}

// kill tears the worker down without ceremony (error paths; close is
// the graceful shutdown and makes kill a no-op afterwards).
func (w *worker) kill() {
	w.once.Do(func() {
		w.in.Close()
		_ = w.stop()
	})
}
