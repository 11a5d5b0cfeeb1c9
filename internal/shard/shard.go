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

// RunCampaign executes a campaign under the shard coordinator. In
// ShardExec mode the worker subprocesses start first and each runs the
// same Campaign.Prepare as the coordinator, which prepares its own
// profile meanwhile. Trials go out in chunks of the per-shard worker
// count to whichever shard is idle, a worker's first chunk as soon as
// its ready frame arrives (in-process shards run them directly), and
// every result round-trips the wire encoding. Before anything merges,
// every worker's profile digest must match the coordinator's; the
// results, slotted by trial index, then go to Campaign.MergeResults —
// so the CampaignResult, trace included, is byte-identical to
// c.Run()'s for every shard × worker combination.
func RunCampaign(c *faultinject.Campaign, build BuildSpec) (*faultinject.CampaignResult, error) {
	chunk := parallel.Workers(c.Workers, c.N)
	shards := shardCount(c.Shards, (c.N+chunk-1)/chunk)
	pool, err := startPool(c.ShardExec, shards, &WorkerSpec{
		Build: build, Campaign: campaignSpecOf(c), StoreDir: storeDir(c.Store),
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
		var wts []wireTrial
		if pool != nil {
			f, err := pool[s].run(lo, hi)
			if err != nil {
				return err
			}
			wts = f.Trials
		} else {
			// In-process shards still round-trip the wire encoding, so
			// this mode exercises the exact fidelity the subprocess path
			// depends on.
			prof, err := prep()
			if err != nil {
				return err
			}
			ts, err := c.RunTrialRange(prof, lo, hi)
			if err != nil {
				return err
			}
			wts = make([]wireTrial, len(ts))
			for i := range ts {
				if wts[i], err = encodeTrial(&ts[i]); err != nil {
					return err
				}
			}
		}
		if len(wts) != hi-lo {
			return fmt.Errorf("shard: %d results for trials [%d,%d)", len(wts), lo, hi)
		}
		for i := range wts {
			if wts[i].Index != lo+i {
				return fmt.Errorf("shard: trial %d delivered in slot %d of [%d,%d)", wts[i].Index, lo+i, lo, hi)
			}
			t, err := decodeTrial(&wts[i])
			if err != nil {
				return err
			}
			trials[lo+i] = t
		}
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
// coordinator. Workers prepare their own profiles as in RunCampaign,
// and every worker's digest is checked before the first merge. The
// attempt index space runs in waves the size of the single-process
// speculation chunk (4 attempts per worker slot) times the shard count,
// each wave dealt to idle shards in chunks of the per-shard worker
// count; each wave's attempts merge strictly in index order with the
// early-stop check before every merge, so the result is identical to
// CoverageExperiment.Run for any shard layout — the stop index is a
// property of the attempt sequence, not of how the waves were cut.
func RunCoverage(e *faultinject.CoverageExperiment, build BuildSpec) (*faultinject.CoverageResult, error) {
	budget := e.AttemptBudget()
	shards := shardCount(e.Shards, budget)
	pool, err := startPool(e.ShardExec, shards, &WorkerSpec{
		Build: build, Coverage: coverageSpecOf(e), StoreDir: storeDir(e.Store),
	})
	if err != nil {
		return nil, err
	}
	defer pool.kill()
	prep := goPrepare(e.Prepare)
	defer prep()
	res := e.NewResult()
	chunk := parallel.Workers(e.Workers, budget)
	var done int
	for base := 0; base < budget && res.SigsegvTrials < e.Trials; base += shards * 4 * chunk {
		end := base + shards*4*chunk
		if end > budget {
			end = budget
		}
		atts := make([]faultinject.AttemptResult, end-base)
		err := deal(base, end, chunk, shards, func(s, lo, hi int) error {
			var was []wireAttempt
			if pool != nil {
				f, err := pool[s].run(lo, hi)
				if err != nil {
					return err
				}
				was = f.Attempts
			} else {
				// The loopback wire round trip, as in the campaign path.
				prof, err := prep()
				if err != nil {
					return err
				}
				part, err := e.RunAttemptRange(prof, lo, hi)
				if err != nil {
					return err
				}
				was = make([]wireAttempt, len(part))
				for i := range part {
					if was[i], err = encodeAttempt(&part[i]); err != nil {
						return err
					}
				}
			}
			if len(was) != hi-lo {
				return fmt.Errorf("shard: %d results for attempts [%d,%d)", len(was), lo, hi)
			}
			for i := range was {
				if was[i].Index != lo+i {
					return fmt.Errorf("shard: attempt %d delivered in slot %d of [%d,%d)", was[i].Index, lo+i, lo, hi)
				}
				a, err := decodeAttempt(&was[i])
				if err != nil {
					return err
				}
				atts[a.Index-base] = a
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
		for i := range atts {
			if res.SigsegvTrials >= e.Trials {
				break // speculative overshoot; discard to stay deterministic
			}
			res.MergeAttempt(&atts[i], e.RecordInjections)
			done++
			if e.Progress != nil {
				e.Progress(done, budget)
			}
		}
	}
	if err := pool.close(); err != nil {
		return nil, err
	}
	if res.SigsegvTrials < e.Trials {
		return res, fmt.Errorf("faultinject: only %d/%d SIGSEGV trials after %d attempts",
			res.SigsegvTrials, e.Trials, res.Attempts)
	}
	return res, nil
}

// pool is the worker subprocesses of one sharded run, one per shard;
// nil means in-process shards, and every method is then a no-op.
type pool []*workerProc

// startPool spawns one worker per shard and sends each the spec, so
// every worker starts preparing its profile before the coordinator
// prepares its own. Empty argv means in-process shards (a nil pool).
func startPool(argv []string, shards int, spec *WorkerSpec) (pool, error) {
	if len(argv) == 0 {
		return nil, nil
	}
	p := make(pool, 0, shards)
	for s := 0; s < shards; s++ {
		w, err := startWorker(argv, spec)
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

// close shuts every worker down gracefully and reports the first
// failure.
func (p pool) close() error {
	var first error
	for _, w := range p {
		if err := w.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// kill tears every worker down (a no-op for workers already closed).
func (p pool) kill() {
	for _, w := range p {
		w.kill()
	}
}

// workerProc is one live worker subprocess speaking the shard protocol
// on its stdin/stdout; its stderr passes through to ours.
type workerProc struct {
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  *bufio.Reader
	once sync.Once
	// digest is the worker's profile digest, set once its ready frame
	// has been read.
	digest string
}

// startWorker spawns argv, wires the pipes, and sends the spec frame.
func startWorker(argv []string, spec *WorkerSpec) (*workerProc, error) {
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
	p := &workerProc{cmd: cmd, in: stdin, out: bufio.NewReaderSize(stdout, 1<<16)}
	if err := writeFrame(p.in, &frame{Type: frameSpec, Spec: spec}); err != nil {
		p.kill()
		return nil, fmt.Errorf("shard: send spec: %w", err)
	}
	return p, nil
}

// expect reads the worker's next frame, which must be of type want; an
// error frame becomes the worker's error.
func (p *workerProc) expect(want string) (*frame, error) {
	f, err := readFrame(p.out)
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
// coordinator writes any run frame into the pipe of a dead worker.
func (p *workerProc) ready() error {
	if p.digest != "" {
		return nil
	}
	f, err := p.expect(frameReady)
	if err != nil {
		return err
	}
	if f.Digest == "" {
		return fmt.Errorf("shard: worker ready frame carries no profile digest")
	}
	p.digest = f.Digest
	return nil
}

// run has the worker execute [lo, hi) and returns its done frame, which
// carries the results.
func (p *workerProc) run(lo, hi int) (*frame, error) {
	if err := p.ready(); err != nil {
		return nil, err
	}
	if err := writeFrame(p.in, &frame{Type: frameRun, Lo: lo, Hi: hi}); err != nil {
		return nil, fmt.Errorf("shard: send run [%d,%d): %w", lo, hi, err)
	}
	f, err := p.expect(frameDone)
	if err != nil {
		return nil, err
	}
	if f.Lo != lo || f.Hi != hi {
		return nil, fmt.Errorf("shard: worker finished [%d,%d), expected [%d,%d)", f.Lo, f.Hi, lo, hi)
	}
	return f, nil
}

// close asks the worker to exit and reaps it.
func (p *workerProc) close() error {
	var err error
	p.once.Do(func() {
		if werr := writeFrame(p.in, &frame{Type: frameExit}); werr != nil {
			err = werr
		}
		p.in.Close()
		if werr := p.cmd.Wait(); werr != nil && err == nil {
			err = fmt.Errorf("shard: worker exit: %w", werr)
		}
	})
	return err
}

// kill tears the worker down without ceremony (error paths; close is
// the graceful shutdown and makes kill a no-op afterwards).
func (p *workerProc) kill() {
	p.once.Do(func() {
		p.in.Close()
		_ = p.cmd.Process.Kill()
		_ = p.cmd.Wait()
	})
}
