package shard

import (
	"fmt"
	"io"

	"care/internal/profiler"
	"care/internal/store"
)

// Serve runs the worker side of the shard protocol over (r, w) —
// `care-inject -shard-serve` wires it to stdin/stdout. The worker
// receives one spec frame (build recipe, campaign or coverage config,
// store directory), rebuilds the binary with the deterministic compiler
// pipeline, prepares the golden profile with the coordinator's own
// Prepare call, and answers with a ready frame carrying the profile's
// digest (or an error frame if any of that failed). It then answers
// each run frame with a done frame carrying that range's results, until
// the exit frame. Anything written to w must be protocol frames, so
// worker diagnostics belong on stderr.
func Serve(r io.Reader, w io.Writer) error {
	f, err := readFrame(r)
	if err != nil {
		return fmt.Errorf("shard: worker handshake: %w", err)
	}
	if f.Type != frameSpec || f.Spec == nil {
		return fmt.Errorf("shard: worker expected spec frame, got %q", f.Type)
	}
	prof, run, err := prepare(f.Spec)
	if err != nil {
		return sendErr(w, err)
	}
	if err := writeFrame(w, &frame{Type: frameReady, Digest: profileDigest(prof)}); err != nil {
		return err
	}
	for {
		f, err := readFrame(r)
		if err != nil {
			if err == io.EOF {
				return nil // coordinator closed the pipe; treat as exit
			}
			return fmt.Errorf("shard: worker read: %w", err)
		}
		switch f.Type {
		case frameRun:
			done, err := run(f.Lo, f.Hi)
			if err != nil {
				return sendErr(w, err)
			}
			if err := writeFrame(w, done); err != nil {
				return err
			}
		case frameExit:
			return nil
		default:
			return sendErr(w, fmt.Errorf("shard: worker got unexpected %q frame", f.Type))
		}
	}
}

// prepare sets a worker up from its spec: it rebuilds the binary,
// reopens the shared store, and runs the spec's Prepare. It returns the
// profile and the function that runs one range into a done frame.
func prepare(spec *WorkerSpec) (*profiler.Profile, func(lo, hi int) (*frame, error), error) {
	app, err := spec.Build.Build()
	if err != nil {
		return nil, nil, err
	}
	var st *store.Store
	if spec.StoreDir != "" {
		if st, err = store.Open(spec.StoreDir); err != nil {
			return nil, nil, err
		}
	}
	switch {
	case spec.Campaign != nil:
		c := spec.Campaign.campaign(app, nil)
		c.Store = st
		prof, err := c.Prepare()
		if err != nil {
			return nil, nil, err
		}
		return prof, func(lo, hi int) (*frame, error) {
			trials, err := c.RunTrialRange(prof, lo, hi)
			if err != nil {
				return nil, err
			}
			done := &frame{Type: frameDone, Lo: lo, Hi: hi, Trials: make([]wireTrial, len(trials))}
			for i := range trials {
				if done.Trials[i], err = encodeTrial(&trials[i]); err != nil {
					return nil, err
				}
			}
			return done, nil
		}, nil
	case spec.Coverage != nil:
		e := spec.Coverage.experiment(app, nil)
		e.Store = st
		prof, err := e.Prepare()
		if err != nil {
			return nil, nil, err
		}
		return prof, func(lo, hi int) (*frame, error) {
			atts, err := e.RunAttemptRange(prof, lo, hi)
			if err != nil {
				return nil, err
			}
			done := &frame{Type: frameDone, Lo: lo, Hi: hi, Attempts: make([]wireAttempt, len(atts))}
			for i := range atts {
				if done.Attempts[i], err = encodeAttempt(&atts[i]); err != nil {
					return nil, err
				}
			}
			return done, nil
		}, nil
	}
	return nil, nil, fmt.Errorf("shard: spec frame names neither campaign nor coverage")
}

// sendErr reports a worker failure to the coordinator and returns the
// original error so the worker process exits non-zero.
func sendErr(w io.Writer, err error) error {
	_ = writeFrame(w, &frame{Type: frameError, Err: err.Error()})
	return err
}
