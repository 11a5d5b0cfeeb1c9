package progen

import (
	"bytes"
	"fmt"
	"testing"

	"care/internal/core"
	"care/internal/faultinject"
	"care/internal/machine"
	"care/internal/trace"
)

// diffTiers are the tiers checked against the Step-loop reference:
// every tier but step.
var diffTiers = []machine.InterpTier{machine.TierSuperblock}

// buildSeed compiles the progen module for one seed (fresh module per
// call — Build mutates the IR in place).
func buildSeed(t *testing.T, seed int64, opt int) *core.Binary {
	t.Helper()
	return buildOpts(t, seed, opt, Options{})
}

func buildOpts(t *testing.T, seed int64, opt int, gopts Options) *core.Binary {
	t.Helper()
	bin, err := core.Build(Generate(seed, gopts), core.BuildOptions{OptLevel: opt})
	if err != nil {
		t.Fatalf("seed %d O%d: build: %v", seed, opt, err)
	}
	return bin
}

// newProc assembles a fresh process on the chosen interpreter tier.
func newProc(t *testing.T, bin *core.Binary, tier machine.InterpTier) *core.Process {
	t.Helper()
	p, err := core.NewProcess(core.ProcessConfig{App: bin, Tier: tier})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// requireSameMachineState compares the full architectural outcome of
// two runs: status, exit code, registers, PC, Dyn, result stream, trap
// identity, and every writable memory segment.
func requireSameMachineState(t *testing.T, fast, step *core.Process) {
	t.Helper()
	bc, sc := fast.CPU, step.CPU
	if bc.Status != sc.Status {
		t.Fatalf("status: %v vs step %v", bc.Status, sc.Status)
	}
	if bc.Dyn != sc.Dyn {
		t.Errorf("Dyn: %d vs step %d", bc.Dyn, sc.Dyn)
	}
	if bc.PC != sc.PC {
		t.Errorf("PC: 0x%x vs step 0x%x", bc.PC, sc.PC)
	}
	if bc.ExitCode != sc.ExitCode {
		t.Errorf("exit code: %d vs step %d", bc.ExitCode, sc.ExitCode)
	}
	if bc.R != sc.R {
		t.Errorf("R: %v vs step %v", bc.R, sc.R)
	}
	if bc.F != sc.F {
		t.Errorf("F: %v vs step %v", bc.F, sc.F)
	}
	bt, st := bc.PendingTrap, sc.PendingTrap
	if (bt == nil) != (st == nil) {
		t.Fatalf("trap: %v vs step %v", bt, st)
	}
	if bt != nil && (bt.Sig != st.Sig || bt.PC != st.PC || bt.Addr != st.Addr || bt.Idx != st.Idx) {
		t.Errorf("trap identity differs:\n fast %+v\n step %+v", bt, st)
	}
	bres, sres := fast.Results(), step.Results()
	if len(bres) != len(sres) {
		t.Fatalf("result count: %d vs step %d", len(bres), len(sres))
	}
	for i := range bres {
		if bres[i] != sres[i] {
			t.Errorf("result[%d]: %v vs step %v", i, bres[i], sres[i])
		}
	}
	bsegs, ssegs := fast.Mem.Segments(), step.Mem.Segments()
	if len(bsegs) != len(ssegs) {
		t.Fatalf("segment count: %d vs step %d", len(bsegs), len(ssegs))
	}
	for i := range bsegs {
		if bsegs[i].ReadOnly() {
			continue
		}
		if bsegs[i].Base != ssegs[i].Base || bsegs[i].Size() != ssegs[i].Size() {
			t.Fatalf("segment %d layout mismatch", i)
		}
		bd, sd := bsegs[i].Bytes(), ssegs[i].Bytes()
		for j := range bd {
			if bd[j] != sd[j] {
				t.Errorf("segment %s byte 0x%x differs", bsegs[i].Name, bsegs[i].Base+machine.Word(j))
				break
			}
		}
	}
}

// requireSameTraceJSONL byte-compares the exported trace streams.
func requireSameTraceJSONL(t *testing.T, fast, step *trace.Recorder, tier machine.InterpTier) {
	t.Helper()
	var fj, sj bytes.Buffer
	if err := fast.WriteJSONL(&fj); err != nil {
		t.Fatal(err)
	}
	if err := step.WriteJSONL(&sj); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fj.Bytes(), sj.Bytes()) {
		t.Errorf("trace JSONL differs between %v engine and step loop", tier)
	}
}

// TestEngineDifferentialClean drives generated programs — loops,
// conditionals, array traffic, helper calls, host math calls — through
// every fast tier and the legacy Step loop at O0 and O1, requiring
// identical machine state at exit.
func TestEngineDifferentialClean(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		for _, opt := range []int{0, 1} {
			t.Run(fmt.Sprintf("seed%d/O%d", seed, opt), func(t *testing.T) {
				step := newProc(t, buildSeed(t, seed, opt), machine.TierStep)
				step.Run(100_000_000)
				for _, tier := range diffTiers {
					fast := newProc(t, buildSeed(t, seed, opt), tier)
					fast.Run(100_000_000)
					requireSameMachineState(t, fast, step)
				}
			})
		}
	}
}

// TestEngineDifferentialFaulted arms the same bit flip on every tier:
// the corrupted suffix (often ending in a trap) must diverge from the
// golden run identically, including byte-identical trace JSONL.
func TestEngineDifferentialFaulted(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	// High bits of an integer register make corrupted addresses
	// non-canonical (SIGSEGV); low bits skew values (SDC/benign).
	flips := [][]int{{41}, {3}, {62, 17}}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		bin0 := buildSeed(t, seed, 0)
		bin1 := buildSeed(t, seed, 1)
		for fi, bits := range flips {
			for _, bin := range []*core.Binary{bin0, bin1} {
				t.Run(fmt.Sprintf("seed%d/O%d/flip%d", seed, bin.Prog.OptLevel, fi), func(t *testing.T) {
					run := func(tier machine.InterpTier) (*core.Process, *trace.Recorder) {
						p := newProc(t, bin, tier)
						rec := trace.New(16)
						p.CPU.Trace = rec
						faultinject.Arm(p.CPU, faultinject.Trigger{AtDyn: 500 + uint64(seed)*137}, bits)
						p.Run(10_000_000)
						return p, rec
					}
					step, srec := run(machine.TierStep)
					for _, tier := range diffTiers {
						fast, frec := run(tier)
						requireSameMachineState(t, fast, step)
						requireSameTraceJSONL(t, frec, srec, tier)
					}
				})
			}
		}
	}
}

// TestEngineDifferentialShapes generates the dispatch-stressing shapes
// — dense branch chains, call/ret ladders, tight self-loops — that
// specifically exercise superblock entry/exit and the stack-segment
// inline cache, and runs each clean and faulted on both tiers.
func TestEngineDifferentialShapes(t *testing.T) {
	shapes := Options{DenseBranches: 24, CallLadderDepth: 6, TightLoops: 8}
	seeds := 4
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		for _, opt := range []int{0, 1} {
			bin := buildOpts(t, seed, opt, shapes)
			t.Run(fmt.Sprintf("seed%d/O%d/clean", seed, opt), func(t *testing.T) {
				run := func(tier machine.InterpTier) (*core.Process, *trace.Recorder) {
					p := newProc(t, bin, tier)
					rec := trace.New(16)
					p.CPU.Trace = rec
					p.Run(100_000_000)
					return p, rec
				}
				step, srec := run(machine.TierStep)
				for _, tier := range diffTiers {
					fast, frec := run(tier)
					requireSameMachineState(t, fast, step)
					requireSameTraceJSONL(t, frec, srec, tier)
				}
			})
			t.Run(fmt.Sprintf("seed%d/O%d/faulted", seed, opt), func(t *testing.T) {
				run := func(tier machine.InterpTier) (*core.Process, *trace.Recorder) {
					p := newProc(t, bin, tier)
					rec := trace.New(16)
					p.CPU.Trace = rec
					faultinject.Arm(p.CPU, faultinject.Trigger{AtDyn: 400 + uint64(seed)*91}, []int{41})
					p.Run(10_000_000)
					return p, rec
				}
				step, srec := run(machine.TierStep)
				for _, tier := range diffTiers {
					fast, frec := run(tier)
					requireSameMachineState(t, fast, step)
					requireSameTraceJSONL(t, frec, srec, tier)
				}
			})
		}
	}
}
