package machine

import (
	"fmt"
	"slices"
	"testing"

	"care/internal/debuginfo"
	"care/internal/hostenv"
	"care/internal/trace"
)

// fastArms are the ways the differential tests drive the superblock
// engine against the Step-loop reference: "superblock" spends a budget
// in one Run call, "block" one basic block per Run call (runBlockwise).
var fastArms = []struct {
	name string
	run  func(c *CPU, limit uint64) RunStatus
}{
	{"superblock", (*CPU).Run},
	{"block", runBlockwise},
}

// runBlockwise runs c for at most limit budget units (0: until it
// stops), one basic block per Run call: each slice ends on the block's
// control or punting µop, so every block is entered through Run's
// dispatch instead of a predecoded link or a fused fallthrough, and
// every block end is a budget pause.
func runBlockwise(c *CPU, limit uint64) RunStatus {
	bounded := limit > 0
	for {
		n := blockLen(c)
		if bounded {
			n = min(n, limit)
			limit -= n
		}
		if st := c.Run(n); st != StatusLimit || (bounded && limit == 0) {
			return st
		}
	}
}

// blockLen counts the instructions from c.PC through the end of its
// basic block in the predecoded plan: up to and including the next
// control or punting µop. A PC between µops or outside every image
// counts 1.
func blockLen(c *CPU) uint64 {
	img := c.FindImage(c.PC)
	if img == nil || (c.PC-img.Base())&7 != 0 {
		return 1
	}
	uops := img.Prog.plan().uops
	n := uint64(1)
	for i := int((c.PC - img.Base()) >> 3); i < len(uops)-1 && !isControlOp(uops[i].op); i++ {
		n++
	}
	return n
}

// dualAsm assembles the same raw program twice: one CPU on the given
// engine tier, one forced onto the legacy Step loop. Separate Programs
// (and memories) keep the two runs fully independent.
func dualAsm(t *testing.T, code []MInstr, setup func(c *CPU), tier InterpTier) (fast, step *CPU) {
	t.Helper()
	mk := func() *CPU {
		p := &Program{
			Name:     "asm",
			CodeBase: AppCodeBase,
			Code:     append([]MInstr(nil), code...),
			Funcs:    []FuncSym{{Name: "_start", Entry: 0}},
			Debug:    debuginfo.New(),
		}
		mem := NewMemory()
		img, err := Load(mem, p)
		if err != nil {
			t.Fatal(err)
		}
		cpu := NewCPU(mem, hostenv.NewEnv())
		cpu.Attach(img)
		if err := cpu.InitStack(); err != nil {
			t.Fatal(err)
		}
		if err := cpu.Start(img, "_start"); err != nil {
			t.Fatal(err)
		}
		if setup != nil {
			setup(cpu)
		}
		return cpu
	}
	fast = mk()
	fast.Tier = tier
	step = mk()
	step.Tier = TierStep
	return fast, step
}

// compareCPUs asserts the full architectural state of the two runs is
// identical: registers, PC, Dyn, status, exit code, pending trap, and
// every writable memory segment.
func compareCPUs(t *testing.T, fast, step *CPU) {
	t.Helper()
	if fast.R != step.R {
		t.Errorf("R mismatch:\n fast %v\n step %v", fast.R, step.R)
	}
	if fast.F != step.F {
		t.Errorf("F mismatch:\n fast %v\n step %v", fast.F, step.F)
	}
	if fast.PC != step.PC {
		t.Errorf("PC mismatch: fast 0x%x step 0x%x", fast.PC, step.PC)
	}
	if fast.Dyn != step.Dyn {
		t.Errorf("Dyn mismatch: fast %d step %d", fast.Dyn, step.Dyn)
	}
	if fast.Status != step.Status {
		t.Errorf("status mismatch: fast %v step %v", fast.Status, step.Status)
	}
	if fast.ExitCode != step.ExitCode {
		t.Errorf("exit code mismatch: fast %d step %d", fast.ExitCode, step.ExitCode)
	}
	ft, st := fast.PendingTrap, step.PendingTrap
	if (ft == nil) != (st == nil) {
		t.Fatalf("trap mismatch: fast %v step %v", ft, st)
	}
	if ft != nil && (ft.Sig != st.Sig || ft.PC != st.PC || ft.Addr != st.Addr || ft.Idx != st.Idx) {
		t.Errorf("trap mismatch:\n fast %+v\n step %+v", ft, st)
	}
	fs, ss := fast.Mem.Segments(), step.Mem.Segments()
	if len(fs) != len(ss) {
		t.Fatalf("segment count mismatch: fast %d step %d", len(fs), len(ss))
	}
	for i := range fs {
		if fs[i].Base != ss[i].Base || fs[i].Size() != ss[i].Size() {
			t.Fatalf("segment %d layout mismatch", i)
		}
		if fs[i].ReadOnly() {
			continue
		}
		fd, sd := fs[i].Bytes(), ss[i].Bytes()
		for j := range fd {
			if fd[j] != sd[j] {
				t.Errorf("segment %s byte 0x%x differs: fast %#x step %#x",
					fs[i].Name, fs[i].Base+Word(j), fd[j], sd[j])
				break
			}
		}
	}
}

// runDual drives the superblock engine in every fast arm against a
// fresh Step-loop reference with the same budget and compares the final
// state.
func runDual(t *testing.T, code []MInstr, setup func(c *CPU), limit uint64) {
	t.Helper()
	for _, arm := range fastArms {
		t.Run(arm.name, func(t *testing.T) {
			fast, step := dualAsm(t, code, setup, TierSuperblock)
			if got, want := arm.run(fast, limit), step.Run(limit); got != want {
				t.Errorf("run status: %s %v step %v", arm.name, got, want)
			}
			compareCPUs(t, fast, step)
		})
	}
}

// loopProgram is a memory-touching counted loop covering loads, stores,
// indexed addressing, ALU with immediates and registers, compare+branch
// and float traffic — the steady-state mix.
func loopProgram(n int64) []MInstr {
	return []MInstr{
		{Op: MMovImm, Rd: R1, Imm: 0},
		{Op: MMovImm, Rd: R4, Imm: 0x30000},
		{Op: MMovImm, Rd: R5, Imm: n},
		{Op: MLoad, Rd: R2, Base: R4, Index: R1, Scale: 8, Disp: 0}, // idx 3
		{Op: MAdd, Rd: R2, Ra: R2, UseImm: true, Imm: 3},
		{Op: MMul, Rd: R6, Ra: R2, Rb: R2},
		{Op: MStore, Base: R4, Index: R1, Scale: 8, Disp: 0, Ra: R6},
		{Op: MCvtIF, Fd: 1, Ra: R2},
		{Op: MFMul, Fd: 2, Fa: 1, Fb: 1},
		{Op: MFStore, Base: R4, Disp: 64, Fa: 2},
		{Op: MAdd, Rd: R1, Ra: R1, UseImm: true, Imm: 1},
		{Op: MAnd, Rd: R1, Ra: R1, UseImm: true, Imm: 7},
		{Op: MSub, Rd: R5, Ra: R5, UseImm: true, Imm: 1},
		{Op: MSet, Cond: CondGT, Rd: R3, Ra: R5, UseImm: true, Imm: 0},
		{Op: MJnz, Ra: R3, Target: AppCodeBase + 8*3},
		{Op: MHalt, Ra: R5},
	}
}

func mapData(t *testing.T) func(c *CPU) {
	return func(c *CPU) {
		t.Helper()
		if _, err := c.Mem.Map(0x30000, 256*8, "data"); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEngineMatchesStepLoop(t *testing.T) {
	runDual(t, loopProgram(500), mapData(t), 0)
}

// TestEngineBudgetSweep pauses both engines at every budget around the
// loop boundary: StatusLimit must fire on the same dynamic instruction
// with the same lazily-materialised PC.
func TestEngineBudgetSweep(t *testing.T) {
	for limit := uint64(1); limit <= 40; limit++ {
		t.Run(fmt.Sprintf("limit%d", limit), func(t *testing.T) {
			runDual(t, loopProgram(500), mapData(t), limit)
		})
	}
}

// TestEngineResumesAfterLimit slices one run into many Run calls and
// checks the result equals a single uninterrupted run.
func TestEngineResumesAfterLimit(t *testing.T) {
	for _, arm := range fastArms {
		t.Run(arm.name, func(t *testing.T) {
			fast, step := dualAsm(t, loopProgram(200), mapData(t), TierSuperblock)
			for fast.Status != StatusExited {
				arm.run(fast, 7)
			}
			step.Run(0)
			compareCPUs(t, fast, step)
		})
	}
}

func TestEngineTrapParity(t *testing.T) {
	cases := []struct {
		name string
		code []MInstr
		sig  Signal
	}{
		{"segv-load", []MInstr{
			{Op: MMovImm, Rd: R1, Imm: 0x999000},
			{Op: MLoad, Rd: R2, Base: R1},
			{Op: MHalt},
		}, SigSEGV},
		{"segv-store-to-code", []MInstr{
			{Op: MMovImm, Rd: R1, Imm: int64(AppCodeBase)},
			{Op: MStore, Base: R1, Ra: R1},
			{Op: MHalt},
		}, SigSEGV},
		{"bus-misaligned", []MInstr{
			{Op: MMovImm, Rd: R1, Imm: 0x30004},
			{Op: MLoad, Rd: R2, Base: R1},
			{Op: MHalt},
		}, SigBUS},
		{"fpe-div-zero", []MInstr{
			{Op: MMovImm, Rd: R1, Imm: 9},
			{Op: MMovImm, Rd: R2, Imm: 0},
			{Op: MDiv, Rd: R3, Ra: R1, Rb: R2},
			{Op: MHalt},
		}, SigFPE},
		{"fpe-rem-overflow", []MInstr{
			{Op: MMovImm, Rd: R1, Imm: -0x8000000000000000},
			{Op: MMovImm, Rd: R2, Imm: -1},
			{Op: MRem, Rd: R3, Ra: R1, Rb: R2},
			{Op: MHalt},
		}, SigFPE},
		{"ill-wild-jump", []MInstr{
			{Op: MJmp, Target: 0x1234568},
			{Op: MHalt},
		}, SigILL},
		{"segv-stack-underflow", []MInstr{
			{Op: MMovImm, Rd: R1, Imm: int64(StackTop)},
			{Op: MMov, Rd: SP, Ra: R1},
			{Op: MPop, Rd: R2},
			{Op: MHalt},
		}, SigSEGV},
		{"abort", []MInstr{
			{Op: MNop},
			{Op: MAbort},
		}, SigABRT},
	}
	for _, tc := range cases {
		for _, arm := range fastArms {
			t.Run(tc.name+"/"+arm.name, func(t *testing.T) {
				fast, step := dualAsm(t, tc.code, mapData(t), TierSuperblock)
				arm.run(fast, 0)
				step.Run(0)
				if fast.Status != StatusTrapped || fast.PendingTrap.Sig != tc.sig {
					t.Fatalf("%s arm: want %v trap, got %v (%v)", arm.name, tc.sig, fast.Status, fast.PendingTrap)
				}
				compareCPUs(t, fast, step)
			})
		}
	}
}

// misalignedProgram calls f, which adds 3 to its saved return address
// and returns, so control lands mid-instruction (PC low bits 3) on a
// straight-line stretch — ALU, store, load through R4 — that a taken Jmp
// leaves for an aligned counted loop of 8 trips. Setups point R4 at
// memory before the run.
func misalignedProgram() []MInstr {
	return []MInstr{
		{Op: MMovImm, Rd: R5, Imm: 8},
		{Op: MCall, Target: AppCodeBase + 8*10}, // call f
		// Stretch, entered at AppCodeBase+8*2+3.
		{Op: MMul, Rd: R2, Ra: R4, UseImm: true, Imm: 5},
		{Op: MStore, Base: R4, Disp: 8, Ra: R2},
		{Op: MLoad, Rd: R3, Base: R4, Disp: 8},
		{Op: MJmp, Target: AppCodeBase + 8*6},
		// Aligned loop.
		{Op: MAdd, Rd: R6, Ra: R6, Rb: R3}, // idx 6
		{Op: MSub, Rd: R5, Ra: R5, UseImm: true, Imm: 1},
		{Op: MJnz, Ra: R5, Target: AppCodeBase + 8*6},
		{Op: MHalt, Ra: R6},
		// f: corrupt the saved return address, then return through it.
		{Op: MLoad, Rd: R1, Base: SP}, // idx 10
		{Op: MAdd, Rd: R1, Ra: R1, UseImm: true, Imm: 3},
		{Op: MStore, Base: SP, Ra: R1},
		{Op: MRet},
	}
}

// TestEngineMisalignedTrapPC runs code at a corrupted, misaligned PC
// against the Step loop: every PC materialised there (pause, trap,
// stop) must keep the misalignment exactly (a PC reconstructed as
// base+8*idx would silently re-align it), and the run must go on
// identically once the taken Jmp realigns it.
func TestEngineMisalignedTrapPC(t *testing.T) {
	const stretch = AppCodeBase + 8*2 + 3
	at := func(r4 Word, more func(c *CPU)) func(c *CPU) {
		return func(c *CPU) {
			mapData(t)(c)
			c.R[R4] = r4
			if more != nil {
				more(c)
			}
		}
	}
	// Budget 0 runs to the exit; 1..40 pause before, inside and after
	// the stretch.
	for limit := uint64(0); limit <= 40; limit++ {
		t.Run(fmt.Sprintf("limit%d", limit), func(t *testing.T) {
			runDual(t, misalignedProgram(), at(0x30000, nil), limit)
		})
	}
	cases := []struct {
		name  string
		setup func(c *CPU)
		slice uint64 // the fast CPU runs in Run(slice) calls; 0 is one Run(0)
		check func(t *testing.T, fast, step *CPU)
	}{
		{"resume-every-instruction", at(0x30000, nil), 1, func(t *testing.T, fast, _ *CPU) {
			if fast.Status != StatusExited || fast.ExitCode != 8*5*0x30000 {
				t.Fatalf("want exit %d, got %v exit %d", 8*5*0x30000, fast.Status, fast.ExitCode)
			}
		}},
		{"segv-store", at(0x40, nil), 0, func(t *testing.T, fast, _ *CPU) {
			if tr := fast.PendingTrap; fast.Status != StatusTrapped || tr.Sig != SigSEGV || tr.PC != stretch+8 {
				t.Fatalf("want SIGSEGV at 0x%x, got %v (%+v)", stretch+8, fast.Status, tr)
			}
		}},
		// compareCPUs does not compare profile counts.
		{"profile-counts", at(0x30000, func(c *CPU) { c.Profile = true }), 0, func(t *testing.T, fast, step *CPU) {
			fc, sc := fast.Counts[fast.Images[0]], step.Counts[step.Images[0]]
			if !slices.Equal(fc, sc) {
				t.Errorf("counts differ:\n fast %v\n step %v", fc, sc)
			}
			if len(fc) < 7 || fc[2] != 1 || fc[6] != 8 {
				t.Errorf("counts %v: want the stretch once and the loop 8 times", fc)
			}
		}},
	}
	for _, arm := range fastArms {
		t.Run(arm.name, func(t *testing.T) {
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					fast, step := dualAsm(t, misalignedProgram(), tc.setup, TierSuperblock)
					for arm.run(fast, tc.slice) == StatusLimit {
					}
					step.Run(0)
					compareCPUs(t, fast, step)
					tc.check(t, fast, step)
				})
			}
		})
	}
}

// TestSentinelRunSkipsEngine: a TierStep run, which is how a recovery
// kernel runs until it returns to its unmapped return sentinel, never
// builds the Program's µop plan, and it ends on the same attempt as a
// plain loop of Step calls, whether it exits or ends on the SIGILL
// fetch trap at the sentinel.
func TestSentinelRunSkipsEngine(t *testing.T) {
	const sentinel = 0x7eee00000000
	toSentinel := append(loopProgram(5)[:15:15],
		MInstr{Op: MMovImm, Rd: R0, Imm: 99},
		MInstr{Op: MMovImm, Rd: R1, Imm: sentinel},
		MInstr{Op: MPush, Ra: R1},
		MInstr{Op: MRet},
	)
	for _, tc := range []struct {
		name string
		code []MInstr
		want RunStatus
	}{
		{"exit", loopProgram(5), StatusExited},
		{"ret-to-sentinel", toSentinel, StatusTrapped},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run, step := dualAsm(t, tc.code, mapData(t), TierStep)
			if st := run.Run(0); st != tc.want {
				t.Fatalf("TierStep run ended %v, want %v", st, tc.want)
			}
			if run.Images[0].Prog.ublocks != nil {
				t.Error("a TierStep run built the µop plan")
			}
			if tr := run.PendingTrap; tc.want == StatusTrapped && (tr.Sig != SigILL || tr.PC != sentinel || run.R[R0] != 99) {
				t.Errorf("want SIGILL at 0x%x with R0 99, got %+v with R0 %d", sentinel, tr, run.R[R0])
			}
			for step.Status == StatusRunning {
				step.Step()
			}
			compareCPUs(t, run, step)
		})
	}
}

// TestEngineDeoptOnHookInstall installs a retire hook from a trap
// handler mid-run: the engine must fall back to the Step loop at the
// block boundary so the hook sees every subsequent retirement.
func TestEngineDeoptOnHookInstall(t *testing.T) {
	code := []MInstr{
		{Op: MMovImm, Rd: R1, Imm: 5},
		{Op: MMovImm, Rd: R2, Imm: 0},
		{Op: MDiv, Rd: R3, Ra: R1, Rb: R2}, // idx 2: traps SIGFPE
		{Op: MAdd, Rd: R4, Ra: R4, UseImm: true, Imm: 1},
		{Op: MAdd, Rd: R4, Ra: R4, UseImm: true, Imm: 1},
		{Op: MHalt, Ra: R4},
	}
	run := func(tier InterpTier) (hookRetires int, c *CPU) {
		p := &Program{Name: "asm", CodeBase: AppCodeBase, Code: code,
			Funcs: []FuncSym{{Name: "_start", Entry: 0}}, Debug: debuginfo.New()}
		mem := NewMemory()
		img, err := Load(mem, p)
		if err != nil {
			t.Fatal(err)
		}
		c = NewCPU(mem, hostenv.NewEnv())
		c.Tier = tier
		c.Attach(img)
		if err := c.InitStack(); err != nil {
			t.Fatal(err)
		}
		if err := c.Start(img, "_start"); err != nil {
			t.Fatal(err)
		}
		c.Handler = func(cc *CPU, tr *Trap) TrapAction {
			cc.R[R2] = 1 // patch the divisor and resume
			cc.AddAfterStep(func(*CPU, *Image, int, *MInstr) { hookRetires++ })
			return TrapResume
		}
		c.Run(0)
		return hookRetires, c
	}
	gotStep, cs := run(TierStep)
	gotFast, cf := run(TierSuperblock)
	if gotFast != gotStep {
		t.Errorf("hook retirements differ: superblock %d step %d", gotFast, gotStep)
	}
	if gotFast == 0 {
		t.Error("mid-run hook never observed a retirement")
	}
	compareCPUs(t, cf, cs)
}

// TestEngineRemoveHookReopts checks that removing the last retire hook
// returns Run to the superblock engine (afterLive bookkeeping), and that
// removing one twice does not corrupt the count.
func TestEngineRemoveHookReopts(t *testing.T) {
	c, _ := asm(t, loopProgram(50))
	if _, err := c.Mem.Map(0x30000, 256*8, "data"); err != nil {
		t.Fatal(err)
	}
	r1 := c.AddAfterStep(func(*CPU, *Image, int, *MInstr) {})
	r2 := c.AddAfterStep(func(*CPU, *Image, int, *MInstr) {})
	if c.afterLive != 2 {
		t.Fatalf("afterLive = %d, want 2", c.afterLive)
	}
	r1()
	r1() // double-remove must be idempotent
	r2()
	if c.afterLive != 0 {
		t.Fatalf("afterLive = %d after removals, want 0", c.afterLive)
	}
	if st := c.Run(0); st != StatusExited {
		t.Fatalf("run: %v", st)
	}
}

// TestEngineProfileCounts checks per-static-instruction counts are
// identical between engines (including the cached counts-slice path).
func TestEngineProfileCounts(t *testing.T) {
	for _, arm := range fastArms {
		t.Run(arm.name, func(t *testing.T) {
			fast, step := dualAsm(t, loopProgram(100), func(c *CPU) {
				mapData(t)(c)
				c.Profile = true
			}, TierSuperblock)
			arm.run(fast, 0)
			step.Run(0)
			compareCPUs(t, fast, step)
			bi, si := fast.Images[0], step.Images[0]
			bc, sc := fast.Counts[bi], step.Counts[si]
			if len(bc) != len(sc) {
				t.Fatalf("counts length: %s %d step %d", arm.name, len(bc), len(sc))
			}
			for i := range bc {
				if bc[i] != sc[i] {
					t.Errorf("counts[%d]: %s %d step %d", i, arm.name, bc[i], sc[i])
				}
			}
		})
	}
}

// TestEngineTraceSpansMatch compares the trap spans both engines stamp.
func TestEngineTraceSpansMatch(t *testing.T) {
	code := []MInstr{
		{Op: MMovImm, Rd: R1, Imm: 0x40},
		{Op: MLoad, Rd: R2, Base: R1}, // SEGV at 0x40
		{Op: MHalt},
	}
	tiers := Tiers()
	recs := make([]*trace.Recorder, len(tiers))
	for i, tier := range tiers {
		c, _ := dualAsm(t, code, nil, tier)
		recs[i] = trace.New(8)
		c.Trace = recs[i]
		c.Run(0)
	}
	ref := recs[len(recs)-1].Spans() // step reference
	if len(ref) == 0 {
		t.Fatal("step loop stamped no spans")
	}
	for i, tier := range tiers[:len(tiers)-1] {
		got := recs[i].Spans()
		if len(got) != len(ref) {
			t.Fatalf("span counts: %v %d step %d", tier, len(got), len(ref))
		}
		for j := range got {
			if got[j] != ref[j] {
				t.Errorf("span %d differs:\n %v %+v\n step  %+v", j, tier, got[j], ref[j])
			}
		}
	}
}

// TestInlineCacheInvalidation exercises the generation counter: a cached
// segment must not satisfy accesses after Unmap or Restore swaps the
// mapping under it.
func TestInlineCacheInvalidation(t *testing.T) {
	// Loop reading 0x30000 forever; pause, remap, resume.
	code := []MInstr{
		{Op: MMovImm, Rd: R4, Imm: 0x30000},
		{Op: MLoad, Rd: R2, Base: R4}, // idx 1
		{Op: MJmp, Target: AppCodeBase + 8},
	}
	c, _ := asm(t, code)
	seg, err := c.Mem.Map(0x30000, 64, "data")
	if err != nil {
		t.Fatal(err)
	}
	if f := c.Mem.Write(0x30000, 11); f != nil {
		t.Fatal(f)
	}
	c.Run(10) // warm the inline cache
	if c.R[R2] != 11 {
		t.Fatalf("R2 = %d, want 11", c.R[R2])
	}

	// Unmap: the cached segment must stop matching and the access fault.
	c.Mem.Unmap(seg)
	c.Run(4)
	if c.Status != StatusTrapped || c.PendingTrap.Sig != SigSEGV {
		t.Fatalf("after unmap: %v (%v), want SIGSEGV", c.Status, c.PendingTrap)
	}

	// Remap with new contents: the retried access must see them.
	if _, err := c.Mem.Map(0x30000, 64, "data2"); err != nil {
		t.Fatal(err)
	}
	if f := c.Mem.Write(0x30000, 22); f != nil {
		t.Fatal(f)
	}
	c.Status = StatusRunning
	c.PendingTrap = nil
	c.Run(4)
	if c.R[R2] != 22 {
		t.Fatalf("R2 = %d after remap, want 22", c.R[R2])
	}
}

func TestInlineCacheSeesRestoredSnapshot(t *testing.T) {
	code := []MInstr{
		{Op: MMovImm, Rd: R4, Imm: 0x30000},
		{Op: MLoad, Rd: R2, Base: R4},
		{Op: MMovImm, Rd: R3, Imm: 77},
		{Op: MStore, Base: R4, Ra: R3},
		{Op: MJmp, Target: AppCodeBase + 8},
	}
	c, _ := asm(t, code)
	if _, err := c.Mem.Map(0x30000, 64, "data"); err != nil {
		t.Fatal(err)
	}
	if f := c.Mem.Write(0x30000, 5); f != nil {
		t.Fatal(f)
	}
	sn := c.Mem.Snapshot()
	c.Run(10) // warms load+store caches; stores 77
	if v, _ := c.Mem.Read(0x30000); v != 77 {
		t.Fatalf("pre-restore value %d, want 77", v)
	}
	c.Mem.Restore(sn)
	// The restored segment is a different *Segment aliasing frozen
	// bytes; a stale cache hit would read 77 (or store through to the
	// snapshot). The next load must see the snapshot value.
	c.PC = AppCodeBase + 8
	c.Run(1)
	if c.R[R2] != 5 {
		t.Fatalf("R2 = %d after restore, want 5", c.R[R2])
	}
	// And the next store must COW-materialise, not dirty the snapshot.
	c.Run(2)
	for _, ss := range sn.Segs {
		if ss.Base == 0x30000 && (ss.Pages[0] == nil || leLoad(ss.Pages[0], 0) != 5) {
			t.Fatal("snapshot lost")
		}
	}
	c.Mem.Restore(sn)
	if v, _ := c.Mem.Read(0x30000); v != 5 {
		t.Fatalf("snapshot dirtied: %d, want 5", v)
	}
}

// TestInlineCacheRespectsSnapshotFreeze pins the write-through bug the
// generation bump in Memory.Snapshot prevents: warm a store cache on a
// writable segment, snapshot (which flips the same *Segment to
// copy-on-write in place — no remap, no segment swap), then store
// again. The store must COW-materialize instead of taking a stale
// in-place hit that dirties the frozen bytes the snapshot aliases.
func TestInlineCacheRespectsSnapshotFreeze(t *testing.T) {
	for _, tier := range Tiers() {
		code := []MInstr{
			{Op: MMovImm, Rd: R4, Imm: 0x30000},
			{Op: MMovImm, Rd: R3, Imm: 1},
			{Op: MAdd, Rd: R3, Ra: R3, UseImm: true, Imm: 1}, // idx 2
			{Op: MStore, Base: R4, Ra: R3},
			{Op: MJmp, Target: AppCodeBase + 16},
		}
		c, _ := asm(t, code)
		c.Tier = tier
		if _, err := c.Mem.Map(0x30000, 64, "data"); err != nil {
			t.Fatal(err)
		}
		c.Run(6) // 0,1,2,3(store 2),4,2 — store cache is warm and writable
		sn := c.Mem.Snapshot()
		c.Run(3) // 3(store 3),4,2 — must materialize, not write through
		if v, _ := c.Mem.Read(0x30000); v != 3 {
			t.Fatalf("%v: live value %d, want 3", tier, v)
		}
		c.Mem.Restore(sn)
		if v, _ := c.Mem.Read(0x30000); v != 2 {
			t.Fatalf("%v: snapshot dirtied by post-freeze store: %d, want 2", tier, v)
		}
	}
}

// TestEnginePuntsHostCalls checks host calls (and the instructions
// around them) behave identically — they run through the legacy Step.
func TestEnginePuntsHostCalls(t *testing.T) {
	code := []MInstr{
		{Op: MMovImm, Rd: R1, Imm: 42},
		{Op: MPush, Ra: R1},
		{Op: MHost, Host: "print_i64", HostArgs: 1},
		{Op: MAdd, Rd: R2, Ra: R0, UseImm: true, Imm: 1},
		{Op: MHalt, Ra: R2},
	}
	runDual(t, code, nil, 0)
}

// TestPredecodePuntsMalformedOperands: instructions with out-of-range
// register fields must reach the legacy Step loop (and fail there the
// way they always did), not be silently executed with masked indices.
func TestPredecodePuntsMalformedOperands(t *testing.T) {
	in := MInstr{Op: MAdd, Rd: 200, Ra: R1}
	if u := predecodeOne(&in); u.op != uPunt {
		t.Errorf("Rd=200 predecoded to %d, want uPunt", u.op)
	}
	in = MInstr{Op: MLoad, Rd: R1, Base: 99}
	if u := predecodeOne(&in); u.op != uPunt {
		t.Errorf("Base=99 predecoded to %d, want uPunt", u.op)
	}
	in = MInstr{Op: MFAdd, Fd: 1, Fa: 31, Fb: 2}
	if u := predecodeOne(&in); u.op != uPunt {
		t.Errorf("Fa=31 predecoded to %d, want uPunt", u.op)
	}
	// NoReg Rb resolves to the RI form with src2 = 0, like Step.
	in = MInstr{Op: MAdd, Rd: R1, Ra: R2, Rb: NoReg}
	u := predecodeOne(&in)
	if u.op != uAddRI || u.imm != 0 {
		t.Errorf("NoReg Rb: got op %d imm %d, want uAddRI imm 0", u.op, u.imm)
	}
}

// TestEngineBudgetChargesTrapAttempts: a trapped-and-resumed instruction
// consumes budget without retiring on the engine and the Step loop, so
// StatusLimit hits at the same point.
func TestEngineBudgetChargesTrapAttempts(t *testing.T) {
	code := []MInstr{
		{Op: MMovImm, Rd: R1, Imm: 1},
		{Op: MMovImm, Rd: R2, Imm: 0},
		{Op: MDiv, Rd: R3, Ra: R1, Rb: R2}, // traps; handler resumes without fixing
		{Op: MHalt},
	}
	for limit := uint64(3); limit <= 8; limit++ {
		mk := func(tier InterpTier) *CPU {
			c, _ := asm(t, code)
			c.Tier = tier
			c.Handler = func(*CPU, *Trap) TrapAction { return TrapResume }
			return c
		}
		s := mk(TierStep)
		want := s.Run(limit)
		for _, arm := range fastArms {
			f := mk(TierSuperblock)
			if got := arm.run(f, limit); got != want {
				t.Fatalf("limit %d: %s %v step %v", limit, arm.name, got, want)
			}
			if f.Status != StatusLimit {
				t.Fatalf("limit %d: status %v, want limit", limit, f.Status)
			}
			compareCPUs(t, f, s)
		}
	}
}

// TestPredecodeBranchLinking checks the second predecode pass resolves
// well-formed in-image branch targets to µop indices and records
// fallthrough-run lengths for the superblock tier.
func TestPredecodeBranchLinking(t *testing.T) {
	p := &Program{Name: "asm", CodeBase: AppCodeBase, Code: []MInstr{
		{Op: MMovImm, Rd: R1, Imm: 3},                    // 0: sb+2
		{Op: MSub, Rd: R1, Ra: R1, UseImm: true, Imm: 1}, // 1
		{Op: MJnz, Ra: R1, Target: AppCodeBase + 8},      // 2: links to 1
		{Op: MJmp, Target: AppCodeBase + 8*4},            // 3: links to 4
		{Op: MNop},                                       // 4
		{Op: MHalt},                                      // 5: punts
	}, Funcs: []FuncSym{{Name: "_start", Entry: 0}}, Debug: debuginfo.New()}
	plan := p.plan()
	if got := plan.uops[2].tidx; got != 1 {
		t.Errorf("jnz tidx = %d, want 1", got)
	}
	if got := plan.uops[3].tidx; got != 4 {
		t.Errorf("jmp tidx = %d, want 4", got)
	}
	wantRuns := []int32{2, 1, 0, 0, 1, 0}
	for i, want := range wantRuns {
		if plan.runLen[i] != want {
			t.Errorf("runLen[%d] = %d, want %d", i, plan.runLen[i], want)
		}
	}
}

// TestPredecodeBranchDemotion: branch targets that land mid-instruction,
// outside the image (above or below), or on a punting µop must demote
// the branch to dispatch-return at predecode — tidx stays -1 and
// linkTarget reports why — never a Go panic or a silently wrong link.
func TestPredecodeBranchDemotion(t *testing.T) {
	cases := []struct {
		name   string
		code   []MInstr
		idx    int // index of the branch under test
		reason string
	}{
		{"jmp-mid-instruction", []MInstr{
			{Op: MJmp, Target: AppCodeBase + 4},
			{Op: MHalt},
		}, 0, demoteMidInstr},
		{"jnz-mid-instruction", []MInstr{
			{Op: MJnz, Ra: R1, Target: AppCodeBase + 8 + 3},
			{Op: MHalt},
		}, 0, demoteMidInstr},
		{"jmp-above-image", []MInstr{
			{Op: MJmp, Target: AppCodeBase + 8*100},
			{Op: MHalt},
		}, 0, demoteOutsideImage},
		{"jz-below-image", []MInstr{
			{Op: MJz, Ra: R1, Target: AppCodeBase - 8},
			{Op: MHalt},
		}, 0, demoteOutsideImage},
		{"jmp-one-past-end", []MInstr{
			{Op: MJmp, Target: AppCodeBase + 8*2},
			{Op: MHalt},
		}, 0, demoteOutsideImage},
		{"call-cross-image", []MInstr{
			{Op: MCall, Target: LibCodeBase},
			{Op: MHalt},
		}, 0, demoteOutsideImage},
		{"jmp-onto-punting-uop", []MInstr{
			{Op: MJmp, Target: AppCodeBase + 8},
			{Op: MHost, Host: "print_i64", HostArgs: 0},
			{Op: MHalt},
		}, 0, demotePunts},
		{"call-onto-halt", []MInstr{
			{Op: MCall, Target: AppCodeBase + 8},
			{Op: MHalt},
		}, 0, demotePunts},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := &Program{Name: "asm", CodeBase: AppCodeBase, Code: tc.code,
				Funcs: []FuncSym{{Name: "_start", Entry: 0}}, Debug: debuginfo.New()}
			plan := p.plan()
			u := &plan.uops[tc.idx]
			if u.tidx != -1 {
				t.Fatalf("branch linked to %d, want demoted", u.tidx)
			}
			if _, reason := linkTarget(p, plan.uops, u.target); reason != tc.reason {
				t.Errorf("demotion reason %q, want %q", reason, tc.reason)
			}
		})
	}
}

// TestEngineDemotedBranchParity runs taken demoted branches end to end
// in every fast arm: the dispatch-return path must land on the exact target
// PC, so wild jumps trap identically, jumps onto punting µops fall back
// to Step identically, and mid-instruction targets carry the PC bias
// identically (that program loops forever, so it runs
// under a budget and parity is checked at StatusLimit).
func TestEngineDemotedBranchParity(t *testing.T) {
	cases := []struct {
		name  string
		code  []MInstr
		limit uint64
	}{
		{"taken-jnz-mid-instruction", []MInstr{
			{Op: MMovImm, Rd: R1, Imm: 1},
			{Op: MJnz, Ra: R1, Target: AppCodeBase + 4},
			{Op: MHalt},
		}, 50},
		{"taken-jz-below-image", []MInstr{
			{Op: MJz, Ra: R0, Target: AppCodeBase - 0x1000},
			{Op: MHalt},
		}, 0},
		{"taken-jmp-one-past-end", []MInstr{
			{Op: MJmp, Target: AppCodeBase + 8*2},
			{Op: MHalt},
		}, 0},
		{"taken-jmp-onto-host-call", []MInstr{
			{Op: MMovImm, Rd: R1, Imm: 7},
			{Op: MPush, Ra: R1},
			{Op: MJmp, Target: AppCodeBase + 8*4},
			{Op: MHalt},
			{Op: MHost, Host: "print_i64", HostArgs: 1},
			{Op: MAdd, Rd: R2, Ra: R0, UseImm: true, Imm: 1},
			{Op: MHalt, Ra: R2},
		}, 0},
		{"call-onto-abort", []MInstr{
			{Op: MCall, Target: AppCodeBase + 8*2},
			{Op: MHalt},
			{Op: MAbort},
		}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runDual(t, tc.code, nil, tc.limit)
		})
	}
}

// TestEngineStackICCallRet drives a call/ret ladder plus push/pop
// traffic through the shared stack-segment inline cache, including a
// faulting call after SP is corrupted out of the stack segment.
func TestEngineStackICCallRet(t *testing.T) {
	ladder := []MInstr{
		{Op: MMovImm, Rd: R5, Imm: 40},
		{Op: MCall, Target: AppCodeBase + 8*5}, // idx 1: call f1
		{Op: MSub, Rd: R5, Ra: R5, UseImm: true, Imm: 1},
		{Op: MJnz, Ra: R5, Target: AppCodeBase + 8},
		{Op: MHalt, Ra: R6},
		// f1: push/pop around a nested call.
		{Op: MPush, Ra: R5},                    // idx 5
		{Op: MCall, Target: AppCodeBase + 8*9}, // call f2
		{Op: MPop, Rd: R5},
		{Op: MRet},
		// f2: leaf.
		{Op: MAdd, Rd: R6, Ra: R6, UseImm: true, Imm: 1}, // idx 9
		{Op: MRet},
	}
	t.Run("clean", func(t *testing.T) { runDual(t, ladder, nil, 0) })
	t.Run("budget-sweep", func(t *testing.T) {
		for limit := uint64(1); limit <= 30; limit += 3 {
			runDual(t, ladder, nil, limit)
		}
	})
	t.Run("call-faults-off-stack", func(t *testing.T) {
		runDual(t, []MInstr{
			{Op: MMovImm, Rd: R1, Imm: 0x40},
			{Op: MMov, Rd: SP, Ra: R1}, // SP now points at unmapped memory
			{Op: MCall, Target: AppCodeBase + 8*4},
			{Op: MHalt},
			{Op: MRet},
		}, nil, 0)
	})
}

// TestInlineCacheSeesMaterialisedPage: µop A's load cache holds a
// frozen page, µop B's store materialises that page, and A's next load
// must see B's value. Materialisation swaps the page slot's bytes in
// place, so every cache holding the slot follows without a generation
// bump; a cache that held the old bytes would keep reading the
// snapshot's value. Checked on every tier.
func TestInlineCacheSeesMaterialisedPage(t *testing.T) {
	const x = 0x30000 + PageSize + 8
	code := []MInstr{
		{Op: MMovImm, Rd: R4, Imm: x},
		{Op: MNop},
		{Op: MLoad, Rd: R2, Base: R4}, // A (idx 2)
		{Op: MAdd, Rd: R6, Ra: R2, UseImm: true, Imm: 1},
		{Op: MStore, Base: R4, Ra: R6}, // B
		{Op: MJmp, Target: AppCodeBase + 16},
	}
	for _, tier := range Tiers() {
		c, _ := asm(t, code)
		c.Tier = tier
		if _, err := c.Mem.Map(0x30000, 2*PageSize, "data"); err != nil {
			t.Fatal(err)
		}
		if f := c.Mem.Write(x, 5); f != nil {
			t.Fatal(f)
		}
		sn := c.Mem.Snapshot() // freezes the page A loads from
		c.Run(2 + 4*3)         // three loop trips: A reads 5, 6, 7
		if c.R[R2] != 7 {
			t.Errorf("%v: A's third load reads %d, want 7 (B's second store)", tier, c.R[R2])
		}
		if v, _ := c.Mem.Read(x); v != 8 {
			t.Errorf("%v: memory holds %d, want 8", tier, v)
		}
		for _, ss := range sn.Segs {
			if ss.Base == 0x30000 && leLoad(ss.Pages[1], 8) != 5 {
				t.Errorf("%v: snapshot page dirtied: %d, want 5", tier, leLoad(ss.Pages[1], 8))
			}
		}
	}
}

// TestPageBoundaryFaults: pages are invisible to programs. Aligned
// words on either side of a page boundary inside a segment load and
// store; a misaligned access straddling that boundary raises SIGBUS
// (bounds are checked first, and the access is inside the segment); an
// access straddling the segment end raises SIGSEGV. Checked on every
// tier, for loads and stores, on frozen and private pages alike.
func TestPageBoundaryFaults(t *testing.T) {
	const base = 0x30000
	const boundary, end = base + PageSize, base + 2*PageSize + 16
	load := func(addr Word) []MInstr {
		return []MInstr{{Op: MMovImm, Rd: R1, Imm: int64(addr)}, {Op: MLoad, Rd: R2, Base: R1}, {Op: MHalt}}
	}
	store := func(addr Word) []MInstr {
		return []MInstr{{Op: MMovImm, Rd: R1, Imm: int64(addr)}, {Op: MStore, Base: R1, Ra: R1}, {Op: MHalt}}
	}
	cases := []struct {
		name string
		code []MInstr
		sig  Signal
		addr Word
	}{
		{"words-either-side", []MInstr{
			{Op: MMovImm, Rd: R1, Imm: boundary - 8},
			{Op: MMovImm, Rd: R2, Imm: boundary},
			{Op: MMovImm, Rd: R3, Imm: 11},
			{Op: MStore, Base: R1, Ra: R3},
			{Op: MMovImm, Rd: R3, Imm: 22},
			{Op: MStore, Base: R2, Ra: R3},
			{Op: MLoad, Rd: R4, Base: R1},
			{Op: MLoad, Rd: R5, Base: R2},
			{Op: MLoad, Rd: R6, Base: R2, Disp: 8},
			{Op: MHalt},
		}, SigNone, 0},
		{"load-straddles-page", load(boundary - 4), SigBUS, boundary - 4},
		{"store-straddles-page", store(boundary - 4), SigBUS, boundary - 4},
		{"load-straddles-end", load(end - 4), SigSEGV, end - 4},
		{"store-straddles-end", store(end - 4), SigSEGV, end - 4},
		{"load-last-word", load(end - 8), SigNone, 0},
	}
	for _, tc := range cases {
		for _, tier := range Tiers() {
			for _, frozen := range []bool{false, true} {
				c, _ := asm(t, tc.code)
				c.Tier = tier
				if _, err := c.Mem.Map(base, 2*PageSize+16, "data"); err != nil {
					t.Fatal(err)
				}
				if f := c.Mem.Write(boundary+8, 33); f != nil {
					t.Fatal(f)
				}
				if frozen {
					c.Mem.Snapshot()
				}
				c.Run(0)
				where := fmt.Sprintf("%s/%v/frozen=%v", tc.name, tier, frozen)
				if tc.sig == SigNone {
					if c.Status != StatusExited {
						t.Errorf("%s: %v (%v), want a clean exit", where, c.Status, c.PendingTrap)
					}
					if tc.name == "words-either-side" && (c.R[R4] != 11 || c.R[R5] != 22 || c.R[R6] != 33) {
						t.Errorf("%s: boundary words read %d, %d, %d; want 11, 22, 33", where, c.R[R4], c.R[R5], c.R[R6])
					}
					continue
				}
				if c.Status != StatusTrapped || c.PendingTrap.Sig != tc.sig || c.PendingTrap.Addr != tc.addr {
					t.Errorf("%s: %v (%v), want %v at 0x%x", where, c.Status, c.PendingTrap, tc.sig, tc.addr)
				}
			}
		}
	}
}
