package core

import (
	"runtime"
	"testing"

	"care/internal/checkpoint"
	"care/internal/debuginfo"
	"care/internal/ir"
	"care/internal/machine"
	"care/internal/rtable"
	"care/internal/safeguard"
	"care/internal/workloads"
)

// buildStencil builds a module with the paper's Figure 2 access pattern:
//
//	for i in 0..ni-1:
//	  for k in 0..mzeta:
//	    sum += phitmp[(mzeta+1)*(igrid[i]-igrid_in) + k]
//
// mzeta and igrid_in are runtime values loaded from globals so that O1
// cannot fold the address computation away.
func buildStencil(t testing.TB) *ir.Module {
	const ni = 8
	m := ir.NewModule("stencil")
	igrid := m.AddGlobal(&ir.Global{Name: "igrid", Size: ni * 8,
		InitI64: []int64{10, 13, 16, 19, 22, 25, 28, 31}})
	phitmp := m.AddGlobal(&ir.Global{Name: "phitmp", Size: 64 * 8})
	gmz := m.AddGlobal(&ir.Global{Name: "mzeta", Size: 8, InitI64: []int64{2}})
	gin := m.AddGlobal(&ir.Global{Name: "igrid_in", Size: 8, InitI64: []int64{10}})

	b := ir.NewBuilder(m)
	b.NewFunc("main", ir.I64)
	entry := m.Func("main").Entry()

	// Fill phitmp[j] = j * 0.5.
	fillLoop := b.NewBlock("fill")
	fillBody := b.NewBlock("fillbody")
	fillDone := b.NewBlock("filldone")
	b.Br(fillLoop)
	b.SetBlock(fillLoop)
	j := b.Phi(ir.I64)
	cj := b.ICmp(ir.OpICmpSLT, j, ir.ConstInt(64))
	b.CondBr(cj, fillBody, fillDone)
	b.SetBlock(fillBody)
	fj := b.IToF(j)
	half := b.FMul(fj, ir.ConstFloat(0.5))
	b.Store(half, b.GEP(phitmp, j, 8))
	jn := b.Add(j, ir.ConstInt(1))
	b.Br(fillLoop)
	ir.AddIncoming(j, ir.ConstInt(0), entry)
	ir.AddIncoming(j, jn, fillBody)

	b.SetBlock(fillDone)
	mz := b.Load(ir.I64, gmz)
	igin := b.Load(ir.I64, gin)
	mzp1 := b.Add(mz, ir.ConstInt(1))

	oLoop := b.NewBlock("iloop")
	oBody := b.NewBlock("ibody")
	kLoop := b.NewBlock("kloop")
	kBody := b.NewBlock("kbody")
	kDone := b.NewBlock("kdone")
	done := b.NewBlock("done")
	b.Br(oLoop)

	b.SetBlock(oLoop)
	i := b.Phi(ir.I64)
	sumO := b.Phi(ir.F64)
	ci := b.ICmp(ir.OpICmpSLT, i, ir.ConstInt(ni))
	b.CondBr(ci, oBody, done)

	b.SetBlock(oBody)
	b.Br(kLoop)

	b.SetBlock(kLoop)
	k := b.Phi(ir.I64)
	sumK := b.Phi(ir.F64)
	ck := b.ICmp(ir.OpICmpSLE, k, mz)
	b.CondBr(ck, kBody, kDone)

	b.SetBlock(kBody)
	b.NewLine()
	gv := b.Load(ir.I64, b.GEP(igrid, i, 8))
	diff := b.Sub(gv, igin)
	row := b.Mul(mzp1, diff)
	idx := b.Add(row, k)
	b.NewLine()
	val := b.Load(ir.F64, b.GEP(phitmp, idx, 8)) // the protected access
	ns := b.FAdd(sumK, val)
	kn := b.Add(k, ir.ConstInt(1))
	b.Br(kLoop)

	b.SetBlock(kDone)
	in2 := b.Add(i, ir.ConstInt(1))
	b.Br(oLoop)

	ir.AddIncoming(i, ir.ConstInt(0), fillDone)
	ir.AddIncoming(i, in2, kDone)
	ir.AddIncoming(sumO, ir.ConstFloat(0), fillDone)
	ir.AddIncoming(sumO, sumK, kDone)
	ir.AddIncoming(k, ir.ConstInt(0), oBody)
	ir.AddIncoming(k, kn, kBody)
	ir.AddIncoming(sumK, sumO, oBody)
	ir.AddIncoming(sumK, ns, kBody)

	b.SetBlock(done)
	b.HostCall("result_f64", ir.Void, sumO)
	b.Ret(ir.ConstInt(0))

	if err := ir.VerifyModule(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return m
}

func goldenRun(t testing.TB, opt int) []float64 {
	bin, err := Build(buildStencil(t), BuildOptions{OptLevel: opt})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	p, err := NewProcess(ProcessConfig{App: bin})
	if err != nil {
		t.Fatalf("process: %v", err)
	}
	if st := p.Run(10_000_000); st != machine.StatusExited {
		t.Fatalf("golden run: %v (%v)", st, p.CPU.PendingTrap)
	}
	return append([]float64(nil), p.Results()...)
}

func TestBuildProducesArtifacts(t *testing.T) {
	for _, opt := range []int{0, 1} {
		bin, err := Build(buildStencil(t), BuildOptions{OptLevel: opt, Defenses: []string{"care"}})
		if err != nil {
			t.Fatalf("O%d build: %v", opt, err)
		}
		if !bin.Protected() {
			t.Fatalf("O%d: no recovery artifacts", opt)
		}
		if bin.DefenseStats["care"].NumKernels == 0 {
			t.Fatalf("O%d: no kernels built", opt)
		}
		t.Logf("O%d: kernels=%d avg=%.2f mem=%d table=%dB lib=%dB",
			opt, bin.DefenseStats["care"].NumKernels, bin.DefenseStats["care"].AvgKernelInstrs(),
			bin.DefenseStats["care"].NumMemAccesses, len(bin.RecoveryTable), len(bin.RecoveryLib))
	}
}

// findProtectedLoad locates the machine index of the float stencil load
// (an indexed MFLoad with a source key).
func findProtectedLoad(t testing.TB, bin *Binary) int {
	t.Helper()
	for i := range bin.Prog.Code {
		in := &bin.Prog.Code[i]
		if in.Op == machine.MFLoad && in.Index != machine.NoReg && in.Line != 0 {
			return i
		}
	}
	t.Fatal("no indexed protected MFLoad found")
	return -1
}

func TestRecoveryFromCorruptedIndex(t *testing.T) {
	for _, opt := range []int{0, 1} {
		golden := goldenRun(t, opt)
		bin, err := Build(buildStencil(t), BuildOptions{OptLevel: opt, Defenses: []string{"care"}})
		if err != nil {
			t.Fatalf("O%d build: %v", opt, err)
		}
		p, err := NewProcess(ProcessConfig{App: bin, Protected: true})
		if err != nil {
			t.Fatalf("process: %v", err)
		}
		li := findProtectedLoad(t, bin)
		target := bin.Prog.AddrOf(li)
		corrupted := false
		p.CPU.AddAfterStep(func(c *machine.CPU, img *machine.Image, idx int, in *machine.MInstr) {
			if !corrupted && c.PC == target && c.Dyn > 500 {
				corrupted = true
				mi := &bin.Prog.Code[li]
				c.R[mi.Index] ^= 1 << 41 // transient flip in the index register
			}
		})
		st := p.Run(10_000_000)
		if st != machine.StatusExited {
			t.Fatalf("O%d: status %v trap=%v", opt, st, p.CPU.PendingTrap)
		}
		if !corrupted {
			t.Fatalf("O%d: corruption never armed", opt)
		}
		if p.SG.Stats().Recovered != 1 {
			t.Fatalf("O%d: safeguard stats %+v", opt, p.SG.Stats())
		}
		if len(p.Results()) != len(golden) || p.Results()[0] != golden[0] {
			t.Fatalf("O%d: results %v != golden %v", opt, p.Results(), golden)
		}
		ev := p.SG.Stats().Events[0]
		if ev.Outcome != safeguard.Recovered {
			t.Fatalf("O%d: outcome %s", opt, ev.Outcome)
		}
		t.Logf("O%d: recovered in %v (prep %v, kernel %v)", opt, ev.Total(), ev.Prep(), ev.Kernel)
	}
}

func TestScopeCheckDetectsContaminatedInput(t *testing.T) {
	// Corrupt a recovery-kernel *parameter* in its frame slot (the raw
	// data): the next iteration computes a wild address from it, and
	// the kernel — recomputing from the same contaminated slot —
	// reproduces exactly the faulting address. Safeguard must declare
	// the fault out of scope rather than resume (the paper's no-SDC
	// guarantee).
	bin, err := Build(buildStencil(t), BuildOptions{OptLevel: 0, Defenses: []string{"care"}})
	if err != nil {
		t.Fatal(err)
	}
	li := findProtectedLoad(t, bin)
	key, ok := bin.Prog.Debug.KeyAt(li)
	if !ok {
		t.Fatal("no key at protected load")
	}
	tab, err := rtable.Decode(bin.RecoveryTable)
	if err != nil {
		t.Fatal(err)
	}
	entry, ok := tab.LookupSource(key)
	if !ok {
		t.Fatal("no recovery entry for protected load")
	}
	if len(entry.Params) == 0 {
		t.Fatal("kernel has no parameters")
	}
	p, err := NewProcess(ProcessConfig{App: bin, Protected: true})
	if err != nil {
		t.Fatal(err)
	}
	target := bin.Prog.AddrOf(li)
	corrupted := false
	p.CPU.AddAfterStep(func(c *machine.CPU, img *machine.Image, idx int, in *machine.MInstr) {
		if corrupted || c.PC != target || c.Dyn < 500 {
			return
		}
		// Flip a high bit in the frame slot of the first integer param.
		for _, prm := range entry.Params {
			if prm.IsFloat {
				continue
			}
			loc, ok := bin.Prog.Debug.Lookup(entry.Func, prm.Name, li)
			if !ok || loc.Kind != debuginfo.LocFPOff {
				continue
			}
			a := c.R[machine.FP] + machine.Word(loc.Off)
			v, f := c.Mem.Read(a)
			if f != nil {
				t.Errorf("param slot unreadable: %v", f)
				return
			}
			if werr := c.Mem.Write(a, v^(1<<63)); werr != nil {
				t.Errorf("param slot unwritable: %v", werr)
				return
			}
			corrupted = true
			return
		}
	})
	st := p.Run(10_000_000)
	if !corrupted {
		t.Fatal("corruption never armed")
	}
	if st != machine.StatusTrapped {
		t.Fatalf("expected trapped status, got %v (events %+v)", st, p.SG.Stats().Events)
	}
	found := false
	for _, ev := range p.SG.Stats().Events {
		if ev.Outcome == safeguard.OutOfScope {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected out-of-scope outcome, events: %+v", p.SG.Stats().Events)
	}
}

func TestHeuristicModeTradesCrashForPossibleSDC(t *testing.T) {
	// Same contamination as the scope-check test, but with the
	// LetGo-style heuristic enabled: the process survives by reading a
	// bit bucket, at the cost of (likely) wrong output.
	bin, err := Build(buildStencil(t), BuildOptions{OptLevel: 0, Defenses: []string{"care"}})
	if err != nil {
		t.Fatal(err)
	}
	li := findProtectedLoad(t, bin)
	target := bin.Prog.AddrOf(li)
	p, err := NewProcess(ProcessConfig{
		App: bin, Protected: true,
		Safeguard: safeguard.Config{Heuristic: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	corrupted := false
	p.CPU.AddAfterStep(func(c *machine.CPU, img *machine.Image, idx int, in *machine.MInstr) {
		if !corrupted && c.PC == target && c.Dyn > 500 {
			corrupted = true
			mi := &bin.Prog.Code[li]
			c.R[mi.Index] += 1 << 50 // beyond any recovery: base+index wild
			c.R[mi.Base] += 1 << 51  // contaminate base too so the kernel result mismatches structure
		}
	})
	st := p.Run(10_000_000)
	if st != machine.StatusExited {
		t.Fatalf("heuristic mode should survive, got %v (events %+v)", st, p.SG.Stats().Events)
	}
	sawHeuristic := false
	for _, ev := range p.SG.Stats().Events {
		if ev.Outcome == safeguard.HeuristicPatched {
			sawHeuristic = true
		}
	}
	if !sawHeuristic && p.SG.Stats().Recovered == 0 {
		t.Fatalf("expected heuristic patch or recovery, events: %+v", p.SG.Stats().Events)
	}
}

// TestNewProcessAllocatesNoStack: the 1 MiB main stack maps onto the
// machine's zero page, so creating an HPCCG process allocates page
// tables and bookkeeping only, and the process still runs to completion
// on a stack that reads as zeros until first written.
func TestNewProcessAllocatesNoStack(t *testing.T) {
	w, err := workloads.Get("HPCCG")
	if err != nil {
		t.Fatal(err)
	}
	bin, err := Build(w.Module(workloads.Params{}), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// A first process fills the binary's lazily built shared caches
	// (the sealed .text image), which later processes do not pay for.
	if _, err := NewProcess(ProcessConfig{App: bin}); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := NewProcess(ProcessConfig{App: bin})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("NewProcess allocated %d bytes, want < 64 KiB (no stack copy)", got)
	}
	if st := p.Run(0); st != machine.StatusExited {
		t.Fatalf("process on a zero-page stack: %v (%v)", st, p.CPU.PendingTrap)
	}
}

// TestWarmStartRefusesRestoringPolicy: a warm-started process cannot
// seed the Safeguard's checkpoint store (its first snapshot would hold
// mid-run state, and a rollback to it would undo nothing), so a
// protected config whose policy restores is refused; every other config
// warm-starts.
func TestWarmStartRefusesRestoringPolicy(t *testing.T) {
	bin, err := Build(buildStencil(t), BuildOptions{Defenses: []string{"care"}})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProcess(ProcessConfig{App: bin})
	if err != nil {
		t.Fatal(err)
	}
	p.Run(200)
	sn := checkpoint.Capture(p.CPU, 0)
	for _, tc := range []struct {
		name   string
		cfg    ProcessConfig
		refuse bool
	}{
		{"rollback", ProcessConfig{Protected: true, Safeguard: safeguard.Config{Policy: safeguard.Policy{Rollback: true}}}, true},
		{"domain-rewind", ProcessConfig{Protected: true, Safeguard: safeguard.Config{Policy: safeguard.Policy{DomainRewind: true}}}, true},
		{"one-shot", ProcessConfig{Protected: true}, false},
		{"unprotected", ProcessConfig{Safeguard: safeguard.Config{Policy: safeguard.Policy{Rollback: true}}}, false},
	} {
		tc.cfg.App = bin
		q, err := NewProcessFromSnapshot(tc.cfg, sn)
		if tc.refuse && err == nil {
			t.Errorf("%s: warm start accepted a policy that restores", tc.name)
		}
		if !tc.refuse && err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if err == nil && q.CPU.Dyn != sn.CPU.Dyn {
			t.Errorf("%s: warm process at dyn %d, want %d", tc.name, q.CPU.Dyn, sn.CPU.Dyn)
		}
	}
}
