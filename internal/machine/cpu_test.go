package machine

import (
	"math"
	"testing"

	"care/internal/debuginfo"
	"care/internal/hostenv"
)

// asm assembles a raw program at the conventional app base and returns
// a ready-to-step CPU.
func asm(t *testing.T, code []MInstr) (*CPU, *Image) {
	t.Helper()
	p := &Program{
		Name:     "asm",
		CodeBase: AppCodeBase,
		Code:     code,
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
	return cpu, img
}

func TestALUOps(t *testing.T) {
	cases := []struct {
		op   MOp
		a, b int64
		want int64
	}{
		{MAdd, 5, 3, 8},
		{MSub, 5, 3, 2},
		{MMul, -4, 6, -24},
		{MDiv, -7, 2, -3}, // C-style truncation
		{MRem, -7, 2, -1},
		{MAnd, 0b1100, 0b1010, 0b1000},
		{MOr, 0b1100, 0b1010, 0b1110},
		{MXor, 0b1100, 0b1010, 0b0110},
		{MShl, 3, 4, 48},
		{MShr, -16, 2, -4},
	}
	for _, c := range cases {
		cpu, _ := asm(t, []MInstr{
			{Op: MMovImm, Rd: R1, Imm: c.a},
			{Op: MMovImm, Rd: R2, Imm: c.b},
			{Op: c.op, Rd: R3, Ra: R1, Rb: R2},
			{Op: MHalt, Ra: R3},
		})
		if st := cpu.Run(100); st != StatusExited {
			t.Fatalf("%s: %v", c.op, st)
		}
		if int64(cpu.ExitCode) != c.want {
			t.Errorf("%s(%d,%d) = %d, want %d", c.op, c.a, c.b, int64(cpu.ExitCode), c.want)
		}
	}
}

func TestImmediateOperand(t *testing.T) {
	cpu, _ := asm(t, []MInstr{
		{Op: MMovImm, Rd: R1, Imm: 10},
		{Op: MMul, Rd: R1, Ra: R1, UseImm: true, Imm: -3},
		{Op: MHalt, Ra: R1},
	})
	cpu.Run(10)
	if int64(cpu.ExitCode) != -30 {
		t.Fatalf("got %d", int64(cpu.ExitCode))
	}
}

func TestDivideByZeroRaisesSIGFPE(t *testing.T) {
	for _, op := range []MOp{MDiv, MRem} {
		cpu, _ := asm(t, []MInstr{
			{Op: MMovImm, Rd: R1, Imm: 42},
			{Op: MMovImm, Rd: R2, Imm: 0},
			{Op: op, Rd: R3, Ra: R1, Rb: R2},
			{Op: MHalt, Ra: R3},
		})
		if st := cpu.Run(10); st != StatusTrapped || cpu.PendingTrap.Sig != SigFPE {
			t.Fatalf("%s/0: %v %v", op, st, cpu.PendingTrap)
		}
	}
	// INT64_MIN / -1 overflows.
	cpu, _ := asm(t, []MInstr{
		{Op: MMovImm, Rd: R1, Imm: math.MinInt64},
		{Op: MMovImm, Rd: R2, Imm: -1},
		{Op: MDiv, Rd: R3, Ra: R1, Rb: R2},
		{Op: MHalt},
	})
	if st := cpu.Run(10); st != StatusTrapped || cpu.PendingTrap.Sig != SigFPE {
		t.Fatalf("MIN/-1: %v %v", st, cpu.PendingTrap)
	}
}

func TestFloatOps(t *testing.T) {
	bits := func(f float64) int64 { return int64(math.Float64bits(f)) }
	cpu, _ := asm(t, []MInstr{
		{Op: MFMovImm, Fd: 1, Imm: bits(2.5)},
		{Op: MFMovImm, Fd: 2, Imm: bits(4.0)},
		{Op: MFMul, Fd: 3, Fa: 1, Fb: 2},
		{Op: MFSub, Fd: 3, Fa: 3, Fb: 1}, // 10 - 2.5
		{Op: MCvtFI, Rd: R0, Fa: 3},
		{Op: MHalt, Ra: R0},
	})
	cpu.Run(10)
	if cpu.ExitCode != 7 {
		t.Fatalf("float pipeline got %d", cpu.ExitCode)
	}
	if cpu.F[3] != 7.5 {
		t.Fatalf("f3 = %v", cpu.F[3])
	}
}

func TestBitMoves(t *testing.T) {
	cpu, _ := asm(t, []MInstr{
		{Op: MMovImm, Rd: R1, Imm: int64(math.Float64bits(3.25))},
		{Op: MBitIF, Fd: 4, Ra: R1},
		{Op: MBitFI, Rd: R2, Fa: 4},
		{Op: MHalt, Ra: R2},
	})
	cpu.Run(10)
	if math.Float64frombits(uint64(cpu.ExitCode)) != 3.25 {
		t.Fatal("bit moves lossy")
	}
}

func TestMemoryOperandAddressing(t *testing.T) {
	cpu2, _ := asm(t, []MInstr{
		{Op: MMovImm, Rd: R1, Imm: 0x30000}, // base
		{Op: MMovImm, Rd: R2, Imm: 3},       // index
		{Op: MMovImm, Rd: R3, Imm: 0xabcd},  // value
		{Op: MStore, Base: R1, Index: R2, Scale: 8, Disp: 16, Ra: R3},
		{Op: MLoad, Rd: R4, Base: R1, Index: NoReg, Disp: 40}, // 3*8+16
		{Op: MHalt, Ra: R4},
	})
	if _, err := cpu2.Mem.Map(0x30000, 0x1000, "data"); err != nil {
		t.Fatal(err)
	}
	if st := cpu2.Run(10); st != StatusExited {
		t.Fatalf("%v %v", st, cpu2.PendingTrap)
	}
	if cpu2.ExitCode != 0xabcd {
		t.Fatalf("loaded %x", cpu2.ExitCode)
	}
}

func TestLoadFaultReportsAddress(t *testing.T) {
	cpu, img := asm(t, []MInstr{
		{Op: MMovImm, Rd: R1, Imm: 0x123456789},
		{Op: MLoad, Rd: R2, Base: R1, Index: NoReg, Disp: 8, Line: 3, Col: 1},
		{Op: MHalt},
	})
	st := cpu.Run(10)
	if st != StatusTrapped {
		t.Fatalf("status %v", st)
	}
	tr := cpu.PendingTrap
	if tr.Sig != SigSEGV || tr.Addr != 0x123456791 {
		t.Fatalf("trap %+v", tr)
	}
	if tr.Img != img || tr.Idx != 1 {
		t.Fatalf("trap attribution %+v", tr)
	}
	if tr.Instr.Op != MLoad {
		t.Fatal("trap instruction wrong")
	}
}

func TestHandlerPatchAndResume(t *testing.T) {
	cpu, _ := asm(t, []MInstr{
		{Op: MMovImm, Rd: R1, Imm: 0xdead0000}, // bad base
		{Op: MLoad, Rd: R2, Base: R1, Index: NoReg},
		{Op: MHalt, Ra: R2},
	})
	if _, err := cpu.Mem.Map(0x60000, 0x1000, "good"); err != nil {
		t.Fatal(err)
	}
	if f := cpu.Mem.Write(0x60000, 777); f != nil {
		t.Fatal(f)
	}
	calls := 0
	cpu.Handler = func(c *CPU, tr *Trap) TrapAction {
		calls++
		c.R[R1] = 0x60000 // repair the base register
		return TrapResume
	}
	if st := cpu.Run(10); st != StatusExited {
		t.Fatalf("%v", st)
	}
	if calls != 1 || cpu.ExitCode != 777 {
		t.Fatalf("calls=%d exit=%d", calls, cpu.ExitCode)
	}
}

func TestHandlerKillPropagates(t *testing.T) {
	cpu, _ := asm(t, []MInstr{
		{Op: MMovImm, Rd: R1, Imm: 0xdead0000},
		{Op: MLoad, Rd: R2, Base: R1, Index: NoReg},
		{Op: MHalt},
	})
	cpu.Handler = func(c *CPU, tr *Trap) TrapAction { return TrapKill }
	if st := cpu.Run(10); st != StatusTrapped {
		t.Fatalf("%v", st)
	}
}

func TestCallRetAndStack(t *testing.T) {
	// _start: push 5; push 7; call f; add sp, 16; halt r0
	// f: prologue; r0 = arg0 - arg1; epilogue
	code := []MInstr{
		{Op: MMovImm, Rd: R1, Imm: 5},
		{Op: MPush, Ra: R1}, // arg0 (deepest)
		{Op: MMovImm, Rd: R1, Imm: 7},
		{Op: MPush, Ra: R1},                               // arg1
		{Op: MCall, Target: AppCodeBase + 8*7, Sym: "f"},  // idx 4
		{Op: MAdd, Rd: SP, Ra: SP, UseImm: true, Imm: 16}, // idx 5
		{Op: MHalt, Ra: R0},                               // idx 6
		// f at idx 7:
		{Op: MPush, Ra: FP},
		{Op: MMov, Rd: FP, Ra: SP},
		{Op: MLoad, Rd: R1, Base: FP, Index: NoReg, Disp: 24}, // arg0
		{Op: MLoad, Rd: R2, Base: FP, Index: NoReg, Disp: 16}, // arg1
		{Op: MSub, Rd: R0, Ra: R1, Rb: R2},
		{Op: MMov, Rd: SP, Ra: FP},
		{Op: MPop, Rd: FP},
		{Op: MRet},
	}
	cpu, _ := asm(t, code)
	if st := cpu.Run(100); st != StatusExited {
		t.Fatalf("%v trap=%v pc=%x", st, cpu.PendingTrap, cpu.PC)
	}
	if int64(cpu.ExitCode) != -2 {
		t.Fatalf("5-7 = %d", int64(cpu.ExitCode))
	}
	if cpu.R[SP] != StackTop {
		t.Fatalf("stack imbalance: sp=0x%x", cpu.R[SP])
	}
}

func TestWildJumpRaisesSIGILL(t *testing.T) {
	cpu, _ := asm(t, []MInstr{
		{Op: MJmp, Target: 0x1234},
		{Op: MHalt},
	})
	if st := cpu.Run(10); st != StatusTrapped || cpu.PendingTrap.Sig != SigILL {
		t.Fatalf("%v %v", st, cpu.PendingTrap)
	}
}

func TestAbortRaisesSIGABRT(t *testing.T) {
	cpu, _ := asm(t, []MInstr{{Op: MAbort}})
	if st := cpu.Run(10); st != StatusTrapped || cpu.PendingTrap.Sig != SigABRT {
		t.Fatalf("%v %v", st, cpu.PendingTrap)
	}
}

func TestConditionalBranches(t *testing.T) {
	// Compute max(3, 9) via set + jnz.
	code := []MInstr{
		{Op: MMovImm, Rd: R1, Imm: 3},
		{Op: MMovImm, Rd: R2, Imm: 9},
		{Op: MSet, Cond: CondGT, Rd: R3, Ra: R1, Rb: R2},
		{Op: MJnz, Ra: R3, Target: AppCodeBase + 8*5},
		{Op: MMov, Rd: R1, Ra: R2}, // not taken path: r1 = r2
		{Op: MHalt, Ra: R1},        // idx 5
	}
	cpu, _ := asm(t, code)
	cpu.Run(10)
	if cpu.ExitCode != 9 {
		t.Fatalf("max = %d", cpu.ExitCode)
	}
}

func TestProfilingCounts(t *testing.T) {
	// Loop 5 times.
	code := []MInstr{
		{Op: MMovImm, Rd: R1, Imm: 0},
		{Op: MAdd, Rd: R1, Ra: R1, UseImm: true, Imm: 1}, // idx 1
		{Op: MSet, Cond: CondLT, Rd: R2, Ra: R1, UseImm: true, Imm: 5},
		{Op: MJnz, Ra: R2, Target: AppCodeBase + 8},
		{Op: MHalt, Ra: R1},
	}
	cpu, img := asm(t, code)
	cpu.Profile = true
	cpu.Run(100)
	if cpu.ExitCode != 5 {
		t.Fatalf("loop result %d", cpu.ExitCode)
	}
	cnts := cpu.Counts[img]
	if cnts[1] != 5 || cnts[0] != 1 {
		t.Fatalf("counts %v", cnts[:5])
	}
	total := uint64(0)
	for _, c := range cnts {
		total += c
	}
	if total != cpu.Dyn {
		t.Fatalf("profile total %d != dyn %d", total, cpu.Dyn)
	}
}

func TestHostCallMarshalling(t *testing.T) {
	// result_f64(1.5) via stack arg, then exit(0) via halt.
	code := []MInstr{
		{Op: MFMovImm, Fd: 1, Imm: int64(math.Float64bits(1.5))},
		{Op: MFPush, Fa: 1},
		{Op: MHost, Host: "result_f64", HostArgs: 1},
		{Op: MAdd, Rd: SP, Ra: SP, UseImm: true, Imm: 8},
		{Op: MHalt},
	}
	cpu, _ := asm(t, code)
	if st := cpu.Run(10); st != StatusExited {
		t.Fatalf("%v", st)
	}
	if len(cpu.Env.Results) != 1 || cpu.Env.Results[0] != 1.5 {
		t.Fatalf("results %v", cpu.Env.Results)
	}
}

func TestRunLimitIsResumable(t *testing.T) {
	code := []MInstr{
		{Op: MMovImm, Rd: R1, Imm: 0},
		{Op: MAdd, Rd: R1, Ra: R1, UseImm: true, Imm: 1},
		{Op: MSet, Cond: CondLT, Rd: R2, Ra: R1, UseImm: true, Imm: 1000},
		{Op: MJnz, Ra: R2, Target: AppCodeBase + 8},
		{Op: MHalt, Ra: R1},
	}
	cpu, _ := asm(t, code)
	slices := 0
	for cpu.Run(100) == StatusLimit {
		slices++
		if slices > 1000 {
			t.Fatal("never finished")
		}
	}
	if cpu.Status != StatusExited || cpu.ExitCode != 1000 {
		t.Fatalf("%v %d", cpu.Status, cpu.ExitCode)
	}
	if slices < 5 {
		t.Fatalf("expected many slices, got %d", slices)
	}
}

func TestAfterStepHookFires(t *testing.T) {
	cpu, _ := asm(t, []MInstr{
		{Op: MMovImm, Rd: R1, Imm: 1},
		{Op: MMovImm, Rd: R2, Imm: 2},
		{Op: MHalt},
	})
	var seen []MOp
	cpu.AddAfterStep(func(c *CPU, img *Image, idx int, in *MInstr) {
		seen = append(seen, in.Op)
	})
	cpu.Run(10)
	if len(seen) != 2 || seen[0] != MMovImm {
		t.Fatalf("hook saw %v", seen)
	}
}
