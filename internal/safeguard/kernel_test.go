package safeguard

import (
	"errors"
	"testing"

	"care/internal/debuginfo"
	"care/internal/hostenv"
	"care/internal/machine"
	"care/internal/rtable"
)

// kernelData is the mapped word the hand-assembled kernels point the
// faulting load at; badAddr is the unmapped address it faults on.
const (
	kernelData machine.Word = 0x30000
	badAddr    machine.Word = 0x40
)

// kernelLib is a hand-assembled recovery library: k_ret returns the
// repaired address, k_jump leaves for an unmapped address that is not
// its return sentinel, and k_load faults on a load.
func kernelLib() *machine.Program {
	return &machine.Program{
		Name:     "rlib",
		CodeBase: machine.LibCodeBase,
		Code: []machine.MInstr{
			{Op: machine.MMovImm, Rd: machine.R0, Imm: int64(kernelData)}, // k_ret
			{Op: machine.MRet},
			{Op: machine.MMovImm, Rd: machine.R0, Imm: int64(kernelData)}, // k_jump
			{Op: machine.MJmp, Target: retSentinel + 0x1000},
			{Op: machine.MMovImm, Rd: machine.R1, Imm: int64(badAddr)}, // k_load
			{Op: machine.MLoad, Rd: machine.R0, Base: machine.R1, Index: machine.NoReg},
			{Op: machine.MRet},
		},
		Funcs: []machine.FuncSym{{Name: "k_ret", Entry: 0}, {Name: "k_jump", Entry: 2}, {Name: "k_load", Entry: 4}},
		Debug: debuginfo.New(),
	}
}

// kernelApp builds a process whose only protected access, at code index
// 1 (source key k.c:7:3), loads from badAddr and halts with the loaded
// value; kernelData holds 42.
func kernelApp(t *testing.T) (*machine.CPU, *machine.Image) {
	t.Helper()
	dbg := debuginfo.New()
	dbg.Lines = []debuginfo.LC{{}, {Line: 7, Col: 3}, {}}
	dbg.Funcs = []debuginfo.FuncInfo{{Name: "main", File: "k.c", Start: 0, End: 3}}
	app := &machine.Program{
		Name:     "app",
		CodeBase: machine.AppCodeBase,
		Code: []machine.MInstr{
			{Op: machine.MMovImm, Rd: machine.R1, Imm: int64(badAddr)},
			{Op: machine.MLoad, Rd: machine.R2, Base: machine.R1, Index: machine.NoReg},
			{Op: machine.MHalt, Ra: machine.R2},
		},
		Funcs: []machine.FuncSym{{Name: "_start", Entry: 0}},
		Debug: dbg,
	}
	mem := machine.NewMemory()
	img, err := machine.Load(mem, app)
	if err != nil {
		t.Fatal(err)
	}
	c := machine.NewCPU(mem, hostenv.NewEnv())
	c.Attach(img)
	if err := c.InitStack(); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(img, "_start"); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Map(kernelData, 4096, "data"); err != nil {
		t.Fatal(err)
	}
	if f := mem.Write(kernelData, 42); f != nil {
		t.Fatal(f)
	}
	return c, img
}

// TestKernelEndsOnlyAtItsReturn: a recovery kernel's run ends as a
// return only on the SIGILL fetch trap at its own return sentinel. A
// kernel that returns yields its R0 and the handler recovers the
// process; one that jumps to another unmapped address, or faults on a
// load, yields an error, which the handler reports as KernelFault.
func TestKernelEndsOnlyAtItsReturn(t *testing.T) {
	for _, tc := range []struct {
		symbol string
		sig    machine.Signal // the kernel's trap; 0 for a return
		trapPC machine.Word
		want   Outcome
	}{
		{"k_ret", 0, 0, Recovered},
		{"k_jump", machine.SigILL, retSentinel + 0x1000, KernelFault},
		{"k_load", machine.SigSEGV, machine.LibCodeBase + 8*5, KernelFault},
	} {
		t.Run(tc.symbol, func(t *testing.T) {
			c, img := kernelApp(t)
			sg := NewForVerification(nil, Config{})
			addr, err := sg.runKernel(c, kernelLib(), tc.symbol, nil)
			var trap *machine.Trap
			switch {
			case tc.sig == 0 && (err != nil || addr != kernelData):
				t.Fatalf("kernel returned (0x%x, %v), want (0x%x, nil)", addr, err, kernelData)
			case tc.sig != 0 && (!errors.As(err, &trap) || trap.Sig != tc.sig || trap.PC != tc.trapPC):
				t.Fatalf("kernel ended (0x%x, %v), want a %v trap at 0x%x", addr, err, tc.sig, tc.trapPC)
			}

			lib, err := kernelLib().Encode()
			if err != nil {
				t.Fatal(err)
			}
			table := &rtable.Table{}
			table.Add(rtable.Entry{
				Key:    rtable.KeyOf(debuginfo.Key{File: "k.c", Line: 7, Col: 3}),
				Symbol: tc.symbol,
				Func:   "main",
			})
			sg = Attach(c, []*Unit{{Image: img, TableBytes: table.Encode(), LibBytes: lib}}, Config{})
			st := c.Run(100)
			events := sg.Events()
			if len(events) != 1 || events[0].Outcome != tc.want {
				t.Fatalf("activations %+v, want one %s", events, tc.want)
			}
			if tc.want == Recovered && (st != machine.StatusExited || c.ExitCode != 42) {
				t.Fatalf("recovered process ended %v with exit %d, want exit 42", st, c.ExitCode)
			}
			if tc.want == KernelFault && (st != machine.StatusTrapped || c.PendingTrap.PC != machine.AppCodeBase+8) {
				t.Fatalf("process ended %v (%v), want killed at its faulting load", st, c.PendingTrap)
			}
		})
	}
}
