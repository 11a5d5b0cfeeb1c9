package taint

import (
	"testing"

	"care/internal/core"
	"care/internal/debuginfo"
	"care/internal/hostenv"
	"care/internal/machine"
	"care/internal/workloads"
)

func asm(t *testing.T, code []machine.MInstr) (*machine.CPU, *machine.Image) {
	t.Helper()
	p := &machine.Program{
		Name:     "taintasm",
		CodeBase: machine.AppCodeBase,
		Code:     code,
		Funcs:    []machine.FuncSym{{Name: "_start", Entry: 0}},
		Debug:    debuginfo.New(),
	}
	mem := machine.NewMemory()
	img, err := machine.Load(mem, p)
	if err != nil {
		t.Fatal(err)
	}
	cpu := machine.NewCPU(mem, hostenv.NewEnv())
	cpu.Attach(img)
	if err := cpu.InitStack(); err != nil {
		t.Fatal(err)
	}
	if err := cpu.Start(img, "_start"); err != nil {
		t.Fatal(err)
	}
	return cpu, img
}

func TestPropagationThroughALU(t *testing.T) {
	cpu, _ := asm(t, []machine.MInstr{
		{Op: machine.MAdd, Rd: machine.R2, Ra: machine.R1, UseImm: true, Imm: 1}, // tainted after seed
		{Op: machine.MMul, Rd: machine.R3, Ra: machine.R2, Rb: machine.R2},       // propagates
		{Op: machine.MMovImm, Rd: machine.R2, Imm: 0},                            // scrubs r2
		{Op: machine.MHalt},
	})
	cpu.R[machine.R1] = 5
	tr := Attach(cpu)
	tr.MarkReg(machine.R1)
	cpu.Run(10)
	if len(tr.Trace) < 2 {
		t.Fatalf("trace too short: %+v", tr.Trace)
	}
	// r3 stays tainted, r2 was scrubbed, r1 still tainted.
	if !tr.AnyTaint() {
		t.Fatal("taint vanished entirely")
	}
	if tr.TaintedWrites < 2 {
		t.Fatalf("tainted writes = %d", tr.TaintedWrites)
	}
}

func TestOverwriteScrubs(t *testing.T) {
	cpu, _ := asm(t, []machine.MInstr{
		{Op: machine.MMovImm, Rd: machine.R1, Imm: 5}, // scrubs the seed
		{Op: machine.MHalt},
	})
	tr := Attach(cpu)
	tr.MarkReg(machine.R1)
	cpu.Run(10)
	if tr.AnyTaint() {
		t.Fatal("immediate overwrite did not scrub taint")
	}
}

func TestPropagationThroughMemory(t *testing.T) {
	cpu, _ := asm(t, []machine.MInstr{
		{Op: machine.MMovImm, Rd: machine.R1, Imm: 0x30000},
		{Op: machine.MStore, Base: machine.R1, Index: machine.NoReg, Ra: machine.R2}, // tainted store
		{Op: machine.MMovImm, Rd: machine.R2, Imm: 0},                                // scrub reg
		{Op: machine.MLoad, Rd: machine.R3, Base: machine.R1, Index: machine.NoReg},  // reload -> tainted again
		{Op: machine.MHalt},
	})
	if _, err := cpu.Mem.Map(0x30000, 0x1000, "data"); err != nil {
		t.Fatal(err)
	}
	tr := Attach(cpu)
	tr.MarkReg(machine.R2)
	cpu.Run(10)
	if tr.TaintedMemWords() != 1 {
		t.Fatalf("tainted mem words = %d", tr.TaintedMemWords())
	}
	// r3 must be tainted via the memory round trip.
	found := false
	for _, ev := range tr.Trace {
		if ev.Op == machine.MLoad {
			found = true
		}
	}
	if !found {
		t.Fatalf("load did not pick up memory taint: %+v", tr.Trace)
	}
}

func TestTaintedAddressTaintsLoadedValue(t *testing.T) {
	cpu, _ := asm(t, []machine.MInstr{
		{Op: machine.MLoad, Rd: machine.R3, Base: machine.R1, Index: machine.R2, Scale: 8},
		{Op: machine.MHalt},
	})
	if _, err := cpu.Mem.Map(0x30000, 0x1000, "data"); err != nil {
		t.Fatal(err)
	}
	cpu.R[machine.R1] = 0x30000
	cpu.R[machine.R2] = 1
	tr := Attach(cpu)
	tr.MarkReg(machine.R2) // corrupt the index
	cpu.Run(10)
	// Loaded value came "from the wrong place": must be tainted.
	tainted := false
	for _, ev := range tr.Trace {
		if ev.Op == machine.MLoad {
			tainted = true
		}
	}
	if !tainted {
		t.Fatal("load through tainted index not recorded")
	}
}

// TestEndToEndPropagationTrace runs a real workload, seeds taint at a
// mid-run instruction destination (as the injector does), and verifies
// the tracker observes the propagation the §2 study measures.
func TestEndToEndPropagationTrace(t *testing.T) {
	w, err := workloads.Get("HPCCG")
	if err != nil {
		t.Fatal(err)
	}
	bin, err := core.Build(w.Module(workloads.Params{}), core.BuildOptions{OptLevel: 0})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewProcess(core.ProcessConfig{App: bin})
	if err != nil {
		t.Fatal(err)
	}
	tr := Attach(p.CPU)
	seeded := false
	p.CPU.AddAfterStep(func(c *machine.CPU, img *machine.Image, idx int, in *machine.MInstr) {
		if !seeded && c.Dyn >= 20_000 {
			if _, ok := in.HasDest(); ok {
				seeded = true
				tr.MarkDest(c, in)
			}
		}
	})
	st := p.Run(0)
	if !seeded {
		t.Skip("seed point had no destination")
	}
	if st != machine.StatusExited {
		t.Logf("run ended with %v (taint made it crash — also a valid outcome)", st)
	}
	t.Logf("propagation: %d tainted writes, %d trace events, %d tainted mem words at end",
		tr.TaintedWrites, len(tr.Trace), tr.TaintedMemWords())
	if tr.TaintedWrites == 0 {
		t.Error("no propagation observed from a destination-operand seed")
	}
}
