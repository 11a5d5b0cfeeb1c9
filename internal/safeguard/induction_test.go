package safeguard_test

import (
	"testing"

	"care/internal/core"
	"care/internal/ir"
	"care/internal/irbuild"
	"care/internal/machine"
	"care/internal/rtable"
	"care/internal/safeguard"
)

// buildTwoInductionLoop constructs the Figure-11 situation: a loop with
// two lockstep induction variables,
//
//	i  = 0, 1, 2, ...        (counter)
//	ix = 5, 8, 11, ...       (strided index: ix = 5 + 3*i)
//
// where the protected access data[ix] depends only on ix. When ix is
// corrupted, the plain CARE kernel recomputes the same wild address
// (out of scope); the extension reconstructs ix from i.
func buildTwoInductionLoop() *ir.Module {
	m := ir.NewModule("figure11")
	data := m.AddGlobal(&ir.Global{Name: "data", Size: 64 * 8})
	b := ir.NewBuilder(m)
	fb := irbuild.New(b)
	fb.NewFunc("main", ir.I64)
	entry := m.Func("main").Entry()

	fb.ForN(irbuild.I(0), irbuild.I(64), 1, func(j ir.Value) {
		fb.NewLine()
		fb.StoreAt(fb.IToF(j), data, j)
	})
	pre := fb.Blk

	header := fb.NewBlock("loop")
	body := fb.NewBlock("body")
	done := fb.NewBlock("done")
	fb.Br(header)
	_ = entry

	fb.SetBlock(header)
	i := fb.Phi(ir.I64)
	ix := fb.Phi(ir.I64)
	sum := fb.Phi(ir.F64)
	c := fb.ICmp(ir.OpICmpSLT, i, irbuild.I(12))
	fb.CondBr(c, body, done)

	fb.SetBlock(body)
	fb.NewLine()
	v := fb.LoadAt(ir.F64, data, ix) // protected access on ix
	ns := fb.FAdd(sum, v)
	in := fb.Add(i, irbuild.I(1))
	ixn := fb.Add(ix, irbuild.I(3))
	fb.Br(header)

	ir.AddIncoming(i, irbuild.I(0), pre)
	ir.AddIncoming(i, in, body)
	ir.AddIncoming(ix, irbuild.I(5), pre)
	ir.AddIncoming(ix, ixn, body)
	ir.AddIncoming(sum, irbuild.F(0), pre)
	ir.AddIncoming(sum, ns, body)

	fb.SetBlock(done)
	fb.Result(sum)
	fb.Ret(irbuild.I(0))
	if err := ir.VerifyModule(m); err != nil {
		panic(err)
	}
	return m
}

// corruptIxParam finds the protected load, reads its kernel's first
// integer parameter location (the ix phi), and installs a hook that
// flips its sign bit in its frame slot mid-run.
func armIxCorruption(t *testing.T, bin *core.Binary, p *core.Process) *bool {
	t.Helper()
	li := -1
	for i := range bin.Prog.Code {
		in := &bin.Prog.Code[i]
		if in.Op == machine.MFLoad && in.Index != machine.NoReg && in.Line != 0 {
			li = i
		}
	}
	if li < 0 {
		t.Fatal("no protected load")
	}
	key, _ := bin.Prog.Debug.KeyAt(li)
	tab, err := rtable.Decode(bin.RecoveryTable)
	if err != nil {
		t.Fatal(err)
	}
	entry, ok := tab.LookupSource(key)
	if !ok {
		t.Fatal("no table entry for protected load")
	}
	var ixName string
	for _, prm := range entry.Params {
		if !prm.IsFloat && len(prm.Equivs) > 0 {
			ixName = prm.Name
		}
	}
	if ixName == "" {
		t.Fatalf("no parameter with equivalences in %+v", entry.Params)
	}
	target := bin.Prog.AddrOf(li)
	corrupted := new(bool)
	p.CPU.AddAfterStep(func(c *machine.CPU, img *machine.Image, idx int, in *machine.MInstr) {
		if *corrupted || c.PC != target || c.Dyn < 400 {
			return
		}
		loc, ok := bin.Prog.Debug.Lookup(entry.Func, ixName, li)
		if !ok {
			t.Errorf("no location for %s", ixName)
			*corrupted = true
			return
		}
		switch loc.Kind {
		case 3: // LocFPOff
			a := c.R[machine.FP] + machine.Word(loc.Off)
			v, f := c.Mem.Read(a)
			if f != nil {
				return
			}
			_ = c.Mem.Write(a, v^(1<<33))
		case 1: // LocReg
			c.R[loc.Reg] ^= 1 << 33
		}
		*corrupted = true
	})
	return corrupted
}

func TestInductionRecoveryExtension(t *testing.T) {
	// Golden.
	gbin, err := core.Build(buildTwoInductionLoop(), core.BuildOptions{OptLevel: 0})
	if err != nil {
		t.Fatal(err)
	}
	gp, err := core.NewProcess(core.ProcessConfig{App: gbin})
	if err != nil {
		t.Fatal(err)
	}
	if st := gp.Run(0); st != machine.StatusExited {
		t.Fatal(st)
	}
	golden := append([]float64(nil), gp.Results()...)

	bin, err := core.Build(buildTwoInductionLoop(), core.BuildOptions{OptLevel: 0, Defenses: []string{"care"}})
	if err != nil {
		t.Fatal(err)
	}
	if bin.DefenseStats["care"].NumEquivalences == 0 {
		t.Fatal("Armor found no induction equivalences")
	}

	// Without the extension: the corrupted induction variable is out of
	// scope and the process dies.
	p1, err := core.NewProcess(core.ProcessConfig{App: bin, Protected: true})
	if err != nil {
		t.Fatal(err)
	}
	c1 := armIxCorruption(t, bin, p1)
	st1 := p1.Run(0)
	if !*c1 {
		t.Fatal("corruption never fired (baseline)")
	}
	if st1 != machine.StatusTrapped {
		t.Fatalf("baseline: expected death, got %v (events %+v)", st1, p1.SG.Stats().Events)
	}
	sawScope := false
	for _, ev := range p1.SG.Stats().Events {
		if ev.Outcome == safeguard.OutOfScope {
			sawScope = true
		}
	}
	if !sawScope {
		t.Fatalf("baseline died for the wrong reason: %+v", p1.SG.Stats().Events)
	}

	// With the extension: ix is reconstructed from i, the access is
	// repaired, ix's home is fixed, and the run finishes with golden
	// output.
	p2, err := core.NewProcess(core.ProcessConfig{
		App: bin, Protected: true,
		Safeguard: safeguard.Config{InductionRecovery: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	c2 := armIxCorruption(t, bin, p2)
	st2 := p2.Run(0)
	if !*c2 {
		t.Fatal("corruption never fired (extension)")
	}
	if st2 != machine.StatusExited {
		t.Fatalf("extension: %v (events %+v)", st2, p2.SG.Stats().Events)
	}
	sawInduction := false
	for _, ev := range p2.SG.Stats().Events {
		if ev.Outcome == safeguard.RecoveredInduction {
			sawInduction = true
		}
	}
	if !sawInduction {
		t.Fatalf("no induction recovery recorded: %+v", p2.SG.Stats().Events)
	}
	got := p2.Results()
	if len(got) != len(golden) || got[0] != golden[0] {
		t.Fatalf("results %v != golden %v", got, golden)
	}
}
