// Quickstart: build a tiny stencil program with CARE, flip a bit in the
// index register of a protected load mid-run, and watch Safeguard repair
// the SIGSEGV and let the program finish with correct output.
package main

import (
	"fmt"
	"log"

	"care/internal/core"
	"care/internal/ir"
	"care/internal/irbuild"
	"care/internal/machine"
)

// buildProgram constructs:
//
//	table[i] initialised to 3*i
//	sum = Σ data[table[i] % len(data)]   (an indirect, multi-op access)
func buildProgram() *ir.Module {
	m := ir.NewModule("quickstart")
	table := m.AddGlobal(&ir.Global{Name: "table", Size: 16 * 8,
		InitI64: []int64{0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33, 36, 39, 42, 45}})
	data := m.AddGlobal(&ir.Global{Name: "data", Size: 32 * 8})

	b := ir.NewBuilder(m)
	fb := irbuild.New(b)
	b.NewFunc("main", ir.I64)

	fb.ForN(irbuild.I(0), irbuild.I(32), 1, func(i ir.Value) {
		fb.NewLine()
		fb.StoreAt(fb.FMul(fb.IToF(i), irbuild.F(1.5)), data, i)
	})
	sum := fb.For(irbuild.I(0), irbuild.I(16), 1, []ir.Value{irbuild.F(0)},
		func(i ir.Value, c []ir.Value) []ir.Value {
			fb.NewLine()
			t := fb.LoadAt(ir.I64, table, i)
			idx := fb.SRem(t, irbuild.I(32))
			v := fb.LoadAt(ir.F64, data, idx) // the protected access
			return []ir.Value{fb.FAdd(c[0], v)}
		})
	fb.Result(sum[0])
	fb.Ret(irbuild.I(0))
	return m
}

func main() {
	// 1. Compile with CARE: the Armor pass builds one recovery kernel
	//    per protected memory access and a recovery table.
	bin, err := core.Build(buildProgram(), core.BuildOptions{OptLevel: 1, Defenses: []string{"care"}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built %q: %d machine instructions, %d recovery kernels (avg %.1f IR instrs)\n",
		bin.Name, len(bin.Prog.Code), bin.DefenseStats["care"].NumKernels, bin.DefenseStats["care"].AvgKernelInstrs())
	fmt.Printf("recovery table: %d bytes, recovery library: %d bytes\n\n",
		len(bin.RecoveryTable), len(bin.RecoveryLib))

	// 2. Golden run (no fault).
	gold, err := core.NewProcess(core.ProcessConfig{App: bin})
	if err != nil {
		log.Fatal(err)
	}
	gold.Run(0)
	fmt.Printf("golden result: %v\n", gold.Results())

	// 3. Protected run with a transient fault: right before the indexed
	//    data load executes, flip bit 43 of its index register —
	//    exactly what a particle strike in the ALU would do.
	p, err := core.NewProcess(core.ProcessConfig{App: bin, Protected: true})
	if err != nil {
		log.Fatal(err)
	}
	var target machine.Word
	for i := range bin.Prog.Code {
		in := &bin.Prog.Code[i]
		if in.Op == machine.MFLoad && in.Index != machine.NoReg && in.Line != 0 {
			target = bin.Prog.AddrOf(i)
			fmt.Printf("fault target: %s @0x%x\n", machine.Disassemble(in), target)
			break
		}
	}
	flipped := false
	p.CPU.AddAfterStep(func(c *machine.CPU, img *machine.Image, idx int, in *machine.MInstr) {
		if !flipped && c.PC == target && c.Dyn > 200 {
			flipped = true
			mi := img.Prog.Code[(target-img.Base())/8]
			c.R[mi.Index] ^= 1 << 43
			fmt.Printf("injected: bit 43 flipped in %s at dyn=%d\n", mi.Index, c.Dyn)
		}
	})
	st := p.Run(0)

	// 4. Report.
	fmt.Printf("\nrun status: %v\n", st)
	for _, ev := range p.SG.Events() {
		fmt.Printf("safeguard: %s at pc=0x%x addr=0x%x in %v (prep %v, kernel %v)\n",
			ev.Outcome, ev.PC, ev.Addr, ev.Total(), ev.Prep(), ev.Kernel)
	}
	fmt.Printf("result with recovered fault: %v\n", p.Results())
	if len(p.Results()) == 1 && p.Results()[0] == gold.Results()[0] {
		fmt.Println("output matches golden run — the transient fault was fully masked")
	} else {
		fmt.Println("OUTPUT MISMATCH — recovery failed")
	}
}
