package machine

import (
	"testing"

	"care/internal/debuginfo"
	"care/internal/hostenv"
)

// benchLoop assembles a tight counted loop touching memory: the
// steady-state instruction mix of the simulated machine.
func benchLoop(tb testing.TB, n int64) *CPU {
	tb.Helper()
	code := []MInstr{
		{Op: MMovImm, Rd: R1, Imm: 0},                                // i
		{Op: MMovImm, Rd: R4, Imm: 0x30000},                          // base
		{Op: MLoad, Rd: R2, Base: R4, Index: R1, Scale: 8, Disp: 0},  // idx 2
		{Op: MAdd, Rd: R2, Ra: R2, UseImm: true, Imm: 3},             //
		{Op: MStore, Base: R4, Index: R1, Scale: 8, Disp: 0, Ra: R2}, //
		{Op: MAdd, Rd: R1, Ra: R1, UseImm: true, Imm: 1},             //
		{Op: MAnd, Rd: R1, Ra: R1, UseImm: true, Imm: 255},           // wrap
		{Op: MSet, Cond: CondLT, Rd: R3, Ra: R1, Rb: R5},             //
		{Op: MJnz, Ra: R3, Target: AppCodeBase + 8*2},                //
		{Op: MHalt, Ra: R1},
	}
	p := &Program{Name: "bench", CodeBase: AppCodeBase, Code: code,
		Funcs: []FuncSym{{Name: "_start", Entry: 0}}, Debug: debuginfo.New()}
	mem := NewMemory()
	img, err := Load(mem, p)
	if err != nil {
		tb.Fatal(err)
	}
	cpu := NewCPU(mem, hostenv.NewEnv())
	cpu.Attach(img)
	if err := cpu.InitStack(); err != nil {
		tb.Fatal(err)
	}
	if _, err := mem.Map(0x30000, 256*8, "data"); err != nil {
		tb.Fatal(err)
	}
	if err := cpu.Start(img, "_start"); err != nil {
		tb.Fatal(err)
	}
	cpu.R[R5] = Word(n) // loop bound (never reached; And wraps)
	return cpu
}

// BenchmarkCPUStepThroughput measures the interpreter's steady-state
// instructions/second — the constant behind every campaign's runtime —
// on both tiers: the fused superblock engine (the default) and the
// legacy per-instruction Step loop it deoptimizes to under hooks.
func BenchmarkCPUStepThroughput(b *testing.B) {
	for _, tier := range Tiers() {
		b.Run(tier.String(), func(b *testing.B) {
			cpu := benchLoop(b, 1<<62)
			cpu.Tier = tier
			b.ResetTimer()
			cpu.Run(uint64(b.N))
			b.StopTimer()
			if cpu.Status == StatusTrapped {
				b.Fatalf("trap: %v", cpu.PendingTrap)
			}
			b.ReportMetric(float64(cpu.Dyn)/b.Elapsed().Seconds()/1e6, "Minstr/s")
		})
	}
}

// BenchmarkMemoryAccess measures the segmented-memory fast path.
func BenchmarkMemoryAccess(b *testing.B) {
	m := NewMemory()
	if _, err := m.Map(0x40000, 1<<16, "seg"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := Word(0x40000 + (i*8)&(1<<16-8))
		if f := m.Write(addr, Word(i)); f != nil {
			b.Fatal(f)
		}
		if _, f := m.Read(addr); f != nil {
			b.Fatal(f)
		}
	}
}

// BenchmarkSnapshotRestore measures the checkpoint substrate's copy cost.
func BenchmarkSnapshotRestore(b *testing.B) {
	m := NewMemory()
	for i := 0; i < 8; i++ {
		if _, err := m.Alloc(1 << 16); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sn := m.Snapshot()
		m.Restore(sn)
	}
	b.ReportMetric(float64(m.MappedBytes()), "bytes")
}
