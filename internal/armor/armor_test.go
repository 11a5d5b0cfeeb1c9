package armor

import (
	"strings"
	"testing"

	"care/internal/ir"
	"care/internal/irbuild"
)

// buildFixture constructs a function with a spectrum of memory accesses:
//
//	direct global access          -> no kernel
//	direct alloca access          -> no kernel
//	simple indexed access         -> kernel(param: phi)
//	deep chain with inner load    -> kernel cloning the inner load
//	access via a dead temporary   -> extraction stops per liveness
func buildFixture(t *testing.T) *ir.Module {
	t.Helper()
	m := ir.NewModule("fixture")
	data := m.AddGlobal(&ir.Global{Name: "data", Size: 64 * 8})
	idxs := m.AddGlobal(&ir.Global{Name: "idxs", Size: 16 * 8, InitI64: make([]int64, 16)})
	scalar := m.AddGlobal(&ir.Global{Name: "scalar", Size: 8, InitI64: []int64{3}})

	fb := irbuild.New(ir.NewBuilder(m))
	fb.NewFunc("main", ir.I64)
	buf := fb.Alloca(8)
	fb.Store(irbuild.I(42), buf) // direct alloca store
	s := fb.Load(ir.I64, scalar) // direct global load
	fb.ForN(irbuild.I(0), irbuild.I(8), 1, func(i ir.Value) {
		fb.NewLine()
		iv := fb.LoadAt(ir.I64, idxs, i) // indexed via induction var
		fb.NewLine()
		off := fb.Add(fb.Mul(iv, s), i)
		v := fb.LoadAt(ir.F64, data, off) // deep chain w/ inner load
		fb.StoreAt(fb.FAdd(v, irbuild.F(1)), data, off)
	})
	fb.Result(fb.Load(ir.F64, fb.GEP(data, irbuild.I(0), 8)))
	fb.Ret(irbuild.I(0))
	if err := ir.VerifyModule(m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDirectAccessesSkipped(t *testing.T) {
	res, err := Run(buildFixture(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.SkippedDirect < 2 {
		t.Errorf("expected >=2 direct accesses skipped, got %d", s.SkippedDirect)
	}
	if s.NumKernels+s.SkippedDirect+s.SkippedUnavailable != s.NumMemAccesses {
		t.Errorf("accounting broken: %+v", s)
	}
	if s.NumKernels == 0 {
		t.Fatal("no kernels")
	}
}

func TestKernelModuleIsValidAndIsolated(t *testing.T) {
	app := buildFixture(t)
	res, err := Run(app, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.VerifyModule(res.Kernels); err != nil {
		t.Fatalf("kernel module invalid: %v", err)
	}
	for _, f := range res.Kernels.Funcs {
		if len(f.Blocks) == 0 {
			continue // declarations
		}
		if !f.Kernel {
			t.Errorf("%s not flagged as kernel", f.Name)
		}
		if f.RetType != ir.Ptr {
			t.Errorf("%s returns %s, want ptr", f.Name, f.RetType)
		}
		if len(f.Blocks) != 1 {
			t.Errorf("%s has %d blocks; kernels are straight-line", f.Name, len(f.Blocks))
		}
		// Kernels must not write memory or branch.
		for _, in := range f.Blocks[0].Instrs {
			switch in.Op {
			case ir.OpStore, ir.OpBr, ir.OpCondBr, ir.OpPhi, ir.OpAlloca:
				t.Errorf("%s contains %s", f.Name, in.Op)
			}
		}
	}
	// Referenced globals are extern mirrors of the app's.
	for _, g := range res.Kernels.Globals {
		if !g.Extern {
			t.Errorf("kernel global %s not extern", g.Name)
		}
		if app.Global(g.Name) == nil {
			t.Errorf("kernel global %s has no app counterpart", g.Name)
		}
	}
	// The app module itself must be unchanged by Armor (no mutation).
	if err := ir.VerifyModule(app); err != nil {
		t.Fatalf("app module damaged: %v", err)
	}
}

func TestTableEntriesConsistent(t *testing.T) {
	res, err := Run(buildFixture(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range res.Table.Entries {
		if seen[e.Symbol] {
			t.Errorf("duplicate symbol %s", e.Symbol)
		}
		seen[e.Symbol] = true
		kf := res.Kernels.Func(e.Symbol)
		if kf == nil {
			t.Fatalf("table references missing kernel %s", e.Symbol)
		}
		if len(kf.Params) != len(e.Params) {
			t.Errorf("%s: table lists %d params, kernel has %d", e.Symbol, len(e.Params), len(kf.Params))
		}
		for i, p := range e.Params {
			if p.Name == "" {
				t.Errorf("%s: empty param name", e.Symbol)
			}
			if p.IsFloat != (kf.Params[i].Typ == ir.F64) {
				t.Errorf("%s param %d: float flag mismatch", e.Symbol, i)
			}
		}
	}
	if len(res.Table.Entries) != res.Stats.NumKernels {
		t.Errorf("table has %d entries for %d kernels", len(res.Table.Entries), res.Stats.NumKernels)
	}
}

func TestInnerLoadsAreCloned(t *testing.T) {
	res, err := Run(buildFixture(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// At least one kernel must contain a cloned load (the idxs[i]
	// indirection feeding the data[] address).
	found := false
	for _, f := range res.Kernels.Funcs {
		if len(f.Blocks) == 0 {
			continue
		}
		for _, in := range f.Blocks[0].Instrs {
			if in.Op == ir.OpLoad {
				found = true
			}
		}
	}
	if !found {
		t.Error("no kernel clones an inner load; extraction stops too early")
	}
}

func TestIgnoreLivenessRegistersMoreKernels(t *testing.T) {
	normal, err := Run(buildFixture(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := Run(buildFixture(t), Options{IgnoreLiveness: true})
	if err != nil {
		t.Fatal(err)
	}
	if loose.Stats.NumKernels < normal.Stats.NumKernels {
		t.Errorf("ignoring liveness reduced kernels: %d < %d",
			loose.Stats.NumKernels, normal.Stats.NumKernels)
	}
	if loose.Stats.SkippedUnavailable > normal.Stats.SkippedUnavailable {
		t.Errorf("ignoring liveness increased unavailable skips")
	}
}

func TestDuplicateKeysRejected(t *testing.T) {
	m := buildFixture(t)
	// Force two memory accesses to share a debug key.
	var accesses []*ir.Instr
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.IsMemAccess() {
					accesses = append(accesses, in)
				}
			}
		}
	}
	if len(accesses) < 2 {
		t.Skip("not enough accesses")
	}
	// Find two protected (non-direct) accesses and alias their Locs.
	var prot []*ir.Instr
	for _, in := range accesses {
		ptr, _ := in.PointerOperand()
		if !isDirect(ptr) {
			prot = append(prot, in)
		}
	}
	if len(prot) < 2 {
		t.Skip("not enough protected accesses")
	}
	prot[1].Loc = prot[0].Loc
	_, err := Run(m, Options{})
	if err == nil || !strings.Contains(err.Error(), "duplicate debug key") {
		t.Fatalf("duplicate keys accepted: %v", err)
	}
}

func TestSimpleFunctionDetection(t *testing.T) {
	m := ir.NewModule("sf")
	fb := irbuild.New(ir.NewBuilder(m))
	b := fb.Builder

	pure := b.NewFunc("pure", ir.I64, ir.Param("x", ir.I64))
	fb.Ret(fb.Mul(pure.Params[0], irbuild.I(3)))

	impure := b.NewFunc("impure", ir.I64, ir.Param("p", ir.Ptr))
	fb.Store(irbuild.I(1), impure.Params[0])
	fb.Ret(irbuild.I(0))

	mathy := b.NewFunc("mathy", ir.F64, ir.Param("x", ir.F64))
	fb.Ret(fb.Sqrt(mathy.Params[0]))

	simple := simpleFuncs(m)
	if !simple[pure] {
		t.Error("pure function not simple")
	}
	if simple[impure] {
		t.Error("storing function marked simple")
	}
	if !simple[mathy] {
		t.Error("sqrt-calling function not simple")
	}
}

func TestInductionEquivalenceDetection(t *testing.T) {
	m := ir.NewModule("ind")
	data := m.AddGlobal(&ir.Global{Name: "data", Size: 128 * 8})
	b := ir.NewBuilder(m)
	fb := irbuild.New(b)
	f := fb.NewFunc("main", ir.I64, ir.Param("stride", ir.I64))
	stride := f.Params[0]
	entry := f.Entry()
	header := fb.NewBlock("loop")
	body := fb.NewBlock("body")
	done := fb.NewBlock("done")
	fb.Br(header)
	fb.SetBlock(header)
	i := fb.Phi(ir.I64)
	ix := fb.Phi(ir.I64)
	cond := fb.ICmp(ir.OpICmpSLT, i, irbuild.I(10))
	fb.CondBr(cond, body, done)
	fb.SetBlock(body)
	fb.NewLine()
	_ = fb.LoadAt(ir.F64, data, ix)
	in := fb.Add(i, irbuild.I(1))
	ixn := fb.Add(ix, stride) // argument-valued step
	fb.Br(header)
	ir.AddIncoming(i, irbuild.I(0), entry)
	ir.AddIncoming(i, in, body)
	ir.AddIncoming(ix, irbuild.I(7), entry)
	ir.AddIncoming(ix, ixn, body)
	fb.SetBlock(done)
	fb.Ret(irbuild.I(0))
	if err := ir.VerifyModule(m); err != nil {
		t.Fatal(err)
	}

	groups := findInductionVars(m.Func("main"))
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	if total != 2 {
		t.Fatalf("found %d induction vars, want 2", total)
	}

	res, err := Run(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.NumEquivalences == 0 {
		t.Fatal("no equivalences registered")
	}
	// The ix parameter's equivalence must reference i with the right
	// step refs (pStep = stride arg by name, qStep = const 1).
	found := false
	for _, e := range res.Table.Entries {
		for _, p := range e.Params {
			for _, q := range p.Equivs {
				found = true
				if q.PStep.IsConst || q.PStep.Name != "stride" {
					t.Errorf("pStep ref = %+v, want name stride", q.PStep)
				}
				if !q.QStep.IsConst || q.QStep.Const != 1 {
					t.Errorf("qStep ref = %+v, want const 1", q.QStep)
				}
				if !q.PInit.IsConst || q.PInit.Const != 7 {
					t.Errorf("pInit ref = %+v, want const 7", q.PInit)
				}
			}
		}
	}
	if !found {
		t.Fatal("no equivalence on any parameter")
	}
}
