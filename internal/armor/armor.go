// Package armor implements CARE's compile-time front end: for every
// crash-prone memory-access instruction it extracts the backward slice
// of the address computation (stopping at Terminal Values per the
// paper's Figure 5 algorithm), clones it into a stand-alone recovery
// kernel function, and registers the kernel in a Recovery Table keyed by
// the instruction's (file,line,column) debug tuple.
//
// The kernels of an application are collected into a separate IR module
// that is compiled into its own "shared library" image, loaded lazily by
// Safeguard only when a fault must be repaired.
package armor

import (
	"fmt"
	"time"

	"care/internal/debuginfo"
	"care/internal/hostenv"
	"care/internal/ir"
	"care/internal/rtable"
)

// Stats summarises an Armor run (the paper's Table 8 columns).
type Stats struct {
	// NumMemAccesses is the number of load/store IR instructions seen.
	NumMemAccesses int
	// NumKernels is the number of recovery kernels constructed.
	NumKernels int
	// TotalKernelInstrs is the summed kernel body size (IR instructions,
	// excluding the final ret).
	TotalKernelInstrs int
	// SkippedDirect counts accesses straight to an alloca or global
	// (no address computation to protect).
	SkippedDirect int
	// SkippedUnavailable counts accesses whose Terminal Values are not
	// guaranteed retrievable (dead or local-only at the access), for
	// which no kernel is registered.
	SkippedUnavailable int
	// NumEquivalences counts induction-variable equivalences attached
	// to kernel parameters (the Figure-11 extension).
	NumEquivalences int
	// LivenessTime is the time spent in liveness analysis; the paper
	// reports >90% of Armor overhead there.
	LivenessTime time.Duration
	// TotalTime is the end-to-end Armor time.
	TotalTime time.Duration
}

// AvgKernelInstrs returns the mean kernel body size.
func (s Stats) AvgKernelInstrs() float64 {
	if s.NumKernels == 0 {
		return 0
	}
	return float64(s.TotalKernelInstrs) / float64(s.NumKernels)
}

// Result bundles Armor's outputs.
type Result struct {
	// Kernels is the recovery-kernel module (compile with
	// compiler.LibOptions into the recovery library).
	Kernels *ir.Module
	// Table is the recovery table describing every kernel.
	Table *rtable.Table
	// Stats describes the run.
	Stats Stats
}

// Options tunes Armor.
type Options struct {
	// Disabled liveness restriction (ablation): when true, Armor treats
	// every value as an acceptable Terminal Value regardless of
	// liveness, modelling a naive extractor whose parameters may be
	// unfetchable at run time.
	IgnoreLiveness bool
}

// Run executes the Armor pass over an application module. The module is
// not mutated; kernels are emitted into a fresh module named
// <app>_rk.
func Run(app *ir.Module, opts Options) (*Result, error) {
	t0 := time.Now()
	res := &Result{
		Kernels: ir.NewModule(app.Name + "_rk"),
		Table:   &rtable.Table{},
	}
	simple := simpleFuncs(app)
	kb := ir.NewBuilder(res.Kernels)
	seen := map[rtable.Key]string{}
	kn := 0
	for _, f := range app.Funcs {
		if len(f.Blocks) == 0 || f.Kernel {
			continue
		}
		tl := time.Now()
		live := ir.ComputeLiveness(f)
		res.Stats.LivenessTime += time.Since(tl)
		ex := &extractor{live: live, simple: simple, opts: opts}
		eqIdx := buildEquivIndex(f)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if !in.IsMemAccess() {
					continue
				}
				res.Stats.NumMemAccesses++
				ptr, _ := in.PointerOperand()
				if isDirect(ptr) {
					res.Stats.SkippedDirect++
					continue
				}
				params, stmts, ok := ex.extract(in)
				if !ok {
					res.Stats.SkippedUnavailable++
					continue
				}
				key := rtable.KeyOf(debuginfo.Key{File: f.File, Line: in.Loc.Line, Col: in.Loc.Col})
				if prev, dup := seen[key]; dup {
					return nil, fmt.Errorf("armor: duplicate debug key for %s/%s (%s) and %s",
						f.Name, in.Name, in.Op, prev)
				}
				symbol := fmt.Sprintf("__care_k%d", kn)
				kn++
				nInstr, err := buildKernel(kb, res.Kernels, symbol, ptr, params, stmts)
				if err != nil {
					return nil, fmt.Errorf("armor: %s: %w", f.Name, err)
				}
				seen[key] = symbol
				entry := rtable.Entry{Key: key, Symbol: symbol, Func: f.Name}
				for _, p := range params {
					rp := rtable.Param{
						Name:    nameOf(p),
						IsFloat: p.Type() == ir.F64,
						Equivs:  eqIdx.equivsFor(p, in, live),
					}
					res.Stats.NumEquivalences += len(rp.Equivs)
					entry.Params = append(entry.Params, rp)
				}
				res.Table.Add(entry)
				res.Stats.NumKernels++
				res.Stats.TotalKernelInstrs += nInstr
			}
		}
	}
	res.Stats.TotalTime = time.Since(t0)
	return res, nil
}

// isDirect reports whether the pointer operand is an alloca or global
// accessed without any address computation.
func isDirect(ptr ir.Value) bool {
	if _, ok := ptr.(*ir.Global); ok {
		return true
	}
	if in, ok := ptr.(*ir.Instr); ok && in.Op == ir.OpAlloca {
		return true
	}
	return false
}

func nameOf(v ir.Value) string {
	switch x := v.(type) {
	case *ir.Arg:
		return x.Name
	case *ir.Instr:
		return x.Name
	}
	return ""
}

// simpleFuncs finds functions Armor may treat as plain operators: pure
// computations that never store, allocate, or call anything but simple
// math host functions (paper §3.2 item 5).
func simpleFuncs(m *ir.Module) map[*ir.Func]bool {
	simple := map[*ir.Func]bool{}
	for _, f := range m.Funcs {
		if len(f.Blocks) == 0 || f.RetType == ir.Void {
			continue
		}
		ok := true
	scan:
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				switch in.Op {
				case ir.OpStore, ir.OpAlloca:
					ok = false
					break scan
				case ir.OpCall:
					if in.Callee != nil || !hostenv.SimpleMathFuncs[in.Host] {
						ok = false
						break scan
					}
				}
			}
		}
		if ok {
			simple[f] = true
		}
	}
	return simple
}

// extractor implements the Figure 5 slice extraction for one function.
type extractor struct {
	live   *ir.Liveness
	simple map[*ir.Func]bool
	opts   Options
}

// availableAt reports whether v is a legal Terminal Value for the memory
// access at: constants and globals are compile-time constants, arguments
// persist in their incoming stack slots, and other values must be live
// at the access with a non-local use (the property that guarantees the
// machine-dependent lowering keeps them materialised).
func (x *extractor) availableAt(v ir.Value, at *ir.Instr) bool {
	switch v.(type) {
	case *ir.Const, *ir.Global, *ir.Arg:
		return true
	}
	if x.opts.IgnoreLiveness {
		return true
	}
	return x.live.LiveAt(v, at) && x.live.HasNonLocalUse(v)
}

// expandable implements isExpandable from the paper's Figure 5: v can be
// cloned into the kernel when it is a computation whose operands are all
// either retrievable at the access or themselves expandable.
func (x *extractor) expandable(v ir.Value, at *ir.Instr) bool {
	in, ok := v.(*ir.Instr)
	if !ok {
		return false // alloca/global/argument/constant: stop points
	}
	switch in.Op {
	case ir.OpAlloca, ir.OpPhi:
		return false
	case ir.OpCall:
		if in.Callee != nil {
			if !x.simple[in.Callee] {
				return false
			}
		} else if !hostenv.SimpleMathFuncs[in.Host] {
			return false
		}
	case ir.OpLoad, ir.OpGEP, ir.OpIToF, ir.OpFToI:
		// Clonable: loads re-read (intact) memory at recovery time.
	default:
		if !in.Op.IsBinary() {
			return false
		}
	}
	for _, op := range in.Ops {
		if !x.availableAt(op, at) && !x.expandable(op, at) {
			return false
		}
	}
	return true
}

// extract computes the kernel parameters and cloned statements for the
// access at (the paper's getParamsAndStmts). It returns ok=false when
// some required parameter is not retrievable at run time, in which case
// no kernel is registered for the instruction.
func (x *extractor) extract(at *ir.Instr) (params []ir.Value, stmts []*ir.Instr, ok bool) {
	addr, _ := at.PointerOperand()
	inStmts := map[*ir.Instr]bool{}
	inParams := map[ir.Value]bool{}
	work := []ir.Value{addr}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		switch v.(type) {
		case *ir.Const, *ir.Global:
			continue // inlined into the kernel
		}
		if x.expandable(v, at) {
			in := v.(*ir.Instr)
			if inStmts[in] {
				continue
			}
			inStmts[in] = true
			stmts = append(stmts, in)
			for _, op := range in.Ops {
				work = append(work, op)
			}
			continue
		}
		if inParams[v] {
			continue
		}
		if !x.availableAt(v, at) {
			return nil, nil, false
		}
		inParams[v] = true
		params = append(params, v)
	}
	return params, stmts, true
}

// buildKernel clones the extracted slice into a fresh function of the
// kernel module and returns the body instruction count.
func buildKernel(kb *ir.Builder, kmod *ir.Module, symbol string, addr ir.Value, params []ir.Value, stmts []*ir.Instr) (int, error) {
	var fps []*ir.Arg
	for i, p := range params {
		t := p.Type()
		fps = append(fps, ir.Param(fmt.Sprintf("p%d_%s", i, nameOf(p)), t))
	}
	kf := kb.NewFunc(symbol, ir.Ptr, fps...)
	kf.Kernel = true

	inStmts := map[*ir.Instr]bool{}
	for _, s := range stmts {
		inStmts[s] = true
	}
	vmap := map[ir.Value]ir.Value{}
	for i, p := range params {
		vmap[p] = kf.Params[i]
	}
	n := 0
	var clone func(v ir.Value) (ir.Value, error)
	clone = func(v ir.Value) (ir.Value, error) {
		if nv, ok := vmap[v]; ok {
			return nv, nil
		}
		switch x := v.(type) {
		case *ir.Const:
			return x, nil
		case *ir.Global:
			g := kmod.Global(x.Name)
			if g == nil {
				g = kmod.AddGlobal(&ir.Global{Name: x.Name, Size: x.Size, Extern: true})
			}
			vmap[v] = g
			return g, nil
		case *ir.Instr:
			if !inStmts[x] {
				return nil, fmt.Errorf("kernel %s: value %%%s (%s) is neither param nor statement", symbol, x.Name, x.Op)
			}
			nops := make([]ir.Value, len(x.Ops))
			for i, op := range x.Ops {
				c, err := clone(op)
				if err != nil {
					return nil, err
				}
				nops[i] = c
			}
			ni := &ir.Instr{
				Op: x.Op, Typ: x.Typ, Ops: nops, Size: x.Size, Host: x.Host,
				Name: fmt.Sprintf("c%d", n),
			}
			if x.Callee != nil {
				ni.Callee = ensureDecl(kmod, x.Callee)
			}
			appendInstr(kb, ni)
			n++
			vmap[v] = ni
			return ni, nil
		}
		return nil, fmt.Errorf("kernel %s: unexpected value kind", symbol)
	}
	rv, err := clone(addr)
	if err != nil {
		return 0, err
	}
	kb.Ret(rv)
	return n, nil
}

// appendInstr emits a pre-built instruction through the builder's
// current block, preserving builder location bookkeeping.
func appendInstr(kb *ir.Builder, in *ir.Instr) {
	in.Parent = kb.Blk
	in.Loc = ir.Loc{Line: 1, Col: int32(len(kb.Blk.Instrs) + 1)}
	kb.Blk.Instrs = append(kb.Blk.Instrs, in)
}

// ensureDecl mirrors a callee as an extern declaration in the kernel
// module so the recovery library can be linked against the application's
// simple functions (the paper's "link with binary source files" step).
func ensureDecl(kmod *ir.Module, callee *ir.Func) *ir.Func {
	if f := kmod.Func(callee.Name); f != nil {
		return f
	}
	decl := &ir.Func{Name: callee.Name, File: kmod.Name + "/" + callee.Name, RetType: callee.RetType, Module: kmod}
	for _, p := range callee.Params {
		decl.Params = append(decl.Params, ir.Param(p.Name, p.Typ))
	}
	for i, p := range decl.Params {
		p.Index = i
		p.Fn = decl
	}
	kmod.Funcs = append(kmod.Funcs, decl)
	return decl
}
