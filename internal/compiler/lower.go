package compiler

import (
	"fmt"
	"math"

	"care/internal/debuginfo"
	"care/internal/ir"
	"care/internal/machine"
)

// Options configures a compilation. Images are prelinked: code and data
// bases are fixed here, and references to other images are resolved
// through the extern maps.
type Options struct {
	// OptLevel is 0 (every value in a frame slot) or 1 (optimise +
	// register-allocate).
	OptLevel int
	// CodeBase/GlobalBase position the image.
	CodeBase   machine.Word
	GlobalBase machine.Word
	// ExternFuncs maps declared-but-undefined function names to their
	// absolute entry addresses in other images.
	ExternFuncs map[string]machine.Word
	// ExternGlobals maps extern global names to absolute addresses.
	ExternGlobals map[string]machine.Word
	// SkipOptimize suppresses the O1 IR pipeline inside Compile; used
	// when the caller already ran Optimize (e.g. because Armor must
	// analyse the optimised IR, as an in-pipeline LLVM pass would).
	SkipOptimize bool
}

// AppOptions returns the conventional layout for a main executable.
func AppOptions(opt int) Options {
	return Options{OptLevel: opt, CodeBase: machine.AppCodeBase, GlobalBase: machine.AppGlobalBase}
}

// LibOptions returns the layout for the n'th shared library image.
func LibOptions(opt, n int) Options {
	return Options{
		OptLevel:   opt,
		CodeBase:   machine.LibCodeBase + machine.Word(n)*machine.LibStride,
		GlobalBase: machine.LibCodeBase + machine.Word(n)*machine.LibStride + machine.LibStride/2,
	}
}

// Compile lowers a verified module into a machine program. The module is
// mutated in place by O1 optimisation passes and by critical-edge
// splitting, mirroring a real in-pipeline compiler.
func Compile(m *ir.Module, opts Options) (*machine.Program, error) {
	if err := ir.VerifyModule(m); err != nil {
		return nil, err
	}
	if opts.OptLevel >= 1 && !opts.SkipOptimize {
		Optimize(m)
	}
	c := &compilation{
		m:    m,
		opts: opts,
		prog: &machine.Program{
			Name:       m.Name,
			CodeBase:   opts.CodeBase,
			GlobalBase: opts.GlobalBase,
			Debug:      debuginfo.New(),
			OptLevel:   opts.OptLevel,
		},
		globalAddr: map[string]machine.Word{},
	}
	if err := c.layoutGlobals(); err != nil {
		return nil, err
	}
	// A _start stub precedes everything when the module has a main.
	if m.Func("main") != nil {
		c.emitStart()
	}
	for _, f := range m.Funcs {
		if len(f.Blocks) == 0 {
			continue // declaration resolved via ExternFuncs
		}
		if err := c.lowerFunc(f); err != nil {
			return nil, fmt.Errorf("compiler: %s: %w", f.Name, err)
		}
	}
	if err := c.resolveCalls(); err != nil {
		return nil, err
	}
	c.prog.Debug.Lines = c.lines
	// Seal the packed code image now, while the program is still
	// private to this build: every process that loads it afterwards
	// (campaign trials run many concurrently) shares the one read-only
	// backing array.
	c.prog.SealCode()
	return c.prog, nil
}

type callFixup struct {
	idx  int
	name string
}

type compilation struct {
	m    *ir.Module
	opts Options
	prog *machine.Program

	lines      []debuginfo.LC
	globalAddr map[string]machine.Word
	callFix    []callFixup
}

func (c *compilation) layoutGlobals() error {
	var off machine.Word
	var initW []machine.Word
	for _, g := range c.m.Globals {
		if g.Extern {
			addr, ok := c.opts.ExternGlobals[g.Name]
			if !ok {
				return fmt.Errorf("compiler: unresolved extern global %q", g.Name)
			}
			c.globalAddr[g.Name] = addr
			c.prog.Globals = append(c.prog.Globals, machine.GlobalSym{
				Name: g.Name, Extern: true, Addr: addr, Size: machine.Word(g.Size),
			})
			continue
		}
		addr := c.opts.GlobalBase + off
		c.globalAddr[g.Name] = addr
		c.prog.Globals = append(c.prog.Globals, machine.GlobalSym{
			Name: g.Name, Off: off, Addr: addr, Size: machine.Word(g.Size),
		})
		words := make([]machine.Word, g.Size/8)
		for i, v := range g.InitI64 {
			if i < len(words) {
				words[i] = machine.Word(v)
			}
		}
		for i, v := range g.InitF64 {
			if i < len(words) {
				words[i] = math.Float64bits(v)
			}
		}
		initW = append(initW, words...)
		off += machine.Word(g.Size)
	}
	if off > 0 {
		c.prog.GlobalInit = make([]byte, off)
		for i, w := range initW {
			putWord(c.prog.GlobalInit[8*i:], w)
		}
	}
	return nil
}

func putWord(b []byte, w machine.Word) {
	for i := 0; i < 8; i++ {
		b[i] = byte(w >> (8 * i))
	}
}

func (c *compilation) emit(in machine.MInstr, loc ir.Loc) int {
	in.Line, in.Col = loc.Line, loc.Col
	c.prog.Code = append(c.prog.Code, in)
	c.lines = append(c.lines, debuginfo.LC{Line: loc.Line, Col: loc.Col})
	return len(c.prog.Code) - 1
}

// emitStart emits the process entry stub: call main, halt with its
// return code.
func (c *compilation) emitStart() {
	start := len(c.prog.Code)
	c.prog.Funcs = append(c.prog.Funcs, machine.FuncSym{Name: "_start", Entry: start})
	c.callFix = append(c.callFix, callFixup{idx: c.emit(machine.MInstr{Op: machine.MCall, Sym: "main"}, ir.Loc{}), name: "main"})
	c.emit(machine.MInstr{Op: machine.MHalt, Ra: machine.R0}, ir.Loc{})
	c.prog.Debug.Funcs = append(c.prog.Debug.Funcs, debuginfo.FuncInfo{
		Name: "_start", File: c.m.Name + "/_start", Start: start, End: len(c.prog.Code),
	})
}

func (c *compilation) resolveCalls() error {
	entries := map[string]machine.Word{}
	for _, f := range c.prog.Funcs {
		entries[f.Name] = c.prog.AddrOf(f.Entry)
	}
	for _, fx := range c.callFix {
		addr, ok := entries[fx.name]
		if !ok {
			addr, ok = c.opts.ExternFuncs[fx.name]
		}
		if !ok {
			return fmt.Errorf("compiler: unresolved call target %q", fx.name)
		}
		c.prog.Code[fx.idx].Target = addr
	}
	return nil
}

// lowering is the per-function state.
type lowering struct {
	c     *compilation
	f     *ir.Func
	uses  *ir.DefUse
	alloc *allocation

	curLoc ir.Loc
	noLoc  bool // home/prologue traffic carries no source key

	frameBytes int64
	slotOff    map[ir.Value]int64
	allocaOff  map[*ir.Instr]int64
	savedOff   map[machine.Reg]int64
	savedFOff  map[machine.FReg]int64

	blockStart map[*ir.Block]int
	branchFix  []struct {
		idx int
		blk *ir.Block
	}
	prologueSub int // index of the SP-adjust instruction to patch

	irStart map[int]int // IR instruction ID -> first machine index
}

func (c *compilation) lowerFunc(f *ir.Func) error {
	SplitCriticalEdges(f)
	if err := ir.VerifyFunc(f); err != nil {
		return fmt.Errorf("after edge split: %w", err)
	}
	// Only O1's interval builder reads live-in/live-out sets; O0 homes
	// every used value in a slot and needs the use lists alone.
	var uses *ir.DefUse
	var alloc *allocation
	if c.opts.OptLevel >= 1 {
		live := ir.ComputeLiveness(f)
		uses = live.DefUse
		alloc = allocateO1(f, live)
	} else {
		uses = ir.ComputeDefUse(f)
		alloc = allocateO0(f, uses)
	}
	lw := &lowering{
		c: c, f: f, uses: uses, alloc: alloc,
		slotOff:    map[ir.Value]int64{},
		allocaOff:  map[*ir.Instr]int64{},
		savedOff:   map[machine.Reg]int64{},
		savedFOff:  map[machine.FReg]int64{},
		blockStart: map[*ir.Block]int{},
		irStart:    map[int]int{},
	}
	start := len(c.prog.Code)
	c.prog.Funcs = append(c.prog.Funcs, machine.FuncSym{Name: f.Name, Entry: start})
	lw.prologue()
	for _, b := range f.Blocks {
		lw.blockStart[b] = len(c.prog.Code)
		for _, in := range b.Instrs {
			lw.irStart[in.ID] = len(c.prog.Code)
			if err := lw.lowerInstr(in); err != nil {
				return err
			}
		}
	}
	// Patch intra-function branches.
	for _, fx := range lw.branchFix {
		tgt, ok := lw.blockStart[fx.blk]
		if !ok {
			return fmt.Errorf("branch to unlowered block %s", fx.blk.Name)
		}
		c.prog.Code[fx.idx].Target = c.prog.AddrOf(tgt)
	}
	// Patch the frame size.
	frame := (lw.frameBytes + 15) &^ 15
	c.prog.Code[lw.prologueSub].Imm = frame
	end := len(c.prog.Code)
	c.prog.Debug.Funcs = append(c.prog.Debug.Funcs, debuginfo.FuncInfo{
		Name: f.Name, File: f.File, Start: start, End: end,
		FrameSize: frame, NumParams: len(f.Params),
	})
	lw.emitVarDebug(start, end)
	return nil
}

// reserve grabs n bytes of frame and returns the FP-relative offset of
// their lowest address.
func (lw *lowering) reserve(n int64) int64 {
	lw.frameBytes += n
	return -lw.frameBytes
}

func (lw *lowering) slot(v ir.Value) int64 {
	off, ok := lw.slotOff[v]
	if !ok {
		off = lw.reserve(8)
		lw.slotOff[v] = off
	}
	return off
}

// argOff returns the FP-relative offset of parameter i. Arguments are
// pushed left to right, so argument 0 is deepest.
func (lw *lowering) argOff(i int) int64 {
	n := len(lw.f.Params)
	return 16 + 8*int64(n-1-i)
}

func (lw *lowering) emit(in machine.MInstr) int {
	loc := lw.curLoc
	if lw.noLoc {
		loc = ir.Loc{}
	}
	return lw.c.emit(in, loc)
}

// emitHome emits home-traffic (spill/reload/moves) with no source key so
// that a fault raised by frame accesses never aliases a recovery-kernel
// key.
func (lw *lowering) emitHome(in machine.MInstr) int {
	was := lw.noLoc
	lw.noLoc = true
	idx := lw.emit(in)
	lw.noLoc = was
	return idx
}

func (lw *lowering) prologue() {
	lw.noLoc = true
	defer func() { lw.noLoc = false }()
	lw.emit(machine.MInstr{Op: machine.MPush, Ra: machine.FP})
	lw.emit(machine.MInstr{Op: machine.MMov, Rd: machine.FP, Ra: machine.SP})
	lw.prologueSub = lw.emit(machine.MInstr{Op: machine.MSub, Rd: machine.SP, Ra: machine.SP, UseImm: true, Imm: 0})
	// Save callee-saved registers this function will use.
	for _, r := range lw.alloc.usedInt {
		off := lw.reserve(8)
		lw.savedOff[r] = off
		lw.emit(machine.MInstr{Op: machine.MStore, Base: machine.FP, Index: machine.NoReg, Disp: off, Ra: r})
	}
	for _, r := range lw.alloc.usedFloat {
		off := lw.reserve(8)
		lw.savedFOff[r] = off
		lw.emit(machine.MInstr{Op: machine.MFStore, Base: machine.FP, Index: machine.NoReg, Disp: off, Fa: r})
	}
}

func (lw *lowering) epilogue() {
	for _, r := range lw.alloc.usedInt {
		lw.emitHome(machine.MInstr{Op: machine.MLoad, Rd: r, Base: machine.FP, Index: machine.NoReg, Disp: lw.savedOff[r]})
	}
	for _, r := range lw.alloc.usedFloat {
		lw.emitHome(machine.MInstr{Op: machine.MFLoad, Fd: r, Base: machine.FP, Index: machine.NoReg, Disp: lw.savedFOff[r]})
	}
	lw.emitHome(machine.MInstr{Op: machine.MMov, Rd: machine.SP, Ra: machine.FP})
	lw.emitHome(machine.MInstr{Op: machine.MPop, Rd: machine.FP})
	lw.emitHome(machine.MInstr{Op: machine.MRet})
}

// getInt materialises an integer/pointer value and returns the register
// holding it. Values homed in registers are returned in place — callers
// must not mutate the returned register unless it equals the suggested
// scratch.
func (lw *lowering) getInt(v ir.Value, scratch machine.Reg) machine.Reg {
	switch x := v.(type) {
	case *ir.Const:
		lw.emit(machine.MInstr{Op: machine.MMovImm, Rd: scratch, Imm: x.I})
		return scratch
	case *ir.Global:
		addr, ok := lw.c.globalAddr[x.Name]
		if !ok {
			panic("compiler: unknown global " + x.Name)
		}
		lw.emit(machine.MInstr{Op: machine.MMovImm, Rd: scratch, Imm: int64(addr)})
		return scratch
	case *ir.Arg:
		lw.emitHome(machine.MInstr{Op: machine.MLoad, Rd: scratch, Base: machine.FP, Index: machine.NoReg, Disp: lw.argOff(x.Index)})
		return scratch
	case *ir.Instr:
		if x.Op == ir.OpAlloca {
			off := lw.allocaOff[x]
			lw.emit(machine.MInstr{Op: machine.MLea, Rd: scratch, Base: machine.FP, Index: machine.NoReg, Disp: off})
			return scratch
		}
		h := lw.alloc.homes[x]
		switch h.kind {
		case hkReg:
			return h.reg
		case hkSlot:
			lw.emitHome(machine.MInstr{Op: machine.MLoad, Rd: scratch, Base: machine.FP, Index: machine.NoReg, Disp: lw.slot(x)})
			return scratch
		}
		panic(fmt.Sprintf("compiler: %s: no int home for %%%s (%s)", lw.f.Name, x.Name, x.Op))
	}
	panic("compiler: getInt on unexpected value")
}

// getFloat materialises a float value into a float register.
func (lw *lowering) getFloat(v ir.Value, scratch machine.FReg) machine.FReg {
	switch x := v.(type) {
	case *ir.Const:
		lw.emit(machine.MInstr{Op: machine.MFMovImm, Fd: scratch, Imm: int64(math.Float64bits(x.F))})
		return scratch
	case *ir.Arg:
		lw.emitHome(machine.MInstr{Op: machine.MFLoad, Fd: scratch, Base: machine.FP, Index: machine.NoReg, Disp: lw.argOff(x.Index)})
		return scratch
	case *ir.Instr:
		h := lw.alloc.homes[x]
		switch h.kind {
		case hkFReg:
			return h.freg
		case hkSlot:
			lw.emitHome(machine.MInstr{Op: machine.MFLoad, Fd: scratch, Base: machine.FP, Index: machine.NoReg, Disp: lw.slot(x)})
			return scratch
		}
		panic(fmt.Sprintf("compiler: %s: no float home for %%%s (%s)", lw.f.Name, x.Name, x.Op))
	}
	panic("compiler: getFloat on unexpected value")
}

// destInt returns the register an integer-producing instruction should
// compute into (the home register when there is one, else scratch), and
// finish stores scratch results into slot homes.
func (lw *lowering) destInt(in *ir.Instr, scratch machine.Reg) machine.Reg {
	if h := lw.alloc.homes[in]; h.kind == hkReg {
		return h.reg
	}
	return scratch
}

func (lw *lowering) finishInt(in *ir.Instr, r machine.Reg) {
	h := lw.alloc.homes[in]
	switch h.kind {
	case hkReg:
		if h.reg != r {
			lw.emitHome(machine.MInstr{Op: machine.MMov, Rd: h.reg, Ra: r})
		}
	case hkSlot:
		lw.emitHome(machine.MInstr{Op: machine.MStore, Base: machine.FP, Index: machine.NoReg, Disp: lw.slot(in), Ra: r})
	}
}

func (lw *lowering) destFloat(in *ir.Instr, scratch machine.FReg) machine.FReg {
	if h := lw.alloc.homes[in]; h.kind == hkFReg {
		return h.freg
	}
	return scratch
}

func (lw *lowering) finishFloat(in *ir.Instr, r machine.FReg) {
	h := lw.alloc.homes[in]
	switch h.kind {
	case hkFReg:
		if h.freg != r {
			lw.emitHome(machine.MInstr{Op: machine.MFMov, Fd: h.freg, Fa: r})
		}
	case hkSlot:
		lw.emitHome(machine.MInstr{Op: machine.MFStore, Base: machine.FP, Index: machine.NoReg, Disp: lw.slot(in), Fa: r})
	}
}
