package compiler

import (
	"fmt"

	"care/internal/debuginfo"
	"care/internal/hostenv"
	"care/internal/ir"
	"care/internal/machine"
)

func condOf(op ir.Op) machine.Cond {
	switch op {
	case ir.OpICmpEQ, ir.OpFCmpOEQ:
		return machine.CondEQ
	case ir.OpICmpNE, ir.OpFCmpONE:
		return machine.CondNE
	case ir.OpICmpSLT, ir.OpFCmpOLT:
		return machine.CondLT
	case ir.OpICmpSLE, ir.OpFCmpOLE:
		return machine.CondLE
	case ir.OpICmpSGT, ir.OpFCmpOGT:
		return machine.CondGT
	case ir.OpICmpSGE, ir.OpFCmpOGE:
		return machine.CondGE
	}
	panic("compiler: not a comparison: " + op.String())
}

func aluOp(op ir.Op) machine.MOp {
	switch op {
	case ir.OpAdd:
		return machine.MAdd
	case ir.OpSub:
		return machine.MSub
	case ir.OpMul:
		return machine.MMul
	case ir.OpSDiv:
		return machine.MDiv
	case ir.OpSRem:
		return machine.MRem
	case ir.OpAnd:
		return machine.MAnd
	case ir.OpOr:
		return machine.MOr
	case ir.OpXor:
		return machine.MXor
	case ir.OpShl:
		return machine.MShl
	case ir.OpAShr:
		return machine.MShr
	}
	panic("compiler: not an ALU op: " + op.String())
}

func faluOp(op ir.Op) machine.MOp {
	switch op {
	case ir.OpFAdd:
		return machine.MFAdd
	case ir.OpFSub:
		return machine.MFSub
	case ir.OpFMul:
		return machine.MFMul
	case ir.OpFDiv:
		return machine.MFDiv
	}
	panic("compiler: not an FALU op: " + op.String())
}

func (lw *lowering) lowerInstr(in *ir.Instr) error {
	lw.curLoc = in.Loc
	switch {
	case in.Op == ir.OpAlloca:
		lw.allocaOff[in] = lw.reserve(in.Size)
		return nil

	case in.Op.IsIntBinary():
		a := lw.getInt(in.Ops[0], machine.R0)
		mi := machine.MInstr{Op: aluOp(in.Op), Ra: a}
		if k, ok := in.Ops[1].(*ir.Const); ok {
			mi.UseImm, mi.Imm = true, k.I
		} else {
			mi.Rb = lw.getInt(in.Ops[1], machine.R1)
		}
		rd := lw.destInt(in, machine.R0)
		mi.Rd = rd
		lw.emit(mi)
		lw.finishInt(in, rd)
		return nil

	case in.Op.IsICmp():
		a := lw.getInt(in.Ops[0], machine.R0)
		mi := machine.MInstr{Op: machine.MSet, Cond: condOf(in.Op), Ra: a}
		if k, ok := in.Ops[1].(*ir.Const); ok {
			mi.UseImm, mi.Imm = true, k.I
		} else {
			mi.Rb = lw.getInt(in.Ops[1], machine.R1)
		}
		rd := lw.destInt(in, machine.R0)
		mi.Rd = rd
		lw.emit(mi)
		lw.finishInt(in, rd)
		return nil

	case in.Op.IsFloatBinary():
		a := lw.getFloat(in.Ops[0], 0)
		b := lw.getFloat(in.Ops[1], 1)
		fd := lw.destFloat(in, 0)
		lw.emit(machine.MInstr{Op: faluOp(in.Op), Fd: fd, Fa: a, Fb: b})
		lw.finishFloat(in, fd)
		return nil

	case in.Op.IsFCmp():
		a := lw.getFloat(in.Ops[0], 0)
		b := lw.getFloat(in.Ops[1], 1)
		rd := lw.destInt(in, machine.R0)
		lw.emit(machine.MInstr{Op: machine.MFSet, Cond: condOf(in.Op), Rd: rd, Fa: a, Fb: b})
		lw.finishInt(in, rd)
		return nil

	case in.Op == ir.OpIToF:
		a := lw.getInt(in.Ops[0], machine.R0)
		fd := lw.destFloat(in, 0)
		lw.emit(machine.MInstr{Op: machine.MCvtIF, Fd: fd, Ra: a})
		lw.finishFloat(in, fd)
		return nil

	case in.Op == ir.OpFToI:
		a := lw.getFloat(in.Ops[0], 0)
		rd := lw.destInt(in, machine.R0)
		lw.emit(machine.MInstr{Op: machine.MCvtFI, Rd: rd, Fa: a})
		lw.finishInt(in, rd)
		return nil

	case in.Op == ir.OpGEP:
		if foldOnlyGEP(lw.uses, in) {
			return nil // folded into each memory access
		}
		rd := lw.destInt(in, machine.R0)
		lw.emitAddr(in.Ops[0], in.Ops[1], in.Size, rd)
		lw.finishInt(in, rd)
		return nil

	case in.Op == ir.OpLoad:
		base, index, scale, disp := lw.memOperand(in.Ops[0])
		if in.Typ == ir.F64 {
			fd := lw.destFloat(in, 0)
			lw.emit(machine.MInstr{Op: machine.MFLoad, Fd: fd, Base: base, Index: index, Scale: scale, Disp: disp})
			lw.finishFloat(in, fd)
		} else {
			rd := lw.destInt(in, machine.R0)
			lw.emit(machine.MInstr{Op: machine.MLoad, Rd: rd, Base: base, Index: index, Scale: scale, Disp: disp})
			lw.finishInt(in, rd)
		}
		return nil

	case in.Op == ir.OpStore:
		if in.Ops[0].Type() == ir.F64 {
			v := lw.getFloat(in.Ops[0], 0)
			base, index, scale, disp := lw.memOperand(in.Ops[1])
			lw.emit(machine.MInstr{Op: machine.MFStore, Fa: v, Base: base, Index: index, Scale: scale, Disp: disp})
		} else {
			v := lw.getInt(in.Ops[0], machine.R0)
			base, index, scale, disp := lw.memOperand(in.Ops[1])
			lw.emit(machine.MInstr{Op: machine.MStore, Ra: v, Base: base, Index: index, Scale: scale, Disp: disp})
		}
		return nil

	case in.Op == ir.OpPhi:
		return nil // materialised by predecessor edge copies

	case in.Op == ir.OpBr:
		lw.phiCopies(in)
		fx := lw.emit(machine.MInstr{Op: machine.MJmp})
		lw.branchFix = append(lw.branchFix, struct {
			idx int
			blk *ir.Block
		}{fx, in.Blocks[0]})
		return nil

	case in.Op == ir.OpCondBr:
		lw.phiCopies(in)
		cond := lw.getInt(in.Ops[0], machine.R0)
		fx1 := lw.emit(machine.MInstr{Op: machine.MJnz, Ra: cond})
		lw.branchFix = append(lw.branchFix, struct {
			idx int
			blk *ir.Block
		}{fx1, in.Blocks[0]})
		fx2 := lw.emit(machine.MInstr{Op: machine.MJmp})
		lw.branchFix = append(lw.branchFix, struct {
			idx int
			blk *ir.Block
		}{fx2, in.Blocks[1]})
		return nil

	case in.Op == ir.OpRet:
		if len(in.Ops) == 1 {
			if in.Ops[0].Type() == ir.F64 {
				v := lw.getFloat(in.Ops[0], 0)
				if v != 0 {
					lw.emitHome(machine.MInstr{Op: machine.MFMov, Fd: 0, Fa: v})
				}
			} else {
				v := lw.getInt(in.Ops[0], machine.R0)
				if v != machine.R0 {
					lw.emitHome(machine.MInstr{Op: machine.MMov, Rd: machine.R0, Ra: v})
				}
			}
		}
		lw.epilogue()
		return nil

	case in.Op == ir.OpCall:
		return lw.lowerCall(in)
	}
	return fmt.Errorf("compiler: cannot lower %s", in.Op)
}

// emitAddr computes base + index*size into rd via MLea (multiplying the
// index first when the scale does not fit the addressing mode).
func (lw *lowering) emitAddr(baseV, idxV ir.Value, size int64, rd machine.Reg) {
	base := lw.getInt(baseV, machine.R1)
	if k, ok := idxV.(*ir.Const); ok {
		lw.emit(machine.MInstr{Op: machine.MLea, Rd: rd, Base: base, Index: machine.NoReg, Disp: k.I * size})
		return
	}
	idx := lw.getInt(idxV, machine.R2)
	if size <= 255 {
		lw.emit(machine.MInstr{Op: machine.MLea, Rd: rd, Base: base, Index: idx, Scale: uint8(size)})
		return
	}
	lw.emit(machine.MInstr{Op: machine.MMul, Rd: machine.R2, Ra: idx, UseImm: true, Imm: size})
	lw.emit(machine.MInstr{Op: machine.MLea, Rd: rd, Base: base, Index: machine.R2, Scale: 1})
}

// memOperand materialises the address registers for a load/store pointer
// and returns the machine memory operand, folding a fold-only GEP into
// base+index*scale+disp form.
func (lw *lowering) memOperand(ptr ir.Value) (base, index machine.Reg, scale uint8, disp int64) {
	if g, ok := ptr.(*ir.Instr); ok && g.Op == ir.OpGEP && foldOnlyGEP(lw.uses, g) {
		base = lw.getInt(g.Ops[0], machine.R1)
		if k, isK := g.Ops[1].(*ir.Const); isK {
			return base, machine.NoReg, 0, k.I * g.Size
		}
		idx := lw.getInt(g.Ops[1], machine.R2)
		if g.Size <= 255 {
			return base, idx, uint8(g.Size), 0
		}
		lw.emit(machine.MInstr{Op: machine.MMul, Rd: machine.R2, Ra: idx, UseImm: true, Imm: g.Size})
		return base, machine.R2, 1, 0
	}
	return lw.getInt(ptr, machine.R1), machine.NoReg, 0, 0
}

// lowerCall emits argument pushes, the call, stack cleanup, and result
// capture for direct and host calls.
func (lw *lowering) lowerCall(in *ir.Instr) error {
	for _, a := range in.Ops {
		if a.Type() == ir.F64 {
			v := lw.getFloat(a, 0)
			lw.emit(machine.MInstr{Op: machine.MFPush, Fa: v})
		} else {
			v := lw.getInt(a, machine.R0)
			lw.emit(machine.MInstr{Op: machine.MPush, Ra: v})
		}
	}
	n := int64(len(in.Ops))
	if in.Callee != nil {
		fx := lw.emit(machine.MInstr{Op: machine.MCall, Sym: in.Callee.Name})
		lw.c.callFix = append(lw.c.callFix, callFixup{idx: fx, name: in.Callee.Name})
		if n > 0 {
			lw.emitHome(machine.MInstr{Op: machine.MAdd, Rd: machine.SP, Ra: machine.SP, UseImm: true, Imm: 8 * n})
		}
		if in.Typ != ir.Void && len(lw.uses.Uses(in)) > 0 {
			if in.Typ == ir.F64 {
				lw.finishFloat(in, 0)
			} else {
				lw.finishInt(in, machine.R0)
			}
		}
		return nil
	}
	sig, ok := hostenv.Signatures[in.Host]
	if !ok {
		return fmt.Errorf("compiler: unknown host function %q", in.Host)
	}
	if sig.NArgs != len(in.Ops) {
		return fmt.Errorf("compiler: host %q wants %d args, got %d", in.Host, sig.NArgs, len(in.Ops))
	}
	lw.emit(machine.MInstr{Op: machine.MHost, Host: in.Host, HostArgs: len(in.Ops), HostFloatRet: sig.FloatRet})
	if n > 0 {
		lw.emitHome(machine.MInstr{Op: machine.MAdd, Rd: machine.SP, Ra: machine.SP, UseImm: true, Imm: 8 * n})
	}
	if in.Typ != ir.Void && len(lw.uses.Uses(in)) > 0 {
		if in.Typ == ir.F64 {
			lw.emitHome(machine.MInstr{Op: machine.MBitIF, Fd: 0, Ra: machine.R0})
			lw.finishFloat(in, 0)
		} else {
			lw.finishInt(in, machine.R0)
		}
	}
	return nil
}

// loc is a storage location key used by the parallel-copy resolver.
type locKey struct {
	kind homeKind
	n    int64
}

func (lw *lowering) valueLoc(v ir.Value) (locKey, bool) {
	switch x := v.(type) {
	case *ir.Arg:
		return locKey{hkArg, lw.argOff(x.Index)}, true
	case *ir.Instr:
		h := lw.alloc.homes[x]
		switch h.kind {
		case hkReg:
			return locKey{hkReg, int64(h.reg)}, true
		case hkFReg:
			return locKey{hkFReg, int64(h.freg)}, true
		case hkSlot:
			return locKey{hkSlot, lw.slot(x)}, true
		}
	}
	return locKey{}, false
}

type phiCopy struct {
	phi *ir.Instr // destination phi (its home is the copy target)
	src ir.Value  // nil when the value was moved to tempOff
	// tempOff holds a cycle-breaking frame temp when src is nil.
	tempOff int64
}

// phiCopies emits the parallel copies materialising the phis of every
// successor of the terminator term. All successor edges are resolved as
// one parallel-copy set, which is safe because phi homes are uniquely
// owned, and necessary because a successor's incoming value can be
// another successor's phi.
func (lw *lowering) phiCopies(term *ir.Instr) {
	from := term.Parent
	var copies []phiCopy
	for _, s := range term.Blocks {
		for _, p := range s.Instrs {
			if p.Op != ir.OpPhi {
				break
			}
			if _, homed := lw.alloc.homes[p]; !homed {
				continue // dead phi
			}
			for k, pb := range p.Blocks {
				if pb == from {
					copies = append(copies, phiCopy{phi: p, src: p.Ops[k]})
				}
			}
		}
	}
	lw.resolveCopies(copies)
}

func (lw *lowering) resolveCopies(pending []phiCopy) {
	dstLoc := func(c phiCopy) locKey {
		k, ok := lw.valueLoc(c.phi)
		if !ok {
			panic("compiler: phi without home in copy set")
		}
		return k
	}
	for len(pending) > 0 {
		progress := false
		for i := 0; i < len(pending); i++ {
			c := pending[i]
			dl := dstLoc(c)
			conflict := false
			for j := range pending {
				if j == i || pending[j].src == nil {
					continue
				}
				if sl, ok := lw.valueLoc(pending[j].src); ok && sl == dl {
					conflict = true
					break
				}
			}
			if conflict {
				continue
			}
			lw.emitCopy(c)
			pending = append(pending[:i], pending[i+1:]...)
			i--
			progress = true
		}
		if !progress {
			// Cycle: stash the first pending source in a frame temp.
			c := &pending[0]
			off := lw.reserve(8)
			if c.phi.Typ == ir.F64 {
				v := lw.getFloat(c.src, 0)
				lw.emitHome(machine.MInstr{Op: machine.MFStore, Base: machine.FP, Index: machine.NoReg, Disp: off, Fa: v})
			} else {
				v := lw.getInt(c.src, machine.R0)
				lw.emitHome(machine.MInstr{Op: machine.MStore, Base: machine.FP, Index: machine.NoReg, Disp: off, Ra: v})
			}
			c.src = nil
			c.tempOff = off
		}
	}
}

func (lw *lowering) emitCopy(c phiCopy) {
	h := lw.alloc.homes[c.phi]
	if c.phi.Typ == ir.F64 {
		var v machine.FReg
		if c.src == nil {
			lw.emitHome(machine.MInstr{Op: machine.MFLoad, Fd: 0, Base: machine.FP, Index: machine.NoReg, Disp: c.tempOff})
			v = 0
		} else {
			v = lw.getFloat(c.src, 0)
		}
		switch h.kind {
		case hkFReg:
			if h.freg != v {
				lw.emitHome(machine.MInstr{Op: machine.MFMov, Fd: h.freg, Fa: v})
			}
		case hkSlot:
			lw.emitHome(machine.MInstr{Op: machine.MFStore, Base: machine.FP, Index: machine.NoReg, Disp: lw.slot(c.phi), Fa: v})
		}
		return
	}
	var v machine.Reg
	if c.src == nil {
		lw.emitHome(machine.MInstr{Op: machine.MLoad, Rd: machine.R0, Base: machine.FP, Index: machine.NoReg, Disp: c.tempOff})
		v = machine.R0
	} else {
		v = lw.getInt(c.src, machine.R0)
	}
	switch h.kind {
	case hkReg:
		if h.reg != v {
			lw.emitHome(machine.MInstr{Op: machine.MMov, Rd: h.reg, Ra: v})
		}
	case hkSlot:
		lw.emitHome(machine.MInstr{Op: machine.MStore, Base: machine.FP, Index: machine.NoReg, Disp: lw.slot(c.phi), Ra: v})
	}
}

// emitVarDebug writes the location lists for every homed value of the
// function: the DW_AT_location analogue that lets Safeguard retrieve
// recovery-kernel parameters from the stalled process.
func (lw *lowering) emitVarDebug(start, end int) {
	dbg := lw.c.prog.Debug
	fn := lw.f.Name
	for v, h := range lw.alloc.homes {
		var name string
		switch x := v.(type) {
		case *ir.Arg:
			name = x.Name
		case *ir.Instr:
			name = x.Name
		default:
			continue
		}
		switch h.kind {
		case hkArg:
			dbg.AddVar(fn, name, debuginfo.LocEntry{
				Start: start, End: end, Kind: debuginfo.LocFPOff,
				Off: lw.argOff(v.(*ir.Arg).Index),
			})
		case hkSlot:
			off, ok := lw.slotOff[v]
			if !ok {
				continue // never materialised
			}
			dbg.AddVar(fn, name, debuginfo.LocEntry{
				Start: start, End: end, Kind: debuginfo.LocFPOff, Off: off,
			})
		case hkReg, hkFReg:
			ms, me := start, end
			if iv, ok := lw.alloc.intervals[v]; ok {
				if s, ok2 := lw.irStart[iv[0]]; ok2 {
					ms = s
				}
				if e, ok2 := lw.irStart[iv[1]+1]; ok2 {
					me = e
				}
			}
			entry := debuginfo.LocEntry{Start: ms, End: me}
			if h.kind == hkReg {
				entry.Kind, entry.Reg = debuginfo.LocReg, uint8(h.reg)
			} else {
				entry.Kind, entry.Reg = debuginfo.LocFReg, uint8(h.freg)
			}
			dbg.AddVar(fn, name, entry)
		}
	}
}
