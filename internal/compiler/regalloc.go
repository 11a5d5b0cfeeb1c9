package compiler

import (
	"sort"

	"care/internal/ir"
	"care/internal/machine"
)

// homeKind says where an IR value lives between uses.
type homeKind uint8

const (
	// hkNone: the value is rematerialised at each use (constants,
	// globals, allocas, fold-only GEPs) or never needed.
	hkNone homeKind = iota
	// hkSlot: a frame slot at FP-relative offset assigned by lowering.
	hkSlot
	// hkArg: the incoming argument slot at positive FP offset.
	hkArg
	// hkReg: a callee-saved integer register (O1).
	hkReg
	// hkFReg: a callee-saved float register (O1).
	hkFReg
)

// home is a value's assigned storage.
type home struct {
	kind homeKind
	reg  machine.Reg
	freg machine.FReg
}

// interval is a live range in IR instruction-ID space.
type interval struct {
	v          ir.Value
	start, end int
	isFloat    bool
}

// allocation is the per-function result of storage assignment.
type allocation struct {
	homes map[ir.Value]home
	// intervals records live ranges (used for O1 debug location ranges).
	intervals map[ir.Value][2]int
	// usedInt/usedFloat are the callee-saved registers the function
	// touches and must preserve.
	usedInt   []machine.Reg
	usedFloat []machine.FReg
}

// Allocatable register pools (R0-R3/F0-F3 are scratch; FP/SP reserved;
// R0/F0 double as return registers).
var (
	intPool   = []machine.Reg{machine.R4, machine.R5, machine.R6, machine.R7, machine.R8, machine.R9, machine.R10, machine.R11, machine.R12, machine.R13}
	floatPool = []machine.FReg{4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
)

// foldOnlyGEP reports whether every use of g is as the pointer operand
// of a load/store, in which case instruction selection folds it into the
// memory operands and it needs no home (the x86 "CISC merge" the paper
// discusses).
func foldOnlyGEP(du *ir.DefUse, g *ir.Instr) bool {
	if g.Op != ir.OpGEP {
		return false
	}
	uses := du.Uses(g)
	if len(uses) == 0 {
		return false // dead; needsHome will reject anyway
	}
	for _, u := range uses {
		p, ok := u.PointerOperand()
		if !ok || p != g {
			return false
		}
	}
	return true
}

// needsHome reports whether an instruction's result must be stored
// somewhere between definition and uses.
func needsHome(du *ir.DefUse, in *ir.Instr) bool {
	if in.Typ == ir.Void || in.Op == ir.OpAlloca {
		return false
	}
	if len(du.Uses(in)) == 0 {
		return false
	}
	return !foldOnlyGEP(du, in)
}

// allocateO0 assigns a frame slot to every value needing a home, the
// clang -O0 discipline.
func allocateO0(f *ir.Func, du *ir.DefUse) *allocation {
	a := &allocation{homes: map[ir.Value]home{}, intervals: map[ir.Value][2]int{}}
	for _, p := range f.Params {
		a.homes[p] = home{kind: hkArg}
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if needsHome(du, in) {
				a.homes[in] = home{kind: hkSlot}
			}
		}
	}
	return a
}

// buildIntervals computes conservative bounding-box live intervals in
// instruction-ID space. Phi incoming copies happen at predecessor block
// ends, so both the phi and its incoming values have their intervals
// extended to those positions; this is what lets phi homes be written
// there safely.
func buildIntervals(f *ir.Func, l *ir.Liveness) []interval {
	f.Renumber()
	blockStart := map[*ir.Block]int{}
	blockEnd := map[*ir.Block]int{}
	for _, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			continue
		}
		blockStart[b] = b.Instrs[0].ID
		blockEnd[b] = b.Instrs[len(b.Instrs)-1].ID
	}
	iv := map[ir.Value]*interval{}
	extend := func(v ir.Value, p int) {
		switch v.(type) {
		case *ir.Instr, *ir.Arg:
		default:
			return
		}
		e, ok := iv[v]
		if !ok {
			e = &interval{v: v, start: p, end: p, isFloat: v.Type() == ir.F64}
			iv[v] = e
			return
		}
		if p < e.start {
			e.start = p
		}
		if p > e.end {
			e.end = p
		}
	}
	// extendUse records a use of v at position p. GEPs are folded into
	// the memory operands of their users, so instruction selection
	// re-reads a GEP's operands at every use site of the GEP — their
	// intervals must reach those sites too (recursively, for chained
	// GEPs).
	var extendUse func(v ir.Value, p int)
	extendUse = func(v ir.Value, p int) {
		extend(v, p)
		if g, ok := v.(*ir.Instr); ok && g.Op == ir.OpGEP {
			for _, op := range g.Ops {
				extendUse(op, p)
			}
		}
	}
	for _, b := range f.Blocks {
		for v := range l.LiveIn(b) {
			extend(v, blockStart[b])
		}
		for v := range l.LiveOut(b) {
			extendUse(v, blockEnd[b])
		}
		for _, in := range b.Instrs {
			if in.Typ != ir.Void {
				extend(in, in.ID)
			}
			if in.Op == ir.OpPhi {
				for oi, v := range in.Ops {
					p := in.Blocks[oi]
					extend(in, blockEnd[p])
					extendUse(v, blockEnd[p])
				}
				continue
			}
			for _, v := range in.Ops {
				extendUse(v, in.ID)
			}
		}
	}
	// Args are defined at function entry.
	for _, p := range f.Params {
		if e, ok := iv[p]; ok {
			e.start = 0
		}
	}
	out := make([]interval, 0, len(iv))
	for _, e := range iv {
		out = append(out, *e)
	}
	name := func(v ir.Value) string {
		switch x := v.(type) {
		case *ir.Instr:
			return x.Name
		case *ir.Arg:
			return x.Name
		}
		return ""
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].start != out[j].start {
			return out[i].start < out[j].start
		}
		if out[i].end != out[j].end {
			return out[i].end > out[j].end
		}
		return name(out[i].v) < name(out[j].v) // stable across builds
	})
	return out
}

// allocateO1 runs linear-scan register allocation. Arguments keep their
// incoming stack slots (they are reloaded at each use); instruction
// results compete for the callee-saved pools and spill to frame slots.
func allocateO1(f *ir.Func, l *ir.Liveness) *allocation {
	a := &allocation{homes: map[ir.Value]home{}, intervals: map[ir.Value][2]int{}}
	for _, p := range f.Params {
		a.homes[p] = home{kind: hkArg}
	}
	eligible := map[ir.Value]bool{}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if needsHome(l.DefUse, in) {
				eligible[in] = true
				a.homes[in] = home{kind: hkSlot} // default: spilled
			}
		}
	}
	ivs := buildIntervals(f, l)
	type active struct {
		end  int
		v    ir.Value
		reg  machine.Reg
		freg machine.FReg
	}
	var actInt, actFloat []active
	freeInt := append([]machine.Reg(nil), intPool...)
	freeFloat := append([]machine.FReg(nil), floatPool...)
	usedInt := map[machine.Reg]bool{}
	usedFloat := map[machine.FReg]bool{}

	expire := func(pos int) {
		out := actInt[:0]
		for _, x := range actInt {
			if x.end < pos {
				freeInt = append(freeInt, x.reg)
			} else {
				out = append(out, x)
			}
		}
		actInt = out
		outF := actFloat[:0]
		for _, x := range actFloat {
			if x.end < pos {
				freeFloat = append(freeFloat, x.freg)
			} else {
				outF = append(outF, x)
			}
		}
		actFloat = outF
	}

	for _, e := range ivs {
		if !eligible[e.v] {
			continue
		}
		a.intervals[e.v] = [2]int{e.start, e.end}
		expire(e.start)
		if e.isFloat {
			if len(freeFloat) > 0 {
				r := freeFloat[len(freeFloat)-1]
				freeFloat = freeFloat[:len(freeFloat)-1]
				a.homes[e.v] = home{kind: hkFReg, freg: r}
				usedFloat[r] = true
				actFloat = append(actFloat, active{end: e.end, v: e.v, freg: r})
				continue
			}
			// Spill the active interval with the furthest end if it
			// outlives the current one.
			far := -1
			for i, x := range actFloat {
				if far == -1 || x.end > actFloat[far].end {
					far = i
				}
			}
			if far >= 0 && actFloat[far].end > e.end {
				victim := actFloat[far]
				a.homes[victim.v] = home{kind: hkSlot}
				a.homes[e.v] = home{kind: hkFReg, freg: victim.freg}
				actFloat[far] = active{end: e.end, v: e.v, freg: victim.freg}
			}
			continue
		}
		if len(freeInt) > 0 {
			r := freeInt[len(freeInt)-1]
			freeInt = freeInt[:len(freeInt)-1]
			a.homes[e.v] = home{kind: hkReg, reg: r}
			usedInt[r] = true
			actInt = append(actInt, active{end: e.end, v: e.v, reg: r})
			continue
		}
		far := -1
		for i, x := range actInt {
			if far == -1 || x.end > actInt[far].end {
				far = i
			}
		}
		if far >= 0 && actInt[far].end > e.end {
			victim := actInt[far]
			a.homes[victim.v] = home{kind: hkSlot}
			a.homes[e.v] = home{kind: hkReg, reg: victim.reg}
			actInt[far] = active{end: e.end, v: e.v, reg: victim.reg}
		}
	}
	for _, r := range intPool {
		if usedInt[r] {
			a.usedInt = append(a.usedInt, r)
		}
	}
	for _, r := range floatPool {
		if usedFloat[r] {
			a.usedFloat = append(a.usedFloat, r)
		}
	}
	return a
}
