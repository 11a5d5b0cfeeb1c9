// Package taint implements the fault-propagation tracker behind the
// paper's §2 methodology: "The fault is injected ... then execution is
// continued, tracking fault propagation by recording its execution
// path. The trace of instructions that propagate the fault is then
// analyzed."
//
// A Tracker shadows every integer register, float register and memory
// word with a taint bit. Marking the injected destination taints the
// seed; thereafter, each executed instruction propagates taint from its
// sources to its destination (and clears the destination when all
// sources are clean — overwrites scrub). The tracker records the
// propagation trace: which static instructions touched tainted data, in
// order, with dynamic timestamps.
package taint

import "care/internal/machine"

// Event is one tainted-instruction occurrence.
type Event struct {
	// Dyn is the dynamic instruction count at which it retired.
	Dyn uint64
	// Image and Idx identify the static instruction.
	Image string
	Idx   int
	// Op is the instruction's opcode.
	Op machine.MOp
}

// Tracker shadows a CPU's architectural state with taint bits.
type Tracker struct {
	regs  [machine.NumReg]bool
	fregs [machine.NumFReg]bool
	mem   map[machine.Word]bool

	// Trace records instructions that read or wrote tainted state (cap
	// applied to bound memory).
	Trace []Event
	// MaxTrace bounds the trace (0 = 4096).
	MaxTrace int
	// TaintedWrites counts tainted destination writes.
	TaintedWrites int

	cpu *machine.CPU
}

// Attach installs the tracker on the CPU via the BeforeStep hook (it
// must see operand registers before the instruction overwrites them).
// Any existing BeforeStep hook is chained after the tracker.
func Attach(c *machine.CPU) *Tracker {
	t := &Tracker{mem: map[machine.Word]bool{}, cpu: c}
	prev := c.BeforeStep
	c.BeforeStep = func(cc *machine.CPU, img *machine.Image, idx int, in *machine.MInstr) {
		t.step(cc, img, idx, in)
		if prev != nil {
			prev(cc, img, idx, in)
		}
	}
	return t
}

// MarkReg seeds taint on an integer register.
func (t *Tracker) MarkReg(r machine.Reg) { t.regs[r] = true }

// MarkFReg seeds taint on a float register.
func (t *Tracker) MarkFReg(f machine.FReg) { t.fregs[f] = true }

// MarkMem seeds taint on a memory word.
func (t *Tracker) MarkMem(addr machine.Word) { t.mem[addr&^7] = true }

// MarkDest seeds taint on the destination of the just-executed
// instruction (matching the injector's corruption point).
func (t *Tracker) MarkDest(c *machine.CPU, in *machine.MInstr) {
	kind, ok := in.HasDest()
	if !ok {
		return
	}
	switch kind {
	case machine.DestIntReg:
		rd := in.Rd
		if in.Op == machine.MHost {
			rd = machine.R0
		}
		t.MarkReg(rd)
	case machine.DestFloatReg:
		t.MarkFReg(in.Fd)
	case machine.DestMemory:
		switch in.Op {
		case machine.MStore, machine.MFStore:
			t.MarkMem(in.EffectiveAddr(&c.R))
		case machine.MPush, machine.MFPush:
			t.MarkMem(c.R[machine.SP])
		}
	}
}

// AnyTaint reports whether any architectural state is currently tainted.
func (t *Tracker) AnyTaint() bool {
	for _, v := range t.regs {
		if v {
			return true
		}
	}
	for _, v := range t.fregs {
		if v {
			return true
		}
	}
	return len(t.mem) > 0
}

// TaintedMemWords reports how many memory words are tainted.
func (t *Tracker) TaintedMemWords() int { return len(t.mem) }

func (t *Tracker) record(c *machine.CPU, img *machine.Image, idx int, in *machine.MInstr) {
	max := t.MaxTrace
	if max == 0 {
		max = 4096
	}
	if len(t.Trace) < max {
		t.Trace = append(t.Trace, Event{Dyn: c.Dyn, Image: img.Prog.Name, Idx: idx, Op: in.Op})
	}
}

// step applies the propagation rule for one instruction: the
// destination's taint becomes the OR of the source taints; clean
// overwrites scrub stale taint.
func (t *Tracker) step(c *machine.CPU, img *machine.Image, idx int, in *machine.MInstr) {
	src2 := func() bool {
		if in.UseImm {
			return false
		}
		return t.regs[in.Rb]
	}
	memTaint := func() bool {
		return t.mem[in.EffectiveAddr(&c.R)&^7] ||
			// A tainted base/index register makes the *loaded value*
			// suspect too (it came from the wrong place).
			t.regs[in.Base] || (in.Index != machine.NoReg && t.regs[in.Index])
	}
	setReg := func(r machine.Reg, v bool) {
		t.regs[r] = v
		if v {
			t.TaintedWrites++
			t.record(c, img, idx, in)
		}
	}
	setFReg := func(r machine.FReg, v bool) {
		t.fregs[r] = v
		if v {
			t.TaintedWrites++
			t.record(c, img, idx, in)
		}
	}
	setMem := func(a machine.Word, v bool) {
		if v {
			t.mem[a&^7] = true
			t.TaintedWrites++
			t.record(c, img, idx, in)
		} else {
			delete(t.mem, a&^7)
		}
	}

	switch in.Op {
	case machine.MMovImm:
		setReg(in.Rd, false)
	case machine.MMov:
		setReg(in.Rd, t.regs[in.Ra])
	case machine.MAdd, machine.MSub, machine.MMul, machine.MDiv, machine.MRem,
		machine.MAnd, machine.MOr, machine.MXor, machine.MShl, machine.MShr:
		setReg(in.Rd, t.regs[in.Ra] || src2())
	case machine.MFMovImm:
		setFReg(in.Fd, false)
	case machine.MFMov:
		setFReg(in.Fd, t.fregs[in.Fa])
	case machine.MFAdd, machine.MFSub, machine.MFMul, machine.MFDiv:
		setFReg(in.Fd, t.fregs[in.Fa] || t.fregs[in.Fb])
	case machine.MCvtIF, machine.MBitIF:
		setFReg(in.Fd, t.regs[in.Ra])
	case machine.MCvtFI, machine.MBitFI:
		setReg(in.Rd, t.fregs[in.Fa])
	case machine.MSet:
		setReg(in.Rd, t.regs[in.Ra] || src2())
	case machine.MFSet:
		setReg(in.Rd, t.fregs[in.Fa] || t.fregs[in.Fb])
	case machine.MLea:
		setReg(in.Rd, t.regs[in.Base] || (in.Index != machine.NoReg && t.regs[in.Index]))
	case machine.MLoad:
		setReg(in.Rd, memTaint())
	case machine.MFLoad:
		setFReg(in.Fd, memTaint())
	case machine.MStore:
		setMem(in.EffectiveAddr(&c.R), t.regs[in.Ra])
	case machine.MFStore:
		setMem(in.EffectiveAddr(&c.R), t.fregs[in.Fa])
	case machine.MPush:
		setMem(c.R[machine.SP]-8, t.regs[in.Ra])
	case machine.MFPush:
		setMem(c.R[machine.SP]-8, t.fregs[in.Fa])
	case machine.MPop:
		setReg(in.Rd, t.mem[c.R[machine.SP]&^7])
		delete(t.mem, c.R[machine.SP]&^7)
	case machine.MFPop:
		setFReg(in.Fd, t.mem[c.R[machine.SP]&^7])
		delete(t.mem, c.R[machine.SP]&^7)
	case machine.MJnz, machine.MJz:
		// Control-flow taint (a tainted branch condition) is recorded
		// but not propagated into state (explicit-flow tracking, as in
		// the paper's trace analysis).
		if t.regs[in.Ra] {
			t.record(c, img, idx, in)
		}
	case machine.MHost:
		// Host results are derived from stack arguments.
		n := in.HostArgs
		tainted := false
		for i := 0; i < n; i++ {
			if t.mem[(c.R[machine.SP]+machine.Word(8*(n-1-i)))&^7] {
				tainted = true
			}
		}
		setReg(machine.R0, tainted)
	}
}
