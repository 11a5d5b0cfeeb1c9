package ir

// DefUse holds the use lists of one function's instructions and
// arguments: what O0 lowering reads to decide which values need a home.
// It is the cheap half of liveness; the live-in/live-out fixpoint is
// Liveness's.
type DefUse struct {
	Fn        *Func
	instrUses [][]*Instr // by Instr.ID
	argUses   [][]*Instr // by Arg.Index
}

// ComputeDefUse renumbers f and collects every instruction's and
// argument's users (phi users included).
func ComputeDefUse(f *Func) *DefUse {
	f.Renumber()
	du := &DefUse{Fn: f, instrUses: make([][]*Instr, f.NumInstrs()), argUses: make([][]*Instr, len(f.Params))}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, op := range in.Ops {
				if l := du.list(op); l != nil {
					*l = append(*l, in)
				}
			}
		}
	}
	return du
}

// list returns the use list of v, or nil for a value DefUse does not
// track (constants, globals, values of another function).
func (du *DefUse) list(v Value) *[]*Instr {
	switch x := v.(type) {
	case *Instr:
		if x.Parent != nil && x.Parent.Fn == du.Fn && x.ID < len(du.instrUses) {
			return &du.instrUses[x.ID]
		}
	case *Arg:
		if x.Index < len(du.argUses) && du.Fn.Params[x.Index] == x {
			return &du.argUses[x.Index]
		}
	}
	return nil
}

// Uses returns the instructions that use v (phi users included).
func (du *DefUse) Uses(v Value) []*Instr {
	if l := du.list(v); l != nil {
		return *l
	}
	return nil
}

// HasNonLocalUse reports whether v has a use outside its defining block
// (phi uses count as non-local, since they occur on an edge). Arguments
// with any use in a non-entry block are non-local. The paper relies on
// this property to guarantee that machine-dependent lowering does not
// fold the value away, keeping it retrievable for recovery.
func (du *DefUse) HasNonLocalUse(v Value) bool {
	var home *Block
	switch d := v.(type) {
	case *Instr:
		home = d.Parent
	case *Arg:
		home = du.Fn.Entry()
	default:
		return false
	}
	for _, u := range du.Uses(v) {
		if u.Op == OpPhi || u.Parent != home {
			return true
		}
	}
	return false
}

// Liveness holds the result of an SSA liveness analysis over one
// function. Armor consults it to decide which values are guaranteed to
// still be materialised (in a register or stack slot) at a memory-access
// instruction, and therefore eligible as recovery-kernel parameters;
// O1's interval builder reads its block sets.
type Liveness struct {
	*DefUse
	liveOut map[*Block]map[Value]bool
	liveIn  map[*Block]map[Value]bool
}

// ComputeLiveness collects the use lists and runs the backward dataflow
// fixpoint. The function must verify (or at least be renumbered and in
// SSA form).
func ComputeLiveness(f *Func) *Liveness {
	l := &Liveness{
		DefUse:  ComputeDefUse(f),
		liveOut: map[*Block]map[Value]bool{},
		liveIn:  map[*Block]map[Value]bool{},
	}
	trackable := func(v Value) bool {
		switch v.(type) {
		case *Instr, *Arg:
			return true
		}
		return false
	}
	// Per-block upward-exposed uses and defs; phi operands are uses on
	// the incoming edge (live-out of the predecessor, not live-in here).
	use := map[*Block]map[Value]bool{}
	def := map[*Block]map[Value]bool{}
	phiUse := map[*Block]map[Value]bool{} // keyed by predecessor
	for _, b := range f.Blocks {
		use[b] = map[Value]bool{}
		def[b] = map[Value]bool{}
		l.liveOut[b] = map[Value]bool{}
		l.liveIn[b] = map[Value]bool{}
		if phiUse[b] == nil {
			phiUse[b] = map[Value]bool{}
		}
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for oi, op := range in.Ops {
				if !trackable(op) {
					continue
				}
				if in.Op == OpPhi {
					p := in.Blocks[oi]
					if phiUse[p] == nil {
						phiUse[p] = map[Value]bool{}
					}
					phiUse[p][op] = true
					continue
				}
				if d, ok := op.(*Instr); !ok || d.Parent != b {
					use[b][op] = true
				}
			}
			if in.Typ != Void {
				def[b][in] = true
			}
		}
	}
	// Fixpoint.
	for changed := true; changed; {
		changed = false
		for bi := len(f.Blocks) - 1; bi >= 0; bi-- {
			b := f.Blocks[bi]
			out := l.liveOut[b]
			n0 := len(out)
			for v := range phiUse[b] {
				out[v] = true
			}
			for _, s := range b.Succs() {
				for v := range l.liveIn[s] {
					out[v] = true
				}
			}
			in := l.liveIn[b]
			n1 := len(in)
			for v := range use[b] {
				in[v] = true
			}
			for v := range out {
				if !def[b][v] {
					in[v] = true
				}
			}
			if len(out) != n0 || len(in) != n1 {
				changed = true
			}
		}
	}
	return l
}

// LiveAt reports whether value v is live immediately at instruction at
// (i.e. v is defined by then and is used by at or by some later
// instruction along at least one path). Constants and globals are always
// "live" in the sense of availability, but LiveAt only answers for
// instructions and arguments; other values return false.
func (l *Liveness) LiveAt(v Value, at *Instr) bool {
	switch v.(type) {
	case *Instr, *Arg:
	default:
		return false
	}
	b := at.Parent
	if b == nil || b.Fn != l.Fn || len(b.Instrs) == 0 {
		return false
	}
	// Renumber gave the block consecutive IDs, so at sits at index p.
	p := at.ID - b.Instrs[0].ID
	if p < 0 || p >= len(b.Instrs) || b.Instrs[p] != at {
		return false
	}
	if d, isInstr := v.(*Instr); isInstr {
		if d.Parent == nil || d.Parent.Fn != l.Fn {
			return false
		}
		if d.Parent == b && d.ID >= at.ID {
			return false // not yet defined at this point
		}
	}
	// A (non-phi) use at position >= p within the block keeps v live.
	for i := p; i < len(b.Instrs); i++ {
		in := b.Instrs[i]
		if in.Op == OpPhi {
			continue
		}
		for _, op := range in.Ops {
			if op == v {
				return true
			}
		}
	}
	return l.liveOut[b][v]
}

// LiveOut exposes the live-out set of a block (read-only use intended).
func (l *Liveness) LiveOut(b *Block) map[Value]bool { return l.liveOut[b] }

// LiveIn exposes the live-in set of a block (read-only use intended).
func (l *Liveness) LiveIn(b *Block) map[Value]bool { return l.liveIn[b] }
