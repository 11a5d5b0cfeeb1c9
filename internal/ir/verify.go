package ir

import "fmt"

// VerifyModule checks structural well-formedness of every function in the
// module and returns the first problem found.
func VerifyModule(m *Module) error {
	seen := map[string]bool{}
	for _, f := range m.Funcs {
		if seen[f.Name] {
			return fmt.Errorf("ir: duplicate function %q", f.Name)
		}
		seen[f.Name] = true
		if len(f.Blocks) == 0 {
			continue // extern declaration, resolved at link time
		}
		if err := VerifyFunc(f); err != nil {
			return fmt.Errorf("ir: %s: %w", f.Name, err)
		}
	}
	return nil
}

// VerifyFunc checks a single function: block termination, operand
// arities and types, phi placement/consistency, and SSA dominance
// (every use is dominated by its definition).
func VerifyFunc(f *Func) error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("function has no blocks")
	}
	f.Renumber()
	blockSet := map[*Block]bool{}
	for _, b := range f.Blocks {
		blockSet[b] = true
	}
	preds := f.Preds()
	names := map[string]bool{}
	for _, b := range f.Blocks {
		if b.Terminator() == nil {
			return fmt.Errorf("block %s is not terminated", b.Name)
		}
		for ii, in := range b.Instrs {
			if in.Op.IsTerminator() && ii != len(b.Instrs)-1 {
				return fmt.Errorf("block %s: terminator %s not at end", b.Name, in.Op)
			}
			if in.Op == OpPhi {
				if prevNonPhi(b, ii) {
					return fmt.Errorf("block %s: phi %%%s after non-phi", b.Name, in.Name)
				}
			}
			if in.Typ != Void {
				if in.Name == "" {
					return fmt.Errorf("unnamed value-producing %s in %s", in.Op, b.Name)
				}
				if names[in.Name] {
					return fmt.Errorf("duplicate SSA name %%%s", in.Name)
				}
				names[in.Name] = true
			}
			if err := verifyInstr(f, b, in, blockSet, preds[b]); err != nil {
				return err
			}
		}
	}
	return verifyDominance(f)
}

func prevNonPhi(b *Block, ii int) bool {
	for i := 0; i < ii; i++ {
		if b.Instrs[i].Op != OpPhi {
			return true
		}
	}
	return false
}

// verifyInstr checks one instruction of block b, whose predecessors are
// preds.
func verifyInstr(f *Func, b *Block, in *Instr, blocks map[*Block]bool, preds []*Block) error {
	ctx := func(format string, args ...any) error {
		return fmt.Errorf("%s: %s: %s", b.Name, in.Op, fmt.Sprintf(format, args...))
	}
	wantOps := func(n int) error {
		if len(in.Ops) != n {
			return ctx("want %d operands, have %d", n, len(in.Ops))
		}
		return nil
	}
	intLike := func(t Type) bool { return t == I64 || t == Ptr }
	switch {
	case in.Op.IsIntBinary():
		if err := wantOps(2); err != nil {
			return err
		}
		for _, o := range in.Ops {
			if !intLike(o.Type()) {
				return ctx("integer op with %s operand", o.Type())
			}
		}
	case in.Op.IsFloatBinary():
		if err := wantOps(2); err != nil {
			return err
		}
		for _, o := range in.Ops {
			if o.Type() != F64 {
				return ctx("float op with %s operand", o.Type())
			}
		}
		if in.Typ != F64 {
			return ctx("float op with %s result", in.Typ)
		}
	case in.Op.IsICmp():
		if err := wantOps(2); err != nil {
			return err
		}
		for _, o := range in.Ops {
			if !intLike(o.Type()) {
				return ctx("icmp with %s operand", o.Type())
			}
		}
	case in.Op.IsFCmp():
		if err := wantOps(2); err != nil {
			return err
		}
		for _, o := range in.Ops {
			if o.Type() != F64 {
				return ctx("fcmp with %s operand", o.Type())
			}
		}
	case in.Op == OpIToF:
		if err := wantOps(1); err != nil {
			return err
		}
		if !intLike(in.Ops[0].Type()) {
			return ctx("itof of %s", in.Ops[0].Type())
		}
	case in.Op == OpFToI:
		if err := wantOps(1); err != nil {
			return err
		}
		if in.Ops[0].Type() != F64 {
			return ctx("ftoi of %s", in.Ops[0].Type())
		}
	case in.Op == OpAlloca:
		if in.Size <= 0 || in.Size%8 != 0 {
			return ctx("bad alloca size %d", in.Size)
		}
	case in.Op == OpGEP:
		if err := wantOps(2); err != nil {
			return err
		}
		if in.Ops[0].Type() != Ptr {
			return ctx("gep base is %s, not ptr", in.Ops[0].Type())
		}
		if !intLike(in.Ops[1].Type()) {
			return ctx("gep index is %s", in.Ops[1].Type())
		}
		if in.Size <= 0 {
			return ctx("gep elem size %d", in.Size)
		}
	case in.Op == OpLoad:
		if err := wantOps(1); err != nil {
			return err
		}
		if in.Ops[0].Type() != Ptr {
			return ctx("load of non-ptr %s", in.Ops[0].Type())
		}
	case in.Op == OpStore:
		if err := wantOps(2); err != nil {
			return err
		}
		if in.Ops[1].Type() != Ptr {
			return ctx("store to non-ptr %s", in.Ops[1].Type())
		}
	case in.Op == OpPhi:
		if len(in.Ops) == 0 || len(in.Ops) != len(in.Blocks) {
			return ctx("phi incoming mismatch: %d values, %d blocks", len(in.Ops), len(in.Blocks))
		}
		if len(preds) != len(in.Blocks) {
			return ctx("phi has %d incomings for %d predecessors", len(in.Blocks), len(preds))
		}
		for _, pb := range in.Blocks {
			if !containsBlock(preds, pb) {
				return ctx("phi incoming from non-predecessor %s", pb.Name)
			}
		}
	case in.Op == OpBr:
		if len(in.Blocks) != 1 || !blocks[in.Blocks[0]] {
			return ctx("bad branch target")
		}
	case in.Op == OpCondBr:
		if err := wantOps(1); err != nil {
			return err
		}
		if len(in.Blocks) != 2 || !blocks[in.Blocks[0]] || !blocks[in.Blocks[1]] {
			return ctx("bad condbr targets")
		}
	case in.Op == OpRet:
		if f.RetType == Void && len(in.Ops) != 0 {
			return ctx("ret with value in void function")
		}
		if f.RetType != Void && len(in.Ops) != 1 {
			return ctx("ret without value in non-void function")
		}
	case in.Op == OpCall:
		if in.Callee == nil && in.Host == "" {
			return ctx("call without target")
		}
		if in.Callee != nil {
			if len(in.Ops) != len(in.Callee.Params) {
				return ctx("call to %s with %d args, want %d", in.Callee.Name, len(in.Ops), len(in.Callee.Params))
			}
			for ai, a := range in.Ops {
				if a.Type() != in.Callee.Params[ai].Typ && !(a.Type() == Ptr && in.Callee.Params[ai].Typ == I64) &&
					!(a.Type() == I64 && in.Callee.Params[ai].Typ == Ptr) {
					return ctx("call arg %d is %s, want %s", ai, a.Type(), in.Callee.Params[ai].Typ)
				}
			}
		}
	default:
		return ctx("unknown opcode")
	}
	return nil
}

func containsBlock(bs []*Block, b *Block) bool {
	for _, x := range bs {
		if x == b {
			return true
		}
	}
	return false
}

// verifyDominance checks that every instruction operand that is itself an
// instruction dominates its use (phi uses are checked at the incoming
// edge's predecessor terminator).
func verifyDominance(f *Func) error {
	dom := Dominators(f)
	for _, b := range f.Blocks {
		for ii, in := range b.Instrs {
			for oi, op := range in.Ops {
				def, ok := op.(*Instr)
				if !ok {
					continue
				}
				if def.Parent == nil || def.Parent.Fn != f {
					return fmt.Errorf("%s: %%%s uses value %s from another function", b.Name, in.Name, def.Ref())
				}
				var useBlock *Block
				var usePos int
				if in.Op == OpPhi {
					useBlock = in.Blocks[oi]
					usePos = len(useBlock.Instrs) // end of predecessor
				} else {
					useBlock = b
					usePos = ii
				}
				if !dominatesPos(dom, def, useBlock, usePos) {
					return fmt.Errorf("%s: use of %%%s in %%%s(%s) not dominated by def",
						b.Name, def.Name, in.Name, in.Op)
				}
			}
		}
	}
	return nil
}

func dominatesPos(dom map[*Block]*Block, def *Instr, useBlock *Block, usePos int) bool {
	if def.Parent == useBlock {
		for i := 0; i < usePos; i++ {
			if useBlock.Instrs[i] == def {
				return true
			}
		}
		return false
	}
	// Walk the dominator tree upward from useBlock.
	for b := dom[useBlock]; b != nil; {
		if b == def.Parent {
			return true
		}
		nb := dom[b]
		if nb == b {
			break
		}
		b = nb
	}
	return false
}

// Dominators computes the immediate-dominator map using the simple
// iterative algorithm (Cooper/Harvey/Kennedy). The entry block maps to
// itself. Unreachable blocks are absent from the result.
func Dominators(f *Func) map[*Block]*Block {
	f.Renumber()
	// Reverse postorder over reachable blocks.
	var rpo []*Block
	state := map[*Block]int{}
	var dfs func(b *Block)
	dfs = func(b *Block) {
		state[b] = 1
		for _, s := range b.Succs() {
			if state[s] == 0 {
				dfs(s)
			}
		}
		rpo = append(rpo, b)
	}
	entry := f.Entry()
	if entry == nil {
		return nil
	}
	dfs(entry)
	for i, j := 0, len(rpo)-1; i < j; i, j = i+1, j-1 {
		rpo[i], rpo[j] = rpo[j], rpo[i]
	}
	order := map[*Block]int{}
	for i, b := range rpo {
		order[b] = i
	}
	idom := map[*Block]*Block{entry: entry}
	preds := f.Preds()
	intersect := func(a, b *Block) *Block {
		for a != b {
			for order[a] > order[b] {
				a = idom[a]
			}
			for order[b] > order[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == entry {
				continue
			}
			var newIdom *Block
			for _, p := range preds[b] {
				if _, ok := idom[p]; !ok {
					continue
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom == nil {
				continue
			}
			if idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return idom
}
