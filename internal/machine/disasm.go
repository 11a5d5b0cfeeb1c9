package machine

import (
	"fmt"
	"strings"
)

// MemOperand describes the memory operand of a load/store as the
// disassembler (the capstone stand-in) reports it to Safeguard.
type MemOperand struct {
	Base  Reg
	Index Reg // NoReg when absent
	Scale uint8
	Disp  int64
	// IsStore distinguishes the write side.
	IsStore bool
	// IsFloat marks float loads/stores.
	IsFloat bool
}

// DecodeMemOperand inspects an instruction and, if it dereferences
// memory, returns its memory operand.
func DecodeMemOperand(in *MInstr) (MemOperand, bool) {
	if !in.Op.IsMemAccess() {
		return MemOperand{}, false
	}
	return MemOperand{
		Base:    in.Base,
		Index:   in.Index,
		Scale:   in.Scale,
		Disp:    in.Disp,
		IsStore: in.Op == MStore || in.Op == MFStore,
		IsFloat: in.Op == MFLoad || in.Op == MFStore,
	}, true
}

// Disassemble renders assembler text for one instruction.
func Disassemble(in *MInstr) string {
	mem := func() string {
		var sb strings.Builder
		sb.WriteString("[")
		sb.WriteString(in.Base.String())
		if in.Index != NoReg {
			fmt.Fprintf(&sb, "+%s*%d", in.Index, in.Scale)
		}
		if in.Disp != 0 {
			fmt.Fprintf(&sb, "%+d", in.Disp)
		}
		sb.WriteString("]")
		return sb.String()
	}
	src2 := func() string {
		if in.UseImm {
			return fmt.Sprintf("%d", in.Imm)
		}
		return in.Rb.String()
	}
	switch in.Op {
	case MNop:
		return "nop"
	case MMovImm:
		return fmt.Sprintf("movi %s, %d", in.Rd, in.Imm)
	case MMov:
		return fmt.Sprintf("mov %s, %s", in.Rd, in.Ra)
	case MAdd, MSub, MMul, MDiv, MRem, MAnd, MOr, MXor, MShl, MShr:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Rd, in.Ra, src2())
	case MFMovImm:
		return fmt.Sprintf("fmovi %s, bits(0x%x)", in.Fd, uint64(in.Imm))
	case MFMov:
		return fmt.Sprintf("fmov %s, %s", in.Fd, in.Fa)
	case MFAdd, MFSub, MFMul, MFDiv:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Fd, in.Fa, in.Fb)
	case MCvtIF:
		return fmt.Sprintf("cvtif %s, %s", in.Fd, in.Ra)
	case MCvtFI:
		return fmt.Sprintf("cvtfi %s, %s", in.Rd, in.Fa)
	case MBitIF:
		return fmt.Sprintf("bitif %s, %s", in.Fd, in.Ra)
	case MBitFI:
		return fmt.Sprintf("bitfi %s, %s", in.Rd, in.Fa)
	case MSet:
		return fmt.Sprintf("set.%s %s, %s, %s", in.Cond, in.Rd, in.Ra, src2())
	case MFSet:
		return fmt.Sprintf("fset.%s %s, %s, %s", in.Cond, in.Rd, in.Fa, in.Fb)
	case MLea:
		return fmt.Sprintf("lea %s, %s", in.Rd, mem())
	case MLoad:
		return fmt.Sprintf("load %s, %s", in.Rd, mem())
	case MFLoad:
		return fmt.Sprintf("fload %s, %s", in.Fd, mem())
	case MStore:
		return fmt.Sprintf("store %s, %s", mem(), in.Ra)
	case MFStore:
		return fmt.Sprintf("fstore %s, %s", mem(), in.Fa)
	case MJmp:
		return fmt.Sprintf("jmp 0x%x", in.Target)
	case MJnz:
		return fmt.Sprintf("jnz %s, 0x%x", in.Ra, in.Target)
	case MJz:
		return fmt.Sprintf("jz %s, 0x%x", in.Ra, in.Target)
	case MCall:
		return fmt.Sprintf("call 0x%x <%s>", in.Target, in.Sym)
	case MRet:
		return "ret"
	case MPush:
		return fmt.Sprintf("push %s", in.Ra)
	case MPop:
		return fmt.Sprintf("pop %s", in.Rd)
	case MFPush:
		return fmt.Sprintf("fpush %s", in.Fa)
	case MFPop:
		return fmt.Sprintf("fpop %s", in.Fd)
	case MHost:
		return fmt.Sprintf("host %s/%d", in.Host, in.HostArgs)
	case MAbort:
		return "abort"
	case MHalt:
		return fmt.Sprintf("halt %s", in.Ra)
	}
	return fmt.Sprintf("?%d", in.Op)
}

// DisassembleProgramAnnotated renders the whole image with addresses
// and source keys, for debugging and documentation. The annotations
// explain how the engine sees each instruction:
//
//	; step             punts to the legacy per-instruction loop
//	                   (host calls, halt/abort, malformed operands)
//	; sb+N             leads a superblock of N fused fallthrough µops
//	; sb-entry         a linked branch lands here (chain re-entry point)
//	; linked           branch resolved to a µop index at predecode
//	; demoted(REASON)  branch returns to dispatch instead of linking
//	                   (target-outside-image, target-mid-instruction,
//	                   target-punts)
//
// so care-disasm output shows exactly why a region won't fuse. When
// annotate (which may be nil) returns a non-empty string for an
// instruction's (line, col) debug stamp, that string replaces the
// default `!line:col` marker. care-disasm uses it to label instructions
// a defense pass inserted (their reserved negative provenance columns
// map back to the pass name), keeping machine free of any dependency on
// the defense registry.
func DisassembleProgramAnnotated(p *Program, annotate func(line, col int32) string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "; program %s (O%d) code@0x%x data@0x%x\n", p.Name, p.OptLevel, p.CodeBase, p.GlobalBase)
	fnAt := map[int]string{}
	for _, f := range p.Funcs {
		fnAt[f.Entry] = f.Name
	}
	plan := p.plan()
	entries := map[int]bool{}
	for i := range plan.uops {
		if t := plan.uops[i].tidx; t >= 0 {
			entries[int(t)] = true
		}
	}
	for i := range p.Code {
		if n, ok := fnAt[i]; ok {
			fmt.Fprintf(&sb, "\n%s:\n", n)
		}
		in := &p.Code[i]
		fmt.Fprintf(&sb, "  0x%08x  %-40s", p.AddrOf(i), Disassemble(in))
		u := &plan.uops[i]
		switch {
		case u.op == uPunt:
			sb.WriteString(" ; step")
		case u.op == uJmp || u.op == uJnz || u.op == uJz || u.op == uCall:
			if u.tidx >= 0 {
				sb.WriteString(" ; linked")
			} else if _, reason := linkTarget(p, plan.uops, u.target); reason != "" {
				fmt.Fprintf(&sb, " ; demoted(%s)", reason)
			}
		case plan.runLen[i] > 0 && (i == 0 || plan.runLen[i-1] == 0):
			fmt.Fprintf(&sb, " ; sb+%d", plan.runLen[i])
		}
		if entries[i] {
			sb.WriteString(" ; sb-entry")
		}
		mark := ""
		if annotate != nil {
			mark = annotate(in.Line, in.Col)
		}
		if mark != "" {
			fmt.Fprintf(&sb, " ; %s", mark)
		} else if in.Line != 0 || in.Col != 0 {
			fmt.Fprintf(&sb, " ; !%d:%d", in.Line, in.Col)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
