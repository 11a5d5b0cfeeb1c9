// Predecoded superblock execution engine. Run's hot path does not
// interpret MInstr records one Step at a time: at first use each
// Program is predecoded into a dense µop array (one µop per
// instruction, indexed with the same base+offset arithmetic Step uses)
// with operand kinds resolved up front: the src2 immediate-vs-register
// choice becomes two µop opcodes, absent index registers disappear, and
// the rare instructions the engine does not carry (host calls,
// abort/halt, malformed operands) become uPunt µops that fall back to
// the legacy Step for exactly one instruction. A misaligned (corrupted)
// PC lies between µops, so it runs on Step too, one instruction at a
// time, until a taken branch realigns it.
//
// The engine preserves Step-loop semantics bit for bit — campaign
// results and trace JSONL must not change:
//
//   - the step budget is charged per attempted instruction (a trapped
//     and resumed instruction consumes budget without retiring),
//   - Dyn counts retirements only, and is materialized before any trap
//     is delivered so handlers and trace stamps see the exact count,
//   - the architectural PC is lazy inside a chain but recomputed
//     exactly for every trap, pause, punt and image exit — precise
//     PC→kernel mapping is the point of CARE.
//
// The engine itself is runSuper (the default TierSuperblock path).
// Predecode resolves in-image Jmp/Jnz/Jz/Call targets to µop indices
// (uop.tidx) so taken branches jump straight to the successor µop, and
// computes per-index fallthrough-run lengths (blockPlan.runLen) so each
// straight-line chain retires under ONE budget/Dyn accounting check
// instead of one per instruction. Because runLen is indexed per µop, a
// chain entered mid-way — a multi-predecessor leader reached by a
// linked branch — simply pays its accounting check at the entry point,
// while single-predecessor leaders reached by fallthrough are fused
// into the running chain with no check at all. Branch targets that
// cannot be linked (outside the image, mid-instruction, or landing on
// a punting µop) are demoted at predecode: the branch materialises the
// PC and returns to Run's dispatch, exactly like an image exit.
//
// Eligibility is re-checked by Run before every engine call: any
// installed step hook (fault arming, taint, checkpoint cadences) deopts
// to the per-instruction loop, and a hook installed mid-run by a trap
// handler takes effect at the next block boundary because traps always
// return to Run's dispatch loop.
//
// Loads and stores go through per-µop memory inline caches: each
// memory-access µop owns one icEntry slot per CPU remembering the last
// page it hit, revalidated with a generation check plus one range
// compare. Stack-traffic µops (call/ret/push/pop) instead share one
// dedicated per-CPU stack slot (CPU.stackIC): SP stays inside one page
// of the stack for long stretches of a run, so a single hot slot beats
// many separately-warmed ones. The slots live on the CPU (Programs and
// their µop plans are shared read-only by every concurrent process of
// a binary); Memory.gen bumps whenever a segment is removed or
// replaced (Unmap, Restore), so rollbacks and dlclose invalidate every
// cache — including the stack slot — at once.
package machine

import "math"

// uopOp is a predecoded micro-operation opcode. ALU and Set operations
// come in RR (src2 = register) and RI (src2 = immediate) forms so the
// per-instruction src2 selection of the Step loop disappears; memory
// operations come in with-index and without-index forms.
type uopOp uint8

const (
	// uPunt delegates the instruction to the legacy Step path: host
	// calls, abort, halt, unknown opcodes, and operands Step would
	// fault (or panic) on. Punting keeps the engine's semantics exactly
	// Step's without duplicating the rare cases.
	uPunt uopOp = iota
	uNop
	uMovImm
	uMov
	uAddRR
	uAddRI
	uSubRR
	uSubRI
	uMulRR
	uMulRI
	uDivRR
	uDivRI
	uRemRR
	uRemRI
	uAndRR
	uAndRI
	uOrRR
	uOrRI
	uXorRR
	uXorRI
	uShlRR
	uShlRI
	uShrRR
	uShrRI
	uFMovImm
	uFMov
	uFAdd
	uFSub
	uFMul
	uFDiv
	uCvtIF
	uCvtFI
	uBitIF
	uBitFI
	uSetRR
	uSetRI
	uFSet
	uLea
	uLeaX
	uJmp
	uJnz
	uJz

	// Memory-access µops (each owns an inline-cache slot). Keep these
	// contiguous: usesIC tests the range.
	uLoad
	uLoadX
	uFLoad
	uFLoadX
	uStore
	uStoreX
	uFStore
	uFStoreX

	// Stack-traffic µops. Keep these contiguous too: they dereference
	// memory through SP and share the CPU's dedicated stack inline
	// cache instead of owning per-µop slots.
	uCall
	uRet
	uPush
	uPop
	uFPush
	uFPop

	// Fused superinstructions: two adjacent µops retired by one dispatch.
	// These opcodes never appear in blockPlan.uops (the per-µop stream
	// fusion and the disassembler read) — predecode's fusion pass
	// writes them only into the wide superblock stream (blockPlan.fuops),
	// picking the pairs that dominate compiled code: the O0 spill/reload
	// idiom (store+load, load+load and their float forms), address-compute
	// feeding memory, and the O1 copy/FP chains. Naming reads first-then-
	// second: uPStLd is "store, then load".
	uPStLd
	uPLdLd
	uPLdSt
	uPFStFLd
	uPFLdFLd
	uPFStLd
	uPStFLd
	uPFLdFSt
	uPLdFLdX
	uPFLdXFSt
	uPFLdXLd
	uPLdLdX
	uPLdXLd
	uPLdSetI
	uPLdSetR
	uPSetISt
	uPSetRSt
	uPAddRSt
	uPAddISt
	uPLdAddR
	uPLdAddI
	uPMovFMov
	uPAddIMov
	uPFMulFAdd
	uPAddRLd
	uPFLdXFMul
	uPFAddAddI
)

// usesIC reports whether the µop dereferences memory through an
// explicit address operand and owns a per-µop inline-cache slot.
func (o uopOp) usesIC() bool { return o >= uLoad && o <= uFStoreX }

// isControlOp reports whether the µop ends a fallthrough chain: it
// either transfers control or punts to the legacy Step loop. Exactly
// these µops have runLen 0 and are handled by runSuper's control
// dispatch.
func isControlOp(o uopOp) bool {
	switch o {
	case uPunt, uJmp, uJnz, uJz, uCall, uRet:
		return true
	}
	return false
}

// uop is one predecoded micro-operation. d/a/b index the integer or
// float register file depending on the opcode (for loads and stores, a
// is the base register, b the index register, and d the data register).
// All register fields are validated < NumReg at predecode time, so the
// interpreter masks with &15 and pays no bounds checks.
type uop struct {
	op    uopOp
	d     uint8
	a     uint8
	b     uint8
	scale uint8
	cond  Cond
	// ic is the CPU-local inline-cache slot of a memory µop (-1
	// otherwise; stack-traffic µops use the shared stack slot).
	ic int32
	// tidx is the linked branch target of uJmp/uJnz/uJz/uCall as a µop
	// index, resolved at predecode so taken branches re-enter the µop
	// array directly. -1 when the µop is not a branch or the branch was
	// demoted to dispatch-return (target outside the image, mid-
	// instruction, or landing on a punting µop).
	tidx int32
	// imm is the immediate or displacement.
	imm int64
	// target is the absolute branch target of uJmp/uJnz/uJz/uCall.
	target Word
}

// fuop is one entry of the superblock tier's wide µop stream: the µop
// at its index (same fields as uop) plus, when predecode fused it with
// its fallthrough successor, the second µop's operands (d2/a2/b2/s2/
// cond2/ic2/imm2) under a uP* superinstruction opcode. The stream is
// overlap-encoded — every index that STARTS a fusible pair carries the
// fused form, and the second µop's index still holds its plain single
// form — so a linked branch entering mid-chain (or a chain clamped by
// the budget between the two halves) executes the exact same
// µop sequence, just with one fewer dispatch when the pair is intact.
type fuop struct {
	op             uopOp
	d, a, b, scale uint8
	cond           Cond
	d2, a2, b2, s2 uint8
	cond2          Cond
	ic, ic2        int32
	tidx           int32
	imm, imm2      int64
	target         Word
}

// fusePair maps an adjacent µop pair to its superinstruction, or uPunt
// when the pair stays unfused. The table is the dynamically hottest
// pairs of the compiled workloads: O0 leans on frame-slot traffic
// (store+load and friends are the spill/reload idiom around every
// expression), O1 on copy coalescing and load-compute chains.
func fusePair(a, b uopOp) uopOp {
	const k = 1 << 8
	switch uint16(a)*k + uint16(b) {
	case uint16(uStore)*k + uint16(uLoad):
		return uPStLd
	case uint16(uLoad)*k + uint16(uLoad):
		return uPLdLd
	case uint16(uLoad)*k + uint16(uStore):
		return uPLdSt
	case uint16(uFStore)*k + uint16(uFLoad):
		return uPFStFLd
	case uint16(uFLoad)*k + uint16(uFLoad):
		return uPFLdFLd
	case uint16(uFStore)*k + uint16(uLoad):
		return uPFStLd
	case uint16(uStore)*k + uint16(uFLoad):
		return uPStFLd
	case uint16(uFLoad)*k + uint16(uFStore):
		return uPFLdFSt
	case uint16(uLoad)*k + uint16(uFLoadX):
		return uPLdFLdX
	case uint16(uFLoadX)*k + uint16(uFStore):
		return uPFLdXFSt
	case uint16(uFLoadX)*k + uint16(uLoad):
		return uPFLdXLd
	case uint16(uLoad)*k + uint16(uLoadX):
		return uPLdLdX
	case uint16(uLoadX)*k + uint16(uLoad):
		return uPLdXLd
	case uint16(uLoad)*k + uint16(uSetRI):
		return uPLdSetI
	case uint16(uLoad)*k + uint16(uSetRR):
		return uPLdSetR
	case uint16(uSetRI)*k + uint16(uStore):
		return uPSetISt
	case uint16(uSetRR)*k + uint16(uStore):
		return uPSetRSt
	case uint16(uAddRR)*k + uint16(uStore):
		return uPAddRSt
	case uint16(uAddRI)*k + uint16(uStore):
		return uPAddISt
	case uint16(uLoad)*k + uint16(uAddRR):
		return uPLdAddR
	case uint16(uLoad)*k + uint16(uAddRI):
		return uPLdAddI
	case uint16(uMov)*k + uint16(uFMov):
		return uPMovFMov
	case uint16(uAddRI)*k + uint16(uMov):
		return uPAddIMov
	case uint16(uFMul)*k + uint16(uFAdd):
		return uPFMulFAdd
	case uint16(uAddRR)*k + uint16(uLoad):
		return uPAddRLd
	case uint16(uFLoadX)*k + uint16(uFMul):
		return uPFLdXFMul
	case uint16(uFAdd)*k + uint16(uAddRI):
		return uPFAddAddI
	}
	return uPunt
}

// blockPlan is the predecoded form of a Program's code: µops 1:1 with
// Code, the number of inline-cache slots its memory µops claimed, and
// the superblock metadata — runLen[i] is the length of the straight-
// line fallthrough chain starting at µop i (the number of consecutive
// non-control, non-punt µops from i; 0 exactly when µop i is a control
// op). Per-index lengths make mid-chain entry exact: a linked branch
// landing on a multi-predecessor leader just starts its accounting
// there. fuops is the wide, pair-fused stream runSuper executes (1:1
// indices with uops). A plan is immutable after construction and
// shared by every CPU.
type blockPlan struct {
	uops   []uop
	fuops  []fuop
	runLen []int32
	nIC    int
}

// plan returns the program's predecoded plan, building it on first use.
// Safe for concurrent callers (campaign trials share Programs).
func (p *Program) plan() *blockPlan {
	p.planOnce.Do(func() { p.ublocks = predecode(p) })
	return p.ublocks
}

func predecode(p *Program) *blockPlan {
	n := len(p.Code)
	pl := &blockPlan{uops: make([]uop, n), runLen: make([]int32, n)}
	for i := range p.Code {
		u := predecodeOne(&p.Code[i])
		u.tidx = -1
		if u.op.usesIC() {
			u.ic = int32(pl.nIC)
			pl.nIC++
		}
		pl.uops[i] = u
	}
	// Second pass: link branch targets (a forward target's µop must be
	// lowered before it can be classified).
	for i := range pl.uops {
		u := &pl.uops[i]
		switch u.op {
		case uJmp, uJnz, uJz, uCall:
			if t, _ := linkTarget(p, pl.uops, u.target); t >= 0 {
				u.tidx = t
			}
		}
	}
	// Fallthrough-run lengths, computed backwards so each index holds
	// the rest-of-chain count from that point.
	for i := n - 1; i >= 0; i-- {
		if isControlOp(pl.uops[i].op) {
			continue // runLen 0
		}
		if i == n-1 {
			pl.runLen[i] = 1
		} else {
			pl.runLen[i] = pl.runLen[i+1] + 1
		}
	}
	// Fourth pass: widen into the superblock stream and overlap-encode
	// fused pairs. runLen >= 2 guarantees both halves are plain chain
	// µops of the same chain (never control, punt, or the chain's end).
	pl.fuops = make([]fuop, n)
	for i := range pl.uops {
		u := &pl.uops[i]
		pl.fuops[i] = fuop{op: u.op, d: u.d, a: u.a, b: u.b, scale: u.scale,
			cond: u.cond, ic: u.ic, ic2: -1, tidx: u.tidx, imm: u.imm, target: u.target}
	}
	for i := 0; i+1 < n; i++ {
		if pl.runLen[i] < 2 {
			continue
		}
		if f := fusePair(pl.uops[i].op, pl.uops[i+1].op); f != uPunt {
			v, fu := &pl.uops[i+1], &pl.fuops[i]
			fu.op = f
			fu.d2, fu.a2, fu.b2, fu.s2 = v.d, v.a, v.b, v.scale
			fu.cond2, fu.ic2, fu.imm2 = v.cond, v.ic, v.imm
		}
	}
	return pl
}

// Demotion reasons, shared by linkTarget's classification and the
// disassembler's annotations.
const (
	demoteOutsideImage = "target-outside-image"
	demoteMidInstr     = "target-mid-instruction"
	demotePunts        = "target-punts"
)

// linkTarget resolves an absolute branch target to a µop index, or
// explains why the branch must demote to dispatch-return: targets
// outside the image (cross-image or wild), targets landing between
// instruction boundaries (only a PC-carrying dispatch round-trip
// preserves the misalignment a trap must report), and targets landing
// on punting µops (those must reach the legacy Step loop with an exact
// PC).
func linkTarget(p *Program, uops []uop, target Word) (int32, string) {
	off := target - p.CodeBase // underflows huge for target < CodeBase
	if off >= Word(8*len(uops)) {
		return -1, demoteOutsideImage
	}
	if off&7 != 0 {
		return -1, demoteMidInstr
	}
	idx := int32(off >> 3)
	if uops[idx].op == uPunt {
		return -1, demotePunts
	}
	return idx, ""
}

func okR(r Reg) bool  { return r < NumReg }
func okF(f FReg) bool { return f < NumFReg }

// predecodeOne lowers one MInstr to a µop, resolving operand kinds. Any
// instruction the fast loop cannot (or should not) carry — host calls,
// abort/halt, operands the Step loop would panic on — lowers to uPunt.
func predecodeOne(in *MInstr) uop {
	punt := uop{op: uPunt, ic: -1}
	u := uop{ic: -1}

	// alu resolves src2 exactly like Step: the immediate when UseImm,
	// Rb when valid, and constant zero when Rb is absent (NoReg).
	alu := func(rr, ri uopOp) uop {
		if !okR(in.Rd) || !okR(in.Ra) {
			return punt
		}
		u.d, u.a = uint8(in.Rd), uint8(in.Ra)
		switch {
		case in.UseImm:
			u.op, u.imm = ri, in.Imm
		case okR(in.Rb):
			u.op, u.b = rr, uint8(in.Rb)
		default:
			u.op, u.imm = ri, 0
		}
		return u
	}
	// mem lowers a memory operand: data is the value register (dest for
	// loads, source for stores), already validated by the caller.
	mem := func(noIdx, withIdx uopOp, data uint8) uop {
		if !okR(in.Base) {
			return punt
		}
		u.d, u.a, u.imm = data, uint8(in.Base), in.Disp
		switch {
		case in.Index == NoReg:
			u.op = noIdx
		case okR(in.Index):
			u.op, u.b, u.scale = withIdx, uint8(in.Index), in.Scale
		default:
			return punt
		}
		return u
	}
	fbin := func(op uopOp) uop {
		if !okF(in.Fd) || !okF(in.Fa) || !okF(in.Fb) {
			return punt
		}
		u.op, u.d, u.a, u.b = op, uint8(in.Fd), uint8(in.Fa), uint8(in.Fb)
		return u
	}
	jump := func(op uopOp) uop {
		u.op, u.target = op, in.Target
		return u
	}

	switch in.Op {
	case MNop:
		u.op = uNop
		return u
	case MMovImm:
		if !okR(in.Rd) {
			return punt
		}
		u.op, u.d, u.imm = uMovImm, uint8(in.Rd), in.Imm
		return u
	case MMov:
		if !okR(in.Rd) || !okR(in.Ra) {
			return punt
		}
		u.op, u.d, u.a = uMov, uint8(in.Rd), uint8(in.Ra)
		return u
	case MAdd:
		return alu(uAddRR, uAddRI)
	case MSub:
		return alu(uSubRR, uSubRI)
	case MMul:
		return alu(uMulRR, uMulRI)
	case MDiv:
		return alu(uDivRR, uDivRI)
	case MRem:
		return alu(uRemRR, uRemRI)
	case MAnd:
		return alu(uAndRR, uAndRI)
	case MOr:
		return alu(uOrRR, uOrRI)
	case MXor:
		return alu(uXorRR, uXorRI)
	case MShl:
		return alu(uShlRR, uShlRI)
	case MShr:
		return alu(uShrRR, uShrRI)
	case MFMovImm:
		if !okF(in.Fd) {
			return punt
		}
		u.op, u.d, u.imm = uFMovImm, uint8(in.Fd), in.Imm
		return u
	case MFMov:
		if !okF(in.Fd) || !okF(in.Fa) {
			return punt
		}
		u.op, u.d, u.a = uFMov, uint8(in.Fd), uint8(in.Fa)
		return u
	case MFAdd:
		return fbin(uFAdd)
	case MFSub:
		return fbin(uFSub)
	case MFMul:
		return fbin(uFMul)
	case MFDiv:
		return fbin(uFDiv)
	case MCvtIF:
		if !okF(in.Fd) || !okR(in.Ra) {
			return punt
		}
		u.op, u.d, u.a = uCvtIF, uint8(in.Fd), uint8(in.Ra)
		return u
	case MCvtFI:
		if !okR(in.Rd) || !okF(in.Fa) {
			return punt
		}
		u.op, u.d, u.a = uCvtFI, uint8(in.Rd), uint8(in.Fa)
		return u
	case MBitIF:
		if !okF(in.Fd) || !okR(in.Ra) {
			return punt
		}
		u.op, u.d, u.a = uBitIF, uint8(in.Fd), uint8(in.Ra)
		return u
	case MBitFI:
		if !okR(in.Rd) || !okF(in.Fa) {
			return punt
		}
		u.op, u.d, u.a = uBitFI, uint8(in.Rd), uint8(in.Fa)
		return u
	case MSet:
		u.cond = in.Cond
		return alu(uSetRR, uSetRI)
	case MFSet:
		if !okR(in.Rd) || !okF(in.Fa) || !okF(in.Fb) {
			return punt
		}
		u.op, u.cond = uFSet, in.Cond
		u.d, u.a, u.b = uint8(in.Rd), uint8(in.Fa), uint8(in.Fb)
		return u
	case MLea:
		if !okR(in.Rd) {
			return punt
		}
		return mem(uLea, uLeaX, uint8(in.Rd))
	case MLoad:
		if !okR(in.Rd) {
			return punt
		}
		return mem(uLoad, uLoadX, uint8(in.Rd))
	case MFLoad:
		if !okF(in.Fd) {
			return punt
		}
		return mem(uFLoad, uFLoadX, uint8(in.Fd))
	case MStore:
		if !okR(in.Ra) {
			return punt
		}
		return mem(uStore, uStoreX, uint8(in.Ra))
	case MFStore:
		if !okF(in.Fa) {
			return punt
		}
		return mem(uFStore, uFStoreX, uint8(in.Fa))
	case MJmp:
		return jump(uJmp)
	case MJnz, MJz:
		if !okR(in.Ra) {
			return punt
		}
		u.a = uint8(in.Ra)
		if in.Op == MJnz {
			return jump(uJnz)
		}
		return jump(uJz)
	case MCall:
		return jump(uCall)
	case MRet:
		u.op = uRet
		return u
	case MPush:
		if !okR(in.Ra) {
			return punt
		}
		u.op, u.d = uPush, uint8(in.Ra)
		return u
	case MPop:
		if !okR(in.Rd) {
			return punt
		}
		u.op, u.d = uPop, uint8(in.Rd)
		return u
	case MFPush:
		if !okF(in.Fa) {
			return punt
		}
		u.op, u.d = uFPush, uint8(in.Fa)
		return u
	case MFPop:
		if !okF(in.Fd) {
			return punt
		}
		u.op, u.d = uFPop, uint8(in.Fd)
		return u
	}
	// MHost, MAbort, MHalt, unknown opcodes.
	return punt
}

// icEntry is one memory inline cache slot: the page a µop's access
// last hit, valid while the Memory generation matches. Beyond the
// cached page slot and the generation that validates it, the entry
// precomputes the hit test as three words — base (the page's address),
// rlen (len(data)-7, so off < rlen validates an aligned 8-byte access)
// and wlen (rlen when the page is writable in place, 0 for read-only
// segments and frozen pages, whose stores must take the slow path) — so
// the dispatch cases can open-code the hit path in a handful of
// compares. (The engine loop is past the compiler's big-function
// threshold, so even tiny helpers stay out-of-line there; the
// open-coded form is the only way the hit path costs what it should.)
// Reads and writes go through pg.data on every access rather than a
// cached slice, so a copy-on-write materialisation — which swaps data
// under the same slot — is picked up immediately by every entry that
// holds the slot; data's length never changes, so rlen stays exact.
type icEntry struct {
	pg   *page
	gen  uint64
	base Word
	rlen Word
	wlen Word
}

// fill installs the page holding segment offset off in the slot.
// Callers guarantee the access that found it succeeded, so the page
// holds at least 8 bytes from off.
func (e *icEntry) fill(s *Segment, off Word, gen uint64) {
	i := off / PageSize
	p := &s.pages[i]
	e.pg, e.gen, e.base = p, gen, s.Base+i*PageSize
	e.rlen = Word(len(p.data) - 7)
	if s.ro || p.frozen {
		e.wlen = 0
	} else {
		e.wlen = e.rlen
	}
}

// icsFor returns this CPU's inline-cache slots for an image, allocating
// them on first use (one slot per memory µop of the image's program).
func (c *CPU) icsFor(img *Image, n int) []icEntry {
	if e, ok := c.ics[img]; ok {
		return e
	}
	if c.ics == nil {
		c.ics = map[*Image][]icEntry{}
	}
	e := make([]icEntry, n)
	c.ics[img] = e
	return e
}

// icLoadSlow is the inline-cache miss path of an aligned word load (the
// hit path, one generation compare plus one range compare against the
// cached page, is open-coded in runSuper): Memory.Read semantics plus a
// cache refill. Fault priorities match Read exactly (unmapped/short
// SEGV before misaligned BUS).
func icLoadSlow(m *Memory, e *icEntry, addr Word) (Word, *Fault) {
	s := m.Find(addr)
	if s == nil || addr+8 > s.End() {
		return 0, &Fault{Sig: SigSEGV, Addr: addr}
	}
	if addr&7 != 0 {
		return 0, &Fault{Sig: SigBUS, Addr: addr}
	}
	e.fill(s, addr-s.Base, m.gen)
	return leLoad(e.pg.data, addr-e.base), nil
}

// icStoreSlow is the inline-cache miss path of an aligned word store.
// Read-only segments and frozen pages always take it (fault /
// first-store materialisation), matching Memory.Write.
func icStoreSlow(m *Memory, e *icEntry, addr, v Word) *Fault {
	s := m.Find(addr)
	if s == nil || addr+8 > s.End() || s.ro {
		return &Fault{Sig: SigSEGV, Addr: addr}
	}
	if addr&7 != 0 {
		return &Fault{Sig: SigBUS, Addr: addr}
	}
	off := addr - s.Base
	if p := s.slot(off); p.frozen {
		p.materialize()
	}
	e.fill(s, off, m.gen)
	leStore(e.pg.data, addr-e.base, v)
	return nil
}

// setCur switches the CPU's current-image cache, dropping the per-image
// derived caches (µop plan, inline-cache slots, profile counts slice).
func (c *CPU) setCur(img *Image) {
	c.cur = img
	c.curPlan = nil
	c.curICs = nil
	c.curCounts = nil
}

// countsFor returns (allocating if needed) the profile-counts slice of
// an image — the one c.Counts[img] map lookup the hot paths now pay
// only on image switch.
func (c *CPU) countsFor(img *Image) []uint64 {
	if c.Counts == nil {
		c.Counts = map[*Image][]uint64{}
	}
	cnts := c.Counts[img]
	if cnts == nil {
		cnts = make([]uint64, len(img.Prog.Code))
		c.Counts[img] = cnts
	}
	return cnts
}

// blockTrap materializes the lazy architectural state and delivers a
// trap from the engine, mirroring the Trap a Step at pc would have
// raised.
func (c *CPU) blockTrap(pc Word, done uint64, img *Image, idx int, sig Signal, addr Word) {
	c.PC = pc
	c.Dyn += done
	c.trap(&Trap{Sig: sig, PC: pc, Addr: addr, Img: img, Idx: idx, Instr: &img.Prog.Code[idx]})
}

// superTrap delivers a trap from µop entry+i of a fused chain: the i
// preceding µops of the chain retired (their profile counts are settled
// here — the happy path batches them), the faulting one did not.
func (c *CPU) superTrap(base Word, entry, i int, done uint64, img *Image, sig Signal, addr Word, cnts []uint64) {
	if cnts != nil {
		for j := entry; j < entry+i; j++ {
			cnts[j]++
		}
	}
	c.blockTrap(base+Word(8*(entry+i)), done+uint64(i), img, entry+i, sig, addr)
}

// runSuper executes predecoded code starting at c.PC on the superblock
// tier: each straight-line fallthrough chain retires under a single
// budget/Dyn accounting check (clamped at the remaining budget up
// front, so the chain body pays no per-µop budget or PC bookkeeping),
// branches linked at predecode jump straight to the successor µop index
// without re-entering the dispatch prologue, and the chain body runs
// from the pair-fused wide stream (blockPlan.fuops), so the hottest
// adjacent µop pairs retire under one dispatch. Memory accesses take
// manually-inlined inline-cache hit paths against a generation hoisted
// for the whole invocation. Semantics are bit-identical to the Step
// loop: traps materialise the exact PC and Dyn mid-chain, the budget is
// charged per attempted instruction, and demoted branches return to
// Run's dispatch with the exact target PC. A pair whose second half
// falls past the budget clamp executes its first half alone — the
// overlap encoding keeps every µop boundary addressable.
//
// It returns the budget consumed and whether the instruction now at
// c.PC must be executed by Step: a punting µop, or any instruction at a
// misaligned (corrupted) PC, for which it returns (0, true) at once.
// Chain execution tracks µop indices and cannot carry the
// sub-instruction bias a lazily-materialised trap PC must preserve, so
// Run steps such a PC one instruction at a time, re-entering here after
// each, until a taken branch realigns it.
//
// Callers guarantee budget > 0 and that no step hooks are installed.
func (c *CPU) runSuper(budget uint64) (uint64, bool) {
	img := c.cur
	if img == nil || !img.Contains(c.PC) {
		img = c.FindImage(c.PC)
		if img == nil {
			c.trap(&Trap{Sig: SigILL, PC: c.PC})
			return 1, false
		}
		c.setCur(img)
	}
	base := img.Base()
	if (c.PC-base)&7 != 0 {
		return 0, true
	}
	plan := c.curPlan
	if plan == nil {
		plan = img.Prog.plan()
		c.curPlan = plan
	}
	ics := c.curICs
	if ics == nil && plan.nIC > 0 {
		ics = c.icsFor(img, plan.nIC)
		c.curICs = ics
	}
	var cnts []uint64
	if c.Profile {
		cnts = c.curCounts
		if cnts == nil {
			cnts = c.countsFor(img)
			c.curCounts = cnts
		}
	}
	m := c.Mem
	gen := m.gen // stable: every gen bump (Unmap/Restore) exits the engine first
	fuops := plan.fuops
	runs := plan.runLen
	sIC := &c.stackIC
	idx := int((c.PC - base) >> 3)
	var done uint64

	for {
		if uint(idx) >= uint(len(fuops)) {
			// Fell off the end of the image; Run re-resolves (or traps).
			c.PC = base + Word(8*idx)
			c.Dyn += done
			return done, false
		}
		if done >= budget {
			break
		}
		if n := int(runs[idx]); n > 0 {
			if rem := budget - done; uint64(n) > rem {
				n = int(rem)
			}
			entry := idx
			chain := fuops[entry : entry+n]
			for i := 0; i < n; i++ {
				u := &chain[i]
				switch u.op {
				case uNop:
				case uMovImm:
					c.R[u.d&15] = Word(u.imm)
				case uMov:
					c.R[u.d&15] = c.R[u.a&15]
				case uAddRR:
					c.R[u.d&15] = c.R[u.a&15] + c.R[u.b&15]
				case uAddRI:
					c.R[u.d&15] = c.R[u.a&15] + Word(u.imm)
				case uSubRR:
					c.R[u.d&15] = c.R[u.a&15] - c.R[u.b&15]
				case uSubRI:
					c.R[u.d&15] = c.R[u.a&15] - Word(u.imm)
				case uMulRR:
					c.R[u.d&15] = Word(int64(c.R[u.a&15]) * int64(c.R[u.b&15]))
				case uMulRI:
					c.R[u.d&15] = Word(int64(c.R[u.a&15]) * u.imm)
				case uDivRR, uDivRI, uRemRR, uRemRI:
					d := u.imm
					if u.op == uDivRR || u.op == uRemRR {
						d = int64(c.R[u.b&15])
					}
					nn := int64(c.R[u.a&15])
					if d == 0 || (nn == math.MinInt64 && d == -1) {
						c.superTrap(base, entry, i, done, img, SigFPE, 0, cnts)
						return done + uint64(i) + 1, false
					}
					if u.op == uDivRR || u.op == uDivRI {
						c.R[u.d&15] = Word(nn / d)
					} else {
						c.R[u.d&15] = Word(nn % d)
					}
				case uAndRR:
					c.R[u.d&15] = c.R[u.a&15] & c.R[u.b&15]
				case uAndRI:
					c.R[u.d&15] = c.R[u.a&15] & Word(u.imm)
				case uOrRR:
					c.R[u.d&15] = c.R[u.a&15] | c.R[u.b&15]
				case uOrRI:
					c.R[u.d&15] = c.R[u.a&15] | Word(u.imm)
				case uXorRR:
					c.R[u.d&15] = c.R[u.a&15] ^ c.R[u.b&15]
				case uXorRI:
					c.R[u.d&15] = c.R[u.a&15] ^ Word(u.imm)
				case uShlRR:
					c.R[u.d&15] = c.R[u.a&15] << (c.R[u.b&15] & 63)
				case uShlRI:
					c.R[u.d&15] = c.R[u.a&15] << (Word(u.imm) & 63)
				case uShrRR:
					c.R[u.d&15] = Word(int64(c.R[u.a&15]) >> (c.R[u.b&15] & 63))
				case uShrRI:
					c.R[u.d&15] = Word(int64(c.R[u.a&15]) >> (Word(u.imm) & 63))
				case uFMovImm:
					c.F[u.d&15] = math.Float64frombits(Word(u.imm))
				case uFMov:
					c.F[u.d&15] = c.F[u.a&15]
				case uFAdd:
					c.F[u.d&15] = c.F[u.a&15] + c.F[u.b&15]
				case uFSub:
					c.F[u.d&15] = c.F[u.a&15] - c.F[u.b&15]
				case uFMul:
					c.F[u.d&15] = c.F[u.a&15] * c.F[u.b&15]
				case uFDiv:
					c.F[u.d&15] = c.F[u.a&15] / c.F[u.b&15]
				case uCvtIF:
					c.F[u.d&15] = float64(int64(c.R[u.a&15]))
				case uCvtFI:
					c.R[u.d&15] = Word(int64(c.F[u.a&15]))
				case uBitIF:
					c.F[u.d&15] = math.Float64frombits(c.R[u.a&15])
				case uBitFI:
					c.R[u.d&15] = math.Float64bits(c.F[u.a&15])
				case uSetRR:
					c.R[u.d&15] = boolWord(cmpInt(u.cond, int64(c.R[u.a&15]), int64(c.R[u.b&15])))
				case uSetRI:
					c.R[u.d&15] = boolWord(cmpInt(u.cond, int64(c.R[u.a&15]), u.imm))
				case uFSet:
					c.R[u.d&15] = boolWord(cmpFloat(u.cond, c.F[u.a&15], c.F[u.b&15]))
				case uLea:
					c.R[u.d&15] = c.R[u.a&15] + Word(u.imm)
				case uLeaX:
					c.R[u.d&15] = c.R[u.a&15] + c.R[u.b&15]*Word(u.scale) + Word(u.imm)
				case uLoad:
					addr := c.R[u.a&15] + Word(u.imm)
					var v Word
					if e := &ics[u.ic]; e.gen == gen && addr&7 == 0 && addr-e.base < e.rlen {
						v = leLoad(e.pg.data, addr-e.base)
					} else {
						var flt *Fault
						if v, flt = icLoadSlow(m, e, addr); flt != nil {
							c.superTrap(base, entry, i, done, img, flt.Sig, flt.Addr, cnts)
							return done + uint64(i) + 1, false
						}
					}
					c.R[u.d&15] = v
				case uLoadX:
					addr := c.R[u.a&15] + c.R[u.b&15]*Word(u.scale) + Word(u.imm)
					var v Word
					if e := &ics[u.ic]; e.gen == gen && addr&7 == 0 && addr-e.base < e.rlen {
						v = leLoad(e.pg.data, addr-e.base)
					} else {
						var flt *Fault
						if v, flt = icLoadSlow(m, e, addr); flt != nil {
							c.superTrap(base, entry, i, done, img, flt.Sig, flt.Addr, cnts)
							return done + uint64(i) + 1, false
						}
					}
					c.R[u.d&15] = v
				case uFLoad:
					addr := c.R[u.a&15] + Word(u.imm)
					var v Word
					if e := &ics[u.ic]; e.gen == gen && addr&7 == 0 && addr-e.base < e.rlen {
						v = leLoad(e.pg.data, addr-e.base)
					} else {
						var flt *Fault
						if v, flt = icLoadSlow(m, e, addr); flt != nil {
							c.superTrap(base, entry, i, done, img, flt.Sig, flt.Addr, cnts)
							return done + uint64(i) + 1, false
						}
					}
					c.F[u.d&15] = math.Float64frombits(v)
				case uFLoadX:
					addr := c.R[u.a&15] + c.R[u.b&15]*Word(u.scale) + Word(u.imm)
					var v Word
					if e := &ics[u.ic]; e.gen == gen && addr&7 == 0 && addr-e.base < e.rlen {
						v = leLoad(e.pg.data, addr-e.base)
					} else {
						var flt *Fault
						if v, flt = icLoadSlow(m, e, addr); flt != nil {
							c.superTrap(base, entry, i, done, img, flt.Sig, flt.Addr, cnts)
							return done + uint64(i) + 1, false
						}
					}
					c.F[u.d&15] = math.Float64frombits(v)
				case uStore:
					addr := c.R[u.a&15] + Word(u.imm)
					if e := &ics[u.ic]; e.gen == gen && addr&7 == 0 && addr-e.base < e.wlen {
						leStore(e.pg.data, addr-e.base, c.R[u.d&15])
					} else if flt := icStoreSlow(m, e, addr, c.R[u.d&15]); flt != nil {
						c.superTrap(base, entry, i, done, img, flt.Sig, flt.Addr, cnts)
						return done + uint64(i) + 1, false
					}
				case uStoreX:
					addr := c.R[u.a&15] + c.R[u.b&15]*Word(u.scale) + Word(u.imm)
					if e := &ics[u.ic]; e.gen == gen && addr&7 == 0 && addr-e.base < e.wlen {
						leStore(e.pg.data, addr-e.base, c.R[u.d&15])
					} else if flt := icStoreSlow(m, e, addr, c.R[u.d&15]); flt != nil {
						c.superTrap(base, entry, i, done, img, flt.Sig, flt.Addr, cnts)
						return done + uint64(i) + 1, false
					}
				case uFStore:
					addr := c.R[u.a&15] + Word(u.imm)
					if e := &ics[u.ic]; e.gen == gen && addr&7 == 0 && addr-e.base < e.wlen {
						leStore(e.pg.data, addr-e.base, math.Float64bits(c.F[u.d&15]))
					} else if flt := icStoreSlow(m, e, addr, math.Float64bits(c.F[u.d&15])); flt != nil {
						c.superTrap(base, entry, i, done, img, flt.Sig, flt.Addr, cnts)
						return done + uint64(i) + 1, false
					}
				case uFStoreX:
					addr := c.R[u.a&15] + c.R[u.b&15]*Word(u.scale) + Word(u.imm)
					if e := &ics[u.ic]; e.gen == gen && addr&7 == 0 && addr-e.base < e.wlen {
						leStore(e.pg.data, addr-e.base, math.Float64bits(c.F[u.d&15]))
					} else if flt := icStoreSlow(m, e, addr, math.Float64bits(c.F[u.d&15])); flt != nil {
						c.superTrap(base, entry, i, done, img, flt.Sig, flt.Addr, cnts)
						return done + uint64(i) + 1, false
					}
				case uPush:
					sp := c.R[SP] - 8
					if e := sIC; e.gen == gen && sp&7 == 0 && sp-e.base < e.wlen {
						leStore(e.pg.data, sp-e.base, c.R[u.d&15])
					} else if flt := icStoreSlow(m, e, sp, c.R[u.d&15]); flt != nil {
						c.superTrap(base, entry, i, done, img, flt.Sig, flt.Addr, cnts)
						return done + uint64(i) + 1, false
					}
					c.R[SP] = sp
				case uPop:
					var v Word
					if e := sIC; e.gen == gen && c.R[SP]&7 == 0 && c.R[SP]-e.base < e.rlen {
						v = leLoad(e.pg.data, c.R[SP]-e.base)
					} else {
						var flt *Fault
						if v, flt = icLoadSlow(m, e, c.R[SP]); flt != nil {
							c.superTrap(base, entry, i, done, img, flt.Sig, flt.Addr, cnts)
							return done + uint64(i) + 1, false
						}
					}
					c.R[SP] += 8
					c.R[u.d&15] = v
				case uFPush:
					sp := c.R[SP] - 8
					if e := sIC; e.gen == gen && sp&7 == 0 && sp-e.base < e.wlen {
						leStore(e.pg.data, sp-e.base, math.Float64bits(c.F[u.d&15]))
					} else if flt := icStoreSlow(m, e, sp, math.Float64bits(c.F[u.d&15])); flt != nil {
						c.superTrap(base, entry, i, done, img, flt.Sig, flt.Addr, cnts)
						return done + uint64(i) + 1, false
					}
					c.R[SP] = sp
				case uFPop:
					var v Word
					if e := sIC; e.gen == gen && c.R[SP]&7 == 0 && c.R[SP]-e.base < e.rlen {
						v = leLoad(e.pg.data, c.R[SP]-e.base)
					} else {
						var flt *Fault
						if v, flt = icLoadSlow(m, e, c.R[SP]); flt != nil {
							c.superTrap(base, entry, i, done, img, flt.Sig, flt.Addr, cnts)
							return done + uint64(i) + 1, false
						}
					}
					c.R[SP] += 8
					c.F[u.d&15] = math.Float64frombits(v)

				// Fused pairs. Every case executes its first half exactly
				// like the single case above, then — only when the second
				// half is still inside the clamped chain — the second half,
				// recomputing nothing across the halves that the program
				// could observe: second-half addresses and operands are read
				// after the first half commits, traps report the exact half
				// that faulted, and a pair split by the clamp retires its
				// first half alone (the successor index re-enters as a
				// single µop next time around).
				case uPStLd: // store ; load — the O0 spill/reload idiom
					addr := c.R[u.a&15] + Word(u.imm)
					if e := &ics[u.ic]; e.gen == gen && addr&7 == 0 && addr-e.base < e.wlen {
						leStore(e.pg.data, addr-e.base, c.R[u.d&15])
					} else if flt := icStoreSlow(m, e, addr, c.R[u.d&15]); flt != nil {
						c.superTrap(base, entry, i, done, img, flt.Sig, flt.Addr, cnts)
						return done + uint64(i) + 1, false
					}
					if i+1 < n {
						a2 := c.R[u.a2&15] + Word(u.imm2)
						var v Word
						if e := &ics[u.ic2]; e.gen == gen && a2&7 == 0 && a2-e.base < e.rlen {
							v = leLoad(e.pg.data, a2-e.base)
						} else {
							var flt *Fault
							if v, flt = icLoadSlow(m, e, a2); flt != nil {
								c.superTrap(base, entry, i+1, done, img, flt.Sig, flt.Addr, cnts)
								return done + uint64(i) + 2, false
							}
						}
						c.R[u.d2&15] = v
						i++
					}
				case uPLdLd: // load ; load
					addr := c.R[u.a&15] + Word(u.imm)
					var v Word
					if e := &ics[u.ic]; e.gen == gen && addr&7 == 0 && addr-e.base < e.rlen {
						v = leLoad(e.pg.data, addr-e.base)
					} else {
						var flt *Fault
						if v, flt = icLoadSlow(m, e, addr); flt != nil {
							c.superTrap(base, entry, i, done, img, flt.Sig, flt.Addr, cnts)
							return done + uint64(i) + 1, false
						}
					}
					c.R[u.d&15] = v
					if i+1 < n {
						a2 := c.R[u.a2&15] + Word(u.imm2)
						var v2 Word
						if e := &ics[u.ic2]; e.gen == gen && a2&7 == 0 && a2-e.base < e.rlen {
							v2 = leLoad(e.pg.data, a2-e.base)
						} else {
							var flt *Fault
							if v2, flt = icLoadSlow(m, e, a2); flt != nil {
								c.superTrap(base, entry, i+1, done, img, flt.Sig, flt.Addr, cnts)
								return done + uint64(i) + 2, false
							}
						}
						c.R[u.d2&15] = v2
						i++
					}
				case uPLdSt: // load ; store
					addr := c.R[u.a&15] + Word(u.imm)
					var v Word
					if e := &ics[u.ic]; e.gen == gen && addr&7 == 0 && addr-e.base < e.rlen {
						v = leLoad(e.pg.data, addr-e.base)
					} else {
						var flt *Fault
						if v, flt = icLoadSlow(m, e, addr); flt != nil {
							c.superTrap(base, entry, i, done, img, flt.Sig, flt.Addr, cnts)
							return done + uint64(i) + 1, false
						}
					}
					c.R[u.d&15] = v
					if i+1 < n {
						a2 := c.R[u.a2&15] + Word(u.imm2)
						if e := &ics[u.ic2]; e.gen == gen && a2&7 == 0 && a2-e.base < e.wlen {
							leStore(e.pg.data, a2-e.base, c.R[u.d2&15])
						} else if flt := icStoreSlow(m, e, a2, c.R[u.d2&15]); flt != nil {
							c.superTrap(base, entry, i+1, done, img, flt.Sig, flt.Addr, cnts)
							return done + uint64(i) + 2, false
						}
						i++
					}
				case uPFStFLd: // fstore ; fload
					addr := c.R[u.a&15] + Word(u.imm)
					if e := &ics[u.ic]; e.gen == gen && addr&7 == 0 && addr-e.base < e.wlen {
						leStore(e.pg.data, addr-e.base, math.Float64bits(c.F[u.d&15]))
					} else if flt := icStoreSlow(m, e, addr, math.Float64bits(c.F[u.d&15])); flt != nil {
						c.superTrap(base, entry, i, done, img, flt.Sig, flt.Addr, cnts)
						return done + uint64(i) + 1, false
					}
					if i+1 < n {
						a2 := c.R[u.a2&15] + Word(u.imm2)
						var v Word
						if e := &ics[u.ic2]; e.gen == gen && a2&7 == 0 && a2-e.base < e.rlen {
							v = leLoad(e.pg.data, a2-e.base)
						} else {
							var flt *Fault
							if v, flt = icLoadSlow(m, e, a2); flt != nil {
								c.superTrap(base, entry, i+1, done, img, flt.Sig, flt.Addr, cnts)
								return done + uint64(i) + 2, false
							}
						}
						c.F[u.d2&15] = math.Float64frombits(v)
						i++
					}
				case uPFLdFLd: // fload ; fload
					addr := c.R[u.a&15] + Word(u.imm)
					var v Word
					if e := &ics[u.ic]; e.gen == gen && addr&7 == 0 && addr-e.base < e.rlen {
						v = leLoad(e.pg.data, addr-e.base)
					} else {
						var flt *Fault
						if v, flt = icLoadSlow(m, e, addr); flt != nil {
							c.superTrap(base, entry, i, done, img, flt.Sig, flt.Addr, cnts)
							return done + uint64(i) + 1, false
						}
					}
					c.F[u.d&15] = math.Float64frombits(v)
					if i+1 < n {
						a2 := c.R[u.a2&15] + Word(u.imm2)
						var v2 Word
						if e := &ics[u.ic2]; e.gen == gen && a2&7 == 0 && a2-e.base < e.rlen {
							v2 = leLoad(e.pg.data, a2-e.base)
						} else {
							var flt *Fault
							if v2, flt = icLoadSlow(m, e, a2); flt != nil {
								c.superTrap(base, entry, i+1, done, img, flt.Sig, flt.Addr, cnts)
								return done + uint64(i) + 2, false
							}
						}
						c.F[u.d2&15] = math.Float64frombits(v2)
						i++
					}
				case uPFStLd: // fstore ; load
					addr := c.R[u.a&15] + Word(u.imm)
					if e := &ics[u.ic]; e.gen == gen && addr&7 == 0 && addr-e.base < e.wlen {
						leStore(e.pg.data, addr-e.base, math.Float64bits(c.F[u.d&15]))
					} else if flt := icStoreSlow(m, e, addr, math.Float64bits(c.F[u.d&15])); flt != nil {
						c.superTrap(base, entry, i, done, img, flt.Sig, flt.Addr, cnts)
						return done + uint64(i) + 1, false
					}
					if i+1 < n {
						a2 := c.R[u.a2&15] + Word(u.imm2)
						var v Word
						if e := &ics[u.ic2]; e.gen == gen && a2&7 == 0 && a2-e.base < e.rlen {
							v = leLoad(e.pg.data, a2-e.base)
						} else {
							var flt *Fault
							if v, flt = icLoadSlow(m, e, a2); flt != nil {
								c.superTrap(base, entry, i+1, done, img, flt.Sig, flt.Addr, cnts)
								return done + uint64(i) + 2, false
							}
						}
						c.R[u.d2&15] = v
						i++
					}
				case uPStFLd: // store ; fload
					addr := c.R[u.a&15] + Word(u.imm)
					if e := &ics[u.ic]; e.gen == gen && addr&7 == 0 && addr-e.base < e.wlen {
						leStore(e.pg.data, addr-e.base, c.R[u.d&15])
					} else if flt := icStoreSlow(m, e, addr, c.R[u.d&15]); flt != nil {
						c.superTrap(base, entry, i, done, img, flt.Sig, flt.Addr, cnts)
						return done + uint64(i) + 1, false
					}
					if i+1 < n {
						a2 := c.R[u.a2&15] + Word(u.imm2)
						var v Word
						if e := &ics[u.ic2]; e.gen == gen && a2&7 == 0 && a2-e.base < e.rlen {
							v = leLoad(e.pg.data, a2-e.base)
						} else {
							var flt *Fault
							if v, flt = icLoadSlow(m, e, a2); flt != nil {
								c.superTrap(base, entry, i+1, done, img, flt.Sig, flt.Addr, cnts)
								return done + uint64(i) + 2, false
							}
						}
						c.F[u.d2&15] = math.Float64frombits(v)
						i++
					}
				case uPFLdFSt: // fload ; fstore
					addr := c.R[u.a&15] + Word(u.imm)
					var v Word
					if e := &ics[u.ic]; e.gen == gen && addr&7 == 0 && addr-e.base < e.rlen {
						v = leLoad(e.pg.data, addr-e.base)
					} else {
						var flt *Fault
						if v, flt = icLoadSlow(m, e, addr); flt != nil {
							c.superTrap(base, entry, i, done, img, flt.Sig, flt.Addr, cnts)
							return done + uint64(i) + 1, false
						}
					}
					c.F[u.d&15] = math.Float64frombits(v)
					if i+1 < n {
						a2 := c.R[u.a2&15] + Word(u.imm2)
						if e := &ics[u.ic2]; e.gen == gen && a2&7 == 0 && a2-e.base < e.wlen {
							leStore(e.pg.data, a2-e.base, math.Float64bits(c.F[u.d2&15]))
						} else if flt := icStoreSlow(m, e, a2, math.Float64bits(c.F[u.d2&15])); flt != nil {
							c.superTrap(base, entry, i+1, done, img, flt.Sig, flt.Addr, cnts)
							return done + uint64(i) + 2, false
						}
						i++
					}
				case uPLdFLdX: // load ; floadX
					addr := c.R[u.a&15] + Word(u.imm)
					var v Word
					if e := &ics[u.ic]; e.gen == gen && addr&7 == 0 && addr-e.base < e.rlen {
						v = leLoad(e.pg.data, addr-e.base)
					} else {
						var flt *Fault
						if v, flt = icLoadSlow(m, e, addr); flt != nil {
							c.superTrap(base, entry, i, done, img, flt.Sig, flt.Addr, cnts)
							return done + uint64(i) + 1, false
						}
					}
					c.R[u.d&15] = v
					if i+1 < n {
						a2 := c.R[u.a2&15] + c.R[u.b2&15]*Word(u.s2) + Word(u.imm2)
						var v2 Word
						if e := &ics[u.ic2]; e.gen == gen && a2&7 == 0 && a2-e.base < e.rlen {
							v2 = leLoad(e.pg.data, a2-e.base)
						} else {
							var flt *Fault
							if v2, flt = icLoadSlow(m, e, a2); flt != nil {
								c.superTrap(base, entry, i+1, done, img, flt.Sig, flt.Addr, cnts)
								return done + uint64(i) + 2, false
							}
						}
						c.F[u.d2&15] = math.Float64frombits(v2)
						i++
					}
				case uPFLdXFSt: // floadX ; fstore
					addr := c.R[u.a&15] + c.R[u.b&15]*Word(u.scale) + Word(u.imm)
					var v Word
					if e := &ics[u.ic]; e.gen == gen && addr&7 == 0 && addr-e.base < e.rlen {
						v = leLoad(e.pg.data, addr-e.base)
					} else {
						var flt *Fault
						if v, flt = icLoadSlow(m, e, addr); flt != nil {
							c.superTrap(base, entry, i, done, img, flt.Sig, flt.Addr, cnts)
							return done + uint64(i) + 1, false
						}
					}
					c.F[u.d&15] = math.Float64frombits(v)
					if i+1 < n {
						a2 := c.R[u.a2&15] + Word(u.imm2)
						if e := &ics[u.ic2]; e.gen == gen && a2&7 == 0 && a2-e.base < e.wlen {
							leStore(e.pg.data, a2-e.base, math.Float64bits(c.F[u.d2&15]))
						} else if flt := icStoreSlow(m, e, a2, math.Float64bits(c.F[u.d2&15])); flt != nil {
							c.superTrap(base, entry, i+1, done, img, flt.Sig, flt.Addr, cnts)
							return done + uint64(i) + 2, false
						}
						i++
					}
				case uPFLdXLd: // floadX ; load
					addr := c.R[u.a&15] + c.R[u.b&15]*Word(u.scale) + Word(u.imm)
					var v Word
					if e := &ics[u.ic]; e.gen == gen && addr&7 == 0 && addr-e.base < e.rlen {
						v = leLoad(e.pg.data, addr-e.base)
					} else {
						var flt *Fault
						if v, flt = icLoadSlow(m, e, addr); flt != nil {
							c.superTrap(base, entry, i, done, img, flt.Sig, flt.Addr, cnts)
							return done + uint64(i) + 1, false
						}
					}
					c.F[u.d&15] = math.Float64frombits(v)
					if i+1 < n {
						a2 := c.R[u.a2&15] + Word(u.imm2)
						var v2 Word
						if e := &ics[u.ic2]; e.gen == gen && a2&7 == 0 && a2-e.base < e.rlen {
							v2 = leLoad(e.pg.data, a2-e.base)
						} else {
							var flt *Fault
							if v2, flt = icLoadSlow(m, e, a2); flt != nil {
								c.superTrap(base, entry, i+1, done, img, flt.Sig, flt.Addr, cnts)
								return done + uint64(i) + 2, false
							}
						}
						c.R[u.d2&15] = v2
						i++
					}
				case uPLdLdX: // load ; loadX
					addr := c.R[u.a&15] + Word(u.imm)
					var v Word
					if e := &ics[u.ic]; e.gen == gen && addr&7 == 0 && addr-e.base < e.rlen {
						v = leLoad(e.pg.data, addr-e.base)
					} else {
						var flt *Fault
						if v, flt = icLoadSlow(m, e, addr); flt != nil {
							c.superTrap(base, entry, i, done, img, flt.Sig, flt.Addr, cnts)
							return done + uint64(i) + 1, false
						}
					}
					c.R[u.d&15] = v
					if i+1 < n {
						a2 := c.R[u.a2&15] + c.R[u.b2&15]*Word(u.s2) + Word(u.imm2)
						var v2 Word
						if e := &ics[u.ic2]; e.gen == gen && a2&7 == 0 && a2-e.base < e.rlen {
							v2 = leLoad(e.pg.data, a2-e.base)
						} else {
							var flt *Fault
							if v2, flt = icLoadSlow(m, e, a2); flt != nil {
								c.superTrap(base, entry, i+1, done, img, flt.Sig, flt.Addr, cnts)
								return done + uint64(i) + 2, false
							}
						}
						c.R[u.d2&15] = v2
						i++
					}
				case uPLdXLd: // loadX ; load
					addr := c.R[u.a&15] + c.R[u.b&15]*Word(u.scale) + Word(u.imm)
					var v Word
					if e := &ics[u.ic]; e.gen == gen && addr&7 == 0 && addr-e.base < e.rlen {
						v = leLoad(e.pg.data, addr-e.base)
					} else {
						var flt *Fault
						if v, flt = icLoadSlow(m, e, addr); flt != nil {
							c.superTrap(base, entry, i, done, img, flt.Sig, flt.Addr, cnts)
							return done + uint64(i) + 1, false
						}
					}
					c.R[u.d&15] = v
					if i+1 < n {
						a2 := c.R[u.a2&15] + Word(u.imm2)
						var v2 Word
						if e := &ics[u.ic2]; e.gen == gen && a2&7 == 0 && a2-e.base < e.rlen {
							v2 = leLoad(e.pg.data, a2-e.base)
						} else {
							var flt *Fault
							if v2, flt = icLoadSlow(m, e, a2); flt != nil {
								c.superTrap(base, entry, i+1, done, img, flt.Sig, flt.Addr, cnts)
								return done + uint64(i) + 2, false
							}
						}
						c.R[u.d2&15] = v2
						i++
					}
				case uPLdSetI, uPLdSetR: // load ; set
					addr := c.R[u.a&15] + Word(u.imm)
					var v Word
					if e := &ics[u.ic]; e.gen == gen && addr&7 == 0 && addr-e.base < e.rlen {
						v = leLoad(e.pg.data, addr-e.base)
					} else {
						var flt *Fault
						if v, flt = icLoadSlow(m, e, addr); flt != nil {
							c.superTrap(base, entry, i, done, img, flt.Sig, flt.Addr, cnts)
							return done + uint64(i) + 1, false
						}
					}
					c.R[u.d&15] = v
					if i+1 < n {
						s2 := u.imm2
						if u.op == uPLdSetR {
							s2 = int64(c.R[u.b2&15])
						}
						c.R[u.d2&15] = boolWord(cmpInt(u.cond2, int64(c.R[u.a2&15]), s2))
						i++
					}
				case uPSetISt, uPSetRSt: // set ; store
					s1 := u.imm
					if u.op == uPSetRSt {
						s1 = int64(c.R[u.b&15])
					}
					c.R[u.d&15] = boolWord(cmpInt(u.cond, int64(c.R[u.a&15]), s1))
					if i+1 < n {
						a2 := c.R[u.a2&15] + Word(u.imm2)
						if e := &ics[u.ic2]; e.gen == gen && a2&7 == 0 && a2-e.base < e.wlen {
							leStore(e.pg.data, a2-e.base, c.R[u.d2&15])
						} else if flt := icStoreSlow(m, e, a2, c.R[u.d2&15]); flt != nil {
							c.superTrap(base, entry, i+1, done, img, flt.Sig, flt.Addr, cnts)
							return done + uint64(i) + 2, false
						}
						i++
					}
				case uPAddRSt, uPAddISt: // add ; store
					if u.op == uPAddRSt {
						c.R[u.d&15] = c.R[u.a&15] + c.R[u.b&15]
					} else {
						c.R[u.d&15] = c.R[u.a&15] + Word(u.imm)
					}
					if i+1 < n {
						a2 := c.R[u.a2&15] + Word(u.imm2)
						if e := &ics[u.ic2]; e.gen == gen && a2&7 == 0 && a2-e.base < e.wlen {
							leStore(e.pg.data, a2-e.base, c.R[u.d2&15])
						} else if flt := icStoreSlow(m, e, a2, c.R[u.d2&15]); flt != nil {
							c.superTrap(base, entry, i+1, done, img, flt.Sig, flt.Addr, cnts)
							return done + uint64(i) + 2, false
						}
						i++
					}
				case uPLdAddR, uPLdAddI: // load ; add
					addr := c.R[u.a&15] + Word(u.imm)
					var v Word
					if e := &ics[u.ic]; e.gen == gen && addr&7 == 0 && addr-e.base < e.rlen {
						v = leLoad(e.pg.data, addr-e.base)
					} else {
						var flt *Fault
						if v, flt = icLoadSlow(m, e, addr); flt != nil {
							c.superTrap(base, entry, i, done, img, flt.Sig, flt.Addr, cnts)
							return done + uint64(i) + 1, false
						}
					}
					c.R[u.d&15] = v
					if i+1 < n {
						if u.op == uPLdAddR {
							c.R[u.d2&15] = c.R[u.a2&15] + c.R[u.b2&15]
						} else {
							c.R[u.d2&15] = c.R[u.a2&15] + Word(u.imm2)
						}
						i++
					}
				case uPMovFMov: // mov ; fmov — O1 copy coalescing
					c.R[u.d&15] = c.R[u.a&15]
					if i+1 < n {
						c.F[u.d2&15] = c.F[u.a2&15]
						i++
					}
				case uPAddIMov: // addI ; mov
					c.R[u.d&15] = c.R[u.a&15] + Word(u.imm)
					if i+1 < n {
						c.R[u.d2&15] = c.R[u.a2&15]
						i++
					}
				case uPFMulFAdd: // fmul ; fadd
					c.F[u.d&15] = c.F[u.a&15] * c.F[u.b&15]
					if i+1 < n {
						c.F[u.d2&15] = c.F[u.a2&15] + c.F[u.b2&15]
						i++
					}
				case uPAddRLd: // addR ; load
					c.R[u.d&15] = c.R[u.a&15] + c.R[u.b&15]
					if i+1 < n {
						a2 := c.R[u.a2&15] + Word(u.imm2)
						var v Word
						if e := &ics[u.ic2]; e.gen == gen && a2&7 == 0 && a2-e.base < e.rlen {
							v = leLoad(e.pg.data, a2-e.base)
						} else {
							var flt *Fault
							if v, flt = icLoadSlow(m, e, a2); flt != nil {
								c.superTrap(base, entry, i+1, done, img, flt.Sig, flt.Addr, cnts)
								return done + uint64(i) + 2, false
							}
						}
						c.R[u.d2&15] = v
						i++
					}
				case uPFLdXFMul: // floadX ; fmul
					addr := c.R[u.a&15] + c.R[u.b&15]*Word(u.scale) + Word(u.imm)
					var v Word
					if e := &ics[u.ic]; e.gen == gen && addr&7 == 0 && addr-e.base < e.rlen {
						v = leLoad(e.pg.data, addr-e.base)
					} else {
						var flt *Fault
						if v, flt = icLoadSlow(m, e, addr); flt != nil {
							c.superTrap(base, entry, i, done, img, flt.Sig, flt.Addr, cnts)
							return done + uint64(i) + 1, false
						}
					}
					c.F[u.d&15] = math.Float64frombits(v)
					if i+1 < n {
						c.F[u.d2&15] = c.F[u.a2&15] * c.F[u.b2&15]
						i++
					}
				case uPFAddAddI: // fadd ; addI
					c.F[u.d&15] = c.F[u.a&15] + c.F[u.b&15]
					if i+1 < n {
						c.R[u.d2&15] = c.R[u.a2&15] + Word(u.imm2)
						i++
					}
				}
			}
			if cnts != nil {
				for j := entry; j < entry+n; j++ {
					cnts[j]++
				}
			}
			done += uint64(n)
			idx = entry + n
			// An unclamped chain always lands on a runLen-0 µop (its
			// terminating branch/call/punt — runLen has no cap), so fall
			// straight into the control switch instead of paying another
			// outer-loop dispatch round; the clamped cases (budget, end of
			// image) still take the loop prologue.
			if done < budget && uint(idx) < uint(len(fuops)) {
				goto control
			}
			continue
		}

		// runLen is 0: idx sits on a control (or punting) µop.
	control:
		u := &fuops[idx]
		switch u.op {
		case uPunt:
			c.PC = base + Word(8*idx)
			c.Dyn += done
			return done, true
		case uJmp:
			done++
			if cnts != nil {
				cnts[idx]++
			}
			if t := int(u.tidx); t >= 0 {
				idx = t
				continue
			}
			// Demoted at predecode: materialise the exact target PC and
			// return to Run's dispatch (which re-resolves or traps).
			c.PC = u.target
			c.Dyn += done
			return done, false
		case uJnz, uJz:
			done++
			if cnts != nil {
				cnts[idx]++
			}
			if (c.R[u.a&15] != 0) != (u.op == uJnz) {
				// Not taken: plain fallthrough retirement.
				idx++
				continue
			}
			if t := int(u.tidx); t >= 0 {
				idx = t
				continue
			}
			c.PC = u.target
			c.Dyn += done
			return done, false
		case uCall:
			// The stack write commits SP only on success, so a faulting
			// call leaves SP exactly where the Step loop's restore does.
			sp := c.R[SP] - 8
			if e := sIC; e.gen == gen && sp&7 == 0 && sp-e.base < e.wlen {
				leStore(e.pg.data, sp-e.base, base+Word(8*idx)+8)
			} else if flt := icStoreSlow(m, e, sp, base+Word(8*idx)+8); flt != nil {
				c.blockTrap(base+Word(8*idx), done, img, idx, flt.Sig, flt.Addr)
				return done + 1, false
			}
			c.R[SP] = sp
			done++
			if cnts != nil {
				cnts[idx]++
			}
			if t := int(u.tidx); t >= 0 {
				idx = t
				continue
			}
			c.PC = u.target
			c.Dyn += done
			return done, false
		case uRet:
			var ra Word
			if e := sIC; e.gen == gen && c.R[SP]&7 == 0 && c.R[SP]-e.base < e.rlen {
				ra = leLoad(e.pg.data, c.R[SP]-e.base)
			} else {
				var flt *Fault
				if ra, flt = icLoadSlow(m, e, c.R[SP]); flt != nil {
					c.blockTrap(base+Word(8*idx), done, img, idx, flt.Sig, flt.Addr)
					return done + 1, false
				}
			}
			c.R[SP] += 8
			done++
			if cnts != nil {
				cnts[idx]++
			}
			// The return address is computed, so it links at runtime: re-
			// enter the µop array when it stays aligned inside this image,
			// else fall out to dispatch with the exact PC (which also
			// covers corrupted return addresses — the misaligned-PC
			// punt above takes over on re-entry).
			if off := ra - base; off&7 == 0 && off>>3 < Word(len(fuops)) {
				idx = int(off >> 3)
				continue
			}
			c.PC = ra
			c.Dyn += done
			return done, false
		}
	}
	c.PC = base + Word(8*idx)
	c.Dyn += done
	return done, false
}
