package machine

import (
	"errors"
	"fmt"
	"math"

	"care/internal/hostenv"
	"care/internal/trace"
)

// RunStatus reports why the CPU stopped.
type RunStatus uint8

// Run statuses.
const (
	// StatusRunning: the CPU can still step.
	StatusRunning RunStatus = iota
	// StatusExited: the program called exit/halt; ExitCode is valid.
	StatusExited
	// StatusTrapped: an unhandled (or handler-killed) trap occurred;
	// PendingTrap is valid. The process is dead.
	StatusTrapped
	// StatusBlocked: a collective host call is waiting on other ranks.
	StatusBlocked
	// StatusLimit: the step budget given to Run was exhausted.
	StatusLimit
)

var runStatusNames = [...]string{"running", "exited", "trapped", "blocked", "limit"}

// String renders the status; out-of-range values render as
// "unknown(N)" instead of panicking.
func (s RunStatus) String() string {
	if int(s) < len(runStatusNames) {
		return runStatusNames[s]
	}
	return fmt.Sprintf("unknown(%d)", uint8(s))
}

// Trap describes a fault delivered to the process.
type Trap struct {
	Sig   Signal
	PC    Word
	Addr  Word // faulting data address (SEGV/BUS)
	Img   *Image
	Idx   int // code index within Img
	Instr *MInstr
}

// Error implements error.
func (t *Trap) Error() string {
	return fmt.Sprintf("%s: pc=0x%x addr=0x%x", t.Sig, t.PC, t.Addr)
}

// TrapAction is a trap handler's verdict.
type TrapAction uint8

// Trap actions.
const (
	// TrapKill terminates the process (default signal disposition).
	TrapKill TrapAction = iota
	// TrapResume re-executes the faulting instruction with the (possibly
	// patched) context.
	TrapResume
)

// TrapHandler is the software signal handler hook; Safeguard installs
// one. The handler may mutate the CPU's registers and memory.
type TrapHandler func(c *CPU, t *Trap) TrapAction

// StepHook is invoked right after an instruction retires; the fault
// injector uses it to corrupt destination operands "right after the
// instruction is executed" (paper §2.1.1).
type StepHook func(c *CPU, img *Image, idx int, in *MInstr)

// CPU is one simulated hardware thread plus its process context
// (images, memory, host environment).
type CPU struct {
	Mem *Memory
	Env *hostenv.Env

	R [NumReg]Word
	F [NumFReg]float64

	PC     Word
	Images []*Image
	cur    *Image

	// Dyn counts retired dynamic instructions.
	Dyn uint64
	// ExitCode is valid after StatusExited.
	ExitCode Word

	// Handler, when non-nil, receives traps before they kill the
	// process.
	Handler TrapHandler

	// Profile enables per-static-instruction execution counting.
	Profile bool
	// Counts[img][idx] is the execution count of static instruction idx
	// of image img (populated when Profile is set).
	Counts map[*Image][]uint64

	// BeforeStep, when non-nil, runs before an instruction executes
	// (registers still hold the operand values the instruction will
	// read). Taint tracking uses it to apply propagation rules.
	BeforeStep StepHook
	// afterHooks are the retire hooks installed with AddAfterStep, run
	// after every retired instruction in installation order. Removed
	// hooks leave nil slots so installation order is stable.
	afterHooks []StepHook

	// Status is the current run status.
	Status RunStatus
	// PendingTrap is the fatal trap after StatusTrapped.
	PendingTrap *Trap

	// Trace, when non-nil, receives a KindTrap stamp for every trap the
	// CPU delivers (before any handler runs). It is nil by default so
	// the step path pays nothing when tracing is off.
	Trace *trace.Recorder

	// Tier selects the interpreter loop Run uses when no hooks are
	// installed: the fused superblock engine (the zero-value default)
	// or the legacy Step loop. Campaigns expose it (-interp) so the
	// engine's bit-identity can be checked end to end; results must not
	// depend on it.
	Tier InterpTier

	// afterLive counts the non-nil entries of afterHooks, so Hooked (and
	// with it Run's engine eligibility check) is O(1) instead of scanning
	// the (append-only, nil-holed) hook slice every iteration.
	afterLive int

	// ics holds this CPU's per-image memory inline caches (one slot
	// per memory µop of the image's plan). Strictly per-CPU: plans are
	// shared across processes, cache contents must not be.
	ics map[*Image][]icEntry
	// stackIC is the dedicated stack inline cache shared by every
	// stack-traffic µop (call/ret/push/pop): SP stays inside one page of
	// the stack for long stretches of a run, so one slot per CPU hits
	// where per-µop slots would each warm separately. Validated by the
	// same Memory generation check as the per-µop slots, so Unmap and
	// snapshot Restore invalidate it identically.
	stackIC icEntry
	// curPlan/curICs/curCounts cache the current image's derived state
	// (µop plan, inline-cache slots, profile counts slice) so the hot
	// loops pay the map lookups only on image switch. Invalidated by
	// setCur.
	curPlan   *blockPlan
	curICs    []icEntry
	curCounts []uint64

	hostArgBuf [8]Word
}

// AddAfterStep installs a retire hook without disturbing previously
// installed ones, and returns a function that removes exactly this
// hook. Several subsystems observe retirement at once (fault injectors
// arming independent faults, the checkpoint cadence, tracers), so hooks
// must compose rather than overwrite each other.
func (c *CPU) AddAfterStep(h StepHook) (remove func()) {
	c.afterHooks = append(c.afterHooks, h)
	c.afterLive++
	i := len(c.afterHooks) - 1
	return func() {
		if c.afterHooks[i] != nil {
			c.afterHooks[i] = nil
			c.afterLive--
		}
	}
}

// Hooked reports whether a step hook is live: BeforeStep or a hook
// installed with AddAfterStep. Run executes on the predecoded engine
// only while it is false, and a run's future depends on its state alone
// (the premise of snapshot comparison) only while no hook can
// intervene.
func (c *CPU) Hooked() bool {
	return c.BeforeStep != nil || c.afterLive != 0
}

// Context is the architectural state a trap handler may capture and
// later restore to roll the CPU back to an earlier point of its
// trap loop (registers, program counter, retired-instruction count).
// Memory is deliberately not part of a Context; pair it with a
// Memory.Snapshot for a full checkpoint.
type Context struct {
	R   [NumReg]Word
	F   [NumFReg]float64
	PC  Word
	Dyn uint64
}

// Context captures the CPU's architectural state.
func (c *CPU) Context() Context {
	return Context{R: c.R, F: c.F, PC: c.PC, Dyn: c.Dyn}
}

// SetContext restores architectural state captured by Context and
// re-arms the trap loop: the pending trap (if any) is discarded, the
// run status returns to StatusRunning, and the current-image cache is
// invalidated so the next Step refetches from the restored PC. A trap
// handler that calls SetContext and returns TrapResume resumes
// execution at the restored PC instead of re-executing the faulting
// instruction.
func (c *CPU) SetContext(ctx Context) {
	c.R = ctx.R
	c.F = ctx.F
	c.PC = ctx.PC
	c.Dyn = ctx.Dyn
	c.Status = StatusRunning
	c.PendingTrap = nil
	c.setCur(nil)
}

// NewCPU creates a CPU over the given memory and host environment.
func NewCPU(mem *Memory, env *hostenv.Env) *CPU {
	if env == nil {
		env = hostenv.NewEnv()
	}
	return &CPU{Mem: mem, Env: env, Status: StatusRunning}
}

// Attach adds a loaded image to the process.
func (c *CPU) Attach(im *Image) { c.Images = append(c.Images, im) }

// FindImage returns the image whose code contains pc (dladdr).
func (c *CPU) FindImage(pc Word) *Image {
	for _, im := range c.Images {
		if im.Contains(pc) {
			return im
		}
	}
	return nil
}

// InitStack maps the main stack and points SP at its top.
func (c *CPU) InitStack() error {
	_, err := c.Mem.Map(StackTop-DefaultStackSize, DefaultStackSize, "stack")
	if err != nil {
		return err
	}
	c.R[SP] = StackTop
	c.R[FP] = StackTop
	return nil
}

// Start positions the CPU at the named function of the image (normally
// "_start" of the main executable).
func (c *CPU) Start(im *Image, fn string) error {
	entry, ok := im.Prog.FuncEntry(fn)
	if !ok {
		return fmt.Errorf("machine: no function %q in %s", fn, im.Prog.Name)
	}
	c.PC = entry
	c.Status = StatusRunning
	return nil
}

func (c *CPU) trap(t *Trap) {
	if c.Trace != nil {
		c.Trace.Emit(trace.Span{
			Kind: trace.KindTrap, Parent: trace.NoParent,
			StartDyn: c.Dyn, EndDyn: c.Dyn,
			PC: t.PC, Addr: t.Addr, Outcome: t.Sig.String(),
		})
	}
	if c.Handler != nil {
		if c.Handler(c, t) == TrapResume {
			return // retry same PC
		}
	}
	c.Status = StatusTrapped
	c.PendingTrap = t
}

// Step executes one instruction. It updates Status; callers loop on
// StatusRunning.
func (c *CPU) Step() {
	img := c.cur
	if img == nil || !img.Contains(c.PC) {
		img = c.FindImage(c.PC)
		if img == nil {
			c.trap(&Trap{Sig: SigILL, PC: c.PC})
			return
		}
		c.setCur(img)
	}
	idx := int((c.PC - img.Base()) >> 3)
	in := &img.Prog.Code[idx]
	if c.BeforeStep != nil {
		c.BeforeStep(c, img, idx, in)
	}
	nextPC := c.PC + 8

	// src2 is the second ALU operand (Rb or the immediate), fetched up
	// front as a plain value: the ALU cases are the hottest in the
	// dispatch and a per-instruction closure cost an indirect call on
	// every one of them. The Rb bound check keeps instructions that
	// leave Rb at NoReg from indexing out of the register file.
	var src2 Word
	if in.UseImm {
		src2 = Word(in.Imm)
	} else if in.Rb < NumReg {
		src2 = c.R[in.Rb]
	}

	switch in.Op {
	case MNop:
	case MMovImm:
		c.R[in.Rd] = Word(in.Imm)
	case MMov:
		c.R[in.Rd] = c.R[in.Ra]
	case MAdd:
		c.R[in.Rd] = c.R[in.Ra] + src2
	case MSub:
		c.R[in.Rd] = c.R[in.Ra] - src2
	case MMul:
		c.R[in.Rd] = Word(int64(c.R[in.Ra]) * int64(src2))
	case MDiv:
		d := int64(src2)
		n := int64(c.R[in.Ra])
		if d == 0 || (n == math.MinInt64 && d == -1) {
			c.trap(&Trap{Sig: SigFPE, PC: c.PC, Img: img, Idx: idx, Instr: in})
			return
		}
		c.R[in.Rd] = Word(n / d)
	case MRem:
		d := int64(src2)
		n := int64(c.R[in.Ra])
		if d == 0 || (n == math.MinInt64 && d == -1) {
			c.trap(&Trap{Sig: SigFPE, PC: c.PC, Img: img, Idx: idx, Instr: in})
			return
		}
		c.R[in.Rd] = Word(n % d)
	case MAnd:
		c.R[in.Rd] = c.R[in.Ra] & src2
	case MOr:
		c.R[in.Rd] = c.R[in.Ra] | src2
	case MXor:
		c.R[in.Rd] = c.R[in.Ra] ^ src2
	case MShl:
		c.R[in.Rd] = c.R[in.Ra] << (src2 & 63)
	case MShr:
		c.R[in.Rd] = Word(int64(c.R[in.Ra]) >> (src2 & 63))
	case MFMovImm:
		c.F[in.Fd] = math.Float64frombits(Word(in.Imm))
	case MFMov:
		c.F[in.Fd] = c.F[in.Fa]
	case MFAdd:
		c.F[in.Fd] = c.F[in.Fa] + c.F[in.Fb]
	case MFSub:
		c.F[in.Fd] = c.F[in.Fa] - c.F[in.Fb]
	case MFMul:
		c.F[in.Fd] = c.F[in.Fa] * c.F[in.Fb]
	case MFDiv:
		c.F[in.Fd] = c.F[in.Fa] / c.F[in.Fb]
	case MCvtIF:
		c.F[in.Fd] = float64(int64(c.R[in.Ra]))
	case MCvtFI:
		c.R[in.Rd] = Word(int64(c.F[in.Fa]))
	case MBitIF:
		c.F[in.Fd] = math.Float64frombits(c.R[in.Ra])
	case MBitFI:
		c.R[in.Rd] = math.Float64bits(c.F[in.Fa])
	case MSet:
		a, b := int64(c.R[in.Ra]), int64(src2)
		c.R[in.Rd] = boolWord(cmpInt(in.Cond, a, b))
	case MFSet:
		c.R[in.Rd] = boolWord(cmpFloat(in.Cond, c.F[in.Fa], c.F[in.Fb]))
	case MLea:
		c.R[in.Rd] = in.EffectiveAddr(&c.R)
	case MLoad:
		v, f := c.Mem.Read(in.EffectiveAddr(&c.R))
		if f != nil {
			c.trap(&Trap{Sig: f.Sig, PC: c.PC, Addr: f.Addr, Img: img, Idx: idx, Instr: in})
			return
		}
		c.R[in.Rd] = v
	case MFLoad:
		v, f := c.Mem.Read(in.EffectiveAddr(&c.R))
		if f != nil {
			c.trap(&Trap{Sig: f.Sig, PC: c.PC, Addr: f.Addr, Img: img, Idx: idx, Instr: in})
			return
		}
		c.F[in.Fd] = math.Float64frombits(v)
	case MStore:
		if f := c.Mem.Write(in.EffectiveAddr(&c.R), c.R[in.Ra]); f != nil {
			c.trap(&Trap{Sig: f.Sig, PC: c.PC, Addr: f.Addr, Img: img, Idx: idx, Instr: in})
			return
		}
	case MFStore:
		if f := c.Mem.Write(in.EffectiveAddr(&c.R), math.Float64bits(c.F[in.Fa])); f != nil {
			c.trap(&Trap{Sig: f.Sig, PC: c.PC, Addr: f.Addr, Img: img, Idx: idx, Instr: in})
			return
		}
	case MJmp:
		nextPC = in.Target
	case MJnz:
		if c.R[in.Ra] != 0 {
			nextPC = in.Target
		}
	case MJz:
		if c.R[in.Ra] == 0 {
			nextPC = in.Target
		}
	case MCall:
		c.R[SP] -= 8
		if f := c.Mem.Write(c.R[SP], nextPC); f != nil {
			c.R[SP] += 8
			c.trap(&Trap{Sig: f.Sig, PC: c.PC, Addr: f.Addr, Img: img, Idx: idx, Instr: in})
			return
		}
		nextPC = in.Target
	case MRet:
		ra, f := c.Mem.Read(c.R[SP])
		if f != nil {
			c.trap(&Trap{Sig: f.Sig, PC: c.PC, Addr: f.Addr, Img: img, Idx: idx, Instr: in})
			return
		}
		c.R[SP] += 8
		nextPC = ra
	case MPush:
		c.R[SP] -= 8
		if f := c.Mem.Write(c.R[SP], c.R[in.Ra]); f != nil {
			c.R[SP] += 8
			c.trap(&Trap{Sig: f.Sig, PC: c.PC, Addr: f.Addr, Img: img, Idx: idx, Instr: in})
			return
		}
	case MPop:
		v, f := c.Mem.Read(c.R[SP])
		if f != nil {
			c.trap(&Trap{Sig: f.Sig, PC: c.PC, Addr: f.Addr, Img: img, Idx: idx, Instr: in})
			return
		}
		c.R[SP] += 8
		c.R[in.Rd] = v
	case MFPush:
		c.R[SP] -= 8
		if f := c.Mem.Write(c.R[SP], math.Float64bits(c.F[in.Fa])); f != nil {
			c.R[SP] += 8
			c.trap(&Trap{Sig: f.Sig, PC: c.PC, Addr: f.Addr, Img: img, Idx: idx, Instr: in})
			return
		}
	case MFPop:
		v, f := c.Mem.Read(c.R[SP])
		if f != nil {
			c.trap(&Trap{Sig: f.Sig, PC: c.PC, Addr: f.Addr, Img: img, Idx: idx, Instr: in})
			return
		}
		c.R[SP] += 8
		c.F[in.Fd] = math.Float64frombits(v)
	case MHost:
		args := c.hostArgBuf[:in.HostArgs]
		for i := 0; i < in.HostArgs; i++ {
			v, f := c.Mem.Read(c.R[SP] + Word(8*(in.HostArgs-1-i)))
			if f != nil {
				c.trap(&Trap{Sig: f.Sig, PC: c.PC, Addr: f.Addr, Img: img, Idx: idx, Instr: in})
				return
			}
			args[i] = v
		}
		res, st, err := c.Env.Call(in.Host, args, c.Mem.HostContext())
		if err != nil {
			sig := SigSEGV
			var addr Word
			var det *hostenv.DetectFault
			if errors.Is(err, hostenv.ErrAbort) {
				sig = SigABRT
			} else if errors.As(err, &det) {
				sig, addr = SigTRAP, det.Addr
			} else if f, ok := err.(*Fault); ok {
				sig = f.Sig
			}
			c.trap(&Trap{Sig: sig, PC: c.PC, Addr: addr, Img: img, Idx: idx, Instr: in})
			return
		}
		switch st {
		case hostenv.Block:
			c.Status = StatusBlocked
			return // PC unchanged; the call re-issues after unblocking
		case hostenv.Exit:
			c.Status = StatusExited
			c.ExitCode = res
			return
		}
		c.R[R0] = res
	case MAbort:
		c.trap(&Trap{Sig: SigABRT, PC: c.PC, Img: img, Idx: idx, Instr: in})
		return
	case MHalt:
		c.Status = StatusExited
		c.ExitCode = c.R[in.Ra]
		return
	default:
		c.trap(&Trap{Sig: SigILL, PC: c.PC, Img: img, Idx: idx, Instr: in})
		return
	}

	c.Dyn++
	if c.Profile {
		cnts := c.curCounts
		if cnts == nil {
			cnts = c.countsFor(img)
			c.curCounts = cnts
		}
		cnts[idx]++
	}
	c.PC = nextPC
	for i := 0; i < len(c.afterHooks); i++ {
		if h := c.afterHooks[i]; h != nil {
			h(c, img, idx, in)
		}
	}
}

// Run steps the CPU until it exits, traps, blocks, or retires `limit`
// additional instructions (0 means no limit). It returns the status.
//
// When no step hook is installed and Tier is not TierStep, Run executes
// through the predecoded superblock engine, which batches budget and
// Dyn accounting and materialises PC lazily; see engine.go. The
// instructions the engine punts (host calls, abort/halt, malformed
// operands, and any instruction at a misaligned PC) run one Step each.
// A TierStep run never builds the Program's µop plan, which is why
// recovery kernels (a handful of instructions in a freshly decoded
// library) run on it. The budget is charged per attempted instruction
// on both tiers — a trapped-and-resumed instruction consumes budget
// without retiring — so hang classifications and checkpoint cadences
// are identical whichever loop executes. Hook-installation state is
// re-checked every iteration: a trap handler that installs a hook
// mid-run deopts Run to the Step loop at the next block boundary.
func (c *CPU) Run(limit uint64) RunStatus {
	if c.Status == StatusLimit {
		// A budget pause is resumable (schedulers slice with it).
		c.Status = StatusRunning
	}
	var budget uint64 = math.MaxUint64
	if limit > 0 {
		budget = limit
	}
	for c.Status == StatusRunning {
		if budget == 0 {
			c.Status = StatusLimit
			break
		}
		if c.Tier != TierStep && !c.Hooked() {
			n, punt := c.runSuper(budget)
			budget -= n
			if !punt {
				continue
			}
			// The engine punted: run exactly one legacy Step for the
			// instruction at c.PC, then re-dispatch.
			if budget == 0 {
				c.Status = StatusLimit
				break
			}
		}
		budget--
		c.Step()
	}
	return c.Status
}

// Unblock marks a blocked CPU runnable again (after its collective
// completed).
func (c *CPU) Unblock() {
	if c.Status == StatusBlocked {
		c.Status = StatusRunning
	}
}

func boolWord(b bool) Word {
	if b {
		return 1
	}
	return 0
}

func cmpInt(cond Cond, a, b int64) bool {
	switch cond {
	case CondEQ:
		return a == b
	case CondNE:
		return a != b
	case CondLT:
		return a < b
	case CondLE:
		return a <= b
	case CondGT:
		return a > b
	case CondGE:
		return a >= b
	}
	return false
}

func cmpFloat(cond Cond, a, b float64) bool {
	switch cond {
	case CondEQ:
		return a == b
	case CondNE:
		return a != b
	case CondLT:
		return a < b
	case CondLE:
		return a <= b
	case CondGT:
		return a > b
	case CondGE:
		return a >= b
	}
	return false
}
